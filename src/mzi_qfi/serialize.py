"""Deterministic report serialization and the documented state-file format.

JSON documents are rendered by a small canonical writer: insertion-ordered
keys, floats at 17 significant digits (enough to round-trip doubles bit for
bit), UNDEFINED values and non-finite floats (which JSON cannot spell) as
null. Identical inputs therefore produce byte-identical output. Files are
written to a temporary sibling and renamed, so failures never leave partial
output behind.

State files hold one amplitude entry per occupied basis ket:

    {"cutoff": N, "amplitudes": [{"ja": j, "jb": k, "re": x, "im": y}, ...]}
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from typing import Iterable, List, Mapping, Sequence

import numpy as np

from .errors import CutoffExceededError, NormalizationError, StateFileError
from .fock import FockState


class NormalizationWarning(UserWarning):
    """A state file needed renormalization beyond round-off."""


def fmt_float(value: float) -> str:
    return "%.17g" % value


def _render(obj, pieces: List[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(fmt_float(float(obj)) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, Mapping):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f'{pad}  {json.dumps(str(key))}: ')
            _render(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(obj):
            pieces.append(pad + "  ")
            _render(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    pieces: List[str] = []
    _render(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def render_csv(columns: Sequence[str], rows: Iterable[Mapping]) -> str:
    """Fixed-column CSV with canonical float formatting; None becomes an empty cell."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return fmt_float(float(value))
        text = str(value)
        if any(ch in text for ch in ",\"\n"):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary sibling file and rename, never leaving partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def complex_to_json(value) -> object:
    """Complex parameters as {"re", "im"}; reals stay plain numbers."""
    if isinstance(value, complex):
        if value.imag == 0:
            return value.real
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------


def state_to_document(state: FockState) -> dict:
    entries = []
    grid = state.amplitudes
    for j in range(state.dim):
        for k in range(state.dim):
            amp = grid[j, k]
            if amp != 0:
                entries.append({"ja": j, "jb": k, "re": amp.real, "im": amp.imag})
    return {"cutoff": state.cutoff, "amplitudes": entries}


def write_state_file(state: FockState, path: str) -> None:
    write_text_atomic(path, canonical_json(state_to_document(state)))


def read_state_file(path: str) -> FockState:
    """Load a state file, renormalizing (with a warning) small norm deviations.

    Norm deviations beyond 1e-6 are rejected; deviations beyond 1e-10 are
    renormalized and reported through :class:`NormalizationWarning`.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file {path!r} is not valid JSON: {exc}") from exc
    return state_from_document(doc, origin=path)


def state_from_document(doc: object, origin: str = "<state>") -> FockState:
    if not isinstance(doc, dict):
        raise StateFileError(f"{origin}: top level must be an object")
    try:
        cutoff = doc["cutoff"]
        entries = doc["amplitudes"]
    except KeyError as exc:
        raise StateFileError(f"{origin}: missing required key {exc}") from exc
    if not isinstance(cutoff, int) or cutoff < 0:
        raise StateFileError(f"{origin}: cutoff must be a non-negative integer")
    if not isinstance(entries, list) or not entries:
        raise StateFileError(f"{origin}: amplitudes must be a non-empty list")

    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict) or not {"ja", "jb", "re", "im"} <= set(entry):
            raise StateFileError(f"{origin}: each amplitude needs keys ja, jb, re, im")
        j, k = entry["ja"], entry["jb"]
        if not isinstance(j, int) or not isinstance(k, int) or j < 0 or k < 0:
            raise StateFileError(f"{origin}: ja/jb must be non-negative integers")
        if j > cutoff or k > cutoff:
            raise CutoffExceededError(f"{origin}: index ({j}, {k}) exceeds cutoff {cutoff}")
        if (j, k) in seen:
            raise StateFileError(f"{origin}: duplicate amplitude entry for ({j}, {k})")
        seen.add((j, k))
        grid[j, k] = complex(float(entry["re"]), float(entry["im"]))

    norm = float(np.linalg.norm(grid))
    if norm == 0.0:
        raise NormalizationError(f"{origin}: amplitudes have zero norm")
    deviation = abs(norm - 1.0)
    if deviation > 1e-6 * (1 + 1e-7):  # hair of slack so a stored 1e-6 edge passes
        raise NormalizationError(
            f"{origin}: norm {norm!r} deviates from 1 beyond the 1e-6 acceptance window"
        )
    if deviation > 1e-10:
        warnings.warn(
            f"{origin}: norm {norm!r} renormalized to 1", NormalizationWarning, stacklevel=2
        )
    if deviation <= 1e-12:
        # already valid: keep the stored bits so round trips are exact
        return FockState(grid, cutoff, 0.0)
    return FockState(grid / norm, cutoff, 0.0)
