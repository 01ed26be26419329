"""Deterministic report serialization and the documented state-file format.

JSON documents are rendered by a small canonical writer: insertion-ordered
keys, floats at 17 significant digits (enough to round-trip doubles bit for
bit), UNDEFINED values and non-finite floats (which JSON cannot spell) as
null. Identical inputs therefore produce byte-identical output. A list of
dicts that share one sequence of keys, such as sector documents and table
rows, is written a column at a time into one ``%``-template of that shape,
with the bytes the value-by-value writer gives. Files are
written to a temporary sibling and renamed, so failures never leave partial
output behind.

State files hold one amplitude entry per occupied basis ket:

    {"cutoff": N, "amplitudes": [{"ja": j, "jb": k, "re": x, "im": y}, ...]}
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import warnings
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CutoffExceededError, NormalizationError, StateFileError
from .fock import FockState, check_addressable, squared_norm


class NormalizationWarning(UserWarning):
    """A state file needed renormalization beyond round-off."""


def fmt_float(value: float) -> str:
    return "%.17g" % value


@functools.lru_cache(maxsize=1024)
def _key_prefix(key: str) -> str:
    """``"key": `` for a key that is exactly a ``str``, once per key."""
    return encode_basestring_ascii(key) + ": "


def _object(items, pad: str) -> str:
    """The ``(key, value)`` pairs ``items`` as a JSON object, its last brace indented by ``pad``.

    A finite float is formatted here, with no call of :func:`_json`
    (``x - x`` is 0.0 for a finite float alone).
    """
    inner = pad + "  "
    lines = [inner + (_key_prefix(key) if type(key) is str else json.dumps(str(key)) + ": ")
             + ("%.17g" % value if type(value) is float and value - value == 0.0
                else _json(value, inner)) for key, value in items]
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}" if lines else "{}"


@functools.lru_cache(maxsize=64)
def _row_template(keys: tuple, codes: tuple, pad: str) -> str:
    """The ``%``-template of a dict whose keys, all exactly ``str``, are ``keys``, in order:
    :func:`_object`'s lines with the ``codes`` of its values, its last brace indented by ``pad``."""
    inner = pad + "  "
    lines = [inner + _key_prefix(key).replace("%", "%%") + code for key, code in zip(keys, codes)]
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


_BOOL_TEXT = {True: "true", False: "false"}


def _column(values: tuple, pad: str) -> tuple:
    """A ``%``-code and the values it formats as :func:`_json` writes ``values``, a column of
    rows indented by ``pad``.

    Finite floats alone take ``%.17g`` and ints alone ``%d``, as they are;
    any other column takes ``%s`` and its texts: bools alone one lookup each,
    dicts, beside any None, :func:`_rows`, and the rest :func:`_json`.
    """
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return "%.17g", values
    if kinds == {int}:
        return "%d", values
    if kinds == {bool}:
        return "%s", list(map(_BOOL_TEXT.__getitem__, values))
    if dict in kinds and kinds <= {dict, type(None)}:
        rendered = _rows([value for value in values if value is not None], pad)
        if rendered is not None:
            texts = iter(rendered)
            return "%s", ["null" if value is None else next(texts) for value in values]
    return "%s", [_json(value, pad) for value in values]


def _rows(rows: list, pad: str):
    """:func:`_object` of each of ``rows``, its last brace indented by ``pad``, or None.

    Rows that are all exactly dicts with one nonempty sequence of keys, each
    exactly a ``str``, such as sector documents and table rows, are written
    through one template (:func:`_row_template`), its codes those of their
    columns (:func:`_column`); any others, or rows that hold a value no JSON
    type spells, are None, so that the value-by-value writer raises about
    the first such value.
    """
    if set(map(type, rows)) != {dict}:
        return None
    shapes = set(map(tuple, rows))
    keys = shapes.pop()
    if shapes or not keys or set(map(type, keys)) != {str}:
        return None
    try:
        codes, columns = zip(*[_column(column, pad + "  ")
                               for column in zip(*map(dict.values, rows))])
    except TypeError:
        return None
    return list(map(_row_template(keys, codes, pad).__mod__, zip(*columns)))


def _array(values, pad: str) -> str:
    """``values`` as a JSON array, its closing bracket indented by ``pad``; a list of dicts of
    one shape through :func:`_rows`."""
    inner = pad + "  "
    rows = _rows(values, inner) if values and type(values[0]) is dict else None
    if rows is not None:
        return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + pad + "]"
    lines = [inner + _json(value, inner) for value in values]
    return "[\n" + ",\n".join(lines) + "\n" + pad + "]" if lines else "[]"


def _json(obj, pad: str) -> str:
    """``obj`` as canonical JSON, the lines inside its brackets indented by ``pad`` plus two spaces.

    Values of exactly the JSON types take a test of their type each; any
    other value, such as a numpy scalar, a tuple or another ``Mapping``, is
    written by :func:`_json_other`.
    """
    kind = type(obj)
    if kind is float:
        return "%.17g" % obj if math.isfinite(obj) else "null"
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is dict:
        return _object(obj.items(), pad)
    if kind is list:
        return _array(obj, pad)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    return _json_other(obj, pad)


def _json_other(obj, pad: str) -> str:
    """:func:`_json` of a value not exactly of a JSON type: ints, floats, strings and
    containers by ``isinstance``, so numpy scalars, tuples and other ``Mapping``s too."""
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj)) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Mapping):
        return _object(obj.items(), pad)
    if isinstance(obj, (list, tuple)):
        return _array(obj, pad)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return _json(obj, "") + "\n"


def canonical_json_line(obj) -> str:
    """:func:`canonical_json` on one line: each line's indent dropped, the lines joined by spaces.

    No line break sits inside a value, as ``json.dumps`` escapes one in a string.
    """
    return " ".join(line.lstrip() for line in canonical_json(obj).splitlines()) + "\n"


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


def _is_int(value: object) -> bool:
    """A JSON integer: ``json`` reads true and false as ``bool``, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def state_from_document(doc: object, origin: str = "<state>") -> FockState:
    if not isinstance(doc, dict):
        raise StateFileError(f"{origin}: top level must be an object")
    try:
        cutoff = doc["cutoff"]
        entries = doc["amplitudes"]
    except KeyError as exc:
        raise StateFileError(f"{origin}: missing required key {exc}") from exc
    if not _is_int(cutoff) or cutoff < 0:
        raise StateFileError(f"{origin}: cutoff must be a non-negative integer")
    if not isinstance(entries, list) or not entries:
        raise StateFileError(f"{origin}: amplitudes must be a non-empty list")

    try:
        check_addressable(cutoff)
        grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    except MemoryError as exc:
        raise StateFileError(f"{origin}: cannot allocate a grid of cutoff {cutoff}") from exc
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict) or not {"ja", "jb", "re", "im"} <= set(entry):
            raise StateFileError(f"{origin}: each amplitude needs keys ja, jb, re, im")
        j, k = entry["ja"], entry["jb"]
        if not _is_int(j) or not _is_int(k) or j < 0 or k < 0:
            raise StateFileError(f"{origin}: ja/jb must be non-negative integers")
        real, imag = entry["re"], entry["im"]
        # a float may be NaN or infinite: the norm check below rejects those
        if not all(_is_int(part) or isinstance(part, float) for part in (real, imag)):
            raise StateFileError(f"{origin}: re/im must be numbers")
        if j > cutoff or k > cutoff:
            raise CutoffExceededError(f"{origin}: index ({j}, {k}) exceeds cutoff {cutoff}")
        if (j, k) in seen:
            raise StateFileError(f"{origin}: duplicate amplitude entry for ({j}, {k})")
        seen.add((j, k))
        try:
            grid[j, k] = complex(float(real), float(imag))
        except OverflowError as exc:  # an integer beyond the float range
            raise StateFileError(f"{origin}: re/im must lie within the float range") from exc

    norm = math.sqrt(squared_norm(grid))
    if norm == 0.0:
        raise NormalizationError(f"{origin}: amplitudes have zero norm")
    deviation = abs(norm - 1.0)
    # "not <=" so that a NaN norm (a NaN amplitude) is rejected too
    if not deviation <= 1e-6 * (1 + 1e-7):  # hair of slack so a stored 1e-6 edge passes
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
