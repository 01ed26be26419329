"""Command-line front end: analyze probes, audit the benchmark table, sweep.

Exit codes: 0 success, 1 usage or input error, 2 route disagreement beyond
tolerance, 3 at least one MISMATCH against the closed-form catalog (table1).

Sweep CSV columns, in order: family, nbar_target, status, nbar, qfi, g2,
g2_ab, entropy, cov_sigma_z. UNDEFINED values are empty CSV cells and JSON
nulls.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Dict, List, Optional

from . import catalog, serialize
from .coherence import PATH_SYMMETRY_TOL, analyze
from .entanglement import SEPARABILITY_TOL, check_separability_tol, schmidt
from .errors import MziError, ParameterError
from .fock import FockState
from .particle import SectorDecomposition, decompose_sectors, sector_moments
from .qfi import DEFAULT_FIDELITY_STEP, build_report
from .states import FAMILIES, FAMILY_ALIASES, ProbeSpec, build, build_for_nbar, resolve_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ROUTE_DISAGREEMENT = 2
EXIT_TABLE_MISMATCH = 3

SCHEMA = "mzi-qfi/1"

_FAMILY_CHOICES = FAMILIES + tuple(FAMILY_ALIASES)
_FAMILY_HELP = ("probe family: " + ", ".join(FAMILIES)
                + " (aliases: " + ", ".join(FAMILY_ALIASES) + ")")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1.

    argparse reads an argument that starts with "-" as a flag unless it is a
    plain negative number, so ``--nbar -1,2`` or ``--nbar -inf`` would miss
    their value while ``--nbar=-1,2`` works. No option of this program looks
    like a number, so every argument that starts like one is read as a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        serialize.write_text_atomic(out, text)


def _render_plain(doc, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_plain(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_plain(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    else:
        lines.append(f"{pad}{_scalar(doc)}")
    return lines


def _scalar(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return serialize.fmt_float(value)
    return str(value)


def _format_doc(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return serialize.canonical_json(doc)
    return "\n".join(_render_plain(doc)) + "\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _probe_state(args) -> tuple[FockState, dict]:
    if args.state_file is not None:
        if args.family is not None:
            raise MziError("give either --family or --state-file, not both")
        state = serialize.read_state_file(args.state_file)
        info = {
            "family": None,
            "state_file": args.state_file,
            "params": {},
            "cutoff": state.cutoff,
            "truncation_loss": state.truncation_loss,
            "nbar_target": None,
        }
        return state, info

    if args.family is None:
        raise MziError("one of --family or --state-file is required")
    record = resolve_family(args.family)
    family, key = record.name, record.key
    provided = {
        flag: getattr(args, flag)
        for flag in ("n", "xi", "chi", "alpha")
        if getattr(args, flag) is not None
    }
    foreign = sorted(set(provided) - {key})
    if foreign:
        raise MziError(
            f"family {family!r} takes --{key}, not --" + ", --".join(foreign)
        )
    native = provided.get(key)
    if native is not None and args.nbar is not None:
        raise MziError(f"give either --{key} or --nbar, not both")
    if native is None and args.nbar is None:
        raise MziError(f"family {family!r} needs --{key} or --nbar")
    nbar_target = None
    if native is not None:
        params = {key: native}
        state = build(ProbeSpec(family, params, args.cutoff))
    else:
        nbar_target = args.nbar
        state, params, _ = build_for_nbar(family, args.nbar, args.cutoff)
    info = {
        "family": family,
        "state_file": None,
        "params": {k: serialize.complex_to_json(v) for k, v in params.items()},
        "cutoff": state.cutoff,
        "truncation_loss": state.truncation_loss,
        "nbar_target": nbar_target,
    }
    return state, info


def _sector_documents(decomposition: SectorDecomposition) -> dict:
    sectors = []
    for sector in decomposition.sectors:
        doc = {"n": sector.n, "weight": sector.weight}
        doc["particle"] = sector_moments(sector).as_dict() if sector.n >= 1 else None
        sectors.append(doc)
    return {"weights_sum": decomposition.weights_sum, "sectors": sectors}


def cmd_analyze(args) -> int:
    state, info = _probe_state(args)
    coherence = analyze(state, tol=args.path_tol)
    check_separability_tol(args.sep_tol)  # before the work that precedes schmidt
    decomposition = decompose_sectors(state)
    qfi_report = build_report(
        state,
        coherence,
        decomposition,
        step=args.fidelity_step,
        richardson=not args.raw_fidelity_difference,
    )
    info["nbar"] = coherence.nbar
    doc = {
        "schema": SCHEMA,
        "command": "analyze",
        "probe": info,
        "coherence": coherence.as_dict(),
        "qfi": qfi_report.as_dict(),
        "mode_entanglement": schmidt(state, tol=args.sep_tol).as_dict(),
        "sectors": _sector_documents(decomposition),
    }
    if args.dump_state is not None:
        serialize.write_state_file(state, args.dump_state)
    _emit(_format_doc(doc, args.format), args.out)
    return EXIT_OK if qfi_report.routes_consistent else EXIT_ROUTE_DISAGREEMENT


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def _cell(value: Optional[float], row: catalog.RowForms, which: str, nbar: float,
          atol: float, rtol: float) -> dict:
    predictor = getattr(row, which)
    formula = getattr(row, which + "_text")
    if value is None:
        return {"value": None, "formula": formula, "status": "NOT-APPLICABLE"}
    predicted = predictor(nbar)
    delta = value - predicted
    matched = abs(delta) <= atol + rtol * abs(predicted)
    doc = {
        "value": value,
        "predicted": predicted,
        "formula": formula,
        "delta": delta,
        "status": "MATCH" if matched else "MISMATCH",
    }
    if not matched:
        # alternative reading: the published formula with the per-mode mean
        alt_predicted = predictor(nbar / 2)
        alt_delta = value - alt_predicted
        doc["alt"] = {
            "convention": "per-mode nbar",
            "predicted": alt_predicted,
            "delta": alt_delta,
            "status": "MATCH" if abs(alt_delta) <= atol + rtol * abs(alt_predicted) else "MISMATCH",
        }
    else:
        doc["alt"] = None
    return doc


def _table1_row(row: catalog.RowForms, nbar_target: float, atol: float, rtol: float) -> dict:
    state, params, _ = build_for_nbar(row.family, nbar_target)
    coherence = analyze(state)
    qfi_report = build_report(state, coherence)
    nbar = coherence.nbar
    cells = {
        "g2": _cell(coherence.g2_a, row, "g2", nbar, atol, rtol),
        "g2_ab": _cell(coherence.g2_ab, row, "g2_ab", nbar, atol, rtol),
        "qfi": _cell(qfi_report.f_variance, row, "qfi", nbar, atol, rtol),
    }
    return {
        "family": row.family,
        "label": row.label,
        "params": {k: serialize.complex_to_json(v) for k, v in params.items()},
        "nbar_target": nbar_target,
        "nbar": nbar,
        "path_symmetric": coherence.path_symmetric,
        "forms_exact": row.exact,
        "cells": cells,
        "route_agreement": qfi_report.route_agreement,
        "routes_consistent": qfi_report.routes_consistent,
    }


def _table1_csv(doc: dict) -> str:
    columns = [
        "family", "nbar", "g2", "g2_predicted", "g2_status",
        "g2_ab", "g2_ab_predicted", "g2_ab_status",
        "qfi", "qfi_predicted", "qfi_status", "routes_consistent",
    ]
    rows = []
    for row in doc["rows"]:
        flat = {"family": row["family"], "nbar": row["nbar"],
                "routes_consistent": row["routes_consistent"]}
        for name in ("g2", "g2_ab", "qfi"):
            cell = row["cells"][name]
            flat[name] = cell.get("value")
            flat[name + "_predicted"] = cell.get("predicted")
            flat[name + "_status"] = cell["status"]
        rows.append(flat)
    return serialize.render_csv(columns, rows)


def cmd_table1(args) -> int:
    for flag, tol in (("atol", args.atol), ("rtol", args.rtol)):
        if not 0 <= tol < math.inf:
            raise ParameterError(f"--{flag} must be finite and non-negative, got {tol!r}")
    rows = [_table1_row(row, args.nbar, args.atol, args.rtol) for row in catalog.TABLE1]
    mismatches = sum(
        1 for row in rows for cell in row["cells"].values() if cell["status"] == "MISMATCH"
    )
    doc = {
        "schema": SCHEMA,
        "command": "table1",
        "nbar_target": args.nbar,
        "tolerance": {"atol": args.atol, "rtol": args.rtol},
        "rows": rows,
        "mismatch_count": mismatches,
    }
    text = _table1_csv(doc) if args.format == "csv" else _format_doc(doc, args.format)
    _emit(text, args.out)
    if not all(row["routes_consistent"] for row in rows):
        return EXIT_ROUTE_DISAGREEMENT
    return EXIT_TABLE_MISMATCH if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "family", "nbar_target", "status", "nbar", "qfi",
    "g2", "g2_ab", "entropy", "cov_sigma_z",
)


def _sweep_row(family: str, target: float) -> tuple[dict, bool]:
    row: Dict[str, object] = {"family": family, "nbar_target": target}
    try:
        state, _, _ = build_for_nbar(family, target)
    except MziError as exc:
        row["status"] = f"unattainable: {exc}"
        for column in SWEEP_COLUMNS[3:]:
            row[column] = None
        return row, True
    coherence = analyze(state)
    decomposition = decompose_sectors(state)
    qfi_report = build_report(state, coherence, decomposition)
    sector = decomposition.fixed_n_sector()
    cov = None
    if sector is not None and sector.n >= 1:
        cov = sector_moments(sector).cov_sigma_z
    row.update(
        status="ok",
        nbar=coherence.nbar,
        qfi=qfi_report.f_variance,
        g2=coherence.g2_a,
        g2_ab=coherence.g2_ab,
        entropy=schmidt(state).entropy,
        cov_sigma_z=cov,
    )
    return row, qfi_report.routes_consistent


def cmd_sweep(args) -> int:
    targets = []
    for piece in args.nbar.split(","):
        piece = piece.strip()
        if piece:
            try:
                targets.append(float(piece))
            except ValueError:
                raise MziError(f"bad --nbar entry {piece!r}; expected a number") from None
    if not targets:
        raise MziError("--nbar needs at least one value")
    family = resolve_family(args.family).name
    rows, all_consistent = [], True
    for target in targets:
        row, consistent = _sweep_row(family, target)
        rows.append(row)
        all_consistent = all_consistent and consistent
    if args.format == "json":
        doc = {"schema": SCHEMA, "command": "sweep", "family": family, "rows": rows}
        text = _format_doc(doc, "json")
    else:
        text = serialize.render_csv(SWEEP_COLUMNS, rows)
    _emit(text, args.out)
    return EXIT_OK if all_consistent else EXIT_ROUTE_DISAGREEMENT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(parser, formats, default) -> None:
    parser.add_argument("--format", choices=formats, default=default,
                        help=f"output format (default {default})")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH (atomically) instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mzi-qfi",
                     description="Two-mode interferometer probe analytics: coherence, "
                                 "phase information, and entanglement reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", parents=[], help="full report for one probe state",
                          description="Build a probe (or load a state file) and report "
                                      "coherence, phase information by every route, mode "
                                      "entanglement, and the sector decomposition.")
    p_an.add_argument("--family", choices=_FAMILY_CHOICES, default=None,
                      metavar="FAMILY", help=_FAMILY_HELP)
    p_an.add_argument("--n", type=int, default=None, help="photon count for integer families")
    p_an.add_argument("--xi", type=float, default=None, help="squeezing parameter")
    p_an.add_argument("--chi", type=float, default=None, help="two-mode squeezing parameter")
    p_an.add_argument("--alpha", type=complex, default=None, help="coherent displacement")
    p_an.add_argument("--nbar", type=float, default=None,
                      help="target mean photon number (solved per family)")
    p_an.add_argument("--state-file", metavar="PATH", default=None,
                      help="load the probe from a JSON state file instead of a family")
    p_an.add_argument("--cutoff", type=int, default=None, help="explicit per-mode cutoff")
    p_an.add_argument("--fidelity-step", type=float, default=DEFAULT_FIDELITY_STEP,
                      help="finite-difference step for the fidelity route")
    p_an.add_argument("--raw-fidelity-difference", action="store_true",
                      help="skip Richardson extrapolation (exploratory mode)")
    p_an.add_argument("--path-tol", type=float, default=PATH_SYMMETRY_TOL,
                      help="path-symmetry tolerance")
    p_an.add_argument("--sep-tol", type=float, default=SEPARABILITY_TOL,
                      help="separability tolerance on 1 - lambda_max")
    p_an.add_argument("--dump-state", metavar="PATH", default=None,
                      help="also write the built state to a JSON state file")
    _add_output_flags(p_an, ("json", "table"), "json")
    p_an.set_defaults(func=cmd_analyze)

    p_t1 = sub.add_parser("table1", help="audit every family against catalog closed forms",
                          description="Build each benchmark family near a target mean photon "
                                      "number and classify every g2 / g2_ab / qfi cell as "
                                      "MATCH or MISMATCH against the closed-form catalog. "
                                      "Mismatched cells also record the per-mode-nbar reading.")
    p_t1.add_argument("--nbar", type=float, default=4.0,
                      help="target mean photon number (integer families use nearest attainable)")
    p_t1.add_argument("--atol", type=float, default=1e-8, help="absolute match tolerance")
    p_t1.add_argument("--rtol", type=float, default=1e-6, help="relative match tolerance")
    _add_output_flags(p_t1, ("json", "csv", "table"), "json")
    p_t1.set_defaults(func=cmd_table1)

    p_sw = sub.add_parser("sweep", help="per-family sweep over mean photon numbers",
                          description="One output row per target mean photon number with "
                                      "columns: " + ", ".join(SWEEP_COLUMNS) + ". "
                                      "Unattainable targets are annotated, not dropped; "
                                      "UNDEFINED values are empty cells (null in JSON).")
    p_sw.add_argument("--family", choices=_FAMILY_CHOICES, required=True,
                      metavar="FAMILY", help=_FAMILY_HELP)
    p_sw.add_argument("--nbar", required=True, metavar="LIST",
                      help="comma-separated target mean photon numbers, e.g. 1,2,4,8")
    _add_output_flags(p_sw, ("csv", "json"), "csv")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MziError as exc:
        error_doc = {
            "schema": SCHEMA,
            "error": {"code": exc.code, "message": str(exc)},
        }
        sys.stderr.write(serialize.canonical_json(error_doc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
