"""Output checks applied to every benchmark request.

A request fails for one or more reasons: ``error-exit`` (an exception, or a
CLI exit code outside the documented set), ``route-disagreement`` (the QFI
routes disagree: ``routes_consistent`` false, CLI exit 2), ``wrong-value`` (a
reported number differs from what it must be) or ``nondeterministic`` (two
identical CLI invocations in one run differ byte for byte).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional

from mzi_qfi import catalog

#: Families whose native parameter is continuous, so a target nbar is hit exactly.
CONTINUOUS_FAMILIES = frozenset({
    "twin-squeezed-vacuum", "two-mode-squeezed-vacuum", "amplified-bell",
    "coherent", "entangled-coherent",
})

#: Match tolerances of the table1 audit's defaults.
CATALOG_ATOL = 1e-8
CATALOG_RTOL = 1e-6
NBAR_TOL = 1e-8
WEIGHTS_TOL = 1e-12

#: (family, cell) pairs that ``table1`` flags as MISMATCH at its default
#: target nbar 4: the entangled-coherent QFI form holds only asymptotically,
#: and the coherence forms below assume another nbar convention.
TABLE1_MISMATCHES = frozenset({
    ("twin-squeezed-vacuum", "g2"),
    ("entangled-coherent", "g2"),
    ("entangled-coherent", "qfi"),
    ("amplified-bell", "g2_ab"),
    ("two-mode-squeezed-vacuum", "g2"),
    ("two-mode-squeezed-vacuum", "g2_ab"),
})

#: (family, n) of the Fock-type probes whose fidelity route misses its
#: tolerance at this package version: the fixed finite-difference step is too
#: coarse once the spread of j - k reaches ~128 (see ROADMAP.md, correctness at
#: the edges of the range). Their route disagreements count into
#: ``failed_share``; any other route disagreement also fails the run's
#: correctness verdict.
KNOWN_ROUTE_DEFECTS = frozenset({
    ("twin-fock", 128), ("twin-fock", 200),
    ("fraternal-twin-fock", 128), ("fraternal-twin-fock", 200),
    ("noon", 200),
})


def _catalog_row(family: str):
    for row in catalog.TABLE1:
        if row.family == family:
            return row
    raise KeyError(family)


def qfi_matches_catalog(family: str, nbar: float, f_variance: float) -> bool:
    """True when the closed form is approximate or matches within table1's tolerances."""
    row = _catalog_row(family)
    if not row.exact:
        return True
    predicted = row.qfi(nbar)
    return abs(f_variance - predicted) <= CATALOG_ATOL + CATALOG_RTOL * abs(predicted)


def report_reasons(
    family: str,
    nbar: float,
    f_variance: float,
    routes_consistent: bool,
    weights_sum: Optional[float] = None,
    nbar_target: Optional[float] = None,
) -> List[str]:
    """Failure reasons for one analyze-style report (empty when it passes)."""
    reasons = []
    if not routes_consistent:
        reasons.append("route-disagreement")
    wrong = not qfi_matches_catalog(family, nbar, f_variance)
    if weights_sum is not None and abs(weights_sum - 1.0) > WEIGHTS_TOL:
        wrong = True
    if (nbar_target is not None and family in CONTINUOUS_FAMILIES
            and abs(nbar - nbar_target) > NBAR_TOL):
        wrong = True
    if wrong:
        reasons.append("wrong-value")
    return reasons


def known_route_defect(family: str, n: Optional[int]) -> bool:
    return (family, n) in KNOWN_ROUTE_DEFECTS


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------


def _exit_reasons(code: int, expected: int) -> List[str]:
    if code == expected:
        return []
    if code == 2:
        return ["route-disagreement"]
    return ["error-exit"]


def cli_reasons(argv: List[str], code: int, text: str) -> List[str]:
    """Failure reasons for one ``mzi-qfi`` invocation and its output text."""
    command = argv[0]
    reasons = _exit_reasons(code, 3 if command == "table1" else 0)
    if "error-exit" in reasons:
        return reasons
    try:
        if command == "analyze":
            reasons += _analyze_doc_reasons(json.loads(text), argv)
        elif command == "table1":
            reasons += _table1_doc_reasons(json.loads(text))
        else:
            reasons += _sweep_csv_reasons(text)
    except (ValueError, KeyError, TypeError):
        reasons.append("wrong-value")
    return sorted(set(reasons))


def _analyze_doc_reasons(doc: Dict, argv: List[str]) -> List[str]:
    probe = doc["probe"]
    return report_reasons(
        probe["family"], probe["nbar"], doc["qfi"]["f_variance"],
        True,  # the exit code already carries the route verdict
        doc["sectors"]["weights_sum"], float(argv[argv.index("--nbar") + 1]),
    )


def _table1_doc_reasons(doc: Dict) -> List[str]:
    flagged = {
        (row["family"], name)
        for row in doc["rows"]
        for name, cell in row["cells"].items()
        if cell["status"] == "MISMATCH"
    }
    return [] if flagged == TABLE1_MISMATCHES else ["wrong-value"]


def _sweep_csv_reasons(text: str) -> List[str]:
    reasons = []
    for row in csv.DictReader(io.StringIO(text)):
        if row["status"] != "ok":
            # documented: targets past the cutoff ceiling are annotated, not dropped
            if not row["status"].startswith("unattainable"):
                reasons.append("wrong-value")
            continue
        reasons += report_reasons(
            row["family"], float(row["nbar"]), float(row["qfi"]), True,
            nbar_target=float(row["nbar_target"]),
        )
    return reasons
