"""First- and second-order coherence analytics for two-mode probes.

Pair coherences are normal-ordered and normalized per mode,
g2_a = <adag^2 a^2>/nbar_a^2 and g2_ab = <adag bdag a b>/(nbar_a nbar_b).
When a mode is dark the denominator degenerates and the corresponding field
is UNDEFINED, represented as ``None`` and serialized as null; it is never
coerced to zero or infinity.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import ParameterError
from .fock import FockState, number_moments

#: Mode intensities below this leave g2 denominators undefined.
INTENSITY_FLOOR = 1e-9

#: Default absolute tolerance for declaring a probe path-symmetric.
PATH_SYMMETRY_TOL = 1e-8


class CoherenceReport(NamedTuple):
    """Intensities, pair coherences, and number moments of one probe state."""

    nbar_a: float
    nbar_b: float
    nbar: float
    g2_a: Optional[float]
    g2_b: Optional[float]
    g2_ab: Optional[float]
    var_na: float
    var_nb: float
    cov_nab: float
    path_symmetric: bool
    tol: float

    def as_dict(self) -> dict:
        return {
            "nbar_a": self.nbar_a,
            "nbar_b": self.nbar_b,
            "nbar": self.nbar,
            "g2_a": self.g2_a,
            "g2_b": self.g2_b,
            "g2_ab": self.g2_ab,
            "var_na": self.var_na,
            "var_nb": self.var_nb,
            "cov_nab": self.cov_nab,
            "path_symmetric": self.path_symmetric,
            "path_symmetry_tol": self.tol,
        }


def check_path_symmetry_tol(tol: float) -> None:
    """Raise ``ParameterError`` unless ``tol`` is a positive, finite :func:`analyze` tolerance."""
    if not 0 < tol < math.inf:
        raise ParameterError(f"path-symmetry tolerance must be positive and finite, got {tol!r}")


def analyze(state: FockState, tol: float = PATH_SYMMETRY_TOL) -> CoherenceReport:
    """Full coherence report for a normalized state.

    ``path_symmetric`` is true when the mode intensities and intra-mode pair
    coherences agree within ``tol`` (two dark modes also count as symmetric).
    """
    check_path_symmetry_tol(tol)
    moments = number_moments(state)
    nbar_a, nbar_b = moments.a, moments.b
    pairs_a, pairs_b = moments.aa, moments.bb  # <adag^2 a^2> = <n_a (n_a - 1)>
    cross = moments.ab  # <n_a n_b>

    var_na = pairs_a + nbar_a - nbar_a**2
    var_nb = pairs_b + nbar_b - nbar_b**2
    cov_nab = cross - nbar_a * nbar_b

    g2_a = pairs_a / nbar_a**2 if nbar_a >= INTENSITY_FLOOR else None
    g2_b = pairs_b / nbar_b**2 if nbar_b >= INTENSITY_FLOOR else None
    both_lit = nbar_a >= INTENSITY_FLOOR and nbar_b >= INTENSITY_FLOOR
    g2_ab = cross / (nbar_a * nbar_b) if both_lit else None

    if abs(nbar_a - nbar_b) < tol:
        if g2_a is not None and g2_b is not None:
            symmetric = abs(g2_a - g2_b) < tol
        else:
            symmetric = g2_a is None and g2_b is None
    else:
        symmetric = False

    return CoherenceReport(
        nbar_a=nbar_a,
        nbar_b=nbar_b,
        nbar=nbar_a + nbar_b,
        g2_a=g2_a,
        g2_b=g2_b,
        g2_ab=g2_ab,
        var_na=var_na,
        var_nb=var_nb,
        cov_nab=cov_nab,
        path_symmetric=symmetric,
        tol=tol,
    )
