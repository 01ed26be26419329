"""Quantum Fisher information of a phase-encoded probe, by several routes.

The phase enters through exp(-i phi Jz), so for a pure probe the information
is F = 4 Var[Jz]. That variance route is normative; four validators are
computed alongside it:

  * mode route     - F = nbar + nbar_a^2 (g2_a - 1) + nbar_b^2 (g2_b - 1)
                     - 2 nbar_a nbar_b (g2_ab - 1), an algebraic identity
  * symmetric route - F = nbar + (nbar^2 / 2)(g2 - g2_ab), valid only for
                     path-symmetric probes
  * fidelity route - central differences of the phase-shifted state through
                     F = 4 (<dpsi|dpsi> - |<dpsi|psi>|^2), Richardson
                     extrapolated by default, from the probe's weight on
                     each difference d = j - k
  * particle route - n Var[sigma_z] + n(n-1) Cov[sigma_z, sigma_z] for
                     probes that occupy exactly one photon-number sector

Two routes agree when they differ by at most the sum of their own error
bounds: one rule for every pair, with no exception, and each bound derived,
none set by hand. Every route sums terms as large as <N^2> =
<(n_a + n_b)^2>, so each carries the round-off ``ROUTE_ROUNDOFF`` <N^2>,
whatever F is. The fidelity route adds the remainder of its Richardson
extrapolation and the error of the products that underflow in it, both
from its weight on each d (see :func:`_fidelity_bound`); the symmetric
route adds the bound of its premise error, which the measured asymmetry of
the probe gives and which is 0 for an exactly symmetric one. The raw
central difference claims no bound, so it agrees with every route: it is
outside the gate.

The report's verdicts are judged against the same round-off, B =
``ROUTE_ROUNDOFF`` <N^2>: the CRB is defined when f_variance > B, and the
probe is sub-shot-noise when f_variance - nbar > B. Values print as
computed; a value within B of zero is not rounded to it.

Undefined routes (dark modes, particle-number fluctuations) are ``None``
with a reason string; they never collapse to zero.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .coherence import CoherenceReport, analyze
from .errors import ParameterError
from .fock import _SMALLEST_NORMAL, ROUTE_ROUNDOFF, FockState, difference_weights, number_moments
from .particle import SectorDecomposition, _SectorTable, _sector_table, qfi_particle
from .schwinger import difference_phases, jz_moments

#: The smallest float, 2^-1074.
_ETA = math.ldexp(1.0, -1074)

#: The default fidelity step is this over the widest |j - k| the probe holds.
FIDELITY_STEP_SCALE = 0.02
#: The range of an explicit fidelity step; the default one is at most the largest.
MIN_FIDELITY_STEP = 1e-5
MAX_FIDELITY_STEP = 1e-2

class ScalingClass(NamedTuple):
    """How the information compares with the classical and Heisenberg benchmarks."""

    sub_shot_noise: bool
    ratio_shot_noise: float
    ratio_heisenberg: float

    def as_dict(self) -> dict:
        return {
            "sub_shot_noise": self.sub_shot_noise,
            "ratio_shot_noise": self.ratio_shot_noise,
            "ratio_heisenberg": self.ratio_heisenberg,
        }


class QfiReport(NamedTuple):
    """All computed routes plus their cross-validation summary.

    ``disagreements`` holds one record for each pair of routes that misses
    its allowance, the sum of the two routes' own error bounds (see the
    module), with ``routes`` (the pair's two values by name), the
    ``residual`` (the first, by name, minus the second), the ``allowance``
    and the ``fidelity_step`` the fidelity route took. It explains a report
    that is not ``routes_consistent`` and is not part of ``as_dict``.
    """

    f_variance: float
    f_mode: Optional[float]
    f_path_symmetric: Optional[float]
    f_fidelity: float
    f_particle: Optional[float]
    crb: Optional[float]
    scaling: Optional[ScalingClass]
    route_agreement: float
    routes_consistent: bool
    reasons: Dict[str, str]
    disagreements: Tuple[dict, ...] = ()

    def as_dict(self) -> dict:
        return {
            "f_variance": self.f_variance,
            "f_mode": self.f_mode,
            "f_path_symmetric": self.f_path_symmetric,
            "f_fidelity": self.f_fidelity,
            "f_particle": self.f_particle,
            "crb": self.crb,
            "scaling_class": self.scaling.as_dict() if self.scaling else None,
            "route_agreement": self.route_agreement,
            "routes_consistent": self.routes_consistent,
            "reasons": dict(sorted(self.reasons.items())),
        }


def qfi_variance(state: FockState) -> float:
    """Normative route: 4 (<Jz^2> - <Jz>^2)."""
    mean, square = jz_moments(state)
    return 4.0 * (square - mean**2)


def qfi_mode(report: CoherenceReport) -> Optional[float]:
    """Coherence-function route; undefined when any pair coherence is undefined."""
    if report.g2_a is None or report.g2_b is None or report.g2_ab is None:
        return None
    return (
        report.nbar
        + report.nbar_a**2 * (report.g2_a - 1.0)
        + report.nbar_b**2 * (report.g2_b - 1.0)
        - 2.0 * report.nbar_a * report.nbar_b * (report.g2_ab - 1.0)
    )


def qfi_path_symmetric(report: CoherenceReport) -> Optional[float]:
    """Symmetric-probe shortcut; undefined off the path-symmetric premise."""
    if not report.path_symmetric or report.g2_a is None or report.g2_ab is None:
        return None
    return report.nbar + (report.nbar**2 / 2.0) * (report.g2_a - report.g2_ab)


def _default_step(differences: np.ndarray) -> float:
    """``FIDELITY_STEP_SCALE`` over the widest of ``differences``, at most the largest step."""
    spread = int(np.abs(differences).max())
    return min(FIDELITY_STEP_SCALE / spread, MAX_FIDELITY_STEP) if spread else MAX_FIDELITY_STEP


def check_fidelity_step(step: Optional[float]) -> None:
    """Raise ``ParameterError`` unless ``step`` is ``None`` (the default) or lies in [1e-5, 1e-2]."""
    if step is not None and not MIN_FIDELITY_STEP <= step <= MAX_FIDELITY_STEP:
        raise ParameterError(f"fidelity step must lie in [1e-5, 1e-2], got {step!r}")


def _fidelity_bound(weights: np.ndarray, differences: np.ndarray, step: float) -> float:
    """How far the extrapolated fidelity route at ``step`` may err, but for its round-off.

    Truncation. The estimate at step h is E(h) = Var_p[g], with
    g(d) = (2/h) sin(hd/2) = d - h^2 d^3/24 + h^4 d^5/1920 - ..., so
    E(h) = Var d - (h^2/12) Cov(d, d^3) + h^4 C + O(h^6), with
    C = Var(d^3)/576 + Cov(d, d^5)/960. Richardson's (4 E(h/2) - E(h))/3
    (Richardson, Phil. Trans. R. Soc. A 210, 307, 1911) weighs the h^2k term
    of E by (4^(1-k) - 1)/3: 0 for k = 1, -1/4 for k = 2, and at most 1/3 in
    size from k = 3 on. Its error is then -(h^4/4) C, both of whose parts
    are >= 0, the second since d and d^5 increase together, plus a tail.
    Over pairs, Var_p[g] = (1/2) sum p(d) p(d') (g(d) - g(d'))^2, and
    |d^(2m+1) - d'^(2m+1)| <= (2m+1) |d - d'| D^2m with D = max|d|, so the
    h^2k coefficient of each square is at most (d - d')^2 D^2k / (2 (2k)!).
    Weighed by 1/3 and summed from k = 3 on, with y = h D and
    sum_{k>=3} y^2k/(2k)! <= y^6 cosh(y)/720, that is at most
    (d - d')^2 y^6 cosh(y)/4320, so the tail is at most
    Var_p(d) y^6 cosh(y)/4320. As g is 1-Lipschitz, each square lies in
    [0, (d - d')^2], so no step errs by more than 4/3 Var_p(d); the tail's
    bound passes that before y = 3, so the cosh of min(y, 3) bounds the same
    and never overflows. The moments are taken of x = hd, centred:
    h^4 Var(d^3) = Var(x^3)/h^2, and so on.

    Underflow. In Higham's model (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 2), a product or quotient that underflows
    errs by |eta| <= 2^-1075 more, and a sum that underflows is exact. Each
    estimate takes a product with p on each of its K held d, for
    <dpsi|dpsi> and for <dpsi|psi>; squaring the latter scales its K eta by
    2 |<dpsi|psi>| <= 4 and adds one more, so the difference errs by
    (5K + 1) eta, and its quotient by h^2 by (5K + 1) eta / h^2 + eta. The
    extrapolation weighs the estimate at h/2 by 4/3 and that at h by 1/3,
    and its division by 3 adds one eta: (17/3) (5K + 1) eta / h^2 +
    (8/3) eta in all, here with eta taken as 2^-1074, the smallest float,
    above 2^-1075.
    """
    x = step * differences
    dx = x - (weights * x).sum()
    squares = x * x
    cubes = squares * x
    fifths = cubes * squares
    var = (weights * np.square(dx)).sum()
    leading = ((weights * np.square(cubes - (weights * cubes).sum())).sum() / 576
               + (weights * dx * (fifths - (weights * fifths).sum())).sum() / 960) / 4
    y = step * float(np.abs(differences).max())
    tail = var * y**6 * math.cosh(min(y, 3.0)) / 4320
    truncation = float(min(leading + tail, 4.0 / 3.0 * var)) / (step * step)
    underflow = (17.0 * (5 * len(weights) + 1) / (3.0 * step * step) + 8.0 / 3.0) * _ETA
    return truncation + underflow


def _fidelity(
    state: FockState, step: Optional[float], richardson: bool
) -> Tuple[float, float, float]:
    """:func:`qfi_fidelity`, the step it took and its bound (:func:`_fidelity_bound`).

    The raw central difference claims no bound: it is infinite.
    """
    check_fidelity_step(step)
    weights = difference_weights(state)
    held = np.flatnonzero(weights)
    differences = state.cutoff - held
    weights = weights[held]
    if step is None:
        step = _default_step(differences)

    def estimate(h: float) -> float:
        delta = difference_phases(h, differences)  # 2h g(d)
        delta -= difference_phases(-h, differences)
        norm = float(((np.square(delta.real) + np.square(delta.imag)) * weights).sum())
        overlap = complex((delta.real * weights).sum(), -(delta.imag * weights).sum())
        return (norm - abs(overlap) ** 2) / (h * h)  # 4 (<dpsi|dpsi> - |<dpsi|psi>|^2)

    if not richardson:
        return estimate(step), step, math.inf
    coarse, fine = estimate(step), estimate(step / 2)
    return (4.0 * fine - coarse) / 3.0, step, _fidelity_bound(weights, differences, step)


def qfi_fidelity(
    state: FockState,
    step: Optional[float] = None,
    richardson: bool = True,
) -> float:
    """Finite-difference route around the phase origin.

    The derivative state is approximated by central differences of the exact
    phase shift; Richardson extrapolation over steps (h, h/2) cancels the
    leading O(h^2) error and is required at acceptance tolerances.

    :func:`mzi_qfi.schwinger.phase_shift` multiplies cell (j, k) by
    T_h(d) = exp(-i h d/2), d = j - k, from the table
    :func:`mzi_qfi.schwinger.difference_phases`. So the central difference is
    g(d) psi_jk with g(d) = (T_h(d) - T_-h(d))/2h, and with p(d) the weight
    of the cells on d (:func:`mzi_qfi.fock.difference_weights`),
    <dpsi|dpsi> = sum_d |g(d)|^2 p(d) and <dpsi|psi> = sum_d conj(g(d)) p(d).
    p is taken in the state's one read of its probabilities, with its number
    moments, and kept in the state, so a state that ``analyze`` has read is
    not read again. Each step then costs O(c), on the d where p(d) > 0: the
    sums, numpy's pairwise ones over the products of each d in order of d,
    are taken of
    T_h(d) - T_-h(d), and the estimate is divided by h^2 once. The route
    stays a difference of the phase evolution itself, not the closed form
    sin(hd/2), which would tie it to the variance route.

    By default h = ``FIDELITY_STEP_SCALE`` / max|d| over the d where
    p(d) > 0, at most 1e-2, and 1e-2 when only d = 0 holds weight: the error
    of the extrapolated difference grows like (h max|d|)^4 (its bound,
    :func:`_fidelity_bound`), so a fixed step loses accuracy on wide probes,
    and no floor holds h max|d| above 0.02. An explicit ``step`` must lie in
    [1e-5, 1e-2].
    """
    return _fidelity(state, step, richardson)[0]


def classify_scaling(f: float, nbar: float, bound: float) -> ScalingClass:
    """Ratios against the shot-noise and Heisenberg benchmarks.

    Sub-shot-noise when f - nbar exceeds ``bound``, to which ``build_report``
    passes its routes' round-off, ``ROUTE_ROUNDOFF`` <N^2>. The Heisenberg
    ratio is f / nbar^2, or f / nbar / nbar where nbar^2 underflows below the
    smallest normal float (nbar below about 1.5e-154), so a faint probe
    gets a ratio, not a division by zero; one too large for a float is
    infinite, written as null.
    """
    if nbar <= 0:
        raise ParameterError(f"scaling classification needs nbar > 0, got {nbar!r}")
    heisenberg = nbar**2
    return ScalingClass(
        sub_shot_noise=f - nbar > bound,
        ratio_shot_noise=f / nbar,
        ratio_heisenberg=f / heisenberg if heisenberg >= _SMALLEST_NORMAL else f / nbar / nbar,
    )


def _premise_bound(report: CoherenceReport) -> float:
    """A bound of f_mode - f_path_symmetric on a probe that ``analyze`` called symmetric.

    With e = (nbar_a - nbar_b)/2 and h = (g2_a - g2_b)/2 the difference is
    2 e^2 (g2_a + g2_ab - 2) - 2 h nbar_b^2 exactly, which is 0 when the
    probe is exactly symmetric.
    """
    e = (report.nbar_a - report.nbar_b) / 2.0
    h = (report.g2_a - report.g2_b) / 2.0
    return 2.0 * e * e * abs(report.g2_a + report.g2_ab - 2.0) + 2.0 * abs(h) * report.nbar_b**2


def build_report(
    state: FockState,
    coherence_report: Optional[CoherenceReport] = None,
    decomposition: Optional[Union[SectorDecomposition, _SectorTable]] = None,
    step: Optional[float] = None,
    richardson: bool = True,
) -> QfiReport:
    """Evaluate every route on one state and cross-validate them.

    ``decomposition`` is the state's sector decomposition or its sector table,
    from which the particle route reads; without one, the table is read here.
    """
    if coherence_report is None:
        coherence_report = analyze(state)
    # the particle route first, so that a sector table made here is not held
    # through the fidelity route
    f_particle = qfi_particle(_sector_table(state) if decomposition is None else decomposition)

    reasons: Dict[str, str] = {}
    f_variance = qfi_variance(state)
    f_mode = qfi_mode(coherence_report)
    if f_mode is None:
        reasons["f_mode"] = "pair coherence undefined on a dark mode"
    f_sym = qfi_path_symmetric(coherence_report)
    if f_sym is None:
        if not coherence_report.path_symmetric:
            reasons["f_path_symmetric"] = "probe is not path-symmetric"
        else:
            reasons["f_path_symmetric"] = "pair coherence undefined on a dark mode"
    f_fidelity, step, fidelity_bound = _fidelity(state, step, richardson)
    if not richardson:
        reasons["f_fidelity"] = (
            "raw central difference (exploratory); excluded from the consistency gate"
        )
    if f_particle is None:
        reasons["f_particle"] = "particle fluctuations present"

    # each route's round-off, from the moments the state keeps, judges the
    # verdicts; a pair of routes agrees within the sum of its two routes' bounds
    moments = number_moments(state)
    roundoff = ROUTE_ROUNDOFF * (moments.aa + moments.a + moments.bb + moments.b + 2.0 * moments.ab)
    crb = 1.0 / math.sqrt(f_variance) if f_variance > roundoff else None  # np.sqrt's bits
    if crb is None:
        reasons["crb"] = "information below floor; no finite phase bound"
    nbar = coherence_report.nbar
    scaling = classify_scaling(f_variance, nbar, roundoff) if nbar > 0 else None
    if scaling is None:
        reasons["scaling_class"] = "mean photon number is zero"

    routes = {name: value for name, value in (
        ("f_variance", f_variance), ("f_fidelity", f_fidelity), ("f_mode", f_mode),
        ("f_path_symmetric", f_sym), ("f_particle", f_particle)) if value is not None}
    bounds = dict.fromkeys(routes, roundoff)
    bounds["f_fidelity"] += fidelity_bound
    if f_sym is not None:
        bounds["f_path_symmetric"] += _premise_bound(coherence_report)

    names = sorted(routes)
    agreement = 0.0
    disagreements: List[dict] = []
    for i, name_a in enumerate(names):
        for name_b in names[i + 1 :]:
            a, b = routes[name_a], routes[name_b]
            agreement = max(agreement, abs(a - b))
            allowance = bounds[name_a] + bounds[name_b]
            if not abs(a - b) <= allowance:
                disagreements.append({
                    "routes": {name_a: a, name_b: b},
                    "residual": a - b,
                    "allowance": allowance,
                    "fidelity_step": step,
                })

    return QfiReport(
        f_variance=f_variance,
        f_mode=f_mode,
        f_path_symmetric=f_sym,
        f_fidelity=f_fidelity,
        f_particle=f_particle,
        crb=crb,
        scaling=scaling,
        route_agreement=agreement,
        routes_consistent=not disagreements,
        reasons=reasons,
        disagreements=tuple(disagreements),
    )


__all__ = [
    "FIDELITY_STEP_SCALE",
    "QfiReport",
    "ScalingClass",
    "build_report",
    "classify_scaling",
    "qfi_fidelity",
    "qfi_mode",
    "qfi_path_symmetric",
    "qfi_variance",
]
