"""Quantum Fisher information of a phase-encoded probe, by several routes.

The phase enters through exp(-i phi Jz), so for a pure probe the information
is F = 4 Var[Jz]. That variance route is normative; three validators are
computed alongside it:

  * mode route     - F = nbar + nbar_a^2 (g2_a - 1) + nbar_b^2 (g2_b - 1)
                     - 2 nbar_a nbar_b (g2_ab - 1), an algebraic identity
  * symmetric route - F = nbar + (nbar^2 / 2)(g2 - g2_ab), valid only for
                     path-symmetric probes
  * fidelity route - central differences of the phase-shifted state through
                     F = 4 (<dpsi|dpsi> - |<dpsi|psi>|^2), Richardson
                     extrapolated by default
  * particle route - n Var[sigma_z] + n(n-1) Cov[sigma_z, sigma_z] for
                     fixed-photon-number probes

Undefined routes (dark modes, particle-number fluctuations) are ``None``
with a reason string; they never collapse to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .coherence import CoherenceReport, analyze
from .errors import ParameterError
from .fock import FockState, vdot
from .particle import SectorDecomposition, decompose_sectors, qfi_particle
from .schwinger import jz_moments, phase_shift

#: Below this the information is treated as zero and the CRB is undefined.
CRB_FLOOR = 1e-12

#: Route-agreement tolerances (absolute, relative on the variance route).
MODE_ROUTE_ATOL = 1e-9
MODE_ROUTE_RTOL = 1e-9
FIDELITY_ROUTE_RTOL = 1e-6
FIDELITY_ROUTE_ATOL = 1e-9
PARTICLE_ROUTE_ATOL = 1e-9

DEFAULT_FIDELITY_STEP = 1e-3


@dataclass(frozen=True)
class ScalingClass:
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


@dataclass(frozen=True)
class QfiReport:
    """All computed routes plus their cross-validation summary."""

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


def qfi_fidelity(
    state: FockState,
    step: float = DEFAULT_FIDELITY_STEP,
    richardson: bool = True,
) -> float:
    """Finite-difference route around the phase origin.

    The derivative state is approximated by central differences of the exact
    phase shift; Richardson extrapolation over steps (h, h/2) cancels the
    leading O(h^2) error and is required at acceptance tolerances.

    Each difference is formed in one writable grid: a copy of the +h shifted
    grid, from which the -h shifted grid is subtracted and which is then
    divided by 2h, in place, each shifted state dropped once it is used. The
    base is the state's own grid, as exp(-i 0 Jz) is the identity. So the
    route holds at most two grids beside the state at a time, plus numpy's
    fixed-size ufunc buffers. Both inner products are
    :func:`mzi_qfi.fock.vdot`, which reads the grids in place.
    """
    if not 1e-5 <= step <= 1e-2:
        raise ParameterError(f"fidelity step must lie in [1e-5, 1e-2], got {step!r}")

    base = state.amplitudes

    def estimate(h: float) -> float:
        derivative = phase_shift(state, h).amplitudes.copy()
        derivative -= phase_shift(state, -h).amplitudes
        derivative /= 2.0 * h
        return 4.0 * (vdot(derivative, derivative).real - abs(vdot(derivative, base)) ** 2)

    if not richardson:
        return estimate(step)
    coarse, fine = estimate(step), estimate(step / 2)
    return (4.0 * fine - coarse) / 3.0


def classify_scaling(f: float, nbar: float) -> ScalingClass:
    """Ratios against the shot-noise and Heisenberg benchmarks."""
    if nbar <= 0:
        raise ParameterError(f"scaling classification needs nbar > 0, got {nbar!r}")
    return ScalingClass(
        sub_shot_noise=f > nbar + 1e-9,
        ratio_shot_noise=f / nbar,
        ratio_heisenberg=f / nbar**2,
    )


def _pair_ok(name_a: str, a: float, name_b: str, b: float) -> bool:
    delta = abs(a - b)
    pair = {name_a, name_b}
    if "f_fidelity" in pair:
        return delta <= FIDELITY_ROUTE_ATOL + FIDELITY_ROUTE_RTOL * abs(a)
    if "f_particle" in pair:
        return delta <= PARTICLE_ROUTE_ATOL
    return delta <= MODE_ROUTE_ATOL + MODE_ROUTE_RTOL * abs(a)


def build_report(
    state: FockState,
    coherence_report: Optional[CoherenceReport] = None,
    decomposition: Optional[SectorDecomposition] = None,
    step: float = DEFAULT_FIDELITY_STEP,
    richardson: bool = True,
) -> QfiReport:
    """Evaluate every route on one state and cross-validate them."""
    if coherence_report is None:
        coherence_report = analyze(state)
    # the particle route first, so that a decomposition made here is not held
    # through the fidelity route
    if decomposition is None:
        f_particle = qfi_particle(decompose_sectors(state))
    else:
        f_particle = qfi_particle(decomposition)

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
    f_fidelity = qfi_fidelity(state, step=step, richardson=richardson)
    if not richardson:
        reasons["f_fidelity"] = (
            "raw central difference (exploratory); excluded from the consistency gate"
        )
    if f_particle is None:
        reasons["f_particle"] = "particle fluctuations present"

    crb = 1.0 / np.sqrt(f_variance) if f_variance > CRB_FLOOR else None
    if crb is None:
        reasons["crb"] = "information below floor; no finite phase bound"
    scaling = classify_scaling(f_variance, coherence_report.nbar) if coherence_report.nbar > 0 else None
    if scaling is None:
        reasons["scaling_class"] = "mean photon number is zero"

    routes = {"f_variance": f_variance, "f_fidelity": f_fidelity}
    if f_mode is not None:
        routes["f_mode"] = f_mode
    if f_sym is not None:
        routes["f_path_symmetric"] = f_sym
    if f_particle is not None:
        routes["f_particle"] = f_particle

    names = sorted(routes)
    agreement = 0.0
    consistent = True
    for i, name_a in enumerate(names):
        for name_b in names[i + 1 :]:
            agreement = max(agreement, abs(routes[name_a] - routes[name_b]))
            if not richardson and "f_fidelity" in (name_a, name_b):
                continue  # the documented fidelity tolerance presumes extrapolation
            if not _pair_ok(name_a, routes[name_a], name_b, routes[name_b]):
                consistent = False

    return QfiReport(
        f_variance=f_variance,
        f_mode=f_mode,
        f_path_symmetric=f_sym,
        f_fidelity=f_fidelity,
        f_particle=f_particle,
        crb=crb,
        scaling=scaling,
        route_agreement=agreement,
        routes_consistent=consistent,
        reasons=reasons,
    )


__all__ = [
    "CRB_FLOOR",
    "DEFAULT_FIDELITY_STEP",
    "QfiReport",
    "ScalingClass",
    "build_report",
    "classify_scaling",
    "qfi_fidelity",
    "qfi_mode",
    "qfi_path_symmetric",
    "qfi_variance",
]
