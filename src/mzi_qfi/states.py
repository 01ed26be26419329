"""Constructors for the interferometer probe-state families.

Each family is one :class:`Family` record: its name, its native parameter
(squeezing xi or chi, displacement alpha, photon count n) and that parameter's
validator, its builder, and the map from a target mean photon number to the
parameter. ``build``, the nbar solve and the CLI read only these records, so
a new family is one record here plus its published row in ``catalog.TABLE1``.

Continuous families invert their exact untruncated mean in closed form;
fixed-photon-number families round to the nearest attainable photon total.
Squeezed families use closed-form single-mode amplitudes, the two-mode squeezed
vacuum its geometric number-correlated form, coherent probes Poisson
amplitudes; fixed-photon-number families are assembled from basis kets and the
beam splitter.

Automatic cutoff selection picks the smallest per-mode cutoff whose discarded
probability is below the loss target, subject to the configurable ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ParameterError, TruncationLossError, UnattainableTargetError
from .fock import (
    DEFAULT_LOSS_CEILING,
    FockState,
    cutoff_ceiling,
    make_fock,
    number_moments,
)
from .schwinger import beam_splitter

ParamValue = Union[int, float, complex]


@dataclass(frozen=True)
class ProbeSpec:
    """A probe family plus its native parameters and cutoff policy.

    ``cutoff=None`` selects the cutoff automatically (smallest grid meeting
    the loss target); an explicit cutoff is used as given and may fail if it
    cannot hold the state.
    """

    family: str
    params: Dict[str, ParamValue] = field(default_factory=dict)
    cutoff: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}; choose one of {', '.join(FAMILIES)}"
            )
        if self.cutoff is not None and self.cutoff < 0:
            raise ParameterError("explicit cutoff must be non-negative")


def _squeezing(family: Family, value: ParamValue) -> float:
    if isinstance(value, complex):
        if value.imag != 0:
            raise ParameterError(f"complex squeezing is not supported, got {family.key}={value!r}")
        value = value.real
    value = float(value)
    if value < 0:
        raise ParameterError(f"squeezing must be non-negative, got {family.key}={value!r}")
    return value


def _displacement(family: Family, value: ParamValue) -> complex:
    return complex(value)


def _photon_count(family: Family, value: ParamValue) -> int:
    if not float(value).is_integer():
        raise ParameterError(f"family {family.name!r} needs an integer n, got {value!r}")
    n = int(value)
    if n < family.min_n:
        raise ParameterError(f"family {family.name!r} needs n >= {family.min_n}, got {n}")
    return n


# ---------------------------------------------------------------------------
# single-mode amplitude vectors (closed forms)
# ---------------------------------------------------------------------------


def squeezed_vacuum_vector(xi: float, dim: int) -> np.ndarray:
    """Amplitudes of exp(i xi (adag^2 + a^2)/2)|0> on levels 0..dim-1.

    Even levels only: c_{2m} = (i tanh xi)^m sqrt((2m)!)/(2^m m!) / sqrt(cosh xi),
    generated by the stable ratio recurrence.
    """
    v = np.zeros(dim, dtype=np.complex128)
    c = 1.0 / math.sqrt(math.cosh(xi))
    v[0] = c
    t = 1j * math.tanh(xi)
    m = 0
    while 2 * (m + 1) < dim:
        c = c * t * math.sqrt((2 * m + 1) * (2 * m + 2)) / (2 * (m + 1))
        m += 1
        v[2 * m] = c
    return v


def squeezed_one_vector(xi: float, dim: int) -> np.ndarray:
    """Amplitudes of the squeezer applied to |1>, via S adag Sdag = cosh adag + i sinh a."""
    v0 = squeezed_vacuum_vector(xi, dim + 1)
    levels = np.arange(dim, dtype=float)
    raised = np.zeros(dim, dtype=np.complex128)
    raised[1:] = np.sqrt(levels[1:]) * v0[: dim - 1]
    lowered = np.sqrt(levels + 1) * v0[1 : dim + 1]
    return math.cosh(xi) * raised + 1j * math.sinh(xi) * lowered


def coherent_vector(beta: complex, dim: int) -> np.ndarray:
    """Poisson amplitudes of |beta> on levels 0..dim-1."""
    v = np.zeros(dim, dtype=np.complex128)
    c = math.exp(-abs(beta) ** 2 / 2)
    v[0] = c
    for n in range(1, dim):
        c = c * beta / math.sqrt(n)
        v[n] = c
    return v


# ---------------------------------------------------------------------------
# family grid builders: cutoff -> (grid, truncation loss)
# ---------------------------------------------------------------------------


def _loss_of(grid: np.ndarray) -> float:
    return max(0.0, 1.0 - float(np.sum(np.abs(grid) ** 2)))


def _grid_twin_squeezed(xi: float, cutoff: int) -> Tuple[np.ndarray, float]:
    v = squeezed_vacuum_vector(xi, cutoff + 1)
    grid = np.outer(v, v)
    return grid, _loss_of(grid)


def _grid_tmsv(chi: float, cutoff: int) -> Tuple[np.ndarray, float]:
    n = np.arange(cutoff + 1)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[n, n] = np.tanh(chi) ** n / np.cosh(chi)
    return grid, _loss_of(grid)


def _split_photon_amplitudes() -> Tuple[complex, complex]:
    """Arm amplitudes (u, v) of one photon behind the first splitter.

    Derived from beam_splitter itself so the composed families inherit its
    phase convention; with the exp(-i pi/2 Jx) splitter, (u, v) =
    (1, -i)/sqrt(2).
    """
    split = beam_splitter(make_fock(1, 0, 1), "first").amplitudes
    return complex(split[1, 0]), complex(split[0, 1])


def _grid_coherent(alpha: complex, cutoff: int) -> Tuple[np.ndarray, float]:
    # Probe inside the interferometer for coherent light injected into port a:
    # the splitter maps |alpha, 0> to the product |u alpha, v alpha>.
    u, v = _split_photon_amplitudes()
    grid = np.outer(
        coherent_vector(u * alpha, cutoff + 1), coherent_vector(v * alpha, cutoff + 1)
    )
    return grid, _loss_of(grid)


def _grid_entangled_coherent(alpha: complex, cutoff: int) -> Tuple[np.ndarray, float]:
    # (|alpha,0> + |0,alpha>)/sqrt(2(1 + e^{-|alpha|^2})), normalized exactly
    # including the vacuum overlap of the two branches.
    v = coherent_vector(alpha, cutoff + 1)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[:, 0] += v
    grid[0, :] += v
    grid /= math.sqrt(2.0 * (1.0 + math.exp(-abs(alpha) ** 2)))
    return grid, _loss_of(grid)


def _grid_amplified_bell(xi: float, cutoff: int) -> Tuple[np.ndarray, float]:
    # Per-mode squeezers on the split single photon u|1,0> + v|0,1>, expanded
    # term by term so the closed-form squeezed vectors keep full precision.
    u, v = _split_photon_amplitudes()
    v0 = squeezed_vacuum_vector(xi, cutoff + 1)
    v1 = squeezed_one_vector(xi, cutoff + 1)
    grid = u * np.outer(v1, v0) + v * np.outer(v0, v1)
    return grid, _loss_of(grid)


def _auto_cutoff(
    grid_at: Callable[[int], Tuple[np.ndarray, float]],
    loss_target: float,
    ceiling: int,
) -> Tuple[np.ndarray, float, int]:
    """Smallest cutoff with loss below target: geometric bracket, then bisection."""
    lo, hi = -1, 8
    while True:
        grid, loss = grid_at(min(hi, ceiling))
        if loss < loss_target:
            hi = min(hi, ceiling)
            break
        if hi >= ceiling:
            raise TruncationLossError(
                f"cutoff ceiling {ceiling} leaves truncation loss {loss:.3e} "
                f"above the {loss_target:.1e} target"
            )
        lo = hi
        hi = hi * 2
    best = (grid, loss, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        grid, loss = grid_at(mid)
        if loss < loss_target:
            hi, best = mid, (grid, loss, mid)
        else:
            lo = mid
    return best


def _fixed_n_state(j: int, k: int, cutoff: Optional[int], split: bool) -> FockState:
    total = j + k
    n_cut = total if cutoff is None else cutoff
    state = make_fock(j, k, n_cut)
    return beam_splitter(state, "first") if split else state


def _noon_state(n: int, cutoff: Optional[int]) -> FockState:
    n_cut = n if cutoff is None else cutoff
    grid = np.zeros((n_cut + 1, n_cut + 1), dtype=np.complex128)
    if n > n_cut:
        raise ParameterError(f"cutoff {n_cut} cannot hold a {n}-photon branch")
    grid[n, 0] = grid[0, n] = 1 / math.sqrt(2)
    return FockState(grid, n_cut, 0.0)


#: Loss target for automatic cutoff selection. Tighter than the construction
#: ceiling because second moments amplify tail mass by the squared cutoff, and
#: reported quantities must be stable to 1e-8 under cutoff doubling.
AUTO_LOSS_TARGET = 1e-14


# ---------------------------------------------------------------------------
# solving native parameters from a target mean photon number
# ---------------------------------------------------------------------------


def _squeezing_for_nbar(pairs: float) -> float:
    """xi with sinh^2 xi = pairs."""
    return math.asinh(math.sqrt(pairs))


def _amplified_bell_xi(nbar: float) -> float:
    """xi with 1 + 4 sinh^2 xi = nbar; the bare split photon already carries one."""
    if nbar < 1:
        raise UnattainableTargetError(
            f"family 'amplified-bell' cannot reach mean photon number {nbar!r} (minimum is 1)"
        )
    return _squeezing_for_nbar((nbar - 1) / 4)


def _entangled_coherent_alpha(nbar: float) -> float:
    """|alpha| with x / (1 + e^{-x}) = nbar for x = |alpha|^2, by bisection.

    The mean is increasing in x and lies in [x/2, x), so x is bracketed by
    [nbar, 2 nbar]; halving runs until the bracket holds no float between
    its ends.
    """
    lo, hi = nbar, 2.0 * nbar
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.sqrt(hi)
        if mid / (1.0 + math.exp(-mid)) < nbar:
            lo = mid
        else:
            hi = mid


def mean_photon_number(state: FockState) -> float:
    moments = number_moments(state, order=1)
    return moments.a.real + moments.b.real


def _nearest_count(family: Family, nbar: float) -> int:
    """n whose photon total, linear in n, is nearest the target.

    The smallest n holding a photon also serves targets down to half a photon
    below its total.
    """
    offset = family.photons(0)
    n_min = family.min_n if family.photons(family.min_n) > 0 else family.min_n + 1
    n_exact = (nbar - offset) / (family.photons(1) - offset)
    if n_exact < n_min - 0.5:
        raise UnattainableTargetError(
            f"family {family.name!r} cannot reach mean photon number {nbar!r} "
            f"(minimum is {family.photons(n_min):g})"
        )
    return max(int(round(n_exact)), n_min)


def _solve_for_nbar(
    name: str, nbar: float
) -> Tuple[Dict[str, ParamValue], float, Optional[FockState]]:
    """Parameters, realized nbar, and the auto-cutoff state built to measure it.

    The state is ``None`` for fixed-photon-number families, whose realized
    value needs no build.
    """
    if name not in _BY_NAME:
        raise ParameterError(f"unknown family {name!r}")
    if not nbar > 0:
        raise UnattainableTargetError(f"target mean photon number must be positive, got {nbar!r}")
    if nbar == math.inf:
        raise UnattainableTargetError(f"target mean photon number must be finite, got {nbar!r}")
    family = _BY_NAME[name]
    if family.photons is not None:
        n = _nearest_count(family, nbar)
        return {"n": n}, float(family.photons(n)), None
    params: Dict[str, ParamValue] = {family.key: family.param_for_nbar(nbar)}
    state = build(ProbeSpec(name, params))
    return params, mean_photon_number(state), state


def solve_param_for_nbar(family: str, nbar: float) -> Tuple[Dict[str, ParamValue], float]:
    """Parameters hitting the target mean photon number, plus the realized value.

    Continuous families invert their exact untruncated mean (2 sinh^2 xi,
    2 sinh^2 chi, 1 + 4 sinh^2 xi, |alpha|^2, |alpha|^2 / (1 + e^{-|alpha|^2}))
    and report the mean of the state built from the result, which raises
    ``TruncationLossError`` when that state does not fit under the cutoff
    ceiling. Integer families round to the nearest attainable value and report
    it.
    """
    params, realized, _ = _solve_for_nbar(family, nbar)
    return params, realized


def build_for_nbar(
    family: str, nbar: float, cutoff: Optional[int] = None
) -> Tuple[FockState, Dict[str, ParamValue], float]:
    """Solve for the target and build, returning the state, parameters and realized nbar.

    Without an explicit cutoff the state built during the solve is returned
    as it is; with one, the solve still runs (and can still fail) first.
    """
    params, realized, state = _solve_for_nbar(family, nbar)
    if state is None or cutoff is not None:
        state = build(ProbeSpec(family, params, cutoff))
    return state, params, realized


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """How to build one probe family and solve its parameter from a target nbar.

    ``key`` names the native parameter and ``check(family, value)`` validates
    it. A fixed-photon-number family builds with ``state(n, cutoff)``, exact
    at any cutoff that holds it; ``photons(n)`` is the total photon number of
    that state and ``min_n`` the smallest n it builds. A continuous family
    gives ``grid(value, cutoff)``, the grid and truncation loss at a cutoff,
    and ``param_for_nbar``, the closed-form inverse of its untruncated mean.

    A named tuple rather than a frozen dataclass: the class is made at import,
    where the dataclass machinery would add about 1 ms to every CLI start.
    """

    name: str
    key: str
    check: Callable[[Family, ParamValue], ParamValue]
    min_n: int = 0
    photons: Optional[Callable[[int], int]] = None
    state: Optional[Callable[[int, Optional[int]], FockState]] = None
    grid: Optional[Callable[[ParamValue, int], Tuple[np.ndarray, float]]] = None
    param_for_nbar: Optional[Callable[[float], float]] = None


#: Every family, in the order of the benchmark table.
_REGISTRY = (
    Family("twin-squeezed-vacuum", "xi", _squeezing, grid=_grid_twin_squeezed,
           param_for_nbar=lambda nbar: _squeezing_for_nbar(nbar / 2)),
    Family("twin-fock", "n", _photon_count, photons=lambda n: 2 * n,
           state=lambda n, cutoff: _fixed_n_state(n, n, cutoff, split=True)),
    Family("entangled-coherent", "alpha", _displacement, grid=_grid_entangled_coherent,
           param_for_nbar=_entangled_coherent_alpha),
    Family("noon", "n", _photon_count, min_n=1, photons=lambda n: n, state=_noon_state),
    Family("amplified-bell", "xi", _squeezing, grid=_grid_amplified_bell,
           param_for_nbar=_amplified_bell_xi),
    Family("fraternal-twin-fock", "n", _photon_count, photons=lambda n: 2 * n + 1,
           state=lambda n, cutoff: _fixed_n_state(n + 1, n, cutoff, split=True)),
    Family("coherent", "alpha", _displacement, grid=_grid_coherent, param_for_nbar=math.sqrt),
    Family("separable-coherent-probe", "n", _photon_count, photons=lambda n: n,
           state=lambda n, cutoff: _fixed_n_state(n, 0, cutoff, split=True)),
    Family("two-mode-squeezed-vacuum", "chi", _squeezing, grid=_grid_tmsv,
           param_for_nbar=lambda nbar: _squeezing_for_nbar(nbar / 2)),
    Family("fock-pair", "n", _photon_count, photons=lambda n: 2 * n,
           state=lambda n, cutoff: _fixed_n_state(n, n, cutoff, split=False)),
)

_BY_NAME: Dict[str, Family] = {family.name: family for family in _REGISTRY}

FAMILIES = tuple(_BY_NAME)

#: Short names the CLI accepts, in the order its help lists them.
FAMILY_ALIASES = {
    "tsv": "twin-squeezed-vacuum",
    "tmsv": "two-mode-squeezed-vacuum",
    "ecs": "entangled-coherent",
}


def resolve_family(name: str) -> Family:
    """The record of a family, by its name or one of ``FAMILY_ALIASES``."""
    return _BY_NAME[FAMILY_ALIASES.get(name, name)]


def build(spec: ProbeSpec, loss_target: float = AUTO_LOSS_TARGET) -> FockState:
    """Construct the normalized probe state described by ``spec``."""
    family, params = _BY_NAME[spec.family], spec.params
    if set(params) != {family.key}:
        raise ParameterError(
            f"family {family.name!r} takes parameters {(family.key,)}, got {tuple(sorted(params))}"
        )
    value = family.check(family, params[family.key])
    if family.state is not None:
        return family.state(value, spec.cutoff)
    grid_at = lambda c: family.grid(value, c)
    if spec.cutoff is not None:
        grid, loss = grid_at(spec.cutoff)
        return FockState.from_grid(grid, loss, loss_ceiling=DEFAULT_LOSS_CEILING)
    grid, loss, _ = _auto_cutoff(grid_at, loss_target, cutoff_ceiling())
    return FockState.from_grid(grid, loss, loss_ceiling=max(loss_target, DEFAULT_LOSS_CEILING))
