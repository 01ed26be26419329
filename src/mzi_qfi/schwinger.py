"""Two-mode angular-momentum operators and interferometer unitaries.

The generators are Jx = (adag b + bdag a)/2, Jy = -i(adag b - bdag a)/2,
Jz = (adag a - bdag b)/2, and J0 = (adag a + bdag b)/2, so the total photon
number is 2*J0. Rotations exp(-i angle J_v) conserve total photon number and
act block-diagonally on the fixed-n sectors of the grid; each complete sector
carries a spin n/2 representation and is exponentiated by eigendecomposition
of its (n+1) x (n+1) Hermitian generator block. A rotation on a cutoff-c grid
costs one O(c^2) scan for the occupied sectors plus one block product per
occupied sector, so a fixed-photon-number probe pays for a single block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence, Tuple, Union

import numpy as np

from .errors import ParameterError, TruncationOverflowError
from .fock import FockState, LadderState, MomentSpec, apply_ladder, moment, number_moments

GeneratorTag = Literal["jx", "jy", "jz", "j0"]

_TAGS = ("jx", "jy", "jz", "j0")
_J_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class SpinDirection:
    """Unit vector in R^3 selecting the generator J_v = v . (Jx, Jy, Jz)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        nrm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(nrm - 1.0) > 1e-12:
            raise ParameterError(f"spin direction must be unit norm, got |v| = {nrm!r}")

    @classmethod
    def from_sequence(cls, v: Sequence[float]) -> "SpinDirection":
        vx, vy, vz = (float(c) for c in v)
        return cls(vx, vy, vz)

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)


X_AXIS = SpinDirection(1.0, 0.0, 0.0)
Y_AXIS = SpinDirection(0.0, 1.0, 0.0)
Z_AXIS = SpinDirection(0.0, 0.0, 1.0)

DirectionLike = Union[SpinDirection, Sequence[float]]


def _direction(v: DirectionLike) -> SpinDirection:
    if isinstance(v, SpinDirection):
        return v
    return SpinDirection.from_sequence(v)


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > _J_IMAG_TOL:
        raise ParameterError(f"{what} has non-negligible imaginary part {value.imag!r}")
    return value.real


def j_moment(state: FockState, tag: GeneratorTag, order: int) -> float:
    """First or second moment of a Schwinger generator, <J> or <J^2>.

    Expanded into normal-ordered mode moments, e.g.
    Jx^2 = (adag^2 b^2 + bdag^2 a^2 + 2 n_a n_b + n_a + n_b)/4. Jz and J0 need
    only the diagonal number moments, which come from one shared core.
    """
    if tag not in _TAGS:
        raise ParameterError(f"unknown generator tag {tag!r}")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order!r}")

    if tag in ("jz", "j0"):
        moments = number_moments(state, order)
        if order == 1:
            value = (moments.a - moments.b) / 2 if tag == "jz" else (moments.a + moments.b) / 2
            return _real(value, f"<{tag}>")
        na2 = moments.aa + moments.a  # <n_a^2> from the normal-ordered factorial moment
        nb2 = moments.bb + moments.b
        if tag == "jz":
            value = (na2 - 2 * moments.ab + nb2) / 4
        else:
            value = (na2 + 2 * moments.ab + nb2) / 4
        return _real(value, f"<{tag}^2>")

    def m(p: int, q: int, r: int, s: int) -> complex:
        return moment(state, MomentSpec(p, q, r, s))

    if order == 1:
        if tag == "jx":
            value = (m(1, 0, 0, 1) + m(0, 1, 1, 0)) / 2
        else:  # jy
            value = -1j * (m(1, 0, 0, 1) - m(0, 1, 1, 0)) / 2
        return _real(value, f"<{tag}>")

    na = m(1, 1, 0, 0)
    nb = m(0, 0, 1, 1)
    nanb = m(1, 1, 1, 1)
    if tag == "jx":
        value = (m(2, 0, 0, 2) + m(0, 2, 2, 0) + 2 * nanb + na + nb) / 4
    else:  # jy
        value = (-m(2, 0, 0, 2) - m(0, 2, 2, 0) + 2 * nanb + na + nb) / 4
    return _real(value, f"<{tag}^2>")


def apply_generator(state: FockState, tag: GeneratorTag) -> LadderState:
    """Unnormalized vector J|psi>, used for algebra checks via inner products."""
    if tag not in _TAGS:
        raise ParameterError(f"unknown generator tag {tag!r}")
    if tag in ("jz", "j0"):
        j = np.arange(state.dim, dtype=float)[:, None]
        k = np.arange(state.dim, dtype=float)[None, :]
        weight = (j - k) / 2 if tag == "jz" else (j + k) / 2
        return LadderState(weight * state.amplitudes, state.cutoff)
    adag_b = apply_ladder(apply_ladder(state, "b", "lower"), "a", "raise").amplitudes
    bdag_a = apply_ladder(apply_ladder(state, "a", "lower"), "b", "raise").amplitudes
    if tag == "jx":
        return LadderState((adag_b + bdag_a) / 2, state.cutoff)
    return LadderState(-0.5j * (adag_b - bdag_a), state.cutoff)


@lru_cache(maxsize=None)
def _sector_kvals(n: int, cutoff: int) -> np.ndarray:
    ks = np.arange(max(0, n - cutoff), min(n, cutoff) + 1)
    ks.flags.writeable = False
    return ks


def sector_generator_matrix(n: int, cutoff: int, v: DirectionLike) -> np.ndarray:
    """Hermitian block of v . J on the total-photon-number-n sector.

    Basis kets are |k, n-k> for the k values that fit inside the grid; for
    n <= cutoff this is the complete spin n/2 representation.
    """
    d = _direction(v)
    ks = _sector_kvals(n, cutoff)
    size = len(ks)
    h = np.zeros((size, size), dtype=np.complex128)
    np.fill_diagonal(h, d.z * (ks - n / 2))
    if size > 1:
        kl = ks[:-1].astype(float)
        coupling = np.sqrt((kl + 1) * (n - kl)) / 2  # <k+1, n-k-1| adag b |k, n-k>
        off = (d.x - 1j * d.y) * coupling
        h[np.arange(1, size), np.arange(size - 1)] = off
        h[np.arange(size - 1), np.arange(1, size)] = np.conj(off)
    return h


@lru_cache(maxsize=2048)
def _sector_eig(n: int, cutoff: int, vx: float, vy: float, vz: float):
    h = sector_generator_matrix(n, cutoff, SpinDirection(vx, vy, vz))
    evals, evecs = np.linalg.eigh(h)
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


@lru_cache(maxsize=4)
def _photon_totals(cutoff: int) -> np.ndarray:
    """Total photon number j + k of every cell of a grid with this cutoff."""
    levels = np.arange(cutoff + 1)
    totals = levels[:, None] + levels[None, :]
    totals.flags.writeable = False
    return totals


def _nonzero_cells(grid: np.ndarray) -> np.ndarray:
    """``grid != 0`` for a complex grid, about six times faster at cutoff 400.

    Compares the real and imaginary parts as one float array, then reads each
    cell's pair of booleans as one 16-bit word, which is nonzero when either
    part is (so -0.0 counts as zero and NaN as nonzero, as for ``!=``).
    """
    parts = np.ascontiguousarray(grid).view(np.float64) != 0
    return parts.view(np.uint16) != 0


def weight_above_cutoff(state: FockState) -> float:
    """Probability carried by sectors with total photon number above the cutoff."""
    return float(np.sum(state.probabilities()[_photon_totals(state.cutoff) > state.cutoff]))


def apply_rotation(state: FockState, v: DirectionLike, angle: float) -> FockState:
    """exp(-i angle J_v)|state>, applied sector by sector.

    One O(c^2) scan finds the sectors that hold a nonzero amplitude; only
    those are rotated, each by one product with its cached eigenbasis. A
    sector counts as occupied when any amplitude in it is nonzero, however
    small its weight, since an amplitude whose square underflows still
    rotates into the result.

    Requires negligible weight on sectors above the cutoff, where the grid
    holds only part of the spin representation and the rotation would be
    distorted.
    """
    d = _direction(v)
    grid = state.amplitudes
    totals = _photon_totals(state.cutoff)[_nonzero_cells(grid)]
    occupied = np.flatnonzero(np.bincount(totals)).tolist()
    if occupied and occupied[-1] > state.cutoff:
        excess = weight_above_cutoff(state)
        if excess >= 1e-12:
            raise TruncationOverflowError(
                f"weight {excess:.3e} sits above cutoff {state.cutoff}; "
                "enlarge the grid before rotating"
            )
    out = np.zeros_like(grid)
    for n in occupied:
        ks = _sector_kvals(n, state.cutoff)
        amps = grid[ks, n - ks]
        evals, evecs = _sector_eig(n, state.cutoff, d.x, d.y, d.z)
        out[ks, n - ks] = evecs @ (np.exp(-1j * angle * evals) * (evecs.conj().T @ amps))
    return FockState.from_grid(out, state.truncation_loss)


def beam_splitter(state: FockState, which: Literal["first", "second"] = "first") -> FockState:
    """Balanced beam splitter: exp(-i pi/2 Jx) for the first, its inverse for the second."""
    if which == "first":
        return apply_rotation(state, X_AXIS, math.pi / 2)
    if which == "second":
        return apply_rotation(state, X_AXIS, -math.pi / 2)
    raise ParameterError(f"which must be 'first' or 'second', got {which!r}")


def phase_shift(state: FockState, phi: float) -> FockState:
    """exp(-i phi Jz)|state>: multiply amplitude (j, k) by exp(-i phi (j-k)/2).

    Diagonal in the number basis, hence exact at any cutoff.
    """
    j = np.arange(state.dim)[:, None]
    k = np.arange(state.dim)[None, :]
    phases = np.exp(-1j * phi * (j - k) / 2)
    return FockState(phases * state.amplitudes, state.cutoff, state.truncation_loss)


def mzi_unitary(state: FockState, phi: float) -> FockState:
    """Full interferometer second BS . phase shift . first BS = exp(-i phi Jy)."""
    return apply_rotation(state, Y_AXIS, phi)
