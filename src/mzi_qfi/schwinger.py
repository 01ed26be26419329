"""Two-mode angular-momentum operators and interferometer unitaries.

The generators are Jx = (adag b + bdag a)/2, Jy = -i(adag b - bdag a)/2,
Jz = (adag a - bdag b)/2, and J0 = (adag a + bdag b)/2, so the total photon
number is 2*J0. They conserve total photon number, so each acts on the grid
as one Hermitian block per fixed-n sector; :func:`sector_generator_matrix` is
the package's only definition of them. Each complete sector carries a spin
n/2 representation. Rotations exp(-i angle J_v) exponentiate the blocks by
eigendecomposition. A rotation on a cutoff-c grid costs one O(c^2) scan for
the occupied sectors plus one block product per occupied sector, so a
fixed-photon-number probe pays for a single block. Jz is diagonal in the
number basis, so its moments come from the number moments of
:mod:`mzi_qfi.fock`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence, Tuple, Union

import numpy as np

from .errors import ParameterError, TruncationOverflowError
from .fock import FockState, number_moments

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


X_AXIS = SpinDirection(1.0, 0.0, 0.0)
Y_AXIS = SpinDirection(0.0, 1.0, 0.0)

DirectionLike = Union[SpinDirection, Sequence[float]]


def _direction(v: DirectionLike) -> SpinDirection:
    if isinstance(v, SpinDirection):
        return v
    return SpinDirection.from_sequence(v)


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > _J_IMAG_TOL:
        raise ParameterError(f"{what} has non-negligible imaginary part {value.imag!r}")
    return value.real


def jz_moments(state: FockState) -> Tuple[float, float]:
    """<Jz> and <Jz^2> from one set of number moments (five lowerings).

    With Jz = (n_a - n_b)/2, <Jz^2> = (<n_a^2> - 2 <n_a n_b> + <n_b^2>)/4, where
    <n^2> = <adag^2 a^2> + <adag a> is read from the normal-ordered moments.
    """
    moments = number_moments(state, 2)
    mean = _real((moments.a - moments.b) / 2, "<jz>")
    na2 = moments.aa + moments.a
    nb2 = moments.bb + moments.b
    return mean, _real((na2 - 2 * moments.ab + nb2) / 4, "<jz^2>")


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
