"""Two-mode angular-momentum operators and interferometer unitaries.

The generators are Jx = (adag b + bdag a)/2, Jy = -i(adag b - bdag a)/2,
Jz = (adag a - bdag b)/2, and J0 = (adag a + bdag b)/2, so the total photon
number is 2*J0. They conserve total photon number, so each acts on the grid
as one Hermitian block per fixed-n sector; :func:`sector_generator_matrix` is
the package's only definition of them. Each complete sector carries a spin
n/2 representation.

A rotation exp(-i angle J_v) is written as Rz(alpha) Rx(beta) Rz(gamma),
with Euler angles read off its spin-1/2 element. Rz is a diagonal phase, and
Rx goes through the real eigenbasis of the Jx block, whose eigenvalues are
exactly k - n/2. That basis depends on the photon number n alone, so one
byte-bounded cache serves every axis and cutoff; a rotation about a new axis
runs no eigendecomposition. A sector above the cutoff, held only in part, is
rotated exactly and restricted to the cells the grid holds. A rotation on a
cutoff-c grid costs one O(c^2) scan for the occupied sectors plus a few real
matrix products per occupied sector, so a fixed-photon-number probe pays for
a single block. Jz is diagonal in the number basis, so its moments come from
the number moments of :mod:`mzi_qfi.fock`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
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


#: Byte budget of the cached Jx eigenbases. The basis of sector n takes
#: (n+1)(n//2+1) * 8 bytes, so the budget holds every sector up to n = 584 at
#: once, which covers every sector of a grid at the default cutoff ceiling.
BASIS_CACHE_BYTES = 256 * 2**20


def _jx_eigenbasis(n: int) -> np.ndarray:
    """Eigenvectors of Jx on the complete sector n for m = n/2 - n//2, ..., n/2.

    A real (n+1) x (n//2+1) array, column j for m = j + (n+1)//2 - n/2. The
    other half is implied: with P = diag((-1)^k), P Jx P = -Jx, so P maps the
    eigenvector of m to that of -m.
    """
    _, basis = np.linalg.eigh(sector_generator_matrix(n, n, X_AXIS).real)
    half = np.ascontiguousarray(basis[:, (n + 1) // 2 :])
    half.flags.writeable = False
    return half


class _BasisCache:
    """Jx eigenbases keyed by photon number alone, least recently used first out.

    ``resident_bytes`` never exceeds ``limit``: a basis larger than the limit
    is computed but not kept. ``misses`` counts the eigendecompositions run.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.resident_bytes = 0
        self.misses = 0
        self._bases: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, n: int) -> np.ndarray:
        with self._lock:
            basis = self._bases.get(n)
            if basis is not None:
                self._bases.move_to_end(n)
                return basis
        basis = _jx_eigenbasis(n)
        with self._lock:
            self.misses += 1
            if n not in self._bases and basis.nbytes <= self.limit:
                self._bases[n] = basis
                self.resident_bytes += basis.nbytes
                while self.resident_bytes > self.limit:
                    self.resident_bytes -= self._bases.popitem(last=False)[1].nbytes
        return basis


_jx_basis = _BasisCache(BASIS_CACHE_BYTES)


def _euler_angles(v: DirectionLike, angle: float) -> Tuple[float, float, float]:
    """(alpha, beta, gamma) with exp(-i angle J_v) = Rz(alpha) Rx(beta) Rz(gamma).

    Rz(t) = exp(-i t Jz) and Rx(t) = exp(-i t Jx). The angles are read off the
    spin-1/2 element, where both sides are equal as SU(2) matrices, so they
    are equal in every spin n/2 representation. The X axis gives
    alpha = gamma = 0, so a beam splitter is a single Rx.
    """
    d = _direction(v)
    s, c = math.sin(angle / 2), math.cos(angle / 2)
    # spin-1/2 element: [[cos(b/2) e^{i sigma}, -i sin(b/2) e^{i delta}], ...]
    # with sigma = (alpha + gamma)/2 and delta = (alpha - gamma)/2
    sigma = math.atan2(s * d.z, c)
    delta = math.atan2(d.y, d.x)
    beta = 2 * math.atan2(s * math.hypot(d.x, d.y), math.hypot(c, s * d.z))
    return sigma + delta, beta, sigma - delta


class _EulerRotation:
    """exp(-i angle J_v) = Rz(alpha) Rx(beta) Rz(gamma), tabulated by t = 2m.

    The tables cover every sector of a cutoff-c grid. ``cos[t]`` and
    ``sin[t]`` are w cos(beta t/2) and -i w sin(beta t/2) for t = 0..2c, with
    w = 2 for t > 0 and w = 1 for t = 0 (see :func:`_rotate_sector`), both
    complex so that they multiply complex vectors without a cast.
    ``left[t + offset]`` and ``right[t + offset]`` are exp(-i alpha t/2) and
    exp(-i gamma t/2) for t = -2c..2c, or None when that angle is 0.
    """

    __slots__ = ("cos", "sin", "left", "right", "offset")

    def __init__(self, v: DirectionLike, angle: float, cutoff: int) -> None:
        alpha, beta, gamma = _euler_angles(v, angle)
        m = np.arange(2 * cutoff + 1) / 2
        weight = np.where(m > 0, 2.0, 1.0)
        self.cos = (weight * np.cos(beta * m)).astype(np.complex128)
        self.sin = -1j * (weight * np.sin(beta * m))
        signed_m = np.arange(-2 * cutoff, 2 * cutoff + 1) / 2
        self.left = np.exp(-1j * alpha * signed_m) if alpha else None
        self.right = np.exp(-1j * gamma * signed_m) if gamma else None
        self.offset = 2 * cutoff


def _real_matmul(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` for a real matrix and a complex vector, as one real product."""
    pairs = np.ascontiguousarray(vector).view(np.float64).reshape(-1, 2)
    return (matrix @ pairs).view(np.complex128).ravel()


def _rotate_sector(
    n: int, ks: np.ndarray, amps: np.ndarray, rotation: _EulerRotation
) -> np.ndarray:
    """Rz(alpha) Rx(beta) Rz(gamma) on the amplitudes ``amps`` of |k, n-k>, k in ``ks``.

    ``ks`` is the run of k values the grid holds (see :func:`_sector_kvals`).
    Rz is a diagonal phase. Rx(beta) = O_n exp(-i beta Lambda) O_n^T, with the
    exact eigenvalues Lambda = k - n/2. The eigenvector o of m > 0 and P o,
    that of -m, contribute together 2 cos(beta m) (e e^T + d d^T) - 2i
    sin(beta m) (e d^T + d e^T), where e and d are the parts of o on even and
    odd k (m = 0 contributes e e^T + d d^T). So the even and odd cells are
    rotated by four real products with the cached half basis, and a coupling
    that parity forbids is exactly 0. A partial sector, whose ``ks`` leave out
    some of 0..n, uses the rows of the basis for the cells it holds: the exact
    spin n/2 rotation restricted to them.
    """
    start = 2 * ks[0] - n + rotation.offset  # t = 2m of the first cell
    phases = slice(start, start + 2 * len(ks) - 1, 2)
    if rotation.right is not None:
        amps = rotation.right[phases] * amps
    cos, sin = rotation.cos[n % 2 : n + 1 : 2], rotation.sin[n % 2 : n + 1 : 2]
    basis = _jx_basis(n)
    first = ks[0] % 2  # position in ks of the first even k
    even = basis[ks[0] + first : ks[-1] + 1 : 2]
    odd = basis[ks[0] + 1 - first : ks[-1] + 1 : 2]
    y_even = _real_matmul(even.T, amps[first::2])
    y_odd = _real_matmul(odd.T, amps[1 - first :: 2])
    out = np.empty_like(amps)
    out[first::2] = _real_matmul(even, cos * y_even + sin * y_odd)
    out[1 - first :: 2] = _real_matmul(odd, cos * y_odd + sin * y_even)
    if rotation.left is not None:
        out *= rotation.left[phases]
    return out


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
    """exp(-i angle J_v)|state>, applied sector by sector as Rz Rx Rz.

    One O(c^2) scan finds the sectors that hold a nonzero amplitude; only
    those are rotated, each through the Euler angles of the rotation and the
    real Jx eigenbasis of its photon number, which one cache shares across
    every axis and cutoff. A sector counts as occupied when any amplitude in
    it is nonzero, however small its weight, since an amplitude whose square
    underflows still rotates into the result.

    A sector above the cutoff, which the grid holds only in part, is rotated
    exactly and restricted to the cells the grid holds; the weight rotated off
    the grid is dropped. That weight is why the rotation requires negligible
    weight above the cutoff. The rotated vectors are renormalized together.
    """
    grid = state.amplitudes
    cutoff = state.cutoff
    totals = _photon_totals(cutoff)[_nonzero_cells(grid)]
    occupied = np.flatnonzero(np.bincount(totals)).tolist()
    if occupied and occupied[-1] > cutoff:
        excess = weight_above_cutoff(state)
        if excess >= 1e-12:
            raise TruncationOverflowError(
                f"weight {excess:.3e} sits above cutoff {cutoff}; "
                "enlarge the grid before rotating"
            )
    rotation = _EulerRotation(v, angle, cutoff)
    ks = [_sector_kvals(n, cutoff) for n in occupied]
    rows = np.concatenate(ks)
    cols = np.concatenate([n - k for n, k in zip(occupied, ks)])
    rotated = np.concatenate(
        [_rotate_sector(n, k, grid[k, n - k], rotation) for n, k in zip(occupied, ks)]
    )
    out = np.zeros_like(grid)
    out[rows, cols] = rotated / np.linalg.norm(rotated)
    return FockState(out, cutoff, state.truncation_loss)


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
