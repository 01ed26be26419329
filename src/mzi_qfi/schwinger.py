"""Two-mode angular-momentum operators and interferometer unitaries.

The generators are Jx = (adag b + bdag a)/2, Jy = -i(adag b - bdag a)/2,
Jz = (adag a - bdag b)/2, and J0 = (adag a + bdag b)/2, so the total photon
number is 2*J0. They conserve total photon number, so each acts on the grid
as one Hermitian block per fixed-n sector; :func:`sector_generator_matrix` is
the package's only definition of them. Each complete sector carries a spin
n/2 representation. The sector layout is read from :mod:`mzi_qfi.fock`.

A rotation exp(-i angle J_v) is written as Rz(alpha) Rx(beta) Rz(gamma),
with Euler angles read off its spin-1/2 element. Rz is a diagonal phase, and
Rx goes through the real eigenbasis of the Jx block, whose eigenvalues are
exactly k - n/2. That basis depends on the photon number n alone, so one
byte-bounded cache serves every axis and cutoff; a rotation about a new axis
runs no eigendecomposition. A sector above the cutoff, held only in part, is
rotated exactly and restricted to the cells the grid holds. A rotation on a
cutoff-c grid costs one O(c^2) scan for the occupied sectors, one vectorized
pass over their cells (gather, both Rz phases, the cos/sin mixing, the norm
and the scatter; the mixing in blocks of at most ``MIX_COLUMNS`` columns),
and four real matrix products per occupied sector, so a fixed-photon-number
probe pays for a single block. Jz is diagonal in the number basis, so its
moments come from the number moments of :mod:`mzi_qfi.fock`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Literal, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, TruncationOverflowError
from .fock import (
    FockState,
    SectorLayout,
    number_moments,
    occupied_sectors,
    photon_totals,
    sector_kets,
    sector_layout,
)


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


def jz_moments(state: FockState) -> Tuple[float, float]:
    """<Jz> and <Jz^2> from one set of number moments.

    With Jz = (n_a - n_b)/2, <Jz^2> = (<n_a^2> - 2 <n_a n_b> + <n_b^2>)/4, where
    <n^2> = <adag^2 a^2> + <adag a> is read from the normal-ordered moments.
    """
    moments = number_moments(state, 2)
    na2 = moments.aa + moments.a
    nb2 = moments.bb + moments.b
    return (moments.a - moments.b) / 2, (na2 - 2 * moments.ab + nb2) / 4


def sector_generator_matrix(n: int, cutoff: int, v: DirectionLike) -> np.ndarray:
    """Hermitian block of v . J on the total-photon-number-n sector.

    Basis kets are |k, n-k> for the k values that fit inside the grid; for
    n <= cutoff this is the complete spin n/2 representation.
    """
    d = _direction(v)
    ks = sector_kets(n, cutoff)
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

    The tables cover every sector with photon number n <= ``top``, whose cells
    all have |t| <= n. ``cos[t]`` and ``sin[t]`` are w cos(beta t/2) and -i w
    sin(beta t/2) for t = 0..top, with w = 2 for t > 0 and w = 1 for t = 0
    (see :func:`apply_rotation`), both complex so that they multiply complex
    vectors without a cast. ``left[t + offset]`` and ``right[t + offset]`` are
    exp(-i alpha t/2) and exp(-i gamma t/2) for t = -top..top, or None when
    that angle is 0. Each entry is the same whatever ``top`` is.
    """

    __slots__ = ("cos", "sin", "left", "right", "offset")

    def __init__(self, v: DirectionLike, angle: float, top: int) -> None:
        alpha, beta, gamma = _euler_angles(v, angle)
        m = np.arange(top + 1) / 2
        weight = np.where(m > 0, 2.0, 1.0)
        beta_m = beta * m
        self.cos = (weight * np.cos(beta_m)).astype(np.complex128)
        self.sin = -1j * (weight * np.sin(beta_m))
        self.left = self.right = None
        if alpha or gamma:
            signed_m = np.arange(-top, top + 1) / 2
            self.left = np.exp(-1j * alpha * signed_m) if alpha else None
            self.right = np.exp(-1j * gamma * signed_m) if gamma else None
        self.offset = top


#: Half-basis columns mixed in one pass. It bounds the temporaries of a
#: rotation however many sectors it rotates.
MIX_COLUMNS = 2048


def _pairs(vector: np.ndarray) -> np.ndarray:
    """A contiguous complex vector as a (size, 2) float view, for real matrix products."""
    return vector.view(np.float64).reshape(-1, 2)


def apply_rotation(state: FockState, v: DirectionLike, angle: float) -> FockState:
    """exp(-i angle J_v)|state>, applied sector by sector as Rz Rx Rz.

    Only the occupied sectors (:func:`mzi_qfi.fock.occupied_sectors`) are
    rotated, each through the Euler angles of the rotation and the real Jx
    eigenbasis of its photon number, which one cache shares across every axis
    and cutoff. An amplitude whose square underflows still occupies its sector,
    since it rotates into the result.

    Rz is a diagonal phase. Rx(beta) = O_n exp(-i beta Lambda) O_n^T, with the
    exact eigenvalues Lambda = k - n/2. The eigenvector o of m > 0 and P o,
    that of -m, contribute together 2 cos(beta m) (e e^T + d d^T) - 2i
    sin(beta m) (e d^T + d e^T), where e and d are the parts of o on even and
    odd k (m = 0 contributes e e^T + d d^T). So the even and odd cells of a
    sector are rotated by four real products with the cached half basis, and
    a coupling that parity forbids is exactly 0. Every other step, from the
    gather of the cells to the scatter of the result, is one pass over the
    cells of all occupied sectors (:func:`mzi_qfi.fock.sector_layout`); the
    cos/sin mixing between the products is one pass per ``MIX_COLUMNS``
    columns of projections.

    A sector above the cutoff, which the grid holds only in part, uses the
    rows of the basis for the cells it holds: the exact spin n/2 rotation
    restricted to them. The weight rotated off the grid is dropped. That
    weight is why the rotation requires negligible weight above the cutoff.
    The rotated vectors are renormalized together.
    """
    grid = state.amplitudes
    cutoff = state.cutoff
    occupied = occupied_sectors(grid)
    if occupied[-1] > cutoff:
        excess = float(np.sum(state.probabilities()[photon_totals(cutoff) > cutoff]))
        if excess >= 1e-12:
            raise TruncationOverflowError(
                f"weight {excess:.3e} sits above cutoff {cutoff}; "
                "enlarge the grid before rotating"
            )
    rotation = _EulerRotation(v, angle, occupied[-1])
    layout = sector_layout(occupied, cutoff)
    rotated = _rotate_runs(grid, layout, rotation)
    if rotation.left is not None:
        rotated *= rotation.left[_phase_index(layout, rotation)]
    real, imag = rotated.real, rotated.imag  # np.linalg.norm's sum, without its dispatch
    rotated /= math.sqrt(real.dot(real) + imag.dot(imag))
    out = np.zeros_like(grid)
    out[layout.rows, layout.cols] = rotated
    return FockState(out, cutoff, state.truncation_loss)


def _phase_index(layout: SectorLayout, rotation: _EulerRotation) -> np.ndarray:
    """Where each laid-out cell, at t = 2m = 2k - n, reads the rotation's Rz tables."""
    index = layout.rows - layout.cols
    index += rotation.offset
    return index


def _parity_blocks(
    grid: np.ndarray, layout: SectorLayout, rotation: _EulerRotation
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The laid-out cells after Rz(gamma), the even-k cells of every run first, then the odd-k.

    Returns the layout positions of the even-k and of the odd-k cells, then
    their amplitudes, in which the cells of one parity of a run are contiguous.
    The gathered cells are dropped on return, so they take no memory while the
    sectors are rotated.
    """
    rows = layout.rows
    amps = layout.take(grid)
    if rotation.right is not None:
        np.multiply(rotation.right[_phase_index(layout, rotation)], amps, out=amps)
    at_even, at_odd = (~rows & 1).nonzero()[0], (rows & 1).nonzero()[0]
    return at_even, at_odd, amps[at_even], amps[at_odd]


def _rotate_runs(grid: np.ndarray, layout: SectorLayout, rotation: _EulerRotation) -> np.ndarray:
    """Rx(beta) Rz(gamma) on the cells of ``layout``, returned in layout order.

    The cells of one parity of a run are one contiguous operand of its real
    products (see :func:`_parity_blocks`).
    """
    at_even, at_odd, evens, odds = _parity_blocks(grid, layout, rotation)
    even_pairs, odd_pairs = _pairs(evens), _pairs(odds)
    # The projections on the half bases, n//2 + 1 columns per run, of the even
    # cells in row 0: room for every run, or for a block of runs and the widest.
    columns = sum(layout.sectors) // 2 + len(layout.sectors)
    widest = layout.sectors[-1] // 2 + 1
    y = np.empty((2, min(columns, max(MIX_COLUMNS, widest))), dtype=np.complex128)
    y_even, y_odd = y.view(np.float64).reshape(2, -1, 2)
    block = []  # the runs whose projections sit in y
    e = o = h = 0  # where the run's even cells, odd cells and columns start
    offsets = layout.offsets
    for n, low, start, stop in zip(layout.sectors, layout.lows, offsets, offsets[1:]):
        h_end = h + n // 2 + 1
        if h_end > y.shape[1]:
            _finish(block, y[:, :h], rotation)
            block, h, h_end = [], 0, n // 2 + 1
        basis = _jx_basis(n)
        top, first = low + stop - start, low + low % 2  # one past the last k, the first even k
        even, odd = basis[first:top:2], basis[2 * low + 1 - first : top : 2]
        e_end, o_end = e + len(even), o + len(odd)
        even_cells, odd_cells = even_pairs[e:e_end], odd_pairs[o:o_end]
        even_y, odd_y = y_even[h:h_end], y_odd[h:h_end]
        np.matmul(even.T, even_cells, out=even_y)
        np.matmul(odd.T, odd_cells, out=odd_y)
        block.append((n, even, odd, even_cells, odd_cells, even_y, odd_y))
        e, o, h = e_end, o_end, h_end
    _finish(block, y[:, :h], rotation)
    rotated = np.empty(len(layout.rows), dtype=np.complex128)
    rotated[at_even], rotated[at_odd] = evens, odds
    return rotated


def _finish(block: list, y: np.ndarray, rotation: _EulerRotation) -> None:
    """Mix the projections ``y`` of the runs in ``block``, then rotate them back onto their cells.

    Row 0 of ``y`` holds the projections of the even cells, row 1 those of the
    odd cells; each becomes cos * itself + sin * the other, in place.
    """
    cos = np.concatenate([rotation.cos[run[0] % 2 : run[0] + 1 : 2] for run in block])
    sin = np.concatenate([rotation.sin[run[0] % 2 : run[0] + 1 : 2] for run in block])
    swapped = sin * y[::-1]
    np.multiply(cos, y, out=y)
    y += swapped
    for _, even, odd, even_cells, odd_cells, even_y, odd_y in block:
        np.matmul(even, even_y, out=even_cells)
        np.matmul(odd, odd_y, out=odd_cells)


def beam_splitter(state: FockState, which: Literal["first", "second"] = "first") -> FockState:
    """Balanced beam splitter: exp(-i pi/2 Jx) for the first, its inverse for the second."""
    if which == "first":
        return apply_rotation(state, X_AXIS, math.pi / 2)
    if which == "second":
        return apply_rotation(state, X_AXIS, -math.pi / 2)
    raise ParameterError(f"which must be 'first' or 'second', got {which!r}")


def phase_shift(state: FockState, phi: float) -> FockState:
    """exp(-i phi Jz)|state>: multiply amplitude (j, k) by exp(-i phi (j-k)/2).

    Diagonal in the number basis, hence exact at any cutoff. The phase depends
    on j - k alone, so it is evaluated once for each of the 2c+1 differences
    d = c, ..., -c; row j of the grid's phases is the window of that table
    starting at d = j.
    """
    differences = np.arange(state.cutoff, -state.cutoff - 1, -1)
    table = np.exp(-1j * phi * differences / 2)
    phases = sliding_window_view(table, state.dim)[::-1]
    return FockState(phases * state.amplitudes, state.cutoff, state.truncation_loss)


def mzi_unitary(state: FockState, phi: float) -> FockState:
    """Full interferometer second BS . phase shift . first BS = exp(-i phi Jy)."""
    return apply_rotation(state, Y_AXIS, phi)
