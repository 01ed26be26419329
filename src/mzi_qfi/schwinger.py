"""Two-mode angular-momentum operators and interferometer unitaries.

The generators are Jx = (adag b + bdag a)/2, Jy = -i(adag b - bdag a)/2,
Jz = (adag a - bdag b)/2, and J0 = (adag a + bdag b)/2, so the total photon
number is 2*J0. They conserve total photon number, so each acts on the grid
as one Hermitian block per fixed-n sector; :func:`sector_generator_matrix` is
the package's only definition of them. Each complete sector carries a spin
n/2 representation. The sector layout is read from :mod:`mzi_qfi.fock`.

A rotation exp(-i angle J_v) is written as Rz(alpha) Rx(beta) Rz(gamma), with
Euler angles read off its spin-1/2 element. Rz is a diagonal phase, and Rx
goes through the real eigenbasis of the Jx block, whose eigenvalues are
exactly k - n/2. That basis depends on the photon number n alone and follows
from the three-term recurrence of its eigen-equation, with no eigensolver, so
one byte-bounded cache serves every axis and cutoff. It keeps only the rows
k <= n/2 of the eigenvectors with m >= 0: swapping the modes and the parity
of k imply the rest. A sector above the cutoff, held only in part, is rotated
exactly and restricted to the cells the grid holds. A rotation on a cutoff-c
grid costs one O(c^2) scan for the occupied sectors, one vectorized pass over
their cells (gather, both Rz phases, the mirror signs and the cos/sin mixing,
the norm and the scatter; the mixing in blocks of at most ``MIX_COLUMNS``
columns), and four real matrix products per occupied sector, each with a cell
and its mirror as four real columns, so a fixed-photon-number probe pays for
a single block. Jz is diagonal in the number basis, so its moments come from
the number moments of :mod:`mzi_qfi.fock`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
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


def _ladder_coupling(n: int, k: np.ndarray) -> np.ndarray:
    """c_k = sqrt((k+1)(n-k)) = <k+1, n-k-1| adag b |k, n-k>, twice Jx's element (k+1, k)."""
    return np.sqrt((k + 1) * (n - k))


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
        off = (d.x - 1j * d.y) * (_ladder_coupling(n, ks[:-1].astype(float)) / 2)
        h[np.arange(1, size), np.arange(size - 1)] = off
        h[np.arange(size - 1), np.arange(1, size)] = np.conj(off)
    return h


#: Byte budget of the kept Jx eigenbasis blocks, (n//2+1)^2 * 8 bytes for sector n:
#: every sector up to n = 736 fits at once, a grid at the default cutoff ceiling.
BASIS_CACHE_BYTES = 256 * 2**20


def _jx_eigenbasis(n: int) -> np.ndarray:
    """Rows k <= n/2 of the eigenvectors of Jx on the complete sector n, for m >= 0.

    A real (n//2+1) x (n//2+1) block: row k for the ket |k, n-k>, column j
    for m = j + (n+1)//2 - n/2. Swapping the modes makes row n-k s_j times
    row k, s_j = (-1)^(n//2 - j) (the Wigner relation d_{-m',m} =
    (-1)^(j-m) d_{m',m} of d^j(pi/2)), and P = diag((-1)^k) maps m to -m.
    Each column runs Jx v = m v, c_k v_{k+1} = 2m v_k - c_{k-1} v_{k-1}, from
    v_0 = 1 at the edge inward, the stable way: from where v is classically
    forbidden to where it oscillates. A column past 2^400 is scaled by 2^-400,
    so none overflows; the middle row of a column with s_j = -1 is exactly 0;
    the norms are pairwise numpy sums. No BLAS or LAPACK call touches it.
    """
    size = n // 2 + 1
    block = np.empty((size, size))
    twice_m = 2.0 * np.arange(size) + n % 2
    coupling = _ladder_coupling(n, np.arange(size, dtype=float))
    block[0] = 1.0
    for k in range(size - 1):
        row = np.multiply(twice_m, block[k], out=block[k + 1])
        if k:
            row -= coupling[k - 1] * block[k - 1]
        row /= coupling[k]
        if np.abs(row).max() > 2.0**400:
            block[: k + 2, np.abs(row) > 2.0**400] *= 2.0**-400
    if n % 2 == 0:
        block[-1, 1 - n // 2 % 2 :: 2] = 0.0  # s_j = -1
    squares = np.square(block.T, order="C")  # contiguous columns, for the pairwise sums
    squares[:, -1] /= 2 - n % 2  # the middle row of an even sector is its own mirror
    block /= np.sqrt(2 * squares.sum(axis=1))
    block.flags.writeable = False
    return block


class _BasisCache:
    """Stored Jx eigenbasis blocks keyed by photon number alone, each kept for good if it fits.

    A block that would take ``resident_bytes`` past ``limit`` is built on each use, so a
    scan over more sectors keeps the first ones it reaches. ``misses`` counts the blocks built.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.resident_bytes = 0
        self.misses = 0
        self._bases: "dict[int, np.ndarray]" = {}
        self._lock = threading.Lock()

    def __call__(self, n: int) -> np.ndarray:
        basis = self._bases.get(n)
        if basis is None:
            basis = _jx_eigenbasis(n)
            with self._lock:
                self.misses += 1
                if n not in self._bases and self.resident_bytes + basis.nbytes <= self.limit:
                    self._bases[n] = basis
                    self.resident_bytes += basis.nbytes
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


#: Basis columns mixed in one pass. It bounds the temporaries of a rotation
#: however many sectors it rotates.
MIX_COLUMNS = 2048


def apply_rotation(state: FockState, v: DirectionLike, angle: float) -> FockState:
    """exp(-i angle J_v)|state>, applied sector by sector as Rz Rx Rz.

    Only the occupied sectors (:func:`mzi_qfi.fock.occupied_sectors`) are
    rotated, each through the Euler angles and the cached Jx eigenbasis of its
    photon number. An amplitude whose square underflows still occupies its
    sector, since it rotates into the result.

    Rz is a diagonal phase. Rx(beta) = O_n exp(-i beta Lambda) O_n^T, with the
    exact eigenvalues Lambda = k - n/2. The eigenvector o of m > 0 and P o,
    that of -m, contribute together 2 cos(beta m) (e e^T + d d^T) - 2i
    sin(beta m) (e d^T + d e^T), where e and d are the parts of o on even and
    odd k (m = 0 contributes e e^T + d d^T). So the projections of a sector's
    even and odd cells are mixed by cos and sin, and a coupling that parity
    forbids is exactly 0. Row n-k of the basis is s_j times row k (see
    :func:`_jx_eigenbasis`), so only the rows k <= n/2 are read: each such
    cell is paired with its mirror n-k, the rows of one parity project both
    at once, and the mirror's projection joins the parity of n-k with the
    signs s_j. That is four real products per sector, each with four real
    columns. Every other step, from the gather of the cells to the scatter of
    the result, is one pass over the cells of all occupied sectors
    (:func:`mzi_qfi.fock.sector_layout`); the signs and the cos/sin mixing
    between the products are one pass per block of at most ``MIX_COLUMNS``
    columns of projections, with the sectors of even and of odd n apart.

    A sector above the cutoff, which the grid holds only in part, uses the
    rows of the basis for the cells it holds, k from n - cutoff to cutoff,
    which pair off with their mirrors like those of a complete sector: the
    exact spin n/2 rotation restricted to them. The weight rotated off the
    grid is dropped. That weight is why the rotation requires negligible
    weight above the cutoff, summed over the cells of the runs above it. The
    rotated vectors are renormalized together.
    """
    grid = state.amplitudes
    cutoff = state.cutoff
    occupied = occupied_sectors(grid)
    layout = sector_layout(occupied, cutoff)
    if occupied[-1] > cutoff:
        start = layout.offsets[bisect_right(occupied, cutoff)]  # the first run above the cutoff
        excess = float(np.sum(np.abs(grid[layout.rows[start:], layout.cols[start:]]) ** 2))
        if excess >= 1e-12:
            raise TruncationOverflowError(
                f"weight {excess:.3e} sits above cutoff {cutoff}; "
                "enlarge the grid before rotating"
            )
    rotation = _EulerRotation(v, angle, occupied[-1])
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


def _mirror_pairs(
    grid: np.ndarray, layout: SectorLayout, rotation: _EulerRotation
) -> Tuple[np.ndarray, np.ndarray]:
    """The laid-out cells k <= n/2 after Rz(gamma), each beside its mirror n-k.

    Returns a (cells, 2) array of layout positions, the cell's and its
    mirror's, and the (cells, 2) complex array they hold, the cells of each
    run together in k order. The middle cell k = n/2 of an even sector is its
    own mirror, so its mirror column holds 0. The gathered cells are dropped
    on return, so they take no memory while the sectors are rotated.
    """
    rows, cols = layout.rows, layout.cols
    amps = layout.take(grid)
    if rotation.right is not None:
        np.multiply(rotation.right[_phase_index(layout, rotation)], amps, out=amps)
    lower = (rows <= cols).nonzero()[0]
    index = np.empty((len(lower), 2), dtype=np.intp)
    index[:, 0] = lower
    index[:, 1] = cols[lower] - rows[lower]  # n - 2k, from the cell to its mirror
    index[:, 1] += lower
    pairs = amps[index]
    pairs[index[:, 0] == index[:, 1], 1] = 0
    return index, pairs


def _rotate_runs(grid: np.ndarray, layout: SectorLayout, rotation: _EulerRotation) -> np.ndarray:
    """Rx(beta) Rz(gamma) on the cells of ``layout``, returned in layout order.

    The even k, or the odd k, of a run's paired cells are one (cells, 4) real
    operand of its products, every other row of the pairs (see
    :func:`_mirror_pairs`). The sectors of even and of odd n are mixed in
    separate blocks, since their mirrors join the projections differently.
    """
    index, pairs = _mirror_pairs(grid, layout, rotation)
    quads = pairs.view(np.float64)
    # room for the projections of every run, or for a block of runs and the widest
    columns = sum(layout.sectors) // 2 + len(layout.sectors)
    width = min(columns, max(MIX_COLUMNS, layout.sectors[-1] // 2 + 1))
    blocks = {}  # by the parity of n
    start = 0  # where the run's paired cells start
    for n, low in zip(layout.sectors, layout.lows):
        block = blocks.get(n % 2)
        if block is None:
            block = blocks[n % 2] = _Block(width, n % 2, rotation)
        stop = start + n // 2 + 1 - low
        stored = _jx_basis(n)
        first = low % 2  # the first even k, from the run's start
        even_cells = quads[start + first : stop : 2]
        odd_cells = quads[start + 1 - first : stop : 2]
        block.project(n, stored[low + first :: 2], stored[low + 1 - first :: 2],
                      even_cells, odd_cells)
        start = stop
    for block in blocks.values():
        block.finish()
    rotated = np.empty(len(layout.rows), dtype=np.complex128)
    rotated[index[:, 1]] = pairs[:, 1]
    rotated[index[:, 0]] = pairs[:, 0]  # last, for the middle cell, its own mirror
    return rotated


class _Block:
    """Runs of sectors of one parity of n whose projections wait to be mixed.

    ``f[0]`` holds the projections on the stored blocks, n//2 + 1 columns per
    run, of the even cells k <= n/2 and of their mirrors, ``f[1]`` those of
    the odd cells. ``table[:, q]`` holds the rotation's cos and sin entries of
    that parity and the signs s_j of the sectors with (n//2) % 2 = q; a run
    reads its first n//2 + 1 columns.
    """

    __slots__ = ("f", "quads", "crossed", "table", "runs", "used")

    def __init__(self, width: int, parity: int, rotation: _EulerRotation) -> None:
        self.f = np.empty((2, width, 2), dtype=np.complex128)
        self.quads = self.f.view(np.float64)
        self.crossed = parity == 1  # the mirror n-k of an odd sector has the other parity
        cos = rotation.cos[parity::2]
        self.table = np.empty((3, 2, len(cos)), dtype=np.complex128)
        self.table[0], self.table[1] = cos, rotation.sin[parity::2]
        self.table[2] = 1.0
        self.table[2, 0, 1::2] = self.table[2, 1, ::2] = -1.0
        self.runs: list = []
        self.used = 0

    def project(self, n: int, even: np.ndarray, odd: np.ndarray,
                even_cells: np.ndarray, odd_cells: np.ndarray) -> None:
        """Project the paired cells of sector n on the even and odd rows of its stored block."""
        if self.used + n // 2 + 1 > self.f.shape[1]:
            self.finish()
        h, self.used = self.used, self.used + n // 2 + 1
        even_f, odd_f = self.quads[0, h : self.used], self.quads[1, h : self.used]
        np.matmul(even.T, even_cells, out=even_f)
        np.matmul(odd.T, odd_cells, out=odd_f)
        self.runs.append((n, even, odd, even_cells, odd_cells, even_f, odd_f))

    def finish(self) -> None:
        """Mix the waiting projections, then rotate them back onto their cells.

        A mirror's projection, times the signs s_j, joins that of its parity.
        Each parity's projection y becomes cos * y + sin * the other's, and
        the mirror column becomes s_j times that of the mirrors' parity, so
        the products back give each cell and its mirror. Once joined, the
        mirror column is free working space.
        """
        table = self.table
        cos, sin, s = np.concatenate(
            [table[:, run[0] // 2 % 2, : run[0] // 2 + 1] for run in self.runs], axis=1)
        y, mirrors = self.f[:, : self.used, 0], self.f[:, : self.used, 1]
        mirrors *= s
        y += mirrors[::-1] if self.crossed else mirrors
        np.multiply(sin, y[::-1], out=mirrors)
        np.multiply(cos, y, out=y)
        y += mirrors
        np.multiply(y[::-1] if self.crossed else y, s, out=mirrors)
        for _, even, odd, even_cells, odd_cells, even_f, odd_f in self.runs:
            np.matmul(even, even_f, out=even_cells)
            np.matmul(odd, odd_f, out=odd_cells)
        self.runs, self.used = [], 0


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
