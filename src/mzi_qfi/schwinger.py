"""Two-mode angular-momentum operators and interferometer unitaries.

The generators are Jx = (adag b + bdag a)/2, Jy = -i(adag b - bdag a)/2,
Jz = (adag a - bdag b)/2, and J0 = (adag a + bdag b)/2, so the total photon
number is 2*J0. They conserve total photon number, so each acts on the grid
as one Hermitian block per fixed-n sector, and each complete sector carries
a spin n/2 representation. The package never forms those blocks: it rotates
through the closed-form eigenbasis of Jx below, and tests check the result
against their matrix exponential. The sector layout is read from
:mod:`mzi_qfi.fock`.

A rotation exp(-i angle J_v) is written as Rz(alpha) Rx(beta) Rz(gamma), with
Euler angles read off its spin-1/2 element. Rz is a diagonal phase, and Rx
goes through the real eigenbasis of the Jx block, whose eigenvalues are
exactly k - n/2. That basis depends on the photon number n alone and follows
from the three-term recurrence of its eigen-equation, with no eigensolver, so
one byte-bounded cache serves every axis and cutoff. It keeps only the rows
k <= n/2 of the eigenvectors with m >= 0: swapping the modes and the parity
of k imply the rest. A sector above the cutoff, held only in part, is rotated
exactly and restricted to the cells the grid holds, so the cache keeps of
its block only the rows of those cells, k >= n - cutoff.

A rotation reads what the state holds: the cells of its one sector, for a
state that knows its photon number (see :class:`mzi_qfi.fock.FockState`),
or its grid. What it needs of that array alone is planned once per state:
the occupied sectors (an O(c^2) scan of a grid), their layout, the weight
check, the pairing of each cell k <= n/2 with its mirror n-k, and the groups
of sectors mixed together. The state keeps the plan and its coordinates in
the Jx basis after Rz(gamma) for the last gamma, as it keeps its number
moments, so a fringe scan, whose phases |phi| < pi share gamma = -pi/2,
projects its probe once, and scans of several states, alternated or in
threads, keep a plan each. A rotation then costs two real matrix products
per occupied sector for the coordinates, when the state or gamma is new,
and two back, each with a cell and its mirror as four real columns, so a
fixed-photon-number probe pays for a single block; and one vectorized pass
over the cells (the cos/sin mixing in groups of at most ``MIX_COLUMNS``
columns, the left phase, the norm and, for a result of several sectors, the
scatter into a new grid). A result
that occupies one sector, as every rotation of a fixed-photon-number probe
does, holds only that sector's cells, so a fixed-photon-number probe and
every rotation of it allocate no grid, and their norm checks and number
moments cost O(c), not O(c^2). Jz is diagonal in the number basis, so its
moments come from the number moments of :mod:`mzi_qfi.fock`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Literal, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, TruncationOverflowError
from .fock import (
    FockState,
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
        nrm = math.hypot(self.x, self.y, self.z)  # no overflow in the squares
        if not abs(nrm - 1.0) <= 1e-12:  # so that a NaN norm fails too
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
    moments = number_moments(state)
    na2 = moments.aa + moments.a
    nb2 = moments.bb + moments.b
    return (moments.a - moments.b) / 2, (na2 - 2 * moments.ab + nb2) / 4


def _ladder_coupling(n: int, k: np.ndarray) -> np.ndarray:
    """c_k = sqrt((k+1)(n-k)) = <k+1, n-k-1| adag b |k, n-k>, twice Jx's element (k+1, k)."""
    return np.sqrt((k + 1) * (n - k))


#: Byte budget of the kept Jx eigenbasis rows: (n//2 - low + 1)(n//2 + 1) * 8 bytes
#: for sector n kept from row low, which is n - c above the cutoff c of a grid and 0
#: for a full block. The full blocks of every sector up to n = 736 fit at once, and
#: so do the rows of every sector of a dense grid with cutoff up to 510 (32.6 MiB
#: at the default cutoff ceiling, 256).
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
    the norms are pairwise numpy sums, each of one column's squares, taken
    256 columns at a time, so the squares never take a second block. No BLAS
    or LAPACK call touches it.
    :class:`_BasisCache` keeps a copy of the rows a grid reads, with their bits.
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
    sums, strip = np.empty(size), np.empty((min(size, 256), size))
    for start in range(0, size, 256):  # each column squared into a contiguous row
        squares = np.square(block[:, start : start + 256].T, out=strip[: min(size - start, 256)])
        squares[:, -1] /= 2 - n % 2  # the middle row of an even sector is its own mirror
        squares.sum(axis=1, out=sums[start : start + 256])  # pairwise, row by row
    block /= np.sqrt(2 * sums)
    block.flags.writeable = False
    return block


class _BasisCache:
    """Rows of the Jx eigenbasis blocks keyed by photon number alone, each kept for good if it fits.

    ``cache(n, low)`` returns ``(first, rows)``: rows k = first..n//2 of the block of
    sector n (:func:`_jx_eigenbasis`), with ``first <= low``. A grid with cutoff c
    reads only the rows from k = n - c of a sector n above it, so the cache keeps,
    of each block, only the rows from the lowest ``low`` asked for so far: a copy of
    them, built from the full block, so each value keeps its bits. It replaces a
    stored block only with one that starts at a lower row, and a read takes the
    block and its first row together, so a replacement in another thread is
    harmless. A block that would take ``resident_bytes`` past ``limit`` is built on
    each use, so a scan over more sectors keeps the first ones it reaches.
    ``misses`` counts the blocks built.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.resident_bytes = 0
        self.misses = 0
        self._bases: "dict[int, Tuple[int, np.ndarray]]" = {}
        self._lock = threading.Lock()

    def __call__(self, n: int, low: int = 0) -> Tuple[int, np.ndarray]:
        entry = self._bases.get(n)
        if entry is None or entry[0] > low:
            rows = _jx_eigenbasis(n)
            if low:
                rows = rows[low:].copy()  # not a view, which would keep the whole block
                rows.flags.writeable = False
            entry = (low, rows)
            with self._lock:
                self.misses += 1
                stored = self._bases.get(n)
                if stored is None or stored[0] > low:
                    grown = rows.nbytes - (0 if stored is None else stored[1].nbytes)
                    if self.resident_bytes + grown <= self.limit:
                        self._bases[n] = entry
                        self.resident_bytes += grown
        return entry


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


def _phase_table(angle: float, m: np.ndarray) -> Optional[np.ndarray]:
    """exp(-i angle t/2) for t = -top..top, at t + top, from m = t/2 for t = 0..top; None for 0.

    Only the half t >= 0 is exponentiated: the half t < 0 is its conjugate.
    """
    if not angle:
        return None
    half = np.exp(-1j * angle * m)
    return np.concatenate((half[:0:-1].conj(), half))


class _EulerRotation:
    """exp(-i angle J_v) = Rz(alpha) Rx(beta) Rz(gamma), tabulated by t = 2m.

    The tables cover every sector with photon number n <= ``top``, whose cells
    all have |t| <= n. ``cos[t]`` and ``sin[t]`` are w cos(beta t/2) and -i w
    sin(beta t/2) for t = 0..top, with w = 2 for t > 0 and w = 1 for t = 0
    (see :func:`apply_rotation`), both complex so that they multiply complex
    vectors without a cast. ``left[t + offset]`` and ``right[t + offset]`` are
    exp(-i alpha t/2) and exp(-i gamma t/2) for t = -top..top, or None when
    that angle is 0; ``right`` is built on its first read, since only a
    projection to new coordinates reads it. Each entry is the same whatever
    ``top`` is. ``gamma`` keys a state's Jx-basis coordinates, which
    Rz(gamma) alone decides.
    """

    __slots__ = ("gamma", "cos", "sin", "left", "offset", "_right")

    def __init__(self, v: DirectionLike, angle: float, top: int) -> None:
        alpha, beta, self.gamma = _euler_angles(v, angle)
        m = np.arange(top + 1) / 2
        weight = np.where(m > 0, 2.0, 1.0)
        beta_m = beta * m
        self.cos = (weight * np.cos(beta_m)).astype(np.complex128)
        self.sin = -1j * (weight * np.sin(beta_m))
        self.left = _phase_table(alpha, m)
        self.offset = top
        self._right = False  # not built yet

    @property
    def right(self) -> Optional[np.ndarray]:
        if self._right is False:
            self._right = _phase_table(self.gamma, np.arange(self.offset + 1) / 2)
        return self._right


#: Columns of coordinates mixed in one pass. It bounds the work buffers of a
#: rotation's mixing however many sectors it rotates.
MIX_COLUMNS = 2048


class _Group(NamedTuple):
    """Runs of sectors of one parity of n whose coordinates are mixed in one pass.

    Each run is n, the first even and the first odd row k of its sector's
    block that it reads, the first row of its paired cells with even k and
    with odd k, the row past its last, and its first and last columns of the
    group, which are ``columns`` of the plan. An odd sector's mirrors have
    the other parity, so its group is ``crossed``.
    """

    crossed: bool
    columns: slice
    runs: Tuple[Tuple[int, int, int, int, int, int, int, int], ...]


class _Plan(NamedTuple):
    """What rotating one state needs of the array it holds alone, whatever the rotation.

    ``occupied`` lists the photon numbers of the occupied sectors, ascending;
    ``flats`` holds the index in the flattened array of each cell of the
    occupied sectors (:func:`mzi_qfi.fock.sector_layout`): its flat grid
    index, or its place among the cells a state holds, which are the layout
    of their one sector. ``phases`` holds its entry t + ``top`` in
    the Rz tables, and ``unpair`` its place among the ``pairs`` rows of
    paired cells: row q holds a cell k <= n/2 at 2q and its mirror n-k at
    2q + 1, which is 0 for the middle cell of an even sector. A sector n has
    n//2 + 1 columns of coordinates, j = 0..n//2, in the columns of its
    group; ``gather`` holds each column's t = 2j + n % 2, its entry of the
    rotation's cos and sin tables, and ``signs`` its s_j.
    """

    occupied: List[int]
    top: int
    flats: np.ndarray
    phases: np.ndarray
    unpair: np.ndarray
    pairs: int
    gather: np.ndarray
    signs: np.ndarray
    groups: Tuple[_Group, ...]


def _plan(state: FockState, held: np.ndarray) -> _Plan:
    """The rotation plan of ``held``, the array ``state`` holds; raises on weight above the cutoff."""
    cutoff = state.cutoff
    occupied = occupied_sectors(state)
    _, lows, offsets, rows, cols = sector_layout(occupied, cutoff)
    rows, cols = rows.astype(np.int32), cols.astype(np.int32)
    if state._cells is None:
        flats = rows * (cutoff + 1)
        flats += cols
    else:
        flats = np.arange(len(rows), dtype=np.int32)
    top = occupied[-1]
    if top > cutoff:
        above = offsets[bisect_right(occupied, cutoff)]  # the first run above the cutoff
        excess = float(np.sum(np.abs(held.reshape(-1).take(flats[above:])) ** 2))
        if excess >= 1e-12:
            raise TruncationOverflowError(
                f"weight {excess:.3e} sits above cutoff {cutoff}; "
                "enlarge the grid before rotating"
            )
    width = max(MIX_COLUMNS, top // 2 + 1)
    grouped: List[list] = []  # the runs of each group
    last: List[list] = [[], []]  # by the parity of n, the runs of its last group
    used = [width, width]  # and their columns, as if full before the first run
    shifts = []
    start = 0
    for n, low in zip(occupied, lows):
        parity, size = n % 2, n // 2 + 1
        shifts.append(start - low)
        if used[parity] + size > width:
            last[parity], used[parity] = [], 0
            grouped.append(last[parity])
        h = used[parity]
        used[parity] += size
        first = low % 2  # the first even k, from the run's start
        stop = start + size - low
        last[parity].append((n, low + first, low + 1 - first, start + first, start + 1 - first,
                             stop, h, h + size))
        start = stop
    # a run of sector n from k = low, whose pairs start at row s, holds k in pair
    # row s + min(k, n-k) - low, as the cell when k <= n-k and as the mirror if not
    unpair = np.minimum(rows, cols)
    unpair += np.array(shifts, dtype=np.int32).repeat(np.diff(offsets))
    unpair *= 2
    unpair += rows > cols
    phases = np.subtract(rows, cols, out=rows)
    phases += top
    del cols
    # column c of a run from column h holds j = c - h: t = 2j + n % 2 and s_j = (-1)^(n//2 - j)
    sectors = np.array([run[0] for runs in grouped for run in runs], dtype=np.int32)
    sizes = sectors // 2 + 1
    column = np.cumsum(sizes, dtype=np.int32) - sizes
    at = np.arange(column[-1] + sizes[-1], dtype=np.int32)
    gather = 2 * at
    gather -= (2 * column - sectors % 2).repeat(sizes)
    at -= (column + sectors // 2).repeat(sizes)
    signs = (at & 1).astype(np.int8)
    signs *= -2
    signs += 1
    groups = []
    edge = 0
    for runs in grouped:
        columns = runs[-1][7]
        groups.append(_Group(runs[0][0] % 2 == 1, slice(edge, edge + columns), tuple(runs)))
        edge += columns
    return _Plan(occupied, top, flats, phases, unpair, start, gather, signs, tuple(groups))


def _rotate(
    plan: _Plan, rotation: _EulerRotation, held: np.ndarray, coordinates: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Rz(alpha) Rx(beta) Rz(gamma) on the cells of ``plan``, in layout order, and the coordinates.

    The coordinates are the (2, columns) projections O^T Rz(gamma) psi of the
    paired cells: row 0 on the even rows of the stored blocks, row 1 on the
    odd ones, each joined by the projections of the mirrors of that parity,
    times the signs s_j. When ``coordinates`` is None they are computed from
    ``held``, the array the plan was made for, and returned read-only. Each
    parity's coordinates y then become cos * y + sin * the other's, and the
    mirror column s_j times that of the mirrors' parity, so the products back
    give each cell and its mirror.
    """
    project = coordinates is None
    if project:
        amps = held.reshape(-1).take(plan.flats)
        right = rotation.right
        if right is not None:
            np.multiply(right.take(plan.phases), amps, out=amps)
        pairs = np.zeros((plan.pairs, 2), dtype=np.complex128)
        pairs.reshape(-1)[plan.unpair] = amps
        del amps
        coordinates = np.empty((2, len(plan.gather)), dtype=np.complex128)
    else:
        pairs = np.empty((plan.pairs, 2), dtype=np.complex128)
    quads = pairs.view(np.float64)
    for group in plan.groups:
        columns = group.columns
        y, gather, signs = coordinates[:, columns], plan.gather[columns], plan.signs[columns]
        f = np.empty((2, len(gather), 2), dtype=np.complex128)
        f_quads = f.view(np.float64)
        z, mirrors = f[:, :, 0], f[:, :, 1]
        operands = []
        for n, even_row, odd_row, even_cell, odd_cell, stop, h, end in group.runs:
            first, stored = _jx_basis(n, min(even_row, odd_row))
            operands.append((stored[even_row - first::2], quads[even_cell:stop:2],
                             f_quads[0, h:end], stored[odd_row - first::2],
                             quads[odd_cell:stop:2], f_quads[1, h:end]))
        if project:
            for even, even_cells, even_f, odd, odd_cells, odd_f in operands:
                np.matmul(even.T, even_cells, out=even_f)
                np.matmul(odd.T, odd_cells, out=odd_f)
            mirrors *= signs
            np.add(z, mirrors[::-1] if group.crossed else mirrors, out=y)
        np.multiply(rotation.sin.take(gather), y[::-1], out=mirrors)
        np.multiply(rotation.cos.take(gather), y, out=z)
        z += mirrors
        np.multiply(z[::-1] if group.crossed else z, signs, out=mirrors)
        for even, even_cells, even_f, odd, odd_cells, odd_f in operands:
            np.matmul(even, even_f, out=even_cells)
            np.matmul(odd, odd_f, out=odd_cells)
    coordinates.flags.writeable = False
    rotated = pairs.reshape(-1).take(plan.unpair)
    del pairs, quads, f, f_quads, z, mirrors, operands  # the pairs and every view of them
    if rotation.left is not None:
        rotated *= rotation.left.take(plan.phases)
    return rotated, coordinates


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
    columns: two to the coordinates O^T Rz(gamma) psi and two back. Every
    other step, from the gather of the cells to the scatter of the result, is
    one pass over the cells of all occupied sectors; the signs and the cos/sin
    mixing between the products are one pass per group of at most
    ``MIX_COLUMNS`` columns of coordinates, with the sectors of even and of
    odd n apart.

    The rotation reads what the state holds: the cells of its one sector, or
    its grid. What depends on that array alone, its occupied sectors, their
    layout (:func:`mzi_qfi.fock.sector_layout`), the weight check, the
    pairing of each cell with its mirror, its Rz table entries and the
    groups, is a plan built on the first rotation of the state. The state
    keeps the plan, the last gamma and its coordinates for that gamma in
    ``FockState._rotation`` for as long as it lives. A fringe scan,
    ``mzi_unitary`` at |phi| < pi, has gamma = -pi/2 at every phase, so
    after its first point each costs only the mixing, the products back, the
    left phase and the norm (and the scatter, for several sectors). The plan
    is never changed and the coordinates are read-only, and the three are
    replaced together in one assignment, so threads may rotate at once; each
    call works in buffers of its own.

    A sector above the cutoff, which the grid holds only in part, uses the
    rows of the basis for the cells it holds, k from n - cutoff to cutoff,
    which pair off with their mirrors like those of a complete sector: the
    exact spin n/2 rotation restricted to them. The cache keeps only the rows
    k >= n - cutoff of such a sector's block, for the lowest cutoff that has
    rotated it. The weight rotated off the grid is dropped. That weight is
    why the rotation requires negligible weight above the cutoff, summed over
    the cells of the runs above it, on every call. The rotated vectors are renormalized together.

    When the state occupies a single sector n, the result holds only that
    sector's rotated cells, with no grid until its ``amplitudes`` are read
    (see :class:`mzi_qfi.fock.FockState`): a fixed-photon-number fringe
    point allocates O(c), not a zeroed grid.
    """
    if not math.isfinite(angle):
        raise ParameterError(f"rotation angle must be finite, got {angle!r}")
    held = state.amplitudes if state._cells is None else state._cells
    plan, gamma, coordinates = state._rotation or (_plan(state, held), None, None)
    rotation = _EulerRotation(v, angle, plan.top)
    if gamma != rotation.gamma:
        coordinates = None
    rotated, kept = _rotate(plan, rotation, held, coordinates)
    if kept is not coordinates:
        state.__dict__["_rotation"] = (plan, rotation.gamma, kept)
    real, imag = rotated.real, rotated.imag  # np.linalg.norm's sum, without its dispatch
    rotated /= math.sqrt(real.dot(real) + imag.dot(imag))
    if len(plan.occupied) == 1:  # the layout of one sector is its kets in k order
        return FockState._from_cells(rotated, plan.occupied[0], state.cutoff,
                                     state.truncation_loss)
    out = np.zeros((state.dim, state.dim), dtype=np.complex128)
    out.reshape(-1)[plan.flats] = rotated
    return FockState(out, state.cutoff, state.truncation_loss)


def beam_splitter(state: FockState, which: Literal["first", "second"] = "first") -> FockState:
    """Balanced beam splitter: exp(-i pi/2 Jx) for the first, its inverse for the second."""
    if which == "first":
        return apply_rotation(state, X_AXIS, math.pi / 2)
    if which == "second":
        return apply_rotation(state, X_AXIS, -math.pi / 2)
    raise ParameterError(f"which must be 'first' or 'second', got {which!r}")


def difference_phases(phi: float, differences: np.ndarray) -> np.ndarray:
    """exp(-i phi d/2), the phase of exp(-i phi Jz) on a cell (j, k), for each d = j - k given.

    The one table of :func:`phase_shift`, which the fidelity route
    (:func:`mzi_qfi.qfi.qfi_fidelity`) differentiates; each entry depends on
    its d alone.
    """
    return np.exp(-1j * phi * differences / 2)


def phase_shift(state: FockState, phi: float) -> FockState:
    """exp(-i phi Jz)|state>: multiply amplitude (j, k) by exp(-i phi (j-k)/2).

    Diagonal in the number basis, hence exact at any cutoff. The phase depends
    on j - k alone, so it is evaluated once for each of the 2c+1 differences
    d = c, ..., -c (:func:`difference_phases`); row j of the grid's phases is
    the window of that table starting at d = j. The result of a state that
    holds the cells of its sector n holds only the cells of sector n, each
    times the entry of its d = 2k - n, with no grid until one is read.
    """
    if not math.isfinite(phi):
        raise ParameterError(f"phase must be finite, got {phi!r}")
    if not math.isfinite(phi * state.cutoff):  # phi d overflows for some |d| <= c
        raise ParameterError(f"phase {phi!r} times cutoff {state.cutoff} must be finite")
    table = difference_phases(phi, np.arange(state.cutoff, -state.cutoff - 1, -1))
    cells = state._cells
    if cells is not None:
        n = state._sector
        ks = sector_kets(n, state.cutoff)
        phased = table.take(state.cutoff + n - 2 * ks) * cells  # the grid's operand order
        return FockState._from_cells(phased, n, state.cutoff, state.truncation_loss)
    phases = sliding_window_view(table, state.dim)[::-1]
    return FockState(phases * state.amplitudes, state.cutoff, state.truncation_loss)


def mzi_unitary(state: FockState, phi: float) -> FockState:
    """Full interferometer second BS . phase shift . first BS = exp(-i phi Jy)."""
    return apply_rotation(state, Y_AXIS, phi)
