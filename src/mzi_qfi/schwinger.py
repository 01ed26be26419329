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
its block only the rows of those cells, k >= n - cutoff. One eigenvector of
a block, alone, is :func:`_jx_column`, with the block's bits in O(n): a Fock
ket behind the first beam splitter is one of them times powers of i, so
:mod:`mzi_qfi.states` builds those probes with no rotation and no block.

A rotation reads what the state holds: the cells of its one sector, for a
state that knows its photon number (see :class:`mzi_qfi.fock.FockState`),
or its grid. What it needs of that array alone is planned once per state:
the occupied sectors (an O(c^2) scan of a grid), their layout, the weight
check, the pairing of each cell k <= n/2 with its mirror n-k, the groups
of sectors mixed together, and each sector's two views of the cached rows
that its products read, when the cache keeps them. The state keeps the
plan and its coordinates in the Jx basis after Rz(gamma) for the last
gamma, as it keeps its number moments, so a fringe scan, whose phases
|phi| < pi share gamma = -pi/2, projects its probe once, and scans of
several states, alternated or in threads, keep a plan each. A rotation
then costs two real matrix products per occupied sector for the
coordinates, when the state or gamma is new, and two back, each with a
cell and its mirror as four real columns, so a fixed-photon-number probe
pays for a single block; and one vectorized pass over the cells (the
cos/sin mixing in groups of at most ``MIX_COLUMNS`` columns, the left
phase, the norm and, for a result of several sectors, the scatter into a
new grid). Its cos and sin tables cover only the t the plan reads, and its
Rz phase tables come from a small cache, so a warm point of a
fixed-photon-number fringe scan is a fixed handful of numpy calls beside
its O(n) arithmetic, with no lookup or slice per sector. A result that
occupies one sector, as every rotation of a fixed-photon-number probe
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
    _KeptTables,
    number_moments,
    occupied_sectors,
    ordered_dot,
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


def _jx_column(n: int, j: int) -> np.ndarray:
    """Eigenvector j of :func:`_jx_eigenbasis` on the whole sector n, rows k = 0..n.

    Rows k <= n/2 are column j of the block, with its bits: each takes the
    same float steps as the block does for that column (the multiply,
    subtract and divide of the recurrence, the 2^-400 rescale, the middle-row
    zero, and the pairwise sum of the squares with the middle one halved), one
    scalar at a time, so the vector costs O(n) time and memory and no block.
    A numpy call per row, as the block's loop makes, would cost far more on
    one column. Row n-k is s_j times row k.
    """
    size = n // 2 + 1
    twice_m = 2.0 * j + n % 2
    coupling = _ladder_coupling(n, np.arange(size, dtype=float)).tolist()
    vector = np.empty(n + 1)
    column = vector[:size]
    column[0] = current = 1.0
    previous = 0.0  # row -1: subtracting its 0.0 leaves row 1 as the block has it
    for k in range(size - 1):
        row = twice_m * current
        row -= coupling[k - 1] * previous
        row /= coupling[k]
        if abs(row) > 2.0**400:
            column[: k + 1] *= 2.0**-400
            row *= 2.0**-400
            current *= 2.0**-400
        column[k + 1] = row
        previous, current = current, row
    sign = -1.0 if (n // 2 - j) % 2 else 1.0  # s_j
    if n % 2 == 0 and sign < 0:
        column[-1] = 0.0
    squares = np.square(column)
    squares[-1] /= 2 - n % 2
    column /= np.sqrt(2 * squares.sum())
    np.multiply(column[: n + 1 - size][::-1], sign, out=vector[size:])
    return vector


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

    def holds(self, n: int, rows: np.ndarray) -> bool:
        """Whether ``rows``, returned for sector ``n``, is the block the cache keeps for it."""
        entry = self._bases.get(n)
        return entry is not None and entry[1] is rows


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


def _build_phase_table(angle: float, ts: range) -> Optional[np.ndarray]:
    """exp(-i angle t/2) for t = -top..top in the steps of ``ts``, read-only; None for 0.

    ``ts`` runs over the t >= 0 up to top, of one parity or of both. Only
    they are exponentiated, from the m = t/2 of :func:`_halves`: the t < 0
    are their conjugates.
    """
    if not angle:
        return None
    m = _halves(ts)[0]
    negative = len(m) - (ts.start == 0)  # t = 0 is its own mirror
    table = np.empty(negative + len(m), dtype=np.complex128)
    half = np.exp(-1j * angle * m, out=table[negative:])
    np.conjugate(half[:0:-1] if ts.start == 0 else half[::-1], out=table[:negative])
    table.flags.writeable = False
    return table


def _build_halves(ts: range) -> Tuple[np.ndarray, np.ndarray]:
    """m = t/2 and the weight w of each t in ``ts``, read-only.

    w is 2 for t > 0 and 1 for t = 0 (see :func:`apply_rotation`).
    """
    m = np.arange(ts.start, ts.stop, ts.step) / 2
    weight = np.where(m > 0, 2.0, 1.0)
    m.flags.writeable = weight.flags.writeable = False
    return m, weight


#: The phase tables of up to eight angles and spans of t: a fringe scan's
#: alpha = pi/2 and gamma = -pi/2, built once for a scan.
_phase_table = _KeptTables(_build_phase_table, 8)

#: The m and w of up to eight spans of t.
_halves = _KeptTables(_build_halves, 8)


class _EulerRotation:
    """exp(-i angle J_v) = Rz(alpha) Rx(beta) Rz(gamma), tabulated by t = 2m.

    The tables cover every sector with photon number n <= ``top``, whose cells
    all have |t| <= n, and with a ``parity`` only the t of that parity, as
    for a rotation plan whose occupied n all have it: a plan of one sector
    reads each entry of its tables. ``cos[i]`` and ``sin[i]`` are
    w cos(beta t/2) and -i w sin(beta t/2) for the i-th t >= 0, with w = 2
    for t > 0 and w = 1 for t = 0 (see :func:`apply_rotation`), both complex
    so that they multiply complex vectors without a cast. ``left[i]`` and
    ``right[i]`` are exp(-i alpha t/2) and exp(-i gamma t/2) for the i-th
    t from -top up, so at (t + top) / ``span.step``, or None when that
    angle is 0; they come from the kept :func:`_phase_table`, and ``right``
    is looked up on its first read, since only a projection to new
    coordinates reads it. ``span`` is the t >= 0 of the tables.
    Each entry is the same whatever ``top`` and ``parity`` are. ``gamma``
    keys a state's Jx-basis coordinates, which Rz(gamma) alone decides.
    """

    __slots__ = ("gamma", "cos", "sin", "left", "offset", "span", "_right")

    def __init__(self, v: DirectionLike, angle: float, top: int,
                 parity: Optional[int] = None) -> None:
        alpha, beta, self.gamma = _euler_angles(v, angle)
        self.span = range(top + 1) if parity is None else range(parity, top + 1, 2)
        m, weight = _halves(self.span)
        beta_m = beta * m
        self.cos = (weight * np.cos(beta_m)).astype(np.complex128)
        self.sin = -1j * (weight * np.sin(beta_m))
        self.left = _phase_table(alpha, self.span)
        self.offset = top
        self._right = False  # not looked up yet

    @property
    def right(self) -> Optional[np.ndarray]:
        if self._right is False:
            self._right = _phase_table(self.gamma, self.span)
        return self._right


#: Columns of coordinates mixed in one pass. It bounds the work buffers of a
#: rotation's mixing however many sectors it rotates.
MIX_COLUMNS = 2048


class _Group(NamedTuple):
    """Runs of sectors of one parity of n whose coordinates are mixed in one pass.

    ``columns`` are the group's columns of the plan's coordinates;
    ``gather`` picks each column's entry of the rotation's cos and sin
    tables, a slice for a group of one run, and ``signs`` holds each
    column's s_j. An odd sector's mirrors have the other parity, so its
    group is ``crossed``. Each run is n; the first even and the first odd
    row k of its sector's block that it reads; the slices of its paired
    cells with even k and with odd k, among the plan's ``pairs`` rows; and
    its columns of the group. ``operands`` holds, for each run, the two
    views of the block's rows that it reads followed by its three slices
    (:func:`_run_operands`), when the basis cache keeps the blocks of every
    run; else it is None, and the blocks are asked for on each call, so
    that a plan pins no block the cache did not take.
    """

    crossed: bool
    columns: slice
    gather: Union[slice, np.ndarray]
    signs: np.ndarray
    runs: Tuple[Tuple[int, int, int, slice, slice, slice], ...]
    operands: Optional[Tuple[Tuple[np.ndarray, np.ndarray, slice, slice, slice], ...]]


class _Plan(NamedTuple):
    """What rotating one state needs of the array it holds alone, whatever the rotation.

    ``occupied`` lists the photon numbers of the occupied sectors, ascending;
    ``flats`` holds the index in the flattened array of each cell of the
    occupied sectors (:func:`mzi_qfi.fock.sector_layout`): its flat grid
    index, or its place among the cells a state holds, which are the layout
    of their one sector. ``phases`` holds its entry in the Rz tables,
    t + ``top`` or, for tables of one parity, (t + ``top``) / 2: a slice
    for a plan of one sector, whose entries run in order. ``unpair`` holds
    its place among the ``pairs`` rows of paired cells: row q holds a cell
    k <= n/2 at 2q and its mirror n-k at 2q + 1, which is 0 for the middle
    cell of an even sector. A sector n has n//2 + 1 columns of coordinates,
    j = 0..n//2, in the columns of its group, ``columns`` in all.
    ``parity`` is that of every occupied n, or None when both occur: the
    rotation's tables hold the t of that parity alone.
    """

    occupied: List[int]
    top: int
    parity: Optional[int]
    flats: np.ndarray
    phases: Union[slice, np.ndarray]
    unpair: np.ndarray
    pairs: int
    columns: int
    groups: Tuple[_Group, ...]


def _overflow_error(excess: float, cutoff: int) -> TruncationOverflowError:
    """The error of a rotation that would take weight ``excess`` from above ``cutoff``."""
    return TruncationOverflowError(
        f"weight {excess:.3e} sits above cutoff {cutoff}; enlarge the grid before rotating"
    )


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
            raise _overflow_error(excess, cutoff)
    width = max(MIX_COLUMNS, top // 2 + 1)
    grouped: List[list] = []  # the runs of each group
    last: List[list] = [[], []]  # by the parity of n, the runs of its last group
    used = [width, width]  # and their columns, as if full before the first run
    shifts = []
    start = 0
    for n, low in zip(occupied, lows):
        odd, size = n % 2, n // 2 + 1
        shifts.append(start - low)
        if used[odd] + size > width:
            last[odd], used[odd] = [], 0
            grouped.append(last[odd])
        h = used[odd]
        used[odd] += size
        first = low % 2  # the first even k, from the run's start
        stop = start + size - low
        last[odd].append((n, low + first, low + 1 - first, slice(start + first, stop, 2),
                          slice(start + 1 - first, stop, 2), slice(h, h + size)))
        start = stop
    parity = None if last[0] and last[1] else occupied[0] % 2
    # a run of sector n from k = low, whose pairs start at row s, holds k in pair
    # row s + min(k, n-k) - low, as the cell when k <= n-k and as the mirror if not
    unpair = np.minimum(rows, cols)
    counts = [stop - start for start, stop in zip(offsets, offsets[1:])]
    unpair += np.array(shifts, dtype=np.int32).repeat(counts)
    unpair *= 2
    unpair += rows > cols
    phases = np.subtract(rows, cols, out=rows)
    phases += top
    if parity is not None:  # the tables hold every other t
        phases >>= 1
    if len(occupied) == 1:  # t + top = 2k: the entries from k = low on, in order
        phases = slice(lows[0], lows[0] + len(phases))
    del cols
    # column j of a run holds s_j = (-1)^(n//2 - j), and the table entry of
    # t = 2j + n % 2: j itself, when the tables hold one parity of t; a group of
    # one run takes its s_j as a view and its entries as a slice, a group of
    # several takes them from arrays over every column
    alternating = np.ones(top // 2 + 2, dtype=np.int8)
    alternating[1::2] = -1
    if len(grouped) < len(occupied):
        sectors = np.array([run[0] for runs in grouped for run in runs], dtype=np.int32)
        sizes = sectors // 2 + 1
        j = np.arange(sizes.sum(), dtype=np.int32)
        j -= (np.cumsum(sizes, dtype=np.int32) - sizes).repeat(sizes)
        all_signs = alternating.take((sectors // 2).repeat(sizes) + j & 1)
        all_picks = j if parity is not None else 2 * j + (sectors % 2).repeat(sizes)
    groups = []
    edge = 0
    for runs in grouped:
        n = runs[0][0]
        span = slice(edge, edge + runs[-1][5].stop)
        if len(runs) > 1:
            signs, picks = all_signs[span], all_picks[span]
        else:
            signs = alternating[n // 2 % 2 : n // 2 % 2 + n // 2 + 1]
            picks = slice(0, n // 2 + 1) if parity is not None else slice(n % 2, n + 1, 2)
        operands, kept = _run_operands(runs)
        groups.append(_Group(n % 2 == 1, span, picks, signs, tuple(runs),
                             tuple(operands) if kept else None))
        edge = span.stop
    return _Plan(occupied, top, parity, flats, phases, unpair, start, edge, tuple(groups))


def _run_operands(runs: Sequence[tuple]) -> Tuple[list, bool]:
    """Each run's even and odd rows of its block and its three slices, and whether all are kept.

    The rows are two views of the block :data:`_jx_basis` returns, every
    other row from the run's first even and first odd k; they are kept
    only when that cache keeps every block, so that a plan may keep the
    views without pinning a block the cache did not take.
    """
    cache = _jx_basis
    kept = isinstance(cache, _BasisCache)
    operands = []
    for n, even_row, odd_row, even_cells, odd_cells, at in runs:
        first, stored = cache(n, min(even_row, odd_row))
        kept = kept and cache.holds(n, stored)
        operands.append((stored[even_row - first :: 2], stored[odd_row - first :: 2],
                         even_cells, odd_cells, at))
    return operands, kept


def _picked(table: np.ndarray, entries: Union[slice, np.ndarray]) -> np.ndarray:
    """``table[entries]``: a view for a slice, and through ``take`` for int32 indices,
    which ``take`` reads without the cast that indexing makes."""
    return table[entries] if entries.__class__ is slice else table.take(entries)


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
    give each cell and its mirror. ``rotation`` holds the tables of the
    plan's ``top`` and ``parity``.
    """
    project = coordinates is None
    if project:
        amps = held.take(plan.flats)
        right = rotation.right
        if right is not None:
            np.multiply(_picked(right, plan.phases), amps, out=amps)
        pairs = np.zeros((plan.pairs, 2), dtype=np.complex128)
        pairs.put(plan.unpair, amps)
        del amps
        coordinates = np.empty((2, plan.columns), dtype=np.complex128)
    else:
        pairs = np.empty((plan.pairs, 2), dtype=np.complex128)
    quads = pairs.view(np.float64)
    for crossed, columns, gather, signs, runs, operands in plan.groups:
        y = coordinates[:, columns]
        f = np.empty((2, len(signs), 2), dtype=np.complex128)
        f_quads = f.view(np.float64)
        z, mirrors = f[:, :, 0], f[:, :, 1]
        if operands is None:
            operands = _run_operands(runs)[0]
        if project:
            for even, odd, even_cells, odd_cells, at in operands:
                np.matmul(even.T, quads[even_cells], out=f_quads[0, at])
                np.matmul(odd.T, quads[odd_cells], out=f_quads[1, at])
            mirrors *= signs
            np.add(z, mirrors[::-1] if crossed else mirrors, out=y)
        np.multiply(_picked(rotation.sin, gather), y[::-1], out=mirrors)
        np.multiply(_picked(rotation.cos, gather), y, out=z)
        z += mirrors
        np.multiply(z[::-1] if crossed else z, signs, out=mirrors)
        for even, odd, even_cells, odd_cells, at in operands:
            np.matmul(even, f_quads[0, at], out=quads[even_cells])
            np.matmul(odd, f_quads[1, at], out=quads[odd_cells])
    if project:
        coordinates.flags.writeable = False
    rotated = pairs.take(plan.unpair)
    del pairs, quads, f, f_quads, z, mirrors, operands  # the pairs and every view of them
    if rotation.left is not None:
        rotated *= _picked(rotation.left, plan.phases)
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
    pairing of each cell with its mirror, its Rz table entries, the groups
    and the views of each sector's cached basis rows that the products
    read, is a plan built on the first rotation of the state. The plan
    keeps no view of a block that the basis cache did not keep within its
    bytes; such a block is asked for on each call. The state
    keeps the plan, the last gamma and its coordinates for that gamma in
    ``FockState._rotation`` for as long as it lives. A fringe scan,
    ``mzi_unitary`` at |phi| < pi, has gamma = -pi/2 at every phase, so
    after its first point each costs only the cos and sin tables of its
    beta, the mixing, the products back, the left phase and the norm (and
    the scatter, for several sectors): for one sector, a few dozen numpy
    calls whatever n is, beside O(n) arithmetic. The plan
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
    rotation = _EulerRotation(v, angle, plan.top, plan.parity)
    if gamma != rotation.gamma:
        coordinates = None
    rotated, kept = _rotate(plan, rotation, held, coordinates)
    if kept is not coordinates:
        state.__dict__["_rotation"] = (plan, rotation.gamma, kept)
    real, imag = rotated.real, rotated.imag  # np.linalg.norm's sum, without its dispatch
    rotated /= math.sqrt(ordered_dot(real, real) + ordered_dot(imag, imag))
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
