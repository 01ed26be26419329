"""Truncated two-mode Fock space: states, overlaps, and number moments.

Amplitude grids are indexed ``[j, k]`` for the basis ket ``|j, k>`` with
``j`` photons in mode a and ``k`` photons in mode b, ``0 <= j, k <= cutoff``.
States are immutable, normalized :class:`FockState` values.

The package needs only two sums of a state's occupation probabilities
``p_jk = |psi_jk|^2``: the diagonal number moments
``<adag^p a^p bdag^r b^r>`` (intensities, pair coherences, and
Jz = (n_a - n_b)/2) of :func:`number_moments`, and the weight p(d) on each
difference d = j - k of :func:`difference_weights`, which the fidelity route
reads. One read takes both, once per state: the immutable state keeps them,
so every later call on it, in any stage, reads no cell. A state keeps what
is read off it the same way: the grid of a cell-held state, once built, its
probabilities' sums and its rotation plan (:class:`FockState`). Rotations and
decompositions act on photon-number sectors instead, laid out by
:func:`sector_kets` and, for a rotation's many sectors,
:func:`sector_layout`. :func:`sector_cells` is the one reader of a grid's
sector, as a view, :func:`state_cells` the one reader of a state's sectors,
and :func:`occupied_sectors` the one judge of which sectors a state
occupies: the sector whose cells it holds, or one scan of its grid.

That read and :func:`squared_norm` sum over a grid in numpy alone, not
through BLAS, whose dot products split long vectors across threads and so
round differently with the thread count.

Every dense pass over a grid larger than eight strips of ``STRIP_CELLS``
cells (cutoff 180) reads it a strip of rows at a time (:func:`strip_rows`),
so that its temporaries are a few strips, not grids: the probabilities'
read (:func:`_grid_sums`), the sector scan, and the twin squeezed vacuum
and amplified Bell builders. The sector scan stays a pass of its own: it
asks which amplitudes are nonzero, not which p > 0, and a rotation plan
takes it on a fresh grid without paying for the moments.
Each keeps the bits of the whole-grid pass it replaces. A sum along a row
is numpy's pairwise sum of that row alone, whatever strip holds it. The
moments' column sums are :func:`_column_sums`' pairwise fold down the rows:
its first round adds row ``top + i`` onto row i, with ``top`` the rows it
keeps, so the strips store the first ``top`` rows in a half-height
accumulator and add each later row onto its row as it arrives, and the
fold's later rounds run on that accumulator. The tree of additions, and so
every rounding, is the whole grid's.

A state is held in one of two ways. A state that knows its photon number n
holds just the cells of sector n, in :func:`sector_kets` order, read-only
(``FockState._from_cells``); ``FockState._sector`` is n and ``_cells`` the
cells, and its grid is built on the first read of ``amplitudes``. Every
other state holds a grid, and both are None. Only constructors that know
the sector by construction make the first kind: :func:`make_fock`, the noon
builder, :func:`pad_to` of such a state, ``Sector.state``,
:func:`mzi_qfi.schwinger.phase_shift` of such a state, and
:func:`mzi_qfi.schwinger.apply_rotation` when its result occupies one
sector. Grids from elsewhere are never scanned for a sector. The norm
check, equality, the probabilities' read, :func:`occupied_sectors` (so
the decomposition), ``particle_moments``, the rotation and its plan,
``phase_shift`` and ``schmidt`` read the cells, so a fixed-photon-number
probe, a point of its fringe or a decomposed sector costs O(c) until
something else, such as :func:`inner` or a state file, reads its grid.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import ClassVar, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CutoffExceededError,
    NormalizationError,
    ParameterError,
    TruncationLossError,
)

#: Default per-mode cutoff ceiling for automatic cutoff selection.
DEFAULT_CUTOFF_CEILING = 256

#: Default ceiling on the probability discarded when a state is truncated.
DEFAULT_LOSS_CEILING = 1e-10

_NORM_TOL = 1e-12

#: Cells of a grid that one strip of a dense pass reads: 32 KiB per float
#: buffer, under a fortieth of a grid from cutoff 300 up.
STRIP_CELLS = 4096


def strip_rows(dim: int) -> int:
    """Rows of a ``dim``-column grid in one strip of a dense pass.

    A grid of at most eight strips' cells (up to cutoff 180, 512 KiB) is
    one strip: there the numpy calls of many strips would cost more time
    than their smaller temporaries save. A larger grid takes about
    ``STRIP_CELLS`` cells a strip, at least one row.
    """
    if dim * dim <= 8 * STRIP_CELLS:
        return dim
    return max(1, STRIP_CELLS // dim)


def cutoff_ceiling() -> int:
    """Per-mode cutoff ceiling; MZI_QFI_CUTOFF_CEILING overrides the default."""
    raw = os.environ.get("MZI_QFI_CUTOFF_CEILING")
    if raw is None:
        return DEFAULT_CUTOFF_CEILING
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParameterError(f"MZI_QFI_CUTOFF_CEILING must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ParameterError("MZI_QFI_CUTOFF_CEILING must be non-negative")
    return value


def _check_loss(loss: float) -> None:
    if loss < 0:
        raise ParameterError("truncation_loss must be non-negative")


def _check_norm(norm_squared: float) -> None:
    # written so that a NaN or infinite norm fails the check
    nrm = math.sqrt(norm_squared)
    if not abs(nrm - 1.0) <= _NORM_TOL:
        raise NormalizationError(f"state norm {nrm!r} deviates from 1 beyond {_NORM_TOL}")


#: The most bytes one numpy array may take.
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


def check_addressable(cutoff: int) -> None:
    """Raise ``MemoryError`` for a cutoff whose grid no numpy array can hold.

    Any state can be read as its grid, so such a cutoff is refused before
    anything is allocated, not where numpy would raise a ``ValueError`` about
    the size of one of the arrays it takes.
    """
    if 16 * (cutoff + 1) ** 2 > _MAX_ARRAY_BYTES:  # complex128 cells
        raise MemoryError(f"cutoff {cutoff} needs a grid of more than {_MAX_ARRAY_BYTES} bytes")


def check_truncation_loss(loss: float) -> None:
    """Raise ``TruncationLossError`` if ``loss`` exceeds ``DEFAULT_LOSS_CEILING``."""
    if loss > DEFAULT_LOSS_CEILING:
        raise TruncationLossError(
            f"truncation loss {loss:.3e} exceeds ceiling {DEFAULT_LOSS_CEILING:.3e}"
        )


@dataclass(frozen=True)
class FockState:
    """Normalized two-mode state on a square ``(cutoff+1) x (cutoff+1)`` grid.

    ``truncation_loss`` is the probability discarded before the grid was
    renormalized; it is zero for states assembled directly from basis kets.
    Instances are immutable and safe to share across threads. Equality
    compares the arrays with ``np.array_equal``; two states that hold cells
    of the same sector compare those cells alone, every other cell being 0.
    The norm is checked as :func:`squared_norm` over the whole grid.

    A state that knows its photon number n holds just the cells of sector n
    instead, read-only in ``_cells``, and n in ``_sector`` (see
    :meth:`_from_cells`); both are None for a state held by its grid, and
    neither is an argument, a field or part of ``repr``. Its ``amplitudes``
    grid is built on the first read, zeros with the cells scattered through
    :func:`sector_cells`, and stored read-only, once, so every reader, in
    any thread, gets the same grid. ``dataclasses.replace`` passes that grid
    to the constructor, so a replaced state holds a grid.

    ``_read`` is None until the state's probabilities are first read, by
    :func:`number_moments` or :func:`difference_weights`, and then what that
    one read took, the number moments and p(d), kept the same way: stored
    once, the first stored winning. ``_rotation`` is None until the state is
    first rotated (:func:`mzi_qfi.schwinger.apply_rotation`), and then the
    rotation plan of the array it holds, the last gamma and the array's
    coordinates for that gamma, replaced in one assignment when a rotation
    projects new ones. So what is read off a state, its grid, its
    probabilities' sums and its rotation plan, lives as long as the state
    does. A replaced state takes its own.
    """

    amplitudes: np.ndarray
    cutoff: int
    truncation_loss: float = 0.0
    _sector: ClassVar[Optional[int]] = None
    _cells: ClassVar[Optional[np.ndarray]] = None
    _read: ClassVar[Optional[Tuple[NumberMoments, np.ndarray]]] = None
    _rotation: ClassVar[Optional[tuple]] = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.amplitudes, dtype=np.complex128)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ParameterError(f"amplitude grid must be square, got shape {grid.shape}")
        if grid.shape[0] != self.cutoff + 1:
            raise ParameterError(
                f"grid shape {grid.shape} inconsistent with cutoff {self.cutoff}"
            )
        _check_loss(self.truncation_loss)
        _check_norm(squared_norm(grid))
        grid.flags.writeable = False
        object.__setattr__(self, "amplitudes", grid)

    @classmethod
    def _from_cells(
        cls, cells: np.ndarray, n: int, cutoff: int, truncation_loss: float = 0.0
    ) -> "FockState":
        """The state of sector ``n`` with amplitudes ``cells`` on |k, n-k>, k in ``sector_kets``.

        Its norm is checked over the cells; they are kept read-only, and no
        grid is built until ``amplitudes`` is read.
        """
        cells = np.asarray(cells, dtype=np.complex128)
        if cells.shape != (_sector_span(n, cutoff)[1],):
            raise ParameterError(
                f"{cells.shape} cells do not fill sector {n} of a cutoff {cutoff} grid"
            )
        _check_loss(truncation_loss)
        _check_norm(squared_norm(cells))
        cells.flags.writeable = False
        state = object.__new__(cls)
        state.__dict__.update(cutoff=cutoff, truncation_loss=truncation_loss, _sector=n,
                              _cells=cells)
        return state

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only when ``name`` is not in the instance: a cell-held grid not yet built
        cells = self.__dict__.get("_cells") if name == "amplitudes" else None
        if cells is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        grid = np.zeros((self.cutoff + 1, self.cutoff + 1), dtype=np.complex128)
        sector_cells(grid, self._sector)[:] = cells
        grid.flags.writeable = False
        return self.__dict__.setdefault("amplitudes", grid)  # the first grid stored wins

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.cutoff, self.truncation_loss) != (other.cutoff, other.truncation_loss):
            return False
        if self._cells is not None and self._sector == other._sector:
            return np.array_equal(self._cells, other._cells)
        return np.array_equal(self.amplitudes, other.amplitudes)

    @classmethod
    def from_grid(cls, grid: np.ndarray, truncation_loss: float = 0.0) -> "FockState":
        """Renormalize a copy of ``grid`` and wrap it, enforcing ``DEFAULT_LOSS_CEILING``."""
        return cls._normalized(np.array(grid, dtype=np.complex128), truncation_loss)

    @classmethod
    def _normalized(cls, grid: np.ndarray, truncation_loss: float) -> "FockState":
        """:meth:`from_grid` of a complex grid that is the caller's to give: divided in place.

        ``grid /= nrm`` gives the bits of ``grid / nrm``, with no second grid.
        The state holds ``grid`` itself, read-only.
        """
        check_truncation_loss(truncation_loss)
        nrm = math.sqrt(squared_norm(grid))
        if nrm == 0.0:
            raise NormalizationError("cannot normalize a zero amplitude grid")
        grid /= nrm
        return cls(grid, grid.shape[0] - 1, truncation_loss)

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def probabilities(self) -> np.ndarray:
        """Occupation probabilities ``|<j,k|psi>|^2`` as a real grid."""
        return np.abs(self.amplitudes) ** 2


def nonzero_cells(grid: np.ndarray) -> np.ndarray:
    """``grid != 0`` for a complex grid, about six times faster at cutoff 400.

    Compares the real and imaginary parts as one float array, then reads each
    cell's pair of booleans as one 16-bit word, which is nonzero when either
    part is (so -0.0 counts as zero and NaN as nonzero, as for ``!=``).
    """
    parts = np.ascontiguousarray(grid).view(np.float64) != 0
    return parts.view(np.uint16) != 0


def _sector_span(n: int, cutoff: int) -> Tuple[int, int]:
    """The first k of sector ``n`` on a ``cutoff`` grid, and the number of its cells there."""
    low = max(0, n - cutoff)
    return low, max(0, min(n, cutoff) + 1 - low)


def sector_kets(n: int, cutoff: int) -> np.ndarray:
    """The run of k, read-only, for which a ``cutoff`` grid holds the ket |k, n-k>."""
    low, count = _sector_span(n, cutoff)
    ks = np.arange(low, low + count)
    ks.flags.writeable = False
    return ks


def sector_cells(grid: np.ndarray, n: int) -> np.ndarray:
    """The amplitudes of ``grid`` on |k, n-k>, k in ``sector_kets``, as a view where it can.

    Cell (k, n-k) lies ``cutoff`` flat places after (k-1, n-k+1), so the run
    is one strided slice of the flattened grid (a copy if ``grid`` is not
    C-contiguous).
    """
    cutoff = grid.shape[0] - 1
    low, count = _sector_span(n, cutoff)
    start, step = low * cutoff + n, cutoff or 1
    return grid.reshape(-1)[start : start + count * step : step]


def state_cells(state: FockState, sectors: Sequence[int]) -> List[np.ndarray]:
    """The amplitudes of ``state`` on each of ``sectors``, in ``sector_kets`` order.

    A state that holds its cells (see :class:`FockState`), asked for its own
    sector, returns them, read-only, and builds no grid. Otherwise each
    sector is read through :func:`sector_cells` from the grid made
    C-contiguous once, so each is a view, and a grid of another memory order
    is copied once, not once per sector.
    """
    if state._cells is not None and len(sectors) == 1 and sectors[0] == state._sector:
        return [state._cells]
    grid = np.ascontiguousarray(state.amplitudes)
    return [sector_cells(grid, n) for n in sectors]


def occupied_sectors(state: FockState) -> List[int]:
    """Photon numbers, ascending, of the sectors ``state`` occupies.

    A state that holds the cells of its sector (``FockState._sector``)
    occupies that sector alone. Any other state is scanned: it occupies the
    sectors where ``nonzero_cells`` holds, read one strip of rows at a time
    (:func:`strip_rows`). Each strip's booleans are laid out skewed, row r
    of the strip r places further right than row 0, so that the cells of
    sector j + k share one column; a column with a nonzero cell is an
    occupied sector.
    """
    if state._sector is not None:
        return [state._sector]
    grid = state.amplitudes
    dim = grid.shape[0]
    occupied = np.zeros(2 * dim - 1, dtype=bool)
    step = strip_rows(dim)
    for top in range(0, dim, step):
        held = nonzero_cells(grid[top : top + step])
        rows, width = len(held), dim + len(held) - 1
        # row r at r (width + 1), which is place r of row r when rows are width apart
        skewed = np.zeros(rows * (width + 1), dtype=bool)
        skewed.reshape(rows, width + 1)[:, :dim] = held
        columns = skewed[: rows * width].reshape(rows, width)
        occupied[top : top + width] |= np.logical_or.reduce(columns, axis=0)
    return np.flatnonzero(occupied).tolist()


class SectorLayout(NamedTuple):
    """The cells of several photon-number sectors of a cutoff grid, one run each.

    Run i holds sector ``sectors[i]``: entries ``offsets[i]`` up to
    ``offsets[i + 1]`` of ``rows`` and ``cols``, the kets |k, n-k> for k in
    ``sector_kets(n, cutoff)`` in k order, starting at k = ``lows[i]``.
    """

    sectors: List[int]
    lows: List[int]
    offsets: List[int]
    rows: np.ndarray
    cols: np.ndarray


def sector_layout(sectors: Sequence[int], cutoff: int) -> SectorLayout:
    """The runs of ``sectors``, photon numbers up to 2 * ``cutoff``, one after another."""
    sectors = list(sectors)
    lows = [n - cutoff if n > cutoff else 0 for n in sectors]
    lengths = [(n if n < cutoff else cutoff) + 1 - low for n, low in zip(sectors, lows)]
    offsets = list(accumulate(lengths, initial=0))
    counts = np.array(lengths)
    # the p-th cell of the layout holds k = p - (offset - low) of its run
    rows = np.arange(offsets[-1])
    rows -= np.array([start - low for start, low in zip(offsets, lows)]).repeat(counts)
    cols = np.array(sectors).repeat(counts)
    cols -= rows
    return SectorLayout(sectors, lows, offsets, rows, cols)


def make_fock(j: int, k: int, cutoff: int) -> FockState:
    """Basis ket ``|j, k>`` on a grid with the given per-mode cutoff."""
    if cutoff < 0:
        raise ParameterError("cutoff must be non-negative")
    if j < 0 or k < 0 or j > cutoff or k > cutoff:
        raise CutoffExceededError(
            f"occupation ({j}, {k}) exceeds cutoff {cutoff} (or is negative)"
        )
    low, count = _sector_span(j + k, cutoff)
    cells = np.zeros(count, dtype=np.complex128)
    cells[j - low] = 1.0
    return FockState._from_cells(cells, j + k, cutoff)


def pad_to(state: FockState, cutoff: int) -> FockState:
    """Embed ``state`` in a larger grid by zero padding (moments are unchanged).

    A state that holds the cells of its sector n gets them back in the larger
    cutoff's run of sector n, which starts no later, and builds no grid.
    """
    if cutoff < state.cutoff:
        raise ParameterError(f"cannot pad cutoff {state.cutoff} down to {cutoff}")
    if cutoff == state.cutoff:
        return state
    cells, n = state._cells, state._sector
    if cells is None:
        grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
        grid[: state.dim, : state.dim] = state.amplitudes
        return FockState(grid, cutoff, state.truncation_loss)
    low, count = _sector_span(n, cutoff)
    start = _sector_span(n, state.cutoff)[0] - low
    padded = np.zeros(count, dtype=np.complex128)
    padded[start : start + len(cells)] = cells
    return FockState._from_cells(padded, n, cutoff, state.truncation_loss)


def _common_grids(x: FockState, y: FockState) -> Tuple[np.ndarray, np.ndarray]:
    """Both amplitude grids on the larger cutoff, the smaller one zero-padded."""
    cutoff = max(x.cutoff, y.cutoff)
    return pad_to(x, cutoff).amplitudes, pad_to(y, cutoff).amplitudes


def inner(x: FockState, y: FockState) -> complex:
    """Inner product ``<x|y>`` with conjugation on ``x``.

    Mismatched cutoffs are reconciled by zero-padding the smaller grid.
    """
    gx, gy = _common_grids(x, y)
    return complex(np.vdot(gx, gy))


def state_distance(x: FockState, y: FockState) -> float:
    """Global-phase-insensitive distance ``min_theta ||x - e^{i theta} y||``.

    Computed by aligning the phase of ``y`` to ``x`` first, which avoids the
    catastrophic cancellation of the ``2 - 2|<x|y>|`` form near zero.
    """
    overlap = inner(y, x)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    gx, gy = _common_grids(x, y)
    return float(np.linalg.norm(gx - phase * gy))


def squared_norm(x: np.ndarray) -> float:
    """``np.vdot(x, x).real`` of a complex array, summed by numpy alone.

    One einsum over the array's float64 view, so a C-contiguous array is read
    in place, with no temporary.
    """
    xs = np.ascontiguousarray(x).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", xs, xs))


#: Round-off per unit of <N^2> = <(n_a + n_b)^2> of anything summed from a
#: state's number moments: 32 u, u = 2^-53 the unit round-off, about three
#: times the largest spread of the closed-form QFI routes, 9.8 u <N^2>, over
#: the fixed-n probes up to cutoff 1300 and the continuous families (Higham,
#: Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3-4). The QFI
#: routes and every verdict read from them are judged against it.
ROUTE_ROUNDOFF = 32 * 2.0**-53


@dataclass(frozen=True)
class NumberMoments:
    """Diagonal normal-ordered moments ``<adag^p a^p bdag^r b^r>`` of one state.

    ``a`` is ``<adag a>``, ``aa`` is ``<adag^2 a^2>``, ``ab`` is
    ``<adag bdag a b>``, and ``b`` and ``bb`` are those of mode b.
    """

    a: float
    b: float
    aa: float
    bb: float
    ab: float


def _column_sums(grid: np.ndarray) -> np.ndarray:
    """The column sums of a real grid, pairwise down its rows, in its first row.

    The bottom half of the rows is added into the top half until one row is
    left, so each sum takes ceil(log2 rows) rounds. ``grid`` is overwritten.
    """
    rows = grid.shape[0]
    while rows > 1:
        half = rows // 2
        grid[:half] += grid[rows - half : rows]
        rows -= half
    return grid[0]


def _sum_rows(probs: np.ndarray, levels: np.ndarray, sums: np.ndarray) -> None:
    """Row sums of ``probs`` into ``sums[0]``; ``probs *= levels``, summed into ``sums[1]``."""
    np.add.reduce(probs, axis=1, out=sums[0])
    probs *= levels  # k p_jk
    np.add.reduce(probs, axis=1, out=sums[1])


def _add_differences(probs: np.ndarray, j: int, weights: np.ndarray, scratch: np.ndarray) -> None:
    """Add row i of ``probs``, row j + i of a grid, to ``weights[c - d]`` over its d = j + i - k.

    Each entry of ``weights`` takes its terms in order of rows, as a loop
    adding one row after another would, with one numpy sum for all the rows:
    ``scratch`` holds the entries the rows reach as its first row, and under
    them the rows, each one place left of the row before, so that a column
    holds the terms of one d, with zeros around them. ``np.add.reduce`` down
    the columns of a C-ordered layout adds the rows one after another, not
    pairwise, and adding a zero to a float is exact. A loop over the rows
    would take one numpy call per row, about twice the time at cutoff 160.
    """
    count, dim = probs.shape
    width = dim + count - 1  # d = j + count - 1, ..., j - c
    window = weights[dim - j - count : dim - j - count + width]
    skewed = scratch[: (count + 1) * (width + 1)].reshape(count + 1, width + 1)
    skewed[0, :width] = window
    skewed[1:] = 0
    # row i at place count - 1 - i of row i + 1, when rows are width apart
    rows = skewed.reshape(-1)[width + count : (count + 1) * width + count]
    rows.reshape(count, width)[:, :dim] = probs
    np.add.reduce(skewed[:, :width], axis=0, out=window)


def _grid_sums(
    grid: np.ndarray, levels: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """The row sums r_j, the sums ``sum_k k p_jk`` and the ``k c_k`` of a grid, and p(d).

    The grid is read in one pass, a strip of rows (:func:`strip_rows`) at a
    time, squared as p = re^2 + im^2 in C order, so a Fortran-ordered grid
    sums as its C-ordered copy does. Each strip's squares are added to
    ``weights[c - d]`` over their d = j - k (:func:`_add_differences`), so
    each p(d) sums its cells in order of j, from 0. The rows are then summed,
    multiplied by k and summed again. The first ``top`` rows, those that
    :func:`_column_sums`' first round keeps, are squared into a half-height
    accumulator; each later row ``top + i`` is squared into a strip buffer
    and added onto row i: that first round, in its operand order, so
    :func:`_column_sums` finishes the fold with the bits of the whole grid's.
    """
    dim = grid.shape[0]
    step = strip_rows(dim)
    top = dim - dim // 2
    height = min(step, top)
    folded = np.empty((top, dim))
    probs = np.empty((height, dim))
    scratch = np.empty((height + 1) * (dim + height))  # imaginary squares, then skewed rows
    sums = np.empty((2, dim))  # r_j, then sum_k k p_jk
    for start in chain(range(0, top, step), range(top, dim, step)):
        stop = min(start + step, top if start < top else dim)
        block = grid[start:stop]
        strip = folded[start:stop] if start < top else probs[: stop - start]
        np.square(block.real, out=strip)
        strip += np.square(block.imag, out=scratch[: strip.size].reshape(strip.shape))
        _add_differences(strip, start, weights, scratch)
        _sum_rows(strip, levels, sums[:, start:stop])
        if start >= top:
            folded[start - top : stop - top] += strip
    return sums[0], sums[1], _column_sums(folded)


def _read(state: FockState) -> Tuple[NumberMoments, np.ndarray]:
    """The number moments and p(d) of ``state``, read once and kept in it (``FockState._read``)."""
    if not isinstance(state, FockState):
        raise ParameterError("reading probabilities requires a normalized FockState")
    read = state._read
    if read is None:
        read = state.__dict__.setdefault("_read", _read_probabilities(state))
    return read


def number_moments(state: FockState) -> NumberMoments:
    """``<adag^p a^p bdag^r b^r>`` for p + r <= 2, from one probability grid.

    Every diagonal moment is a weighted sum of the probabilities
    ``p_jk = |psi_jk|^2``: with row sums ``r_j`` and column sums ``c_k``,
    ``<adag a> = sum_j j r_j``, ``<adag^2 a^2> = sum_j j(j-1) r_j``, the b
    moments the same over ``c_k``, and ``<n_a n_b> = sum_j j sum_k k p_jk``.
    Each sum is pairwise (numpy's along a row, :func:`_column_sums` down the
    columns), so the rounding error grows with the logarithm of the number of
    cells, and every term is non-negative, so it is a relative error. The
    grid is read by :func:`_grid_sums`, which takes a half-height accumulator
    of k p, a quarter of a complex grid, and two buffers of a strip, or of
    that accumulator's height for a grid of one strip.

    A state that holds the cells of its sector n (``FockState._cells``)
    costs O(c) instead: only those at most c + 1 cells are read and
    squared, and their p and k p are scattered into the row and column sums.
    In such a grid every row and every column holds at most one nonzero
    cell, and adding zeros to a float is exact, so the dense sums would
    return that one term unchanged: both ways give the same bits.

    The state is read once, for its moments and its :func:`difference_weights`
    together. The first read stores both in the state (``FockState._read``),
    the first stored winning, as a cell-held state stores its grid; every
    later call returns that record, so ``analyze``, the variance route, the
    fidelity route and a report on one state share one pass.
    """
    return _read(state)[0]


def difference_weights(state: FockState) -> np.ndarray:
    """p[c - d], the weight of ``state`` on the cells (j, k) with j - k = d, for d = c, ..., -c.

    Taken in the one read of the state that takes its :func:`number_moments`,
    and kept with them, read-only. A grid's p(d) sums its cells in order of
    j, from 0; a state that holds the cells of its sector n has one cell on
    each d = 2k - n, so its p(d) is that cell's p, the bits its grid gives.
    """
    return _read(state)[1]


def _read_probabilities(state: FockState) -> Tuple[NumberMoments, np.ndarray]:
    """The moments of :func:`number_moments` and the p(d) of :func:`difference_weights`."""
    cells, cutoff = state._cells, state.cutoff
    levels = np.arange(state.dim, dtype=np.float64)
    weights = np.zeros(2 * cutoff + 1)
    if cells is None:
        rows, weighted_rows, weighted_cols = _grid_sums(state.amplitudes, levels, weights)
    else:
        n = state._sector
        js = sector_kets(n, cutoff)  # the cells (j, n - j), one per row and column
        ks = n - js
        probs = np.square(cells.real)
        probs += np.square(cells.imag)
        rows, weighted_rows, weighted_cols = np.zeros((3, state.dim))
        rows[js] = probs
        # one cell on each d = j - k, c - d falling by 2 from cell to cell
        last = cutoff - js[-1] + ks[-1]
        weights[last : last + 2 * len(js) : 2] = probs[::-1]
        probs *= ks  # k p_jk, with k exact as a float
        weighted_rows[js] = probs
        weighted_cols[ks] = probs
    weights.flags.writeable = False
    a = float((levels * rows).sum())
    b = float(weighted_cols.sum())
    # j(j-1) and (k-1) from j, k = 1 on, where both are non-negative
    aa = float((levels[1:] * levels[:-1] * rows[1:]).sum())
    bb = float((levels[:-1] * weighted_cols[1:]).sum())
    ab = float((levels * weighted_rows).sum())
    return NumberMoments(a, b, aa=aa, bb=bb, ab=ab), weights
