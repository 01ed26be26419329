"""Truncated two-mode Fock space: states, overlaps, and number moments.

Amplitude grids are indexed ``[j, k]`` for the basis ket ``|j, k>`` with
``j`` photons in mode a and ``k`` photons in mode b, ``0 <= j, k <= cutoff``.
States are immutable, normalized :class:`FockState` values.

The package needs only the diagonal number moments ``<adag^p a^p bdag^r b^r>``
(intensities, pair coherences, and Jz = (n_a - n_b)/2). They have one core,
:func:`number_moments`, which reads them all off one grid of occupation
probabilities. Rotations and decompositions act on photon-number sectors
instead, laid out by :func:`sector_kets` and, for a rotation's many sectors,
:func:`sector_layout`. :func:`sector_cells` is the one reader of a grid's
sector, as a view, :func:`state_cells` the one reader of a state's sectors,
and :func:`occupied_sectors` the one judge of which sectors a state
occupies: its tag, or one scan through :func:`photon_totals`.

:func:`number_moments` and :func:`vdot` sum over a grid in numpy alone, not
through BLAS, whose dot products split long vectors across threads and so
round differently with the thread count.

A state may know its photon number. ``FockState._sector`` is n when every
nonzero amplitude lies in sector n, and None when that is not known. It is
set only where it is known by construction: :func:`make_fock` sets j + k,
the noon builder sets n, :func:`pad_to` and :func:`mzi_qfi.schwinger.phase_shift`
pass their input's tag on, :func:`mzi_qfi.schwinger.apply_rotation` sets it
when the rotated grid occupies one sector, and ``Sector.state`` sets the
sector's n. Grids from elsewhere are never scanned for it. The norm check,
:func:`number_moments`, :func:`occupied_sectors` (so the decomposition and the
rotation plan) and ``particle_moments`` then read only that sector.

Three of those constructors make a state that holds only its sector's cells,
in :func:`sector_kets` order, and builds its grid on the first read of
``amplitudes`` (``FockState._from_cells``): ``Sector.state``,
:func:`mzi_qfi.schwinger.apply_rotation` when the rotated grid occupies one
sector, and :func:`mzi_qfi.schwinger.phase_shift` of a state that knows its
sector. Their norm is checked on the cells, and :func:`state_cells` hands
the cells to :func:`number_moments`, equality, ``decompose_sectors``,
``particle_moments`` and ``phase_shift``, so a fixed-photon-number fringe
point or a decomposed sector costs O(c) until something else, such as
``schmidt``, the fidelity route, :func:`pad_to`, a rotation's plan or a
state file, reads its grid.
"""

from __future__ import annotations

import math
import os
from dataclasses import InitVar, dataclass, field
from itertools import accumulate
from typing import ClassVar, List, Literal, NamedTuple, Optional, Sequence, Tuple

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
    compares the arrays with ``np.array_equal``; two states that know the
    same sector compare that sector's cells alone, every other cell being 0.

    ``_in_sector``, a keyword-only argument, promises that every nonzero
    amplitude sits in the photon-number sector it names, the cells |k, n-k>
    of :func:`sector_kets`; None, the default, promises nothing. The state
    keeps it as ``_sector``, which is neither an argument nor in ``repr`` or
    equality. It is not checked: only the package's constructors of
    single-sector states pass it (see the module docstring). The norm is
    checked as ``vdot(psi, psi).real`` over the cells of that sector alone,
    at most c + 1 of them, and over the whole grid, one complex dot, when no
    sector is known. ``dataclasses.replace`` passes no ``_in_sector``, so a
    replaced state knows no sector and is checked over every cell.

    A single-sector state may instead hold just its sector's cells, read-only
    in ``_cells`` (see :meth:`_from_cells`; None for a state held by its
    grid). Its ``amplitudes`` grid is built on the first read, zeros with the
    cells scattered through :func:`sector_cells`, and stored read-only, once,
    so every reader, in any thread, gets the same grid.
    """

    amplitudes: np.ndarray
    cutoff: int
    truncation_loss: float = 0.0
    _sector: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _in_sector: InitVar[Optional[int]] = field(default=None, kw_only=True)
    _cells: ClassVar[Optional[np.ndarray]] = None

    def __post_init__(self, _in_sector: Optional[int]) -> None:
        grid = np.asarray(self.amplitudes, dtype=np.complex128)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ParameterError(f"amplitude grid must be square, got shape {grid.shape}")
        if grid.shape[0] != self.cutoff + 1:
            raise ParameterError(
                f"grid shape {grid.shape} inconsistent with cutoff {self.cutoff}"
            )
        _check_loss(self.truncation_loss)
        if _in_sector is None:
            _check_norm(float(np.vdot(grid, grid).real))
        else:
            cells = sector_cells(grid, _in_sector)  # every other cell is zero
            _check_norm(vdot(cells, cells).real)
        grid.flags.writeable = False
        object.__setattr__(self, "amplitudes", grid)
        object.__setattr__(self, "_sector", _in_sector)

    @classmethod
    def _from_cells(
        cls, cells: np.ndarray, n: int, cutoff: int, truncation_loss: float = 0.0
    ) -> "FockState":
        """The state of sector ``n`` with amplitudes ``cells`` on |k, n-k>, k in ``sector_kets``.

        Its norm is checked over the cells, as for a grid with ``_in_sector=n``;
        they are kept read-only, and no grid is built until ``amplitudes`` is read.
        """
        cells = np.asarray(cells, dtype=np.complex128)
        if cells.shape != (_sector_span(n, cutoff)[1],):
            raise ParameterError(
                f"{cells.shape} cells do not fill sector {n} of a cutoff {cutoff} grid"
            )
        _check_loss(truncation_loss)
        _check_norm(vdot(cells, cells).real)
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
        n = self._sector
        if n is not None and n == other._sector:
            return np.array_equal(*(state_cells(state, [n])[0] for state in (self, other)))
        return np.array_equal(self.amplitudes, other.amplitudes)

    @classmethod
    def from_grid(cls, grid: np.ndarray, truncation_loss: float = 0.0) -> "FockState":
        """Renormalize ``grid`` and wrap it, enforcing ``DEFAULT_LOSS_CEILING``."""
        grid = np.asarray(grid, dtype=np.complex128)  # the division below copies
        check_truncation_loss(truncation_loss)
        nrm = math.sqrt(vdot(grid, grid).real)
        if nrm == 0.0:
            raise NormalizationError("cannot normalize a zero amplitude grid")
        return cls(grid / nrm, grid.shape[0] - 1, truncation_loss)

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


def photon_totals(cutoff: int) -> np.ndarray:
    """Total photon number j + k of each cell of a cutoff grid, as int32."""
    levels = np.arange(cutoff + 1, dtype=np.int32)
    return levels[:, None] + levels[None, :]


def occupied_sectors(state: FockState) -> List[int]:
    """Photon numbers, ascending, of the sectors ``state`` occupies.

    A state that knows its photon number (``FockState._sector``) occupies
    that sector alone. Any other state is scanned: it occupies the sectors
    where ``nonzero_cells`` holds.
    """
    if state._sector is not None:
        return [state._sector]
    grid = state.amplitudes
    totals = photon_totals(grid.shape[0] - 1)[nonzero_cells(grid)]
    return np.bincount(totals).nonzero()[0].tolist()


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
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[j, k] = 1.0
    return FockState(grid, cutoff, 0.0, _in_sector=j + k)


def pad_to(state: FockState, cutoff: int) -> FockState:
    """Embed ``state`` in a larger grid by zero padding (moments are unchanged)."""
    if cutoff < state.cutoff:
        raise ParameterError(f"cannot pad cutoff {state.cutoff} down to {cutoff}")
    if cutoff == state.cutoff:
        return state
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[: state.dim, : state.dim] = state.amplitudes
    return FockState(grid, cutoff, state.truncation_loss, _in_sector=state._sector)


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


def vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """``np.vdot(x, y)`` of two complex grids of one shape, summed by numpy alone.

    The real part is one einsum over the grids' float64 views, the imaginary
    part two over their strided halves, so C-contiguous grids are read in
    place, with no temporary. The imaginary part of ``vdot(x, x)`` is zero and
    is not summed.
    """
    xs = np.ascontiguousarray(x).reshape(-1).view(np.float64)
    ys = xs if y is x else np.ascontiguousarray(y).reshape(-1).view(np.float64)
    real = float(np.einsum("i,i->", xs, ys))
    if y is x:
        return complex(real, 0.0)
    imag = np.einsum("i,i->", xs[::2], ys[1::2]) - np.einsum("i,i->", xs[1::2], ys[::2])
    return complex(real, float(imag))


@dataclass(frozen=True)
class NumberMoments:
    """Diagonal normal-ordered moments ``<adag^p a^p bdag^r b^r>`` of one state.

    ``a`` is ``<adag a>``, ``aa`` is ``<adag^2 a^2>``, ``ab`` is
    ``<adag bdag a b>``, and so on; the second-order fields are ``None`` when
    only first order was asked for.
    """

    a: float
    b: float
    aa: Optional[float] = None
    bb: Optional[float] = None
    ab: Optional[float] = None


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


def number_moments(state: FockState, order: Literal[1, 2] = 2) -> NumberMoments:
    """``<adag^p a^p bdag^r b^r>`` for p + r <= ``order``, from one probability grid.

    Every diagonal moment is a weighted sum of the probabilities
    ``p_jk = |psi_jk|^2``: with row sums ``r_j`` and column sums ``c_k``,
    ``<adag a> = sum_j j r_j``, ``<adag^2 a^2> = sum_j j(j-1) r_j``, the b
    moments the same over ``c_k``, and ``<n_a n_b> = sum_j j sum_k k p_jk``.
    Each sum is pairwise (numpy's along a row, :func:`_column_sums` down the
    columns), so the rounding error grows with the logarithm of the number of
    cells, and every term is non-negative, so it is a relative error. The
    probabilities take one real grid, half a complex one, and the squares of
    the imaginary parts another while they are added in.

    A state that knows its photon number n (``FockState._sector``) costs
    O(c) instead: only the at most c + 1 cells of sector n are read
    (:func:`state_cells`, so a state that holds its cells builds no grid) and
    squared, and their p and k p are scattered into the row and column sums.
    In such a grid every row and every column holds at most one nonzero
    cell, and adding zeros to a float is exact, so the dense sums would
    return that one term unchanged: both ways give the same bits.
    """
    if not isinstance(state, FockState):
        raise ParameterError("number_moments requires a normalized FockState")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order!r}")

    n = state._sector
    if n is None:
        psi = state.amplitudes
        probs = np.square(psi.real)
        probs += np.square(psi.imag)
        levels = np.arange(state.dim, dtype=np.float64)
        rows = probs.sum(axis=1)
        probs *= levels  # k p_jk
        weighted_rows = probs.sum(axis=1) if order == 2 else None
        weighted_cols = _column_sums(probs)  # k c_k
    else:
        js = sector_kets(n, state.cutoff)  # the cells (j, n - j), one per row and column
        ks = n - js
        [cells] = state_cells(state, [n])
        probs = np.square(cells.real)
        probs += np.square(cells.imag)
        rows, weighted_rows, weighted_cols = np.zeros((3, state.dim))
        rows[js] = probs
        probs *= ks  # k p_jk, with k exact as a float
        weighted_rows[js] = probs
        weighted_cols[ks] = probs
        levels = np.arange(state.dim, dtype=np.float64)
    a = float((levels * rows).sum())
    b = float(weighted_cols.sum())
    if order == 1:
        return NumberMoments(a, b)
    # j(j-1) and (k-1) from j, k = 1 on, where both are non-negative
    aa = float((levels[1:] * levels[:-1] * rows[1:]).sum())
    bb = float((levels[:-1] * weighted_cols[1:]).sum())
    ab = float((levels * weighted_rows).sum())
    return NumberMoments(a, b, aa=aa, bb=bb, ab=ab)
