"""Truncated two-mode Fock space: states, overlaps, and number moments.

Amplitude grids are indexed ``[j, k]`` for the basis ket ``|j, k>`` with
``j`` photons in mode a and ``k`` photons in mode b, ``0 <= j, k <= cutoff``.
States are immutable, normalized :class:`FockState` values.

The package needs only the diagonal number moments ``<adag^p a^p bdag^r b^r>``
(intensities, pair coherences, and Jz = (n_a - n_b)/2). They have one core,
:func:`number_moments`, which lowers each grid once, into one of two reused
grids, and takes every moment as the squared norm of a lowered grid, so
nothing is ever raised past the cutoff. Rotations act on photon-number
sectors instead (see :mod:`mzi_qfi.schwinger`), laid out by
:func:`sector_kets`, :func:`photon_totals`, :func:`occupied_sectors` and, for
the cells of many sectors at once, :func:`sector_layout`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import List, Literal, NamedTuple, Optional, Sequence, Tuple

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


def check_truncation_loss(loss: float, ceiling: float) -> None:
    """Raise ``TruncationLossError`` if ``loss`` exceeds ``ceiling``."""
    if loss > ceiling:
        raise TruncationLossError(f"truncation loss {loss:.3e} exceeds ceiling {ceiling:.3e}")


@dataclass(frozen=True)
class FockState:
    """Normalized two-mode state on a square ``(cutoff+1) x (cutoff+1)`` grid.

    ``truncation_loss`` is the probability discarded before the grid was
    renormalized; it is zero for states assembled directly from basis kets.
    Instances are immutable and safe to share across threads. ``_norm_squared``
    keeps the squared norm the constructor checks, ``vdot(psi, psi).real``,
    for readers that need it again; it is not an argument and takes no part
    in ``repr`` or equality, which compares the arrays with ``np.array_equal``.
    """

    amplitudes: np.ndarray
    cutoff: int
    truncation_loss: float = 0.0
    _norm_squared: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grid = np.asarray(self.amplitudes, dtype=np.complex128)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ParameterError(f"amplitude grid must be square, got shape {grid.shape}")
        if grid.shape[0] != self.cutoff + 1:
            raise ParameterError(
                f"grid shape {grid.shape} inconsistent with cutoff {self.cutoff}"
            )
        if self.truncation_loss < 0:
            raise ParameterError("truncation_loss must be non-negative")
        # one complex dot; written so that a NaN or infinite norm fails the check
        norm_squared = float(np.vdot(grid, grid).real)
        nrm = math.sqrt(norm_squared)
        if not abs(nrm - 1.0) <= _NORM_TOL:
            raise NormalizationError(f"state norm {nrm!r} deviates from 1 beyond {_NORM_TOL}")
        grid.flags.writeable = False
        object.__setattr__(self, "amplitudes", grid)
        object.__setattr__(self, "_norm_squared", norm_squared)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.cutoff, self.truncation_loss) == (other.cutoff, other.truncation_loss)
        return same and np.array_equal(self.amplitudes, other.amplitudes)

    @classmethod
    def from_grid(
        cls,
        grid: np.ndarray,
        truncation_loss: float = 0.0,
        loss_ceiling: float = DEFAULT_LOSS_CEILING,
    ) -> "FockState":
        """Renormalize ``grid`` and wrap it, enforcing the loss ceiling."""
        grid = np.asarray(grid, dtype=np.complex128)  # the division below copies
        check_truncation_loss(truncation_loss, loss_ceiling)
        nrm = float(np.linalg.norm(grid))
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


def sector_kets(n: int, cutoff: int) -> np.ndarray:
    """The run of k, read-only, for which a ``cutoff`` grid holds the ket |k, n-k>."""
    ks = np.arange(max(0, n - cutoff), min(n, cutoff) + 1)
    ks.flags.writeable = False
    return ks


@lru_cache(maxsize=4)
def photon_totals(cutoff: int) -> np.ndarray:
    """Total photon number j + k of each cell of a cutoff grid; read-only int32, four are kept."""
    levels = np.arange(cutoff + 1, dtype=np.int32)
    totals = levels[:, None] + levels[None, :]
    totals.flags.writeable = False
    return totals


def occupied_sectors(grid: np.ndarray) -> List[int]:
    """Photon numbers, ascending, of the sectors where ``nonzero_cells(grid)`` holds."""
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

    def take(self, grid: np.ndarray) -> np.ndarray:
        """The amplitudes of the laid-out cells of ``grid``, in layout order."""
        flat = self.rows * grid.shape[1]
        flat += self.cols
        return grid.reshape(-1)[flat]


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
    return FockState(grid, cutoff, 0.0)


def pad_to(state: FockState, cutoff: int) -> FockState:
    """Embed ``state`` in a larger grid by zero padding (moments are unchanged)."""
    if cutoff < state.cutoff:
        raise ParameterError(f"cannot pad cutoff {state.cutoff} down to {cutoff}")
    if cutoff == state.cutoff:
        return state
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[: state.dim, : state.dim] = state.amplitudes
    return FockState(grid, cutoff, state.truncation_loss)


def _lower(grid: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a|n> = sqrt(n)|n-1> along ``axis``: out[n] = sqrt(n+1) * grid[n+1], out[top] = 0.

    ``out``, a C-contiguous complex grid of the same shape that is not
    ``grid``, is written in full, so it may hold anything; a fresh one is
    allocated when it is None.
    """
    grid = np.ascontiguousarray(grid)
    dim = grid.shape[axis]
    if out is None:
        out = np.empty(grid.shape, dtype=grid.dtype)
    # complex factors, so the product runs without casting them
    factors = np.sqrt(np.arange(1, dim + 1)).astype(np.complex128)
    if axis == 0:
        np.multiply(factors[:-1, None], grid[1:, :], out=out[:-1, :])
        out[-1, :] = 0
    else:
        # numpy buffers every operand of a product that is not contiguous, so
        # columns 1.. of all rows but the last are read as one contiguous run
        # of the flat grid; each of its rows writes one whole row of out, whose
        # last cell, taken from the next row's first, is zeroed below
        rows = dim - 1
        shifted = grid.reshape(-1)[1 : rows * dim + 1].reshape(rows, dim)
        np.multiply(factors[None, :], shifted, out=out[:-1, :])
        np.multiply(factors[:-1], grid[-1, 1:], out=out[-1, :-1])
        out[:, -1] = 0
    return out


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


@dataclass(frozen=True)
class NumberMoments:
    """Diagonal normal-ordered moments ``<adag^p a^p bdag^r b^r>`` of one state.

    ``a`` is ``<adag a>``, ``aa`` is ``<adag^2 a^2>``, ``ab`` is
    ``<adag bdag a b>``, and so on; the second-order fields are ``None`` when
    only first order was asked for.
    """

    a: complex
    b: complex
    aa: Optional[complex] = None
    bb: Optional[complex] = None
    ab: Optional[complex] = None


def number_moments(state: FockState, order: Literal[1, 2] = 2) -> NumberMoments:
    """``<adag^p a^p bdag^r b^r>`` for p + r <= ``order``, sharing the lowerings.

    A diagonal moment is ``vdot(L, L)`` with ``L = a^p b^r psi``: lowering both
    sides of the inner product never raises past the cutoff. Each lowered grid
    is made once, so the five second-order moments take five lowerings, the two
    first-order ones two, written into two reused grids.
    """
    if not isinstance(state, FockState):
        raise ParameterError("number_moments requires a normalized FockState")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order!r}")

    def norm2(lowered: np.ndarray) -> complex:
        return complex(np.vdot(lowered, lowered))

    # each lowered grid is overwritten once its moments are taken, which keeps
    # memory at two grids beside the state
    psi = state.amplitudes
    low = _lower(psi, 0)
    a = norm2(low)
    if order == 1:
        return NumberMoments(a, norm2(_lower(psi, 1, low)))
    low2 = _lower(low, 0)
    aa = norm2(low2)
    ab = norm2(_lower(low, 1, low2))
    b = norm2(_lower(psi, 1, low))
    return NumberMoments(a, b, aa=aa, bb=norm2(_lower(low, 1, low2)), ab=ab)
