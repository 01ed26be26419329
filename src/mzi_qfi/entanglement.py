"""Mode-picture entanglement across the two interferometer arms.

The amplitude grid of a pure two-mode state, read as a matrix (mode-a index
by mode-b index), has singular values that are exactly the Schmidt
coefficients of the a|b split. The state is a product across the arms iff a
single coefficient carries all the weight.

The grid is usually sparse in a structured way, so the singular values are
taken on its support only. The nonzero cells (a cell counts when its real or
imaginary part is nonzero, however small) are the edges of a bipartite graph
between the occupied rows and columns; after permuting rows and columns, the
grid is block diagonal in the connected components of that graph, and its
singular values are those of the blocks together. A block that is a single
cell has the singular value |a|, so a diagonal grid (two-mode squeezed vacuum)
or an anti-diagonal one (a fixed-photon-number probe) costs O(c^2) for the
scan and O(c) for the values.

A larger block is usually of low rank: one for a coherent or squeezed-vacuum
pair, one for each of the amplified Bell state's two blocks, two for an
entangled coherent state. Its values come from a fully pivoted cross
approximation (adaptive cross approximation: Bebendorf, Numer. Math. 86, 565
(2000); Goreinov, Tyrtyshnikov & Zamarashkin, Linear Algebra Appl. 261, 1
(1997)). Each cross takes the largest cell of the residual, the block itself
at first, as its pivot p and subtracts the rank-one matrix through the
pivot's row and column, which zeroes both. After r crosses the block is
A = U P W + R: the pivots on the diagonal of P, the residual columns through
them divided by them in U, the residual rows divided by them in W, so every
entry of U and W is at most 1 in modulus and 1 at a pivot. By Weyl's
inequality each singular value of U P W lies within ||R||_2 <= ||R||_F of
the block's, so the crosses stop once ||R||_F is at most ``CROSS_TOL`` (for
a grid of unit norm, as every state's is). With the Cholesky factors of the
r x r Gram matrices, U^H U = L_U L_U^H and W W^H = L_W L_W^H, the product is
U P W = Q_U (L_U^H P L_W) Q_W^H for Q_U and Q_W with orthonormal columns, so
its values are those of the r x r core L_U^H P L_W. Each cross is one pass
over the block, so a block of rank r costs r + 1 passes instead of an SVD.

A block falls back to a full SVD when its residual is still above
``CROSS_TOL`` after ``MAX_CROSSES`` crosses, when it stops shrinking, or
when it falls to ``ROUNDING_FLOOR``: what is left then is the rounding or
the dropped weight of the computation that made the grid, such as a
rotation, which no run of crosses removes. So does a block whose norm is
that small to begin with. The crosses are elementwise numpy and LAPACK sees
only their r x r cores, so their values do not depend on the number of BLAS
threads.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ParameterError
from .fock import FockState, nonzero_cells

#: Default tolerance on 1 - lambda_max for declaring a state separable.
SEPARABILITY_TOL = 1e-9

#: Residual Frobenius norm at which a block's crosses stop, for a grid of unit norm.
CROSS_TOL = 2.0**-48

#: Residual Frobenius norm at or below which what is left is taken for rounding.
ROUNDING_FLOOR = 2.0**-26

#: Most crosses a block takes before it falls back to a full SVD.
MAX_CROSSES = 8

#: Cells of a block that one step of a pass reads, so that its temporaries stay small.
CHUNK_CELLS = 2**13


class ModeEntanglementReport(NamedTuple):
    """Schmidt spectrum and entropy of the arm-a | arm-b partition."""

    schmidt_values: Tuple[float, ...]
    entropy: float
    entropy_bits: float
    separable: bool
    tol: float

    def as_dict(self) -> dict:
        return {
            "schmidt_values": list(self.schmidt_values),
            "entropy_nats": self.entropy,
            "entropy_bits": self.entropy_bits,
            "separable": self.separable,
            "separability_tol": self.tol,
        }


def _support_blocks(support: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of each connected block of a boolean matrix.

    ``support`` has no empty row or column. Each block grows from its first
    row by alternating sweeps: the columns its newest rows reach, then the
    rows those columns reach. Every row and column is swept once, so the
    whole search reads each cell about twice.
    """
    free_rows = np.ones(support.shape[0], dtype=bool)
    free_cols = np.ones(support.shape[1], dtype=bool)
    blocks = []
    for seed in range(support.shape[0]):
        if not free_rows[seed]:
            continue
        free_rows[seed] = False
        rows, cols = [np.array([seed])], []
        while rows[-1].size:
            reached = np.flatnonzero(support[rows[-1]].any(axis=0) & free_cols)
            free_cols[reached] = False
            cols.append(reached)
            rows.append(np.flatnonzero(support[:, reached].any(axis=1) & free_rows))
            free_rows[rows[-1]] = False
        blocks.append((np.sort(np.concatenate(rows)), np.sort(np.concatenate(cols))))
    return blocks


def _row_step(block: np.ndarray) -> int:
    """Rows of ``block`` in one step of a pass."""
    return max(1, CHUNK_CELLS // block.shape[1])


def _evenly_spaced(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> Optional[np.ndarray]:
    """``matrix[np.ix_(rows, cols)]`` as a strided view, or None.

    It is None unless both sorted index arrays are evenly spaced.
    """
    spaced = []
    for index in (rows, cols):
        step = int(index[1] - index[0]) if len(index) > 1 else 1
        if (np.diff(index) != step).any():
            return None
        spaced.append(slice(int(index[0]), int(index[-1]) + 1, step) if len(index) else slice(0))
    return matrix[tuple(spaced)]


def _gather(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """Write ``grid[np.ix_(rows, cols)]`` into ``out``, as one strided copy when it can.

    The blocks of the package's probes are evenly spaced, such as the even
    rows and columns of a squeezed-vacuum pair; others are gathered a few
    rows at a time.
    """
    view = _evenly_spaced(grid, rows, cols)
    if view is not None:
        np.copyto(out, view)
        return
    step = _row_step(out)
    for start in range(0, len(rows), step):
        out[start : start + step] = grid[np.ix_(rows[start : start + step], cols)]


def _sweep(block: np.ndarray, u: Optional[np.ndarray] = None,
           w: Optional[np.ndarray] = None) -> Tuple[int, float]:
    """One pass over ``block``: subtract the cross ``u w`` if given, then find the pivot.

    Returns the flat index of the largest cell (the first one, on a tie) and
    the Frobenius norm. The cells' moduli are squared only for the norm,
    after the caller has scaled the block to a largest part in [1/2, 1), so
    no square that matters underflows.
    """
    rows, cols = block.shape
    step = _row_step(block)
    pivot, largest, total = 0, -1.0, 0.0
    for start in range(0, rows, step):
        stop = start + step
        if u is not None:  # einsum's outer product, unlike multiply's, needs no buffers
            block[start:stop] -= np.einsum("i,j->ij", u[start:stop], w)
        at, modulus, squares = _moduli(block[start:stop])  # its moduli die on return
        if modulus > largest:
            pivot, largest = start * cols + at, modulus
        total += squares
    return pivot, math.sqrt(total)


def _moduli(cells: np.ndarray) -> Tuple[int, float, float]:
    """The flat index and modulus of the largest of ``cells``, and the sum of their squares."""
    moduli = np.abs(cells)
    at = int(moduli.argmax())
    largest = float(moduli.flat[at])
    return at, largest, float(np.square(moduli, out=moduli).sum())


def _core_singular_values(columns: List[np.ndarray], rows: List[np.ndarray],
                          pivots: List[complex]) -> np.ndarray:
    """Singular values of sum_t columns[t] pivots[t] rows[t], through an r x r core."""
    us, ws = np.array(columns), np.array(rows)
    lu = np.linalg.cholesky(np.einsum("si,ti->st", us.conj(), us))
    lw = np.linalg.cholesky(np.einsum("si,ti->st", ws, ws.conj()))
    core = lu.conj().T @ (np.array(pivots)[:, None] * lw)
    return np.linalg.svd(core, compute_uv=False)


def _block_singular_values(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Singular values of the block of ``grid`` on ``rows`` and ``cols``.

    They come from crosses where they can (see the module notes), which
    leave out the values below ``CROSS_TOL`` that the residual holds, and
    from an SVD of the block otherwise. The crosses work in place on the
    gathered block, which is gathered again for the SVD.
    """
    block = np.empty((len(rows), len(cols)), dtype=np.complex128)
    _gather(grid, rows, cols, block)
    parts = block.view(np.float64)
    top = max(float(parts.max()), -float(parts.min()))
    if top * math.sqrt(parts.size) > ROUNDING_FLOOR:  # else the block's norm is below it
        shift = -math.frexp(top)[1]
        block *= 2.0**shift  # exact: its largest part lands in [1/2, 1)
        values = _cross_singular_values(block, math.ldexp(1.0, shift))
        if values is not None:
            return np.ldexp(values, -shift)
        _gather(grid, rows, cols, block)
    return np.linalg.svd(block, compute_uv=False)


def _cross_singular_values(block: np.ndarray, scale: float) -> Optional[np.ndarray]:
    """Singular values of ``block`` by crosses, or None when it must fall back to an SVD.

    ``block`` holds the cells times ``scale``, a power of two, and is
    overwritten; the tolerances are scaled with it.
    """
    tol, floor = CROSS_TOL * scale, ROUNDING_FLOOR * scale
    pivot, norm = _sweep(block)
    columns, rows, pivots = [], [], []
    while norm > tol:
        if len(pivots) == MAX_CROSSES or norm <= floor:
            return None
        i, j = divmod(pivot, block.shape[1])
        p = block[i, j]
        u = block[:, j].copy()
        w = block[i] / p
        columns.append(u / p)  # entries at most 1, and 1 in the pivot row
        rows.append(w)  # entries at most 1, and 1 in the pivot column
        pivots.append(p)
        previous = norm
        pivot, norm = _sweep(block, u, w)
        if norm >= previous:
            return None
    return _core_singular_values(columns, rows, pivots)


def _support_singular_values(grid: np.ndarray) -> np.ndarray:
    """Singular values of ``grid`` on its support, descending.

    Zeros are left out, and so are a cross-approximated block's values below
    ``CROSS_TOL``.
    """
    support = nonzero_cells(grid)
    row_counts = support.sum(axis=1, dtype=np.int32)
    col_counts = support.sum(axis=0, dtype=np.int32)
    # a cell alone in its row and its column is a block of its own
    lone_rows = np.flatnonzero(row_counts == 1)
    lone_cols = support[lone_rows].argmax(axis=1)
    alone = col_counts[lone_cols] == 1
    lone_rows, lone_cols = lone_rows[alone], lone_cols[alone]
    values = [np.abs(grid[lone_rows, lone_cols])]
    row_counts[lone_rows] = 0
    col_counts[lone_cols] = 0
    rows, cols = np.flatnonzero(row_counts), np.flatnonzero(col_counts)
    spaced = _evenly_spaced(support, rows, cols)
    blocks = _support_blocks(support[rows][:, cols] if spaced is None else spaced)
    del support, spaced  # before any block is gathered
    for block_rows, block_cols in blocks:
        values.append(_block_singular_values(grid, rows[block_rows], cols[block_cols]))
    return np.sort(np.concatenate(values))[::-1]


def check_separability_tol(tol: float) -> None:
    """Raise ``ParameterError`` unless ``tol`` is a positive, finite :func:`schmidt` tolerance."""
    if not 0 < tol < math.inf:
        raise ParameterError(f"separability tolerance must be positive and finite, got {tol!r}")


def schmidt(state: FockState, tol: float = SEPARABILITY_TOL) -> ModeEntanglementReport:
    """Schmidt decomposition of a normalized state across the mode partition.

    The returned coefficients are descending and their squares sum to one;
    the entropy is the von Neumann entropy of the squared spectrum in nats
    (with the usual 0 log 0 = 0 convention). The spectrum is computed block
    by block on the connected support of the grid (see the module notes):
    one O(c^2) scan, then crosses of each block of more than one cell, and
    an SVD of a block only where they fall back, so a grid that is diagonal
    or anti-diagonal on its support, or a product state, costs no SVD of its
    grid. Values below ``CROSS_TOL`` of a crossed block are left out.

    A state that holds the cells of its sector (see
    :class:`mzi_qfi.fock.FockState`) builds no grid: each of its nonzero
    cells is alone in its row and its column, a block of its own, so its
    values are the sorted moduli of those cells, the bits of its grid's.
    """
    check_separability_tol(tol)
    cells = state._cells
    if cells is None:
        values = _support_singular_values(state.amplitudes)
    else:
        values = np.sort(np.abs(cells[nonzero_cells(cells)]))[::-1]
    squared = values**2
    logs = np.log(squared, out=np.zeros_like(squared), where=squared > 0)  # 0 log 0 = 0
    entropy = max(0.0, float(-np.sum(squared * logs)))  # clip round-off
    kept = tuple(float(v) for v in values if v > 1e-12)
    return ModeEntanglementReport(
        schmidt_values=kept,
        entropy=entropy,
        entropy_bits=entropy / math.log(2),
        separable=(1.0 - float(values[0])) < tol,
        tol=tol,
    )
