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
scan and O(c) for the values, with no SVD at all. A squeezed-vacuum pair lives
on even rows and even columns, one SVD of a quarter of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ParameterError
from .fock import FockState, nonzero_cells

#: Default tolerance on 1 - lambda_max for declaring a state separable.
SEPARABILITY_TOL = 1e-9


@dataclass(frozen=True)
class ModeEntanglementReport:
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


def _support_singular_values(grid: np.ndarray) -> np.ndarray:
    """Singular values of ``grid`` on its support, descending; zeros are left out."""
    support = nonzero_cells(grid)
    row_counts = support.sum(axis=1)
    col_counts = support.sum(axis=0)
    # a cell alone in its row and its column is a block of its own
    lone_rows = np.flatnonzero(row_counts == 1)
    lone_cols = support[lone_rows].argmax(axis=1)
    alone = col_counts[lone_cols] == 1
    lone_rows, lone_cols = lone_rows[alone], lone_cols[alone]
    values = [np.abs(grid[lone_rows, lone_cols])]
    row_counts[lone_rows] = 0
    col_counts[lone_cols] = 0
    rows, cols = np.flatnonzero(row_counts), np.flatnonzero(col_counts)
    for block_rows, block_cols in _support_blocks(support[np.ix_(rows, cols)]):
        block = grid[np.ix_(rows[block_rows], cols[block_cols])]
        values.append(np.linalg.svd(block, compute_uv=False))
    return np.sort(np.concatenate(values))[::-1]


def schmidt(state: FockState, tol: float = SEPARABILITY_TOL) -> ModeEntanglementReport:
    """Schmidt decomposition of a normalized state across the mode partition.

    The returned coefficients are descending and their squares sum to one;
    the entropy is the von Neumann entropy of the squared spectrum in nats
    (with the usual 0 log 0 = 0 convention). The spectrum is computed block
    by block on the connected support of the grid (see the module notes):
    one O(c^2) scan, then an SVD per block of more than one cell, so a grid
    that is diagonal or anti-diagonal on its support costs no SVD.
    """
    if tol <= 0:
        raise ParameterError("separability tolerance must be positive")
    values = _support_singular_values(state.amplitudes)
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
