"""Reference implementations: an independent definition of the generators,
and the straightforward forms that the optimized paths must match bit for bit.

The raising and lowering operators, the Schwinger generators and their
moments built from them, and the generators' sector blocks live only here:
the package rotates through the closed-form Jx eigenbasis and needs only the
diagonal number moments. Tests check the sector blocks against the ladder
definition, and the rotations against the blocks' matrix exponential.

The other references are the straightforward form of a computation the
package now does with less work: every ladder moment lowers both sides of its
inner product separately, a rotation and a sector decomposition visit all
2c+1 photon-number sectors, the Schmidt spectrum is one SVD of the whole grid,
a phase shift evaluates its phase at every cell, a decomposition gathers the
cells of all its occupied sectors at once, the fidelity route holds
every grid of its central differences at once or sums its weights on each
difference j - k cell by cell, coherent amplitudes run
forward from the vacuum level whatever its size, and a truncation loss is a
forward sum of one-mode tails in 40-digit decimal arithmetic, the number
moments square a whole grid and fold its columns in place, the weights on
each difference j - k square a whole grid and add its rows, the occupied
sectors are found through a whole j + k grid, the twin squeezed vacuum
grid is one whole outer product and the amplified Bell grid two, and the
canonical JSON writer tests every value with ``isinstance``, one piece at a
time, and the norms of a Jx eigenbasis block square the whole block at once.
The number
moments are also summed exactly: every cell's weighted probability is split
into floats whose sum it is exactly, and ``math.fsum`` rounds their total
once. The rotation and the decomposition read the sector layout of
``mzi_qfi.fock`` one sector at a time. The rotation runs each sector through
the per-sector form of the package's kernel, which shares the package's basis
cache; the two fix the operands of every block product.
The earlier rotation, one complex ``eigh`` per sector and axis, is kept here
as a second, independent route.

The particle picture is checked in the space it describes: a fixed-n sector
becomes the symmetric 2^n qubit vector (n <= 10), whose Pauli statistics,
collective rotations and single-particle reductions are evaluated directly.
"""

import json
import math
from collections.abc import Mapping
from decimal import Decimal, localcontext
from functools import reduce

import numpy as np

from mzi_qfi.coherence import INTENSITY_FLOOR, PATH_SYMMETRY_TOL, CoherenceReport
from mzi_qfi.errors import ParameterError, SectorSupportError, TruncationOverflowError
from mzi_qfi.fock import (
    FockState,
    NumberMoments,
    nonzero_cells,
    number_moments,
    sector_kets,
    sector_layout,
)
from mzi_qfi.particle import (
    SECTOR_SUPPORT_TOL,
    WEIGHT_FLOOR,
    ParticleReport,
    Sector,
    SectorDecomposition,
    _report_from_z_stats,
)
from mzi_qfi.serialize import fmt_float
from mzi_qfi.states import _split_photon_amplitudes, squeezed_one_vector, squeezed_vacuum_vector
from mzi_qfi.schwinger import (
    DirectionLike,
    _direction,
    _EulerRotation,
    _jx_basis,
    _ladder_coupling,
    difference_phases,
    phase_shift,
)


def sector_generator_matrix(n: int, cutoff: int, v: DirectionLike) -> np.ndarray:
    """Hermitian block of v . J on the total-photon-number-n sector.

    Basis kets are |k, n-k> for the k values that fit inside the grid; for
    n <= cutoff this is the complete spin n/2 representation. Its coupling
    c_k is the one the package's Jx basis recurrence reads.
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


def _lower(grid, axis):
    dim = grid.shape[axis]
    out = np.zeros_like(grid)
    factors = np.sqrt(np.arange(1, dim))
    if axis == 0:
        out[:-1, :] = factors[:, None] * grid[1:, :]
    else:
        out[:, :-1] = factors[None, :] * grid[:, 1:]
    return out


def _split(x):
    """Veltkamp's split: x = hi + lo exactly, each with at most 26 significant bits."""
    scaled = 134217729.0 * x  # 2^27 + 1
    hi = scaled - (scaled - x)
    return hi, x - hi


def _two_product(x, y):
    """Dekker's product: x * y = p + e exactly, with p = fl(x * y), barring underflow."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def fsum_number_moments(state):
    """``fock.number_moments`` exactly rounded: one ``math.fsum`` of exact pieces per moment.

    Each term w |psi_jk|^2, with the integer weight w of the moment, is the sum
    of eight floats, four each for w re^2 and w im^2: the square as two floats,
    each times w as two more. Only products too small for their rounding error
    to be a normal float, under about 1e-270, may be inexact.
    """
    psi = state.amplitudes
    cells = np.nonzero(psi)
    j, k = (index.astype(np.float64) for index in cells)
    squares = []
    for part in (psi.real[cells], psi.imag[cells]):
        squares.extend(_two_product(part, part))

    def moment(weight):
        pieces = [piece for square in squares for piece in _two_product(weight, square)]
        return math.fsum(np.concatenate(pieces).tolist())

    return NumberMoments(moment(j), moment(k), aa=moment(j * (j - 1)), bb=moment(k * (k - 1)),
                         ab=moment(j * k))


def photon_totals(cutoff):
    """Total photon number j + k of each cell of a cutoff grid, as int32."""
    levels = np.arange(cutoff + 1, dtype=np.int32)
    return levels[:, None] + levels[None, :]


def totals_occupied_sectors(state):
    """``fock.occupied_sectors`` of a state's grid, through a whole j + k grid."""
    grid = state.amplitudes
    totals = photon_totals(grid.shape[0] - 1)[nonzero_cells(grid)]
    return np.bincount(totals).nonzero()[0].tolist()


#: A moment's computed value may differ from the exactly rounded one by
#: ceil(log2 cells) + 4 ulps, relative to the value: every sum is pairwise over
#: at most all the cells, and each term is non-negative, so no sum cancels.
EPS = np.finfo(np.float64).eps


def moment_bound(state):
    """The relative rounding bound of a number moment of ``state``, summed over its grid."""
    return (math.ceil(math.log2(state.dim**2)) + 4) * EPS


def whole_grid_number_moments(state):
    """``fock.number_moments`` of a state's grid, squared whole and its columns folded in place."""
    psi = state.amplitudes
    probs = np.square(psi.real)
    probs += np.square(psi.imag)
    levels = np.arange(state.dim, dtype=np.float64)
    rows = probs.sum(axis=1)
    probs *= levels  # k p_jk
    weighted_rows = probs.sum(axis=1)
    height = probs.shape[0]
    while height > 1:  # the column sums, pairwise down the rows, into row 0
        half = height // 2
        probs[:half] += probs[height - half : height]
        height -= half
    weighted_cols = probs[0]
    a = float((levels * rows).sum())
    b = float(weighted_cols.sum())
    aa = float((levels[1:] * levels[:-1] * rows[1:]).sum())
    bb = float((levels[:-1] * weighted_cols[1:]).sum())
    ab = float((levels * weighted_rows).sum())
    return NumberMoments(a, b, aa=aa, bb=bb, ab=ab)


def mean_photon_number(state):
    """<n_a> + <n_b> of ``state``, from its kept number moments."""
    moments = number_moments(state)
    return moments.a + moments.b


def whole_grid_difference_weights(state):
    """``fock.difference_weights`` of a state's grid: squared whole, its rows added in j order."""
    psi = state.amplitudes
    probs = np.square(psi.real)
    probs += np.square(psi.imag)
    cutoff = state.cutoff
    weights = np.zeros(2 * cutoff + 1)
    for j, row in enumerate(probs):
        weights[cutoff - j : 2 * cutoff + 1 - j] += row  # d = j, ..., j - c
    return weights


def outer_twin_squeezed_grid(xi, cutoff):
    """The unnormalized twin squeezed vacuum grid as one whole outer product."""
    v = squeezed_vacuum_vector(xi, cutoff + 1)
    return np.outer(v, v)


def outer_amplified_bell_grid(xi, cutoff):
    """The unnormalized amplified Bell grid as two whole outer products."""
    u, v = _split_photon_amplitudes()
    v0 = squeezed_vacuum_vector(xi, cutoff + 1)
    v1 = squeezed_one_vector(xi, cutoff + 1)
    return u * np.outer(v1, v0) + v * np.outer(v0, v1)


def _render(obj, pieces, indent):
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(fmt_float(float(obj)) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, Mapping):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f'{pad}  {json.dumps(str(key))}: ')
            _render(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(obj):
            pieces.append(pad + "  ")
            _render(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def piecewise_canonical_json(obj):
    """``serialize.canonical_json``, an ``isinstance`` test of every value, one piece at a time."""
    pieces = []
    _render(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def ladder_moment(state, p, q, r, s):
    """<adag^p a^q bdag^r b^s>, each side of the inner product lowered on its own."""
    left = state.amplitudes
    for _ in range(p):
        left = _lower(left, 0)
    for _ in range(r):
        left = _lower(left, 1)
    right = state.amplitudes
    for _ in range(q):
        right = _lower(right, 0)
    for _ in range(s):
        right = _lower(right, 1)
    return complex(np.vdot(left, right))


def ladder_number_moments(state):
    """The diagonal moments of ``fock.number_moments``, one ladder moment each."""
    return NumberMoments(
        ladder_moment(state, 1, 1, 0, 0),
        ladder_moment(state, 0, 0, 1, 1),
        aa=ladder_moment(state, 2, 2, 0, 0),
        bb=ladder_moment(state, 0, 0, 2, 2),
        ab=ladder_moment(state, 1, 1, 1, 1),
    )


def ladder_analyze(state, tol=PATH_SYMMETRY_TOL):
    """``coherence.analyze`` with one ladder moment per field."""
    if not 0 < tol < math.inf:
        raise ParameterError(f"path-symmetry tolerance must be positive and finite, got {tol!r}")

    def real_moment(p, q, r, s):
        value = ladder_moment(state, p, q, r, s)
        if abs(value.imag) > 1e-12:
            raise ParameterError(
                f"moment ({p},{q},{r},{s}) should be real, got imaginary part {value.imag!r}"
            )
        return value.real

    nbar_a = real_moment(1, 1, 0, 0)
    nbar_b = real_moment(0, 0, 1, 1)
    pairs_a = real_moment(2, 2, 0, 0)
    pairs_b = real_moment(0, 0, 2, 2)
    cross = real_moment(1, 1, 1, 1)

    var_na = pairs_a + nbar_a - nbar_a**2
    var_nb = pairs_b + nbar_b - nbar_b**2
    cov_nab = cross - nbar_a * nbar_b

    g2_a = pairs_a / nbar_a**2 if nbar_a >= INTENSITY_FLOOR else None
    g2_b = pairs_b / nbar_b**2 if nbar_b >= INTENSITY_FLOOR else None
    both_lit = nbar_a >= INTENSITY_FLOOR and nbar_b >= INTENSITY_FLOOR
    g2_ab = cross / (nbar_a * nbar_b) if both_lit else None

    if abs(nbar_a - nbar_b) < tol:
        if g2_a is not None and g2_b is not None:
            symmetric = abs(g2_a - g2_b) < tol
        else:
            symmetric = g2_a is None and g2_b is None
    else:
        symmetric = False

    return CoherenceReport(
        nbar_a=nbar_a,
        nbar_b=nbar_b,
        nbar=nbar_a + nbar_b,
        g2_a=g2_a,
        g2_b=g2_b,
        g2_ab=g2_ab,
        var_na=var_na,
        var_nb=var_nb,
        cov_nab=cov_nab,
        path_symmetric=symmetric,
        tol=tol,
    )


def oracle_raise(grid, axis):
    """adag|n> = sqrt(n+1)|n+1> on one axis of an amplitude grid.

    Refuses a grid with amplitude on the top level, which would leave the grid.
    """
    top = grid[-1, :] if axis == 0 else grid[:, -1]
    if np.any(top):
        raise ValueError("raising would push amplitude past the cutoff")
    dim = grid.shape[axis]
    out = np.zeros_like(grid)
    factors = np.sqrt(np.arange(1, dim))
    if axis == 0:
        out[1:, :] = factors[:, None] * grid[:-1, :]
    else:
        out[:, 1:] = factors[None, :] * grid[:, :-1]
    return out


def oracle_apply_generator(state, tag):
    """The unnormalized grid J|psi> for J in jx, jy, jz, j0, from ladder operators."""
    grid = state.amplitudes
    if tag in ("jz", "j0"):
        j = np.arange(state.dim, dtype=float)[:, None]
        k = np.arange(state.dim, dtype=float)[None, :]
        weight = (j - k) / 2 if tag == "jz" else (j + k) / 2
        return weight * grid
    adag_b = oracle_raise(_lower(grid, 1), 0)
    bdag_a = oracle_raise(_lower(grid, 0), 1)
    if tag == "jx":
        return (adag_b + bdag_a) / 2
    return -0.5j * (adag_b - bdag_a)


def ladder_j_moment(state, tag, order):
    """<J> or <J^2> for J in jx, jy, jz, j0, expanded into ladder moments.

    For example Jx^2 = (adag^2 b^2 + bdag^2 a^2 + 2 n_a n_b + n_a + n_b)/4.
    """

    def m(p, q, r, s):
        return ladder_moment(state, p, q, r, s)

    na, nb = m(1, 1, 0, 0), m(0, 0, 1, 1)
    if order == 1:
        values = {"jx": (m(1, 0, 0, 1) + m(0, 1, 1, 0)) / 2,
                  "jy": -1j * (m(1, 0, 0, 1) - m(0, 1, 1, 0)) / 2,
                  "jz": (na - nb) / 2, "j0": (na + nb) / 2}
    else:
        nanb = m(1, 1, 1, 1)
        swaps = m(2, 0, 0, 2) + m(0, 2, 2, 0)
        na2, nb2 = m(2, 2, 0, 0) + na, m(0, 0, 2, 2) + nb
        values = {"jx": (swaps + 2 * nanb + na + nb) / 4,
                  "jy": (-swaps + 2 * nanb + na + nb) / 4,
                  "jz": (na2 - 2 * nanb + nb2) / 4, "j0": (na2 + 2 * nanb + nb2) / 4}
    value = values[tag]
    assert abs(value.imag) < 1e-10, value
    return value.real


def squeezed_vacuum_reference(xi, dim):
    """Squeezed vacuum by exponentiating the truncated generator.

    Independent of the closed form ``states.squeezed_vacuum_vector``:
    diagonalizes the Hermitian xi (adag^2 + a^2)/2 on ``dim`` levels and applies
    exp(i H) to |0>. Needs headroom beyond the populated levels, because
    truncating the generator reflects weight at the boundary.
    """
    lower = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    h = xi * (lower @ lower + lower.T @ lower.T).real / 2
    evals, evecs = np.linalg.eigh(h)
    return evecs @ (np.exp(1j * evals) * evecs.T[:, 0])


def forward_coherent_vector(beta, dim):
    """The package's original coherent amplitudes, run forward from e^{-|beta|^2/2}
    whatever that start is."""
    v = np.zeros(dim, dtype=np.complex128)
    c = math.exp(-abs(beta) ** 2 / 2)
    v[0] = c
    for n in range(1, dim):
        c = c * beta / math.sqrt(n)
        v[n] = c
    return v


def poisson_magnitudes_reference(radius, dim):
    """|<n|beta>| = e^{-r^2/2} r^n / sqrt(n!) for |beta| = ``radius`` on levels 0..dim-1,
    in 50-digit decimal arithmetic, rounded to floats (0 where they underflow)."""
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(radius)
        log_r, log_c = r.ln(), -r * r / 2
        magnitudes = []
        for n in range(dim):
            if n:
                log_c += log_r - Decimal(n).ln() / 2
            magnitudes.append(float(log_c.exp()))
    return np.array(magnitudes)


def _rotate_sector(n, ks, amps, rotation):
    """Rz(alpha) Rx(beta) Rz(gamma) on the amplitudes ``amps`` of |k, n-k>, k in ``ks``.

    The per-sector form of the package's rotation, which batches every other
    step over all occupied sectors: the same four real products with the
    cached rows k = ks[0]..n/2 of the basis, on the same (cells, 4) operands (each
    cell k <= n/2 beside its mirror n-k, whose column is 0 for the middle
    cell; the even k, or the odd k, as every other row of them), and the same
    elementwise phases, mirror signs and cos/sin mixing, applied to one
    sector at a time.
    """
    start = 2 * ks[0] - n + rotation.offset  # t = 2m of the first cell
    phases = slice(start, start + 2 * len(ks) - 1, 2)
    if rotation.right is not None:
        amps = rotation.right[phases] * amps
    low, size = ks[0], n // 2 + 1
    cos, sin = rotation.cos[n % 2 : n + 1 : 2], rotation.sin[n % 2 : n + 1 : 2]
    signs = (-1.0) ** (n // 2 - np.arange(size))
    kept, stored = _jx_basis(n, low)  # the rows from k = kept <= low
    at = np.arange(size - low)  # the cells k <= n/2
    mirror = len(ks) - 1 - at  # k -> n - k
    pairs = np.stack([amps[at], np.where(mirror == at, 0, amps[mirror])], axis=1)
    quads = pairs.view(np.float64)
    parities = []
    for first in (low % 2, 1 - low % 2):  # the position of the first even k, then odd k
        rows = stored[low + first - kept :: 2]
        projections = (rows.T @ quads[first::2]).view(np.complex128)
        parities.append((slice(first, None, 2), rows, projections))
    (_, _, even_f), (_, _, odd_f) = parities
    # an odd sector's mirrors have the other parity
    even_mirrors, odd_mirrors = (odd_f, even_f) if n % 2 else (even_f, odd_f)
    y_even = even_f[:, 0] + even_mirrors[:, 1] * signs
    y_odd = odd_f[:, 0] + odd_mirrors[:, 1] * signs
    z_even = cos * y_even + sin * y_odd
    z_odd = cos * y_odd + sin * y_even
    back_even = np.stack([z_even, (z_odd if n % 2 else z_even) * signs], axis=1)
    back_odd = np.stack([z_odd, (z_even if n % 2 else z_odd) * signs], axis=1)
    for (cells, rows, _), back in zip(parities, (back_even, back_odd)):
        quads[cells] = rows @ back.view(np.float64)
    out = np.empty_like(amps)
    out[mirror] = pairs[:, 1]
    out[at] = pairs[:, 0]  # after its mirror column, for the middle cell
    if rotation.left is not None:
        out *= rotation.left[phases]
    return out


def dense_rotation(state, v, angle):
    """``schwinger.apply_rotation`` as a loop over every sector 0..2c, skipping empty ones,
    that rotates each sector on its own through :func:`_rotate_sector`."""
    j = np.arange(state.dim)[:, None]
    k = np.arange(state.dim)[None, :]
    excess = float(np.sum(state.probabilities()[(j + k) > state.cutoff]))
    if excess >= 1e-12:
        raise TruncationOverflowError(
            f"weight {excess:.3e} sits above cutoff {state.cutoff}; "
            "enlarge the grid before rotating"
        )
    grid = state.amplitudes
    rotation = _EulerRotation(v, angle, 2 * state.cutoff)
    cells, blocks = [], []
    for n in range(2 * state.cutoff + 1):
        ks = sector_kets(n, state.cutoff)
        amps = grid[ks, n - ks]
        if not np.any(amps):
            continue
        cells.append((ks, n - ks))
        blocks.append(_rotate_sector(n, ks, amps, rotation))
    rotated = np.concatenate(blocks)
    out = np.zeros_like(grid)
    out[np.concatenate([c[0] for c in cells]), np.concatenate([c[1] for c in cells])] = (
        rotated / np.linalg.norm(rotated)
    )
    return FockState(out, state.cutoff, state.truncation_loss)


def per_axis_eigh_rotation(state, v, angle):
    """The earlier rotation: one complex ``eigh`` per (sector, cutoff, axis).

    A partial sector above the cutoff is exponentiated as its truncated block,
    which reflects weight off the grid edge instead of dropping it.
    """
    grid = state.amplitudes
    out = np.zeros_like(grid)
    for n in range(2 * state.cutoff + 1):
        ks = sector_kets(n, state.cutoff)
        amps = grid[ks, n - ks]
        if not np.any(amps):
            continue
        evals, evecs = np.linalg.eigh(sector_generator_matrix(n, state.cutoff, v))
        out[ks, n - ks] = evecs @ (np.exp(-1j * angle * evals) * (evecs.conj().T @ amps))
    return FockState(out / np.linalg.norm(out), state.cutoff, state.truncation_loss)


def whole_block_jx_eigenbasis(n):
    """``schwinger._jx_eigenbasis`` with the squares of every column taken at once.

    The recurrence is the package's, step for step; the norms square the
    whole block's C-ordered transpose and sum it row by row.
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
        block[-1, 1 - n // 2 % 2 :: 2] = 0.0
    squares = np.square(block.T, order="C")
    squares[:, -1] /= 2 - n % 2
    return block / np.sqrt(2 * squares.sum(axis=1))


def dense_decompose_sectors(state):
    """``particle.decompose_sectors`` reading every sector 0..2c, empty ones included."""
    grid = state.amplitudes
    sectors = []
    weights_sum = 0.0
    occupied = 0
    for n in range(2 * state.cutoff + 1):
        ks = sector_kets(n, state.cutoff)
        amps = grid[ks, n - ks]
        occupied += bool(np.any(amps))
        weight = float(np.sum(np.abs(amps) ** 2))
        weights_sum += weight
        if weight < WEIGHT_FLOOR:
            continue
        coeffs = amps / math.sqrt(weight)
        sectors.append(Sector(n=n, weight=weight, coeffs=coeffs, cutoff=min(n, state.cutoff)))
    return SectorDecomposition(sectors=sectors, weights_sum=weights_sum, occupied=occupied)


def layout_decompose_sectors(state):
    """``particle.decompose_sectors`` as one gather of every cell of the occupied sectors.

    The occupied sectors are those with a nonzero cell, found by ``np.nonzero``
    however the state is held, and laid out by ``fock.sector_layout``. Their
    cells are gathered and squared at once, and each weight is the sum over
    its own contiguous run.
    """
    grid = state.amplitudes
    j, k = np.nonzero(grid)
    layout = sector_layout(sorted(set((j + k).tolist())), state.cutoff)
    cells = grid[layout.rows, layout.cols]
    probs = np.abs(cells) ** 2
    sectors = []
    weights_sum = 0.0
    for n, start, stop in zip(layout.sectors, layout.offsets, layout.offsets[1:]):
        weight = float(np.sum(probs[start:stop]))
        weights_sum += weight
        if weight < WEIGHT_FLOOR:
            continue
        coeffs = cells[start:stop] / math.sqrt(weight)
        sectors.append(Sector(n=n, weight=weight, coeffs=coeffs, cutoff=min(n, state.cutoff)))
    return SectorDecomposition(sectors=sectors, weights_sum=weights_sum,
                               occupied=len(layout.sectors))


def full_svd_schmidt_values(state):
    """Every singular value of the whole amplitude grid, descending, zeros included."""
    return np.linalg.svd(state.amplitudes, compute_uv=False)


def phase_shift_formula(state, phi):
    """``schwinger.phase_shift`` with exp(-i phi (j-k)/2) evaluated at every cell."""
    j = np.arange(state.dim)[:, None]
    k = np.arange(state.dim)[None, :]
    phases = np.exp(-1j * phi * (j - k) / 2)
    return FockState(phases * state.amplitudes, state.cutoff, state.truncation_loss)


def difference_weight_fidelity(state, step, richardson=True):
    """``qfi.qfi_fidelity`` at ``step``, as plain loops in the kernel's order.

    Every cell of the grid, row after row, adds its re^2 + im^2 to the weight
    p(d) of its d = j - k, from 0. Over the d with p(d) > 0, from d = c down,
    the differences T_h(d) - T_-h(d) of ``phase_shift``'s phases give the
    three terms of each d, and each list of terms is summed as one array by
    numpy, pairwise, as the kernel sums them.
    """
    grid = state.amplitudes
    weights = {}
    for j in range(state.dim):
        for k in range(state.dim):
            z = complex(grid[j, k])
            weights[j - k] = weights.get(j - k, 0.0) + (z.real * z.real + z.imag * z.imag)
    held = [d for d in range(state.cutoff, -state.cutoff - 1, -1) if weights[d] > 0]
    if step is None:
        spread = max(abs(d) for d in held)
        step = 1e-2 if spread == 0 else min(0.02 / spread, 1e-2)

    def estimate(h):
        plus = difference_phases(h, np.array(held)).tolist()
        minus = difference_phases(-h, np.array(held)).tolist()
        norms, reals, imags = [], [], []
        for d, tp, tm in zip(held, plus, minus):
            re, im = tp.real - tm.real, tp.imag - tm.imag
            norms.append((re * re + im * im) * weights[d])
            reals.append(re * weights[d])
            imags.append(im * weights[d])
        overlap = complex(np.sum(reals), -np.sum(imags))
        return (float(np.sum(norms)) - abs(overlap) ** 2) / (h * h)

    if not richardson:
        return estimate(step)
    coarse, fine = estimate(step), estimate(step / 2)
    return (4.0 * fine - coarse) / 3.0


def allocating_qfi_fidelity(state, step, richardson=True):
    """The fidelity route with every grid its own: the base shifted by 0 all the same,
    and both shifted grids, their difference and the quotient held at once."""
    base = phase_shift(state, 0.0).amplitudes

    def estimate(h):
        plus = phase_shift(state, h).amplitudes
        minus = phase_shift(state, -h).amplitudes
        derivative = (plus - minus) / (2.0 * h)
        return 4.0 * (np.vdot(derivative, derivative).real - abs(np.vdot(derivative, base)) ** 2)

    if not richardson:
        return estimate(step)
    coarse, fine = estimate(step), estimate(step / 2)
    return (4.0 * fine - coarse) / 3.0


def _decimal_tail(p0, ratio, first):
    """sum_{k >= first} p_k with p_{k+1} = p_k ratio(k), at the context's precision.

    Walks the head term by term to reach p_first, then sums forward until a
    term falls below 1e-45 of the sum at a point where the ratios are below 1.
    """
    term, total = p0, Decimal(0)
    for k in range(first):
        term *= ratio(k)
    k = first
    while True:
        total += term
        step = ratio(k)
        if step < 1 and term <= total * Decimal("1e-45"):
            return total
        term *= step
        k += 1


def truncation_loss_reference(family, value, cutoff):
    """Probability a continuous family's grid at ``cutoff`` discards, from 40-digit tails.

    One-mode distributions, pairs m or photons n: the squeezed vacuum puts
    (2m choose m) (tanh^2 xi / 4)^m / cosh xi on level 2m; the squeezed photon,
    whose amplitude on 2m + 1 is sqrt(2m + 1) / cosh xi times the vacuum's on
    2m, puts (2m + 1) / cosh^2 xi times that on level 2m + 1; a coherent mode
    is Poisson; the two-mode squeezed vacuum puts (1 - tanh^2) tanh^{2n} on
    |n, n>.
    """
    with localcontext() as ctx:
        # e^{2 xi} - 1 cancels the leading digits of a small xi: carry them too
        ctx.prec = 40 + max(0, -Decimal(abs(value)).adjusted())
        if family in ("twin-squeezed-vacuum", "amplified-bell", "two-mode-squeezed-vacuum"):
            e2 = (2 * Decimal(value)).exp()
            t2 = ((e2 - 1) / (e2 + 1)) ** 2
            cosh = (Decimal(value).exp() + (-Decimal(value)).exp()) / 2
            if family == "two-mode-squeezed-vacuum":
                return float(_decimal_tail(1 / cosh**2, lambda n: t2, cutoff + 1))
            t0 = _decimal_tail(1 / cosh, lambda m: t2 * (2 * m + 1) / (2 * m + 2), cutoff // 2 + 1)
            if family == "twin-squeezed-vacuum":
                return float(2 * t0 - t0 * t0)
            t1 = _decimal_tail(1 / cosh**3, lambda m: t2 * (2 * m + 3) / (2 * m + 2),
                               (cutoff + 1) // 2)
            return float(t0 + t1 - t0 * t1)
        alpha = complex(value)
        x = Decimal(alpha.real) ** 2 + Decimal(alpha.imag) ** 2
        if family == "coherent":
            mu = x / 2  # per arm behind the splitter
            tail = _decimal_tail((-mu).exp(), lambda n: mu / (n + 1), cutoff + 1)
            return float(2 * tail - tail * tail)
        tail = _decimal_tail((-x).exp(), lambda n: x / (n + 1), cutoff + 1)
        return float(tail / (1 + (-x).exp()))


# ---------------------------------------------------------------------------
# the particle picture, made explicit in the 2^n qubit space (n <= ORACLE_MAX_N)
# ---------------------------------------------------------------------------

ORACLE_MAX_N = 10

# Single-particle Pauli matrices in the basis (|nu>, |mu>): index 1 means the
# photon sits in arm a, so sigma_z = diag(-1, +1).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def _bit_table(n: int) -> np.ndarray:
    basis = np.arange(2**n)
    return (basis[:, None] >> np.arange(n)[None, :]) & 1


def symmetric_qubit_vector(sector_state: FockState, n: int) -> np.ndarray:
    """Map sector amplitudes c_k on |k, n-k> to the symmetric 2^n qubit vector.

    Each of the C(n, k) bitstrings with k set bits (k photons in arm a)
    receives c_k / sqrt(C(n, k)). All but ``SECTOR_SUPPORT_TOL`` of the
    state's weight must lie in sector n, whether or not the state knows its sector.
    """
    if n < 1 or n > ORACLE_MAX_N:
        raise ParameterError(f"oracle supports 1 <= n <= {ORACLE_MAX_N}, got {n}")
    weights = np.abs(sector_state.amplitudes) ** 2
    off = float(np.sum(weights[photon_totals(sector_state.cutoff) != n]))
    if off > SECTOR_SUPPORT_TOL:
        raise SectorSupportError(f"state carries weight {off:.3e} outside sector {n}")
    ks = sector_kets(n, sector_state.cutoff)
    coeff = np.zeros(n + 1, dtype=np.complex128)
    coeff[ks] = sector_state.amplitudes[ks, n - ks]
    counts = _bit_table(n).sum(axis=1)
    binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return coeff[counts] / np.sqrt(binom[counts])


def multiqubit_oracle(sector_state: FockState, n: int) -> ParticleReport:
    """Pauli statistics evaluated directly in the 2^n qubit space."""
    vec = symmetric_qubit_vector(sector_state, n)
    probs = np.abs(vec) ** 2
    bits = _bit_table(n)
    z = 2.0 * bits - 1.0
    mean_z = float(probs @ z[:, 0])
    mean_zz = float(probs @ (z[:, 0] * z[:, 1])) if n >= 2 else None
    return _report_from_z_stats(n, mean_z, mean_zz)


def dicke_isometry(n: int) -> np.ndarray:
    """Isometry from the n+1 symmetric states into the 2^n qubit space.

    Column k is the normalized equal superposition of bitstrings with k set
    bits, matching the |k, n-k> sector basis.
    """
    counts = _bit_table(n).sum(axis=1)
    s = np.zeros((2**n, n + 1), dtype=np.complex128)
    for k in range(n + 1):
        s[counts == k, k] = 1.0 / math.sqrt(math.comb(n, k))
    return s


def collective_spin_matrix(n: int, v: DirectionLike) -> np.ndarray:
    """v . J on the full 2^n space, J being half the sum of Pauli vectors."""
    d = _direction(v)
    single = (d.x * SIGMA_X + d.y * SIGMA_Y + d.z * SIGMA_Z) / 2
    eye = np.eye(2, dtype=np.complex128)
    total = np.zeros((2**n, 2**n), dtype=np.complex128)
    for i in range(n):
        factors = [single if j == i else eye for j in range(n)]
        total += reduce(np.kron, factors)
    return total


def hermitian_exponential(h: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-i gamma h) for a Hermitian matrix h, from its eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * gamma * evals)) @ evecs.conj().T


def locality_defect(n: int, v: DirectionLike, gamma: float) -> float:
    """Operator distance, on the symmetric subspace, between the collective
    rotation exp(-i gamma v.J) and the n-fold tensor power of the matching
    single-qubit rotation."""
    if n < 1:
        raise ParameterError(f"locality check needs n >= 1, got {n}")
    d = _direction(v)
    u_full = hermitian_exponential(collective_spin_matrix(n, d), gamma)
    single = hermitian_exponential((d.x * SIGMA_X + d.y * SIGMA_Y + d.z * SIGMA_Z) / 2, gamma)
    u_tensor = reduce(np.kron, [single] * n)
    s = dicke_isometry(n)
    diff = s.conj().T @ (u_full - u_tensor) @ s
    return float(np.linalg.norm(diff, 2))


def locality_check(n: int, v: DirectionLike, gamma: float, tol: float = 1e-10) -> bool:
    """True when the collective rotation factorizes into per-particle rotations."""
    return locality_defect(n, v, gamma) < tol


def reduced_single_particle(qubit_vector: np.ndarray, n: int) -> np.ndarray:
    """2x2 reduced density matrix of one particle of a symmetric n-qubit vector."""
    psi = qubit_vector.reshape(2**(n - 1), 2) if n > 1 else qubit_vector.reshape(1, 2)
    return psi.conj().T @ psi
