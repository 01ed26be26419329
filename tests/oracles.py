"""Reference implementations: an independent definition of the generators,
and the straightforward forms that the optimized paths must match bit for bit.

The raising and lowering operators, and the Schwinger generators and their
moments built from them, live only here: the package defines the generators
once, as the sector blocks its rotations exponentiate, and needs only the
diagonal number moments. Tests check those blocks against this ladder
definition.

The other references are the straightforward form of a computation the
package now does with less work: every ladder moment lowers both sides of its
inner product separately, and a rotation visits all 2c+1 photon-number
sectors. The lowering is a copy of the package's original one, so a change to
the package's lowering shows up as a difference; the rotation shares the
package's per-sector kernel, index cache and basis cache, which fix the
operands of every block product. The earlier rotation, one complex ``eigh``
per sector and axis, is kept here as a second, independent route.
"""

import numpy as np

from mzi_qfi.coherence import INTENSITY_FLOOR, PATH_SYMMETRY_TOL, CoherenceReport
from mzi_qfi.errors import ParameterError, TruncationOverflowError
from mzi_qfi.fock import FockState, NumberMoments
from mzi_qfi.schwinger import (
    _EulerRotation,
    _rotate_sector,
    _sector_kvals,
    sector_generator_matrix,
)


def _lower(grid, axis):
    dim = grid.shape[axis]
    out = np.zeros_like(grid)
    factors = np.sqrt(np.arange(1, dim))
    if axis == 0:
        out[:-1, :] = factors[:, None] * grid[1:, :]
    else:
        out[:, :-1] = factors[None, :] * grid[:, 1:]
    return out


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


def ladder_number_moments(state, order=2):
    """The diagonal moments of ``fock.number_moments``, one ladder moment each."""
    first = (ladder_moment(state, 1, 1, 0, 0), ladder_moment(state, 0, 0, 1, 1))
    if order == 1:
        return NumberMoments(*first)
    return NumberMoments(
        *first,
        aa=ladder_moment(state, 2, 2, 0, 0),
        bb=ladder_moment(state, 0, 0, 2, 2),
        ab=ladder_moment(state, 1, 1, 1, 1),
    )


def ladder_analyze(state, tol=PATH_SYMMETRY_TOL):
    """``coherence.analyze`` with one ladder moment per field."""
    if tol <= 0:
        raise ParameterError("path-symmetry tolerance must be positive")

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


def dense_rotation(state, v, angle):
    """``schwinger.apply_rotation`` visiting every sector 0..2c and skipping empty ones."""
    j = np.arange(state.dim)[:, None]
    k = np.arange(state.dim)[None, :]
    excess = float(np.sum(state.probabilities()[(j + k) > state.cutoff]))
    if excess >= 1e-12:
        raise TruncationOverflowError(
            f"weight {excess:.3e} sits above cutoff {state.cutoff}; "
            "enlarge the grid before rotating"
        )
    grid = state.amplitudes
    rotation = _EulerRotation(v, angle, state.cutoff)
    cells, blocks = [], []
    for n in range(2 * state.cutoff + 1):
        ks = _sector_kvals(n, state.cutoff)
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
        ks = _sector_kvals(n, state.cutoff)
        amps = grid[ks, n - ks]
        if not np.any(amps):
            continue
        evals, evecs = np.linalg.eigh(sector_generator_matrix(n, state.cutoff, v))
        out[ks, n - ks] = evecs @ (np.exp(-1j * angle * evals) * (evecs.conj().T @ amps))
    return FockState(out / np.linalg.norm(out), state.cutoff, state.truncation_loss)
