"""Reference implementations that the optimized paths must match bit for bit.

Each one is the straightforward form of a computation the package now does
with less work: every ladder moment lowers both sides of its inner product
separately, and a rotation visits all 2c+1 photon-number sectors. The
lowering is a copy of the package's original one, so a change to the
package's lowering shows up as a difference; the rotation shares the
package's per-sector index and eigendecomposition caches, which fix the
operands of every block product.
"""

import numpy as np

from mzi_qfi.coherence import INTENSITY_FLOOR, PATH_SYMMETRY_TOL, CoherenceReport
from mzi_qfi.errors import ParameterError, TruncationOverflowError
from mzi_qfi.fock import FockState, NumberMoments
from mzi_qfi.schwinger import _direction, _sector_eig, _sector_kvals


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


def ladder_jz_moment(state, order):
    """<Jz> or <Jz^2> from ladder moments."""
    na = ladder_moment(state, 1, 1, 0, 0)
    nb = ladder_moment(state, 0, 0, 1, 1)
    if order == 1:
        return ((na - nb) / 2).real
    na2 = ladder_moment(state, 2, 2, 0, 0) + na
    nb2 = ladder_moment(state, 0, 0, 2, 2) + nb
    nanb = ladder_moment(state, 1, 1, 1, 1)
    return ((na2 - 2 * nanb + nb2) / 4).real


def dense_rotation(state, v, angle):
    """``schwinger.apply_rotation`` visiting every sector 0..2c and skipping empty ones."""
    d = _direction(v)
    j = np.arange(state.dim)[:, None]
    k = np.arange(state.dim)[None, :]
    excess = float(np.sum(state.probabilities()[(j + k) > state.cutoff]))
    if excess >= 1e-12:
        raise TruncationOverflowError(
            f"weight {excess:.3e} sits above cutoff {state.cutoff}; "
            "enlarge the grid before rotating"
        )
    grid = state.amplitudes
    out = np.zeros_like(grid)
    for n in range(2 * state.cutoff + 1):
        ks = _sector_kvals(n, state.cutoff)
        amps = grid[ks, n - ks]
        if not np.any(amps):
            continue
        evals, evecs = _sector_eig(n, state.cutoff, d.x, d.y, d.z)
        out[ks, n - ks] = evecs @ (np.exp(-1j * angle * evals) * (evecs.conj().T @ amps))
    return FockState.from_grid(out, state.truncation_loss)
