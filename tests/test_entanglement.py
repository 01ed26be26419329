import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_two_mode_state
from mzi_qfi.entanglement import SEPARABILITY_TOL, _support_singular_values, schmidt
from mzi_qfi.fock import FockState, make_fock
from mzi_qfi.qfi import qfi_variance
from mzi_qfi.schwinger import beam_splitter, phase_shift
from mzi_qfi.states import (
    FAMILIES,
    ProbeSpec,
    build,
    build_for_nbar,
    mean_photon_number,
    resolve_family,
)
from oracles import full_svd_schmidt_values

#: Amplitudes that count as support although they are far below every threshold.
SUBNORMALS = (complex(5e-320, 0.0), complex(0.0, -5e-320), complex(-5e-324, 5e-324))


def _isometry(rng, rows, cols):
    """A ``rows`` x ``cols`` complex matrix with orthonormal columns (rows >= cols)."""
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
    return q


@st.composite
def block_states(draw):
    """A normalized grid that is block diagonal once its rows and columns are permuted.

    Each block is U diag(s) V^H for random isometries, with every s either 0
    or in [1e-3, 1], so each Schmidt value is either round-off or far above
    the 1e-12 keep threshold. Single cells stand alone, some rows and columns
    stay empty, and subnormal amplitudes land in empty cells, where they
    count as support (isolated, or joining two blocks).
    """
    cutoff = draw(st.integers(0, 12))
    dim = cutoff + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    free_rows, free_cols = list(rng.permutation(dim)), list(rng.permutation(dim))
    grid = np.zeros((dim, dim), dtype=np.complex128)
    nonzero_value = st.floats(1e-3, 1.0)
    product = draw(st.booleans())
    if product:  # one rank-1 block
        shapes = [(draw(st.integers(1, dim)), draw(st.integers(1, dim)))]
        ranks = [1]
    else:
        shapes = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=4))
        ranks = [None] * len(shapes)
    for (r, c), rank in zip(shapes, ranks):
        r, c = min(r, len(free_rows)), min(c, len(free_cols))
        if r == 0 or c == 0:
            break
        rows, cols = free_rows[:r], free_cols[:c]
        del free_rows[:r], free_cols[:c]
        k = rank or min(r, c)
        s = [1.0] if rank else draw(st.lists(st.one_of(st.just(0.0), nonzero_value),
                                             min_size=k, max_size=k))
        u, v = _isometry(rng, r, k), _isometry(rng, c, k)
        grid[np.ix_(rows, cols)] = (u * s) @ v.conj().T
    if not product:
        for _ in range(draw(st.integers(0, 3))):
            if not free_rows or not free_cols:
                break
            grid[free_rows.pop(), free_cols.pop()] = draw(nonzero_value) * np.exp(
                1j * draw(st.floats(-math.pi, math.pi)))
    if not grid.any():
        grid[0, 0] = 1.0
    grid /= np.linalg.norm(grid)
    empty = np.argwhere(grid == 0)
    if len(empty):
        for i in draw(st.lists(st.integers(0, len(empty) - 1), max_size=4, unique=True)):
            grid[tuple(empty[i])] = draw(st.sampled_from(SUBNORMALS))
    return FockState(grid, cutoff)


def test_twin_squeezed_probe_is_mode_separable():
    state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 0.7}))
    report = schmidt(state)
    assert report.entropy < 1e-9
    assert report.separable


def test_product_state_entropy_is_exactly_nonnegative():
    report = schmidt(build(ProbeSpec("coherent", {"alpha": 2.83})))
    assert report.entropy >= 0.0
    assert report.entropy < 1e-12


def test_noon_is_maximally_two_term():
    report = schmidt(build(ProbeSpec("noon", {"n": 4})))
    assert np.allclose(report.schmidt_values, [1 / math.sqrt(2)] * 2)
    assert np.isclose(report.entropy, math.log(2))
    assert np.isclose(report.entropy_bits, 1.0)
    assert not report.separable


def test_tmsv_schmidt_spectrum_is_geometric():
    chi = 0.8
    report = schmidt(build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": chi})))
    lam = math.tanh(chi) ** 2
    n = np.arange(8)
    expected = np.sqrt(lam**n * (1 - lam))
    assert np.allclose(report.schmidt_values[:8], expected, atol=1e-10)


def test_squared_spectrum_sums_to_one(rng):
    report = schmidt(random_two_mode_state(rng, 9, 6))
    assert abs(sum(v**2 for v in report.schmidt_values) - 1.0) < 1e-10


def test_entropy_invariant_under_phase_shift(rng):
    psi = random_two_mode_state(rng, 8, 5)
    base = schmidt(psi).entropy
    for phi in (0.4, 1.9, math.pi):
        assert abs(schmidt(phase_shift(psi, phi)).entropy - base) < 1e-10


def test_beam_splitter_entangles_a_single_photon():
    out = beam_splitter(make_fock(1, 0, 1), "first")
    assert abs(schmidt(out).entropy - math.log(2)) < 1e-10


def test_mode_entanglement_not_needed_for_heisenberg_scaling():
    # a separable probe whose information beats nbar^2
    state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": math.asinh(1.0)}))
    nbar = mean_photon_number(state)
    report = schmidt(state)
    assert report.entropy < 1e-9
    assert qfi_variance(state) > nbar**2


@settings(max_examples=300, deadline=None)
@given(block_states())
def test_support_blocks_match_the_full_svd(state):
    report = schmidt(state)
    full = full_svd_schmidt_values(state)
    kept = [v for v in full if v > 1e-12]
    assert len(report.schmidt_values) == len(kept)
    assert np.abs(np.array(report.schmidt_values) - kept).max() <= 1e-14
    assert report.separable == ((1.0 - full[0]) < SEPARABILITY_TOL)
    squared = full**2
    squared = squared[squared > 0]
    assert abs(report.entropy - max(0.0, -np.sum(squared * np.log(squared)))) <= 1e-14


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices handed to ``np.linalg.svd``, in call order."""
    shapes = []
    svd = np.linalg.svd

    def counting(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


FIXED_N = [name for name in FAMILIES if resolve_family(name).photons is not None]


@pytest.mark.parametrize("spec", [
    ProbeSpec("two-mode-squeezed-vacuum", {"chi": 1.2}),
    *[ProbeSpec(name, {"n": n}) for name in FIXED_N for n in (1, 8, 64)],
], ids=lambda spec: f"{spec.family}-{spec.params}")
def test_diagonal_and_fixed_n_probes_run_no_svd(svd_shapes, spec):
    state = build(spec)
    report = schmidt(state)
    assert svd_shapes == []
    full = full_svd_schmidt_values(state)
    assert np.abs(np.array(report.schmidt_values) - full[full > 1e-12]).max() <= 1e-14


def test_twin_squeezed_vacuum_runs_one_quarter_size_svd(svd_shapes):
    state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 0.9}))
    schmidt(state)
    half = state.cutoff // 2 + 1  # the even photon numbers of each mode
    assert svd_shapes == [(half, half)]


@pytest.mark.parametrize("nbar", [4.0, 12.0])
def test_amplified_bell_runs_two_half_size_svds(svd_shapes, nbar):
    state, _, _ = build_for_nbar("amplified-bell", nbar)
    schmidt(state)
    assert len(svd_shapes) == 2
    assert sum(rows for rows, _ in svd_shapes) == state.cutoff + 1
    assert all(rows == cols for rows, cols in svd_shapes)


def test_subnormal_cells_count_as_support(svd_shapes):
    grid = np.zeros((4, 4), dtype=np.complex128)
    grid[0, 0] = 1.0
    grid[1, 2] = 5e-320
    grid[2, 1] = complex(0.0, 1e-170)  # its square underflows to 0
    assert _support_singular_values(grid).tolist() == [1.0, 1e-170, 5e-320]
    assert svd_shapes == []
    grid[3, 0] = 0.5  # rows 0 and 3 share column 0; the subnormal cell joins column 2
    grid[0, 2] = 5e-324
    _support_singular_values(grid)
    assert svd_shapes == [(3, 2)]
