import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_two_mode_state
from mzi_qfi import entanglement
from mzi_qfi.entanglement import (
    CROSS_TOL,
    MAX_CROSSES,
    SEPARABILITY_TOL,
    _block_singular_values,
    _support_singular_values,
    schmidt,
)
from mzi_qfi.fock import FockState, make_fock
from mzi_qfi.qfi import qfi_variance
from mzi_qfi.schwinger import beam_splitter, mzi_unitary, phase_shift
from mzi_qfi.states import (
    FAMILIES,
    ProbeSpec,
    build,
    build_for_nbar,
    resolve_family,
)
from oracles import full_svd_schmidt_values, mean_photon_number

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


@pytest.mark.parametrize("gap, separable", [(2e-9, False), (5e-10, True)])
def test_separability_tolerance_is_1e_9(gap, separable):
    # (1 - gap)|0,0> + sqrt(1 - (1 - gap)^2)|1,1>, whose largest Schmidt value is 1 - gap
    grid = np.zeros((2, 2), dtype=complex)
    grid[0, 0] = 1 - gap
    grid[1, 1] = math.sqrt(1 - (1 - gap) ** 2)
    report = schmidt(FockState(grid, 1))
    assert 1 - report.schmidt_values[0] == pytest.approx(gap, rel=1e-6)
    assert report.separable is separable


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


@pytest.fixture
def gathered_blocks(monkeypatch):
    """Shapes of the support blocks whose singular values are taken, in call order."""
    shapes = []
    block_values = entanglement._block_singular_values

    def recording(grid, rows, cols):
        shapes.append((len(rows), len(cols)))
        return block_values(grid, rows, cols)

    monkeypatch.setattr(entanglement, "_block_singular_values", recording)
    return shapes


def test_twin_squeezed_vacuum_takes_one_cross_of_a_quarter_grid(svd_shapes, gathered_blocks):
    state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 0.9}))
    schmidt(state)
    half = state.cutoff // 2 + 1  # the even photon numbers of each mode
    assert gathered_blocks == [(half, half)]
    assert svd_shapes == [(1, 1)]  # the core of one cross, and no SVD of the block


@pytest.mark.parametrize("nbar", [4.0, 12.0])
def test_amplified_bell_takes_one_cross_of_each_half(svd_shapes, gathered_blocks, nbar):
    state, _, _ = build_for_nbar("amplified-bell", nbar)
    schmidt(state)
    assert len(gathered_blocks) == 2
    assert sum(rows for rows, _ in gathered_blocks) == state.cutoff + 1
    assert all(rows == cols for rows, cols in gathered_blocks)
    assert svd_shapes == [(1, 1), (1, 1)]


def test_subnormal_cells_count_as_support(svd_shapes, gathered_blocks):
    grid = np.zeros((4, 4), dtype=np.complex128)
    grid[0, 0] = 1.0
    grid[1, 2] = 5e-320
    grid[2, 1] = complex(0.0, 1e-170)  # its square underflows to 0
    assert _support_singular_values(grid).tolist() == [1.0, 1e-170, 5e-320]
    assert svd_shapes == [] and gathered_blocks == []
    grid[3, 0] = 0.5  # rows 0 and 3 share column 0; the subnormal cell joins column 2
    grid[0, 2] = 5e-324
    values = _support_singular_values(grid)
    assert gathered_blocks == [(3, 2)]  # rows 0, 1, 3 and columns 0, 2
    # one cross through the cell 1.0 leaves only the subnormals, far below CROSS_TOL
    assert svd_shapes == [(1, 1)]
    assert values[1] == 1e-170 and len(values) == 2
    assert abs(values[0] - math.sqrt(1.25)) <= 4e-16


def test_rotated_probe_falls_back_to_the_svd_of_its_blocks(svd_shapes, gathered_blocks):
    # a rotated squeezed-vacuum pair is a product state up to what the rotation
    # drops and rounds, about 1e-10 here, which no cross removes: its even block
    # takes one cross and then its SVD, its odd block, which holds only that, its SVD
    state = mzi_unitary(build(ProbeSpec("twin-squeezed-vacuum", {"xi": 0.8}, 100)), 0.3)
    report = schmidt(state)
    assert gathered_blocks == [(51, 51), (50, 50)]
    assert svd_shapes == gathered_blocks
    full = full_svd_schmidt_values(state)
    assert np.abs(np.array(report.schmidt_values) - full[full > 1e-12]).max() <= 1e-14


@st.composite
def cross_blocks(draw):
    """A complex block of unit Frobenius norm, the number of nonzero values it is
    built from, and its kind.

    Blocks of rank 1 to ``MAX_CROSSES`` have flat or spread spectra and any
    shape; one of their rows or columns may be scaled down to tiny or
    subnormal cells. Rank-1 blocks may have every cell perturbed by noise of
    1e-17 (below ``CROSS_TOL``) or 1e-13 (rounding that no cross removes).
    Blocks of full rank above ``MAX_CROSSES`` have a flat spectrum.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["clean", "tiny cells", "noise 1e-17", "noise 1e-13", "full"]))
    if kind == "full":
        rank = draw(st.integers(MAX_CROSSES + 1, 24))
        rows, cols = rank + draw(st.integers(0, 8)), rank + draw(st.integers(0, 8))
        values = np.ones(rank)
    else:
        rank = 1 if kind.startswith("noise") else draw(st.integers(1, MAX_CROSSES))
        rows, cols = draw(st.integers(rank, 40)), draw(st.integers(rank, 40))
        spread = draw(st.booleans())
        values = 10.0 ** rng.uniform(-3, 0, size=rank) if spread else np.ones(rank)
    if draw(st.booleans()):
        rows, cols = cols, rows
    block = (_isometry(rng, rows, rank) * values) @ _isometry(rng, cols, rank).conj().T
    if kind == "tiny cells" and max(rows, cols) > 1:  # a scaled row or column keeps the rank
        factor = draw(st.sampled_from([1e-170, 1e-310, 1e-320]))
        if cols == 1 or (rows > 1 and draw(st.booleans())):
            block[rng.integers(rows)] *= factor
        else:
            block[:, rng.integers(cols)] *= factor
    if kind.startswith("noise"):
        block /= np.linalg.norm(block)
        scale = float(kind.split()[1])
        block += scale * (rng.normal(size=block.shape) + 1j * rng.normal(size=block.shape))
    block /= np.linalg.norm(block)
    return block, rank, kind


@settings(max_examples=300, deadline=None)
@given(cross_blocks())
def test_cross_values_match_the_full_svd(case):
    block, rank, kind = case
    values = _block_singular_values(block, np.arange(block.shape[0]), np.arange(block.shape[1]))
    full = np.linalg.svd(block, compute_uv=False)
    kept = len(values)
    assert np.all(values[:-1] >= values[1:])
    assert np.abs(values - full[:kept]).max() <= 1e-14
    assert np.all(full[kept:] <= CROSS_TOL + 1e-15)  # what the crosses leave out
    if kind in ("noise 1e-13", "full"):
        assert kept == min(block.shape)  # an SVD
    elif rank == 1:
        assert kept == 1  # one cross
    elif kind == "clean":  # unless the residual grows on the way and an SVD takes over
        assert kept in (rank, min(block.shape))
    else:  # a tiny row or column may carry a value below CROSS_TOL
        assert kept <= rank or kept == min(block.shape)
