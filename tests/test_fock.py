import dataclasses
import inspect
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _SPECIAL_AMPLITUDES, random_direction, random_two_mode_state, sparse_states
from mzi_qfi import particle, schwinger
from mzi_qfi.coherence import analyze
from mzi_qfi.entanglement import schmidt
from mzi_qfi.errors import (
    CutoffExceededError,
    MziError,
    NormalizationError,
    ParameterError,
    TruncationLossError,
)
from mzi_qfi.fock import (
    FockState,
    inner,
    make_fock,
    number_moments,
    occupied_sectors,
    pad_to,
    photon_totals,
    sector_cells,
    sector_kets,
    sector_layout,
    state_distance,
    vdot,
)
from mzi_qfi.qfi import qfi_fidelity
from mzi_qfi.serialize import read_state_file, state_to_document, write_state_file
from mzi_qfi.states import ProbeSpec, build
from oracles import _lower, ladder_moment, oracle_raise


class TestMakeFock:
    def test_vacuum(self):
        state = make_fock(0, 0, 8)
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)
        assert state.amplitudes[0, 0] == 1.0
        assert state.truncation_loss == 0.0

    def test_two_zero(self):
        state = make_fock(2, 0, 8)
        assert state.amplitudes[2, 0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_exceeds_cutoff(self):
        with pytest.raises(CutoffExceededError, match="exceeds cutoff"):
            make_fock(9, 0, 8)

    def test_negative_occupation_rejected(self):
        with pytest.raises(CutoffExceededError):
            make_fock(-1, 0, 8)


class TestLadder:
    """The lowering and raising operators the test oracles build on."""

    def test_lower_single_photon(self):
        out = _lower(make_fock(1, 0, 4).amplitudes, 0)
        assert np.isclose(out[0, 0], 1.0)
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_lower_empty_mode_annihilates(self):
        out = _lower(make_fock(0, 5, 6).amplitudes, 0)
        assert np.linalg.norm(out) == 0.0

    def test_raise_sqrt_rule(self):
        out = oracle_raise(make_fock(2, 0, 8).amplitudes, 0)
        assert np.isclose(out[3, 0], math.sqrt(3))

    def test_raise_overflow_at_cutoff(self):
        with pytest.raises(ValueError, match="past the cutoff"):
            oracle_raise(make_fock(4, 0, 4).amplitudes, 0)

    def test_raise_then_lower_is_number_plus_one(self, rng):
        psi = random_two_mode_state(rng, 10, 5)
        down = _lower(oracle_raise(psi.amplitudes, 1), 1)
        nb = number_moments(psi, 1).b
        assert np.isclose(np.vdot(psi.amplitudes, down).real, nb + 1.0, atol=1e-12)


class TestInner:
    def test_grid_vdot_matches_numpy(self, rng):
        x, y = (rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)) for _ in range(2))
        for a, b in ((x, y), (x, x), (x.T, y), (y, x[::-1])):  # also views that are not C-contiguous
            assert vdot(a, b) == pytest.approx(np.vdot(a, b), rel=1e-14)
        assert vdot(x, x).imag == 0.0

    def test_self_overlap(self):
        assert np.isclose(inner(make_fock(1, 0, 3), make_fock(1, 0, 3)), 1.0)

    def test_orthogonal(self):
        assert inner(make_fock(1, 0, 3), make_fock(0, 1, 3)) == 0.0

    def test_noon_component(self):
        noon2 = build(ProbeSpec("noon", {"n": 2}))
        assert np.isclose(inner(noon2, make_fock(2, 0, 2)), 1 / math.sqrt(2))

    def test_cutoff_promotion(self):
        a = make_fock(1, 1, 3)
        b = make_fock(1, 1, 7)
        assert np.isclose(inner(a, b), 1.0)


class TestMoment:
    def test_pair_moment_of_number_state(self):
        # <adag^2 a^2> = n(n-1) on |2,0>
        assert np.isclose(number_moments(make_fock(2, 0, 8)).aa, 2.0)

    def test_cross_moment_one_one(self):
        assert np.isclose(number_moments(make_fock(1, 1, 4)).ab, 1.0)

    def test_tmsv_intensity_closed_form(self):
        # the geometric number distribution sums to a mean of sinh(chi)^2 per mode
        chi = 0.7
        state = build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": chi}))
        got = number_moments(state, 1).a
        lam = math.tanh(chi) ** 2
        series = sum(n * (1 - lam) * lam**n for n in range(200))
        assert np.isclose(series, math.sinh(chi) ** 2, atol=1e-12)
        assert np.isclose(got, math.sinh(chi) ** 2, atol=1e-10)

    def test_conjugation_symmetry(self, rng):
        psi = random_two_mode_state(rng, 9, 6)
        for p, q, r, s in [(1, 0, 0, 1), (2, 1, 0, 0), (1, 2, 2, 1), (0, 2, 1, 1)]:
            forward = ladder_moment(psi, p, q, r, s)
            backward = ladder_moment(psi, q, p, s, r)
            assert abs(forward - np.conj(backward)) < 1e-12

    def test_commutator_is_one(self, rng):
        for _ in range(20):
            psi = random_two_mode_state(rng, 12, 6)
            raised = oracle_raise(psi.amplitudes, 0)
            lowered = _lower(psi.amplitudes, 0)
            lower_then_raise = np.vdot(raised, raised)
            raise_then_lower = np.vdot(lowered, lowered)
            assert abs((lower_then_raise - raise_then_lower) - 1.0) < 1e-10

    def test_padding_leaves_moments_alone(self, rng):
        psi = random_two_mode_state(rng, 7, 5)
        padded = pad_to(psi, 15)
        for field in ("a", "b", "aa", "bb", "ab"):
            before = getattr(number_moments(psi), field)
            after = getattr(number_moments(padded), field)
            assert abs(before - after) < 1e-12
        assert abs(ladder_moment(psi, 1, 0, 0, 1) - ladder_moment(padded, 1, 0, 0, 1)) < 1e-12


class TestFockStateInvariants:
    def test_unnormalized_grid_rejected(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[0, 0] = 0.7
        with pytest.raises(NormalizationError):
            FockState(grid, 2)

    @pytest.mark.parametrize("deviation", [5e-13, -5e-13])
    def test_norm_just_inside_tolerance_accepted(self, rng, deviation):
        grid = random_two_mode_state(rng, 5, 6).amplitudes * (1 + deviation)
        assert np.array_equal(FockState(grid, 5).amplitudes, grid)

    @pytest.mark.parametrize("deviation", [2e-12, -2e-12])
    def test_norm_just_outside_tolerance_rejected(self, rng, deviation):
        grid = random_two_mode_state(rng, 5, 6).amplitudes * (1 + deviation)
        with pytest.raises(NormalizationError) as raised:
            FockState(grid, 5)
        message = str(raised.value)
        prefix, suffix = "state norm ", " deviates from 1 beyond 1e-12"
        assert message.startswith(prefix) and message.endswith(suffix)
        assert abs(float(message[len(prefix):-len(suffix)]) - (1 + deviation)) < 1e-15

    @pytest.mark.parametrize("value", [math.nan, complex(0, math.nan), math.inf])
    def test_non_finite_amplitude_rejected(self, value):
        grid = np.zeros((2, 2), dtype=complex)
        grid[0, 0] = 1.0
        grid[1, 1] = value
        with pytest.raises(NormalizationError, match=r"^state norm \w+ deviates from 1 beyond"):
            FockState(grid, 1)
        with pytest.raises(NormalizationError):
            FockState(np.full((2, 2), value, dtype=complex), 1)

    def test_keeps_the_checked_squared_norm_out_of_its_interface(self, rng):
        grid = random_two_mode_state(rng, 5, 6).amplitudes * (1 + 3e-13)
        state = FockState(grid, 5, 1e-15)
        assert not hasattr(state, "_norm_squared")
        assert [f.name for f in dataclasses.fields(FockState)] == [
            "amplitudes", "cutoff", "truncation_loss", "_sector"]
        with pytest.raises(TypeError):
            FockState(grid, 5, 0.0, 1.0)

    def test_from_grid_divides_by_the_two_norm(self, rng):
        grid = 3.7 * random_two_mode_state(rng, 6, 8).amplitudes
        expected = grid / np.linalg.norm(grid)
        assert np.array_equal(FockState.from_grid(grid).amplitudes, expected)

    def test_loss_ceiling_enforced(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[0, 0] = 1.0
        with pytest.raises(TruncationLossError):
            FockState.from_grid(grid, truncation_loss=1e-6)
        assert FockState.from_grid(grid, truncation_loss=1e-10).truncation_loss == 1e-10

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_from_grid_never_aliases_the_callers_grid(self, scale):
        grid = np.zeros((3, 3), dtype=np.complex128)
        grid[1, 0] = scale  # at scale 1 the renormalization divides by exactly 1
        state = FockState.from_grid(grid)
        assert not np.shares_memory(state.amplitudes, grid)
        assert grid.flags.writeable
        grid[1, 0] = 5.0
        assert state.amplitudes[1, 0] == 1.0

    def test_amplitudes_immutable(self):
        state = make_fock(0, 0, 2)
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 0.0

    def test_state_distance_ignores_global_phase(self):
        a = make_fock(1, 0, 3)
        rotated = FockState(np.exp(0.3j) * a.amplitudes, 3)
        assert state_distance(a, rotated) < 1e-15
        assert np.isclose(state_distance(a, make_fock(0, 1, 3)), math.sqrt(2))


class TestEquality:
    def test_equal_states_compare_equal(self):
        state, twin = make_fock(1, 0, 2), make_fock(1, 0, 2)
        assert (state == twin) is True and (state != twin) is False
        others = [make_fock(0, 1, 2), twin]
        assert state in others and others.index(state) == 1
        assert (state == "|1, 0>") is False

    def test_one_field_apart_is_unequal(self):
        plus = FockState(np.array([[0, 1], [1, 0]], dtype=complex) / math.sqrt(2), 1)
        minus = FockState(np.array([[0, -1], [1, 0]], dtype=complex) / math.sqrt(2), 1)
        lossy = FockState(plus.amplitudes, 1, 1e-15)
        for other in (pad_to(plus, 2), lossy, minus):
            assert (plus == other) is False and (plus != other) is True
        assert plus not in [pad_to(plus, 2), lossy, minus]

    def test_states_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(make_fock(1, 0, 2))
        with pytest.raises(TypeError):
            {make_fock(1, 0, 2)}


class TestSectorLayout:
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 5])
    def test_sector_kets_are_the_cells_the_grid_holds(self, cutoff):
        for n in range(2 * cutoff + 1):
            ks = sector_kets(n, cutoff)
            assert ks.tolist() == [k for k in range(n + 1) if k <= cutoff and n - k <= cutoff]
            assert not ks.flags.writeable

    def test_photon_totals_is_j_plus_k(self):
        totals = photon_totals(3)
        assert totals.tolist() == [[j + k for k in range(4)] for j in range(4)]
        assert totals.dtype == np.int32

    @settings(max_examples=100, deadline=None)
    @given(sparse_states())
    def test_occupied_sectors_are_those_with_a_nonzero_cell(self, state):
        j, k = np.nonzero(state.amplitudes)  # -0.0 is zero, a subnormal is not
        assert occupied_sectors(state) == sorted(set((j + k).tolist()))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12).flatmap(
        lambda c: st.tuples(st.just(c), st.sets(st.integers(0, 2 * c), min_size=1))))
    def test_layout_runs_are_the_sector_kets(self, case):
        cutoff, sectors = case
        sectors = sorted(sectors)
        layout = sector_layout(sectors, cutoff)
        assert layout.sectors == sectors and layout.offsets[0] == 0
        assert len(layout.rows) == len(layout.cols) == layout.offsets[-1]
        for n, low, start, stop in zip(sectors, layout.lows, layout.offsets, layout.offsets[1:]):
            ks = sector_kets(n, cutoff)
            assert layout.rows[start:stop].tolist() == ks.tolist()
            assert layout.cols[start:stop].tolist() == (n - ks).tolist()
            assert low == ks[0]

    def test_layout_of_partial_sectors_above_the_cutoff(self):
        layout = sector_layout([5, 7, 8], 4)
        assert layout.lows == [1, 3, 4] and layout.offsets == [0, 4, 6, 7]
        assert layout.rows.tolist() == [1, 2, 3, 4, 3, 4, 4]
        assert layout.cols.tolist() == [4, 3, 2, 1, 4, 3, 4]

    def test_layout_at_cutoff_zero_and_of_a_single_sector(self):
        vacuum = sector_layout([0], 0)
        assert (vacuum.lows, vacuum.offsets) == ([0], [0, 1])
        assert vacuum.rows.tolist() == vacuum.cols.tolist() == [0]
        single = sector_layout([400], 400)
        assert single.offsets == [0, 401]
        assert np.array_equal(single.rows, np.arange(401))
        assert np.array_equal(single.cols, 400 - np.arange(401))

    def test_sector_cells_are_a_strided_view_of_the_kets(self):
        for cutoff in range(6):
            grid = np.arange((cutoff + 1) ** 2, dtype=complex).reshape(cutoff + 1, cutoff + 1)
            for n in range(2 * cutoff + 3):
                ks = sector_kets(n, cutoff)
                cells = sector_cells(grid, n)
                assert np.array_equal(cells, grid[ks, n - ks]), (cutoff, n)
                assert np.shares_memory(cells, grid) or not len(ks)
        transposed = np.arange(16, dtype=complex).reshape(4, 4).T
        ks = sector_kets(4, 3)
        assert np.array_equal(sector_cells(transposed, 4), transposed[ks, 4 - ks])

    @pytest.mark.parametrize("module", [particle, schwinger], ids=lambda m: m.__name__)
    def test_only_fock_builds_the_layout(self, module):
        source = inspect.getsource(module)
        assert "max(0," not in source  # the first k of a sector above the cutoff
        for grid in (r"np\.arange\((\w+\.)?(dim|cutoff \+ 1)\)", r"\[:, *None\] *\+",
                     r"\+ *[\w.()]+\[None, *:\]", r"np\.(add\.outer|indices|[om]grid|meshgrid)"):
            assert not re.search(grid, source), grid  # the levels of a j + k grid
        assert "lru_cache" not in source


FIXED_N_FAMILIES = ("twin-fock", "fraternal-twin-fock", "separable-coherent-probe",
                    "fock-pair", "noon")


def moment_bits(moments):
    """The fields of ``moments`` that were computed, as uint64 bit patterns."""
    values = [value for value in dataclasses.astuple(moments) if value is not None]
    return np.array(values).view(np.uint64)


def untagged(state):
    return FockState(state.amplitudes, state.cutoff, state.truncation_loss)


def tagged_states(rng):
    """Single-sector states carrying their tag: fixed-n probes after random-axis
    rotations, the two cells of noon, the vacuum, and sectors partly above the cutoff."""
    for family in FIXED_N_FAMILIES:
        for n in (1, 2, 3, 8, 64, 200):
            probe = build(ProbeSpec(family, {"n": n}))
            for _ in range(2):
                axis = tuple(random_direction(rng))
                yield f"{family} n={n}", schwinger.apply_rotation(probe, axis, rng.uniform(0.1, 6))
    yield "noon", build(ProbeSpec("noon", {"n": 5}))
    yield "vacuum", make_fock(0, 0, 3)
    yield "above the cutoff", make_fock(5, 4, 5)
    grid = np.zeros((6, 6), dtype=complex)
    ks = sector_kets(8, 5)
    grid[ks, 8 - ks] = rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks))
    yield "partial sector", FockState(grid / np.linalg.norm(grid), 5, 1e-13, _in_sector=8)


class TestSectorTag:
    def test_tagged_moments_are_the_dense_moments_bit_for_bit(self, rng):
        compared = 0
        for label, state in tagged_states(rng):
            assert state._sector is not None, label
            for order in (1, 2):
                tagged = moment_bits(number_moments(state, order))
                dense = moment_bits(number_moments(untagged(state), order))
                assert np.array_equal(tagged, dense), (label, order)
                compared += 1
        assert compared == 2 * (5 * 6 * 2 + 4)

    def test_every_tag_the_package_sets_names_the_one_occupied_sector(self):
        fock_pair = build(ProbeSpec("fock-pair", {"n": 3}))
        states = [make_fock(2, 1, 4), make_fock(0, 0, 0), pad_to(make_fock(2, 3, 3), 6),
                  fock_pair, schwinger.phase_shift(fock_pair, 0.4),
                  schwinger.beam_splitter(fock_pair), schwinger.mzi_unitary(fock_pair, 0.3)]
        states += [build(ProbeSpec(family, {"n": 4})) for family in FIXED_N_FAMILIES]
        coherent = build(ProbeSpec("coherent", {"alpha": 1.5}, 24))
        states += [sector.state for sector in particle.decompose_sectors(coherent).sectors]
        noon = build(ProbeSpec("noon", {"n": 4}))
        states.append(schwinger.apply_rotation(noon, (0.6, -0.48, 0.64), 0.7))
        for state in states:
            assert occupied_sectors(untagged(state)) == [state._sector]  # a scan of its grid

    def test_tags_only_what_is_known_by_construction(self, tmp_path):
        coherent = build(ProbeSpec("coherent", {"alpha": 1.5}, 40))
        tsv = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 0.5}, 60))
        for probe in (coherent, tsv):
            assert probe._sector is None
            assert schwinger.mzi_unitary(probe, 0.3)._sector is None
            assert schwinger.phase_shift(probe, 0.3)._sector is None
        assert build(ProbeSpec("noon", {"n": 3}))._sector == 3  # two cells of one sector
        twin = build(ProbeSpec("twin-fock", {"n": 3}))
        assert FockState.from_grid(twin.amplitudes)._sector is None
        write_state_file(twin, str(tmp_path / "twin.json"))
        assert read_state_file(str(tmp_path / "twin.json"))._sector is None
        assert all(s.state._sector == s.n for s in particle.decompose_sectors(twin).sectors)

    def test_tag_takes_no_part_in_repr_or_equality(self):
        state = make_fock(1, 2, 3)
        plain = untagged(state)
        assert state._sector == 3 and plain._sector is None
        assert state == plain and repr(state) == repr(plain) and "_sector" not in repr(state)
        field = {f.name: f for f in dataclasses.fields(FockState)}["_sector"]
        flags = (field.default, field.init, field.repr, field.compare)
        assert flags == (None, False, False, False)
        argument = inspect.signature(FockState).parameters["_in_sector"]
        assert (argument.kind, argument.default) == (inspect.Parameter.KEYWORD_ONLY, None)

    def test_replace_drops_the_tag(self):
        moved = dataclasses.replace(make_fock(1, 0, 2), amplitudes=make_fock(0, 2, 2).amplitudes)
        assert moved._sector is None
        assert number_moments(moved).b == 2.0
        assert dataclasses.replace(make_fock(1, 0, 2), truncation_loss=1e-13)._sector is None
        grid = make_fock(1, 0, 2).amplitudes.copy()
        grid[2, 2] = 0.5  # outside sector 1, so the grid's norm is sqrt(1.25)
        with pytest.raises(NormalizationError):
            dataclasses.replace(make_fock(1, 0, 2), amplitudes=grid)

    def test_tagged_norm_check_reads_only_the_sector(self, monkeypatch, rng):
        ks = sector_kets(7, 5)
        grid = np.zeros((6, 6), dtype=complex)
        grid[ks, 7 - ks] = rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks))
        grid /= np.linalg.norm(grid)
        monkeypatch.setattr(np, "vdot", None)  # the whole-grid dot is not taken
        state = FockState(grid, 5, _in_sector=7)
        assert state._sector == 7
        with pytest.raises(NormalizationError):
            FockState(2 * grid, 5, _in_sector=7)


def result_bits(value):
    """A bit-exact image of a result: arrays by their bytes, every float by its ``repr``."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, FockState):
        return (value.cutoff, repr(value.truncation_loss), value._sector,
                result_bits(value.amplitudes))
    if isinstance(value, particle.SectorDecomposition):
        return repr(value.weights_sum), [(s.n, repr(s.weight), s.cutoff, result_bits(s.coeffs))
                                         for s in value.sectors]
    return repr(value)


#: Every reader of a state of sector n, from the cells a state holds or from its grid.
READS = {
    "amplitudes": lambda state, n: state.amplitudes,
    "number_moments": lambda state, n: number_moments(state),
    "analyze": lambda state, n: analyze(state),
    "decompose_sectors": lambda state, n: particle.decompose_sectors(state),
    "particle_moments": particle.particle_moments,
    "schmidt": lambda state, n: schmidt(state),
    "phase_shift": lambda state, n: schwinger.phase_shift(state, 0.7),
    "qfi_fidelity": lambda state, n: qfi_fidelity(state),
    "mzi_unitary": lambda state, n: schwinger.mzi_unitary(state, 0.3),
    "state_to_document": lambda state, n: state_to_document(state),
}


def read_outcome(read, state, n):
    try:
        return result_bits(read(state, n))
    except MziError as exc:  # sectors past the cutoff do not rotate, the vacuum has no particles
        return type(exc).__name__, str(exc)


def assert_twins_agree(cells, n, cutoff, loss=0.0):
    """A state holding ``cells`` of sector ``n`` reads the bits of one holding the same grid.

    The grid is read once with the tag, ``_in_sector=n``, and once without,
    through the dense paths. Each read gets fresh states, so that no read
    finds a grid an earlier one built.
    """
    ks = sector_kets(n, cutoff)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    grid[ks, n - ks] = cells

    def held():
        state = FockState._from_cells(cells, n, cutoff, loss)
        assert "amplitudes" not in vars(state)
        return state

    def twin():
        return FockState(grid.copy(), cutoff, loss, _in_sector=n)

    for name, read in READS.items():
        expected = read_outcome(read, twin(), n)
        assert read_outcome(read, held(), n) == expected, name
        if name != "phase_shift":  # an untagged phase shift is an untagged grid
            assert read_outcome(read, untagged(twin()), n) == expected, name
    shifted, dense = (schwinger.phase_shift(state, 0.7) for state in (held(), untagged(twin())))
    # the dense shift holds zeros of either sign outside the sector
    assert result_bits(shifted._cells) == result_bits(sector_cells(dense.amplitudes, n).copy())
    assert np.array_equal(shifted.amplitudes, dense.amplitudes)
    assert held() == twin() and twin() == held() and held() == untagged(twin())


@st.composite
def sector_cell_runs(draw, max_cutoff: int = 10):
    """(cells, n, cutoff, loss): the normalized cells of one sector, n up to 2 * cutoff.

    Cells may be exact zeros, negative zeros, or amplitudes whose square
    underflows or is subnormal, as in ``conftest.sparse_states``.
    """
    cutoff = draw(st.integers(0, max_cutoff))
    n = draw(st.integers(0, 2 * cutoff))
    count = len(sector_kets(n, cutoff))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["normal", "normal", *_SPECIAL_AMPLITUDES]),
                          min_size=count, max_size=count))
    if "normal" not in kinds:
        kinds[0] = "normal"
    normal = np.array([kind == "normal" for kind in kinds])
    cells = np.where(normal, rng.normal(size=count) + 1j * rng.normal(size=count), 0)
    cells /= np.linalg.norm(cells)
    for i, kind in enumerate(kinds):
        if kind != "normal":
            cells[i] = _SPECIAL_AMPLITUDES[kind]
    return cells, n, cutoff, draw(st.sampled_from([0.0, 3e-13]))


class TestCellHeldStates:
    @settings(max_examples=150, deadline=None)
    @given(sector_cell_runs())
    def test_held_cells_read_as_their_grid_bit_for_bit(self, run):
        assert_twins_agree(*run)

    def test_rotated_probes_hold_their_cells_and_read_as_their_grid(self, rng):
        compared = 0
        for family in FIXED_N_FAMILIES:
            for n in (1, 6, 24):
                probe = build(ProbeSpec(family, {"n": n}))
                state = probe
                for _ in range(2):  # a rotation, then a rotation of that rotation
                    state = schwinger.apply_rotation(state, tuple(random_direction(rng)),
                                                     rng.uniform(0.1, 6))
                    assert state._cells is not None and "amplitudes" not in vars(state)
                    assert_twins_agree(state._cells, state._sector, state.cutoff)
                    compared += 1
        assert compared == 2 * 3 * len(FIXED_N_FAMILIES)

    def test_sector_states_and_phase_shifts_hold_their_cells(self):
        coherent = build(ProbeSpec("coherent", {"alpha": 1.5}, 16))
        for sector in particle.decompose_sectors(coherent).sectors:
            state = sector.state
            assert state._cells is sector.coeffs and not state._cells.flags.writeable
            shifted = schwinger.phase_shift(state, 0.4)
            assert shifted._sector == sector.n and shifted._cells is not None
            assert "amplitudes" not in vars(state) and "amplitudes" not in vars(shifted)
        assert schwinger.phase_shift(coherent, 0.4)._cells is None  # untagged: a grid

    def test_equality_of_one_sector_reads_the_cells(self):
        probe = build(ProbeSpec("twin-fock", {"n": 3}))
        state, other = (schwinger.mzi_unitary(probe, phi) for phi in (0.3, 0.4))
        same = FockState._from_cells(state._cells.copy(), 6, state.cutoff)
        assert state == same and state != other and other != same
        assert "amplitudes" not in vars(state) | vars(other) | vars(same)
        assert state != FockState._from_cells(state._cells, 6, state.cutoff, 1e-15)
        assert state != pad_to(state, 7) and state != make_fock(3, 3, 6)
        assert state == untagged(state)  # through the grid

    def test_replace_builds_the_grid_and_drops_the_cells(self):
        state = schwinger.mzi_unitary(build(ProbeSpec("twin-fock", {"n": 3})), 0.3)
        moved = dataclasses.replace(state, truncation_loss=1e-13)
        assert moved._sector is None and moved._cells is None
        assert np.array_equal(moved.amplitudes, state.amplitudes)
        assert not hasattr(state, "_norm_squared")

    def test_cells_are_checked_like_a_tagged_grid(self):
        cells = np.array([0.6, 0.8j])
        assert FockState._from_cells(cells, 3, 2)._sector == 3
        with pytest.raises(NormalizationError):
            FockState._from_cells(2 * cells, 3, 2)
        with pytest.raises(ParameterError):
            FockState._from_cells(cells, 3, 2, -1e-15)
        with pytest.raises(ParameterError, match="do not fill sector 2"):
            FockState._from_cells(cells, 2, 2)  # sector 2 of a cutoff 2 grid has 3 cells

    def test_concurrent_first_reads_share_one_read_only_grid(self):
        probe = build(ProbeSpec("twin-fock", {"n": 100}))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for phase in np.linspace(0.1, 3.0, 10):
                state = schwinger.mzi_unitary(probe, phase)
                assert "amplitudes" not in vars(state)
                barrier = threading.Barrier(8)
                grids = [None] * 8

                def read(i):
                    barrier.wait(timeout=30)
                    grids[i] = state.amplitudes

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert all(grid is state.amplitudes for grid in grids)
                assert not state.amplitudes.flags.writeable
        finally:
            sys.setswitchinterval(interval)
