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

from conftest import random_direction, random_two_mode_state, sector_cell_runs, sparse_states
from mzi_qfi import fock, particle, schwinger
from mzi_qfi import states as states_module
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
    difference_weights,
    inner,
    make_fock,
    number_moments,
    occupied_sectors,
    pad_to,
    sector_cells,
    sector_kets,
    sector_layout,
    squared_norm,
    state_distance,
)
from mzi_qfi.qfi import build_report, qfi_fidelity, qfi_variance
from mzi_qfi.serialize import read_state_file, state_to_document, write_state_file
from mzi_qfi.states import ProbeSpec, build
from oracles import (
    _lower,
    ladder_moment,
    oracle_raise,
    outer_amplified_bell_grid,
    outer_twin_squeezed_grid,
    totals_occupied_sectors,
    whole_grid_difference_weights,
    whole_grid_number_moments,
)


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
        nb = number_moments(psi).b
        assert np.isclose(np.vdot(psi.amplitudes, down).real, nb + 1.0, atol=1e-12)


class TestInner:
    def test_grid_vdot_matches_numpy(self, rng):
        x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        for a in (x, x.T, x[::-1], x[2]):  # also views that are not C-contiguous, and a vector
            norm_squared = squared_norm(a)
            assert type(norm_squared) is float
            assert norm_squared == pytest.approx(np.vdot(a, a).real, rel=1e-14)

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
        got = number_moments(state).a
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
    def test_only_a_grid_no_array_can_hold_is_refused(self):
        # arithmetic alone: nothing is allocated on either side of the edge
        largest = math.isqrt(np.iinfo(np.intp).max // 16) - 1
        fock.check_addressable(largest)
        with pytest.raises(MemoryError, match=f"^cutoff {largest + 1} needs a grid of more than "
                                              f"{np.iinfo(np.intp).max} bytes$"):
            fock.check_addressable(largest + 1)

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
            "amplitudes", "cutoff", "truncation_loss"]
        with pytest.raises(TypeError):
            FockState(grid, 5, 0.0, 1.0)

    def test_from_grid_divides_by_the_two_norm(self, rng):
        grid = 3.7 * random_two_mode_state(rng, 6, 8).amplitudes
        expected = grid / np.linalg.norm(grid)
        assert np.array_equal(FockState.from_grid(grid).amplitudes, expected)

    @pytest.mark.parametrize("cells,expected", [
        ([1e-160], [1.0]),  # its square is subnormal, so its norm is off by 5.6e-6
        ([1e-170], [1.0]),  # its square underflows to 0
        ([1e155, 1e155 / 3], [3 / math.sqrt(10), 1 / math.sqrt(10)]),  # its square overflows
    ])
    def test_from_grid_normalizes_a_grid_whose_squared_norm_is_not_normal(self, cells,
                                                                          expected):
        grid = np.zeros((3, 3), dtype=np.complex128)
        grid[: len(cells), 1] = cells
        amplitudes = FockState.from_grid(grid).amplitudes
        assert amplitudes[: len(cells), 1] == pytest.approx(expected, rel=1e-15)
        assert np.count_nonzero(amplitudes) == len(cells)

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


#: Strip sizes under which every way a grid can split into strips is met at a small cutoff.
SMALL_STRIPS = (16, 64, 256)


def special_grid(rng, dim, fill):
    """A normalized random grid with a share ``fill`` of nonzero cells, and corner-case cells.

    It holds -0.0 cells, subnormal ones and ones whose square underflows, so
    that the moments and the scan meet each.
    """
    grid = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    grid[rng.random((dim, dim)) >= fill] = 0
    if not grid.any():
        grid[rng.integers(dim), rng.integers(dim)] = 1.0
    grid /= np.linalg.norm(grid)
    for value in (complex(-0.0, -0.0), complex(0.0, -5e-320), 1e-170 + 0j, complex(-0.0, 3e-310)):
        empty = np.argwhere(grid == 0)
        if len(empty):
            grid[tuple(empty[rng.integers(len(empty))])] = value
    return grid


def memory_orders(grid):
    """``grid`` C-ordered, Fortran-ordered and as a strided view into a larger array."""
    wide = np.zeros((grid.shape[0], 2 * grid.shape[1]), dtype=complex)
    wide[:, ::2] = grid
    return {"C": grid, "Fortran": np.asfortranarray(grid), "strided": wide[:, ::2]}


class TestStrips:
    """Dense passes read a strip of rows at a time, with the bits of the whole-grid passes."""

    def test_strip_rows(self, monkeypatch):
        assert fock.strip_rows(1) == 1 and fock.strip_rows(181) == 181  # 181^2 <= 8 * 4096
        assert fock.strip_rows(182) == 4096 // 182 and fock.strip_rows(301) == 13
        assert fock.strip_rows(5000) == 1
        monkeypatch.setattr(fock, "STRIP_CELLS", 16)
        assert [fock.strip_rows(dim) for dim in (11, 12, 16, 17)] == [11, 1, 1, 1]

    def test_pass_rows(self):
        # the sector scan's strips below cutoff 315, a 23rd of the rows from there on
        assert fock.pass_rows(1) == 1 and fock.pass_rows(181) == 181
        assert fock.pass_rows(182) == fock.strip_rows(182) and fock.pass_rows(301) == 13
        assert fock.pass_rows(315) == fock.strip_rows(315) == 13
        assert fock.pass_rows(316) == 13 > fock.strip_rows(316)
        assert fock.pass_rows(643) == 27 and fock.pass_rows(701) == 30

    @pytest.mark.parametrize("strip_cells", SMALL_STRIPS + (4096,))
    def test_dense_moments_match_the_whole_grid_bit_for_bit(self, strip_cells, monkeypatch, rng):
        monkeypatch.setattr(fock, "STRIP_CELLS", strip_cells)
        dims = list(range(1, 72)) if strip_cells < 4096 else [180, 181, 182, 183, 196, 301]
        compared = 0
        for dim in dims:
            grid = special_grid(rng, dim, rng.choice([0.05, 0.5, 1.0]))
            expected = moment_bits(whole_grid_number_moments(FockState(grid, dim - 1)))
            for label, held in memory_orders(grid).items():
                # every memory order sums as the C-ordered grid does
                got = moment_bits(number_moments(FockState(held, dim - 1)))
                assert np.array_equal(got, expected), (dim, label)
                compared += 1
        assert compared == 3 * len(dims)

    @pytest.mark.parametrize("strip_cells", SMALL_STRIPS + (4096,))
    def test_difference_weights_match_the_whole_grid_bit_for_bit(self, strip_cells, monkeypatch,
                                                                 rng):
        monkeypatch.setattr(fock, "STRIP_CELLS", strip_cells)
        dims = list(range(1, 60)) if strip_cells < 4096 else [180, 181, 182, 183, 301, 400]
        compared = 0
        for dim in dims:
            grid = special_grid(rng, dim, rng.choice([0.05, 0.5, 1.0]))
            expected = whole_grid_difference_weights(FockState(grid, dim - 1))
            for label, held in memory_orders(grid).items():
                weights = difference_weights(FockState(held, dim - 1))
                assert np.array_equal(weights.view(np.uint64), expected.view(np.uint64)), (dim,
                                                                                           label)
                assert not weights.flags.writeable
                compared += 1
        assert compared == 3 * len(dims)

    def test_strided_grids_match_the_whole_grid_in_their_own_order(self, monkeypatch, rng):
        # the whole-grid pass sums the rows of a Fortran grid in another order than
        # of its C copy, but of a strided C-ordered view in the same order
        monkeypatch.setattr(fock, "STRIP_CELLS", 64)
        for dim in (7, 23, 40):
            state = FockState(memory_orders(special_grid(rng, dim, 1.0))["strided"], dim - 1)
            assert np.array_equal(moment_bits(number_moments(state)),
                                  moment_bits(whole_grid_number_moments(state)))

    @pytest.mark.parametrize("strip_cells", SMALL_STRIPS + (4096,))
    def test_scan_matches_the_whole_grid_scan(self, strip_cells, monkeypatch, rng):
        monkeypatch.setattr(fock, "STRIP_CELLS", strip_cells)
        dims = list(range(1, 72)) if strip_cells < 4096 else [181, 182, 301]
        for dim in dims:
            for fill in (0.0, 0.02, 0.3, 1.0):
                grid = special_grid(rng, dim, fill)
                expected = totals_occupied_sectors(FockState(grid, dim - 1))
                for label, held in memory_orders(grid).items():
                    assert occupied_sectors(FockState(held, dim - 1)) == expected, (dim, label)

    @settings(max_examples=100, deadline=None)
    @given(sparse_states(max_cutoff=40), st.sampled_from(SMALL_STRIPS))
    def test_scan_in_small_strips_finds_the_nonzero_cells(self, state, strip_cells):
        saved = fock.STRIP_CELLS
        fock.STRIP_CELLS = strip_cells
        try:
            j, k = np.nonzero(state.amplitudes)
            assert occupied_sectors(state) == sorted(set((j + k).tolist()))
        finally:
            fock.STRIP_CELLS = saved

    @pytest.mark.parametrize("strip_cells", (16, 4096))
    def test_continuous_builds_normalize_todays_grids(self, strip_cells, monkeypatch):
        monkeypatch.setattr(fock, "STRIP_CELLS", strip_cells)
        cases = {"twin-squeezed-vacuum": 0.6, "entangled-coherent": 1.5 - 0.5j,
                 "amplified-bell": 0.6, "coherent": 2.0 + 1.0j, "two-mode-squeezed-vacuum": 0.6}
        cutoffs = (40, 41, 63, 64) if strip_cells == 16 else (180, 181, 182, 300)
        for family, value in cases.items():
            record = states_module.resolve_family(family)
            todays = {"amplified-bell": outer_amplified_bell_grid,
                      "twin-squeezed-vacuum": outer_twin_squeezed_grid}.get(family, record.grid)
            for cutoff in cutoffs:
                state = build(ProbeSpec(family, {record.key: value}, cutoff))
                grid = todays(record.check(record, value), cutoff)
                loss = record.loss(record.check(record, value), cutoff)
                expected = FockState.from_grid(grid, loss)
                assert result_bits(state) == result_bits(expected), (family, cutoff)

    def test_build_normalizes_its_grid_in_place(self, monkeypatch):
        made = []

        def grid(value, cutoff):
            made.append(states_module._grid_twin_squeezed(value, cutoff))
            return made[-1]

        record = states_module._BY_NAME["twin-squeezed-vacuum"]
        monkeypatch.setitem(states_module._BY_NAME, record.name, record._replace(grid=grid))
        state = build(ProbeSpec(record.name, {"xi": 0.5}, 30))
        assert state.amplitudes is made[0] and not made[0].flags.writeable


FIXED_N_FAMILIES = ("twin-fock", "fraternal-twin-fock", "separable-coherent-probe",
                    "fock-pair", "noon")


def moment_bits(moments):
    """The fields of ``moments`` as uint64 bit patterns."""
    return np.array(tuple(moments)).view(np.uint64)


def untagged(state):
    return FockState(state.amplitudes, state.cutoff, state.truncation_loss)


def held_states(rng):
    """Single-sector states holding their cells: fixed-n probes after random-axis
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
    cells = rng.normal(size=3) + 1j * rng.normal(size=3)  # k = 3, 4, 5 of sector 8
    yield "partial sector", FockState._from_cells(cells / np.linalg.norm(cells), 8, 5, 1e-13)


class TestSectorTag:
    """``FockState._sector``, the photon number of a state that holds its cells."""

    def test_tagged_moments_are_the_dense_moments_bit_for_bit(self, rng):
        compared = 0
        for label, state in held_states(rng):
            assert state._sector is not None and state._cells is not None, label
            tagged = moment_bits(number_moments(state))
            dense = moment_bits(number_moments(untagged(state)))
            assert np.array_equal(tagged, dense), label
            compared += 1
        assert compared == 5 * 6 * 2 + 4

    def test_tagged_difference_weights_are_the_dense_ones_bit_for_bit(self, rng):
        for label, state in held_states(rng):
            tagged = difference_weights(state)
            assert "amplitudes" not in vars(state), label  # read off the cells alone
            dense = difference_weights(untagged(state))
            assert np.array_equal(tagged.view(np.uint64), dense.view(np.uint64)), label

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

    def test_a_state_knows_its_sector_exactly_when_it_holds_its_cells(self):
        coherent = build(ProbeSpec("coherent", {"alpha": 1.5}, 24))
        fock_pair = build(ProbeSpec("fock-pair", {"n": 3}))
        states = [make_fock(2, 1, 4), make_fock(0, 0, 0), make_fock(5, 4, 5),
                  pad_to(make_fock(2, 3, 3), 6), pad_to(make_fock(3, 3, 3), 4),
                  pad_to(coherent, 30)]
        for n in (1, 4, 30):
            states += [build(ProbeSpec(family, {"n": n})) for family in FIXED_N_FAMILIES]
        for probe in (fock_pair, coherent):
            states += [schwinger.phase_shift(probe, 0.4), schwinger.beam_splitter(probe),
                       schwinger.apply_rotation(probe, (0.6, -0.48, 0.64), 0.7)]
        states += [sector.state for sector in particle.decompose_sectors(coherent).sectors]
        known = 0
        for state in states:
            assert (state._sector is None) == (state._cells is None)
            known += state._sector is not None
        assert known == len(states) - 4  # all but the coherent probe's pad, shift and rotations

    def test_a_grid_cannot_promise_a_sector(self):
        grid = np.zeros((4, 4), dtype=complex)
        grid[1, 2] = 1.0
        with pytest.raises(TypeError):
            FockState(grid, 3, _in_sector=3)
        grid[1, 1] = 5.0  # a second sector, and a norm of sqrt(26)
        with pytest.raises(NormalizationError):
            FockState(grid, 3)

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
        assert "_sector" not in {f.name for f in dataclasses.fields(FockState)}
        assert list(inspect.signature(FockState).parameters) == [
            "amplitudes", "cutoff", "truncation_loss"]

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
        cells = rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks))
        cells /= np.linalg.norm(cells)
        grid = np.zeros((6, 6), dtype=complex)
        grid[ks, 7 - ks] = cells
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return squared_norm(x)

        monkeypatch.setattr(fock, "squared_norm", counted)
        monkeypatch.setattr(np, "vdot", None)  # BLAS's dot is taken by neither
        state = FockState._from_cells(cells, 7, 5)
        assert state._sector == 7 and sizes == [len(ks)]
        assert FockState(grid, 5) == state and sizes == [len(ks), 36]
        with pytest.raises(NormalizationError):
            FockState._from_cells(2 * cells, 7, 5)
        with pytest.raises(NormalizationError):
            FockState(2 * grid, 5)


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

    The grid is read through the dense paths. Each read gets fresh states,
    so that no read finds a grid an earlier one built.
    """
    ks = sector_kets(n, cutoff)
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    grid[ks, n - ks] = cells

    def held():
        state = FockState._from_cells(cells, n, cutoff, loss)
        assert "amplitudes" not in vars(state)
        return state

    def twin():
        return FockState(grid.copy(), cutoff, loss)

    for name, read in READS.items():
        if name != "phase_shift":  # the phase shift of a grid is a grid
            assert read_outcome(read, held(), n) == read_outcome(read, twin(), n), name
    shifted, dense = (schwinger.phase_shift(state, 0.7) for state in (held(), twin()))
    assert shifted._sector == n and "amplitudes" not in vars(shifted)
    # the dense shift holds zeros of either sign outside the sector
    assert result_bits(shifted._cells) == result_bits(sector_cells(dense.amplitudes, n).copy())
    assert np.array_equal(shifted.amplitudes, dense.amplitudes)
    assert held() == twin() and twin() == held()


class TestCellHeldStates:
    @settings(max_examples=150, deadline=None)
    @given(sector_cell_runs())
    def test_held_cells_read_as_their_grid_bit_for_bit(self, run):
        assert_twins_agree(*run)

    @settings(max_examples=100, deadline=None)
    @given(sector_cell_runs())
    def test_schmidt_of_held_cells_builds_no_grid(self, run):
        cells, n, cutoff, loss = run
        held = FockState._from_cells(cells, n, cutoff, loss)
        report = schmidt(held)
        assert "amplitudes" not in vars(held)
        assert result_bits(report) == result_bits(schmidt(untagged(held)))

    def test_schmidt_of_rotated_probes_builds_no_grid(self, rng):
        for label, state in held_states(rng):
            report = schmidt(state)
            assert "amplitudes" not in vars(state), label
            assert result_bits(report) == result_bits(schmidt(untagged(state))), label

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

    def test_fixed_n_builds_hold_their_cells(self):
        for family in FIXED_N_FAMILIES:
            for n, cutoff in ((1, None), (4, 9), (200, None)):
                state = build(ProbeSpec(family, {"n": n}, cutoff))
                assert state._cells is not None and "amplitudes" not in vars(state), family

    def test_one_cells_array_rotates_at_two_cutoffs_as_its_grids(self, rng):
        n = 6
        cells = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        cells /= np.linalg.norm(cells)
        cells.flags.writeable = False
        ks = np.arange(n + 1)
        held, dense, plans = {}, {}, {}
        for cutoff in (6, 9):
            held[cutoff] = FockState._from_cells(cells, n, cutoff)
            grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
            grid[ks, n - ks] = cells
            dense[cutoff] = FockState(grid, cutoff)
        axis = tuple(random_direction(rng))
        rotations = [(schwinger.Y_AXIS, phi) for phi in (0.3, -0.8, 2.1)] + [(axis, 1.3)]
        expected = {(cutoff, i): result_bits(schwinger.apply_rotation(dense[cutoff], *rotation))
                    for i, rotation in enumerate(rotations) for cutoff in dense}
        for i, rotation in enumerate(rotations):  # alternately: each state keeps its own plan
            for cutoff, state in held.items():
                rotated = schwinger.apply_rotation(state, *rotation)
                assert plans.setdefault(cutoff, state._rotation[0]) is state._rotation[0]
                assert result_bits(rotated) == expected[cutoff, i]
        assert plans[6] is not plans[9]
        assert "amplitudes" not in vars(held[6]) | vars(held[9])

    def test_pad_to_of_a_partial_sector_matches_the_dense_pad(self, rng):
        cells = rng.normal(size=3) + 1j * rng.normal(size=3)  # k = 3, 4, 5 of sector 8
        state = FockState._from_cells(cells / np.linalg.norm(cells), 8, 5, 1e-13)
        for cutoff in (6, 7, 8, 11):
            padded, dense = pad_to(state, cutoff), pad_to(untagged(state), cutoff)
            assert padded._sector == 8 and "amplitudes" not in vars(padded)
            assert padded.truncation_loss == dense.truncation_loss == 1e-13
            assert result_bits(padded.amplitudes) == result_bits(dense.amplitudes)
        assert pad_to(state, 5) is state

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

    def test_cells_are_checked_like_a_grid(self):
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


class TestReadOnce:
    """A state's probabilities are read once, for its number moments and p(d), and kept."""

    def counted_passes(self, monkeypatch):
        passes = []
        original = fock._grid_sums
        monkeypatch.setattr(fock, "_grid_sums",
                            lambda *args: passes.append(args[0].shape) or original(*args))
        return passes

    def squared_cells(self, monkeypatch, grid):
        """The entries of ``grid``'s real and imaginary parts that ``np.square`` reads from now."""
        squared = []
        square = np.square

        def counting(x, *args, **kwargs):
            if np.may_share_memory(x, grid):
                squared.append(x.size)
            return square(x, *args, **kwargs)

        monkeypatch.setattr(np, "square", counting)
        return squared

    @pytest.mark.parametrize("family, params", [
        ("twin-squeezed-vacuum", {"xi": 1.0}), ("amplified-bell", {"xi": 0.8}),
        ("coherent", {"alpha": 2.0 + 1.0j}),
    ])
    def test_one_dense_pass_per_analyze_and_report(self, family, params, monkeypatch):
        state = build(ProbeSpec(family, params, 190))  # more than one strip
        passes = self.counted_passes(monkeypatch)
        squared = self.squared_cells(monkeypatch, state.amplitudes)
        report = build_report(state, analyze(state), particle.decompose_sectors(state))
        assert passes == [(191, 191)]
        assert sum(squared) == 2 * 191**2  # each cell's two parts squared once, fidelity included
        build_report(state)
        analyze(state)
        qfi_variance(state)
        qfi_fidelity(state)
        number_moments(state)
        assert len(passes) == 1 and sum(squared) == 2 * 191**2
        fresh = FockState(state.amplitudes, state.cutoff, state.truncation_loss)
        assert build_report(fresh) == report and len(passes) == 2

    def test_a_cold_fidelity_route_takes_the_one_read_and_keeps_it(self, monkeypatch):
        grid = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 1.0}, 190)).amplitudes
        state = FockState(grid, 190)
        passes = self.counted_passes(monkeypatch)
        squared = self.squared_cells(monkeypatch, grid)
        qfi_fidelity(state)
        assert passes == [(191, 191)] and sum(squared) == 2 * 191**2
        moments, weights = state._read
        assert number_moments(state) is moments and difference_weights(state) is weights
        build_report(state, analyze(state))
        assert len(passes) == 1 and sum(squared) == 2 * 191**2

    def test_cell_held_states_take_no_dense_pass(self, monkeypatch):
        probe = build(ProbeSpec("twin-fock", {"n": 60}))
        passes = self.counted_passes(monkeypatch)
        build_report(probe, analyze(probe))
        assert passes == [] and "amplitudes" not in vars(probe)
        assert probe._read == (number_moments(probe), difference_weights(probe))
        assert probe._read[1] is difference_weights(probe)

    def test_the_first_result_is_kept(self, rng):
        state = FockState(special_grid(rng, 40, 0.5), 39)
        first = number_moments(state)
        weights = difference_weights(state)
        assert state._read[0] is first and number_moments(state) is first
        assert state._read[1] is weights and not weights.flags.writeable
        assert dataclasses.replace(state)._read is None  # a new state takes its own

    def test_concurrent_first_calls_share_one_result(self, rng):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                state = FockState(special_grid(rng, 200, 1.0), 199)  # more than one strip
                barrier = threading.Barrier(8)
                results = [None] * 8

                def read(i):
                    barrier.wait(timeout=30)
                    results[i] = (number_moments, difference_weights)[i % 2](state)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert all(result is state._read[i % 2] for i, result in enumerate(results))
        finally:
            sys.setswitchinterval(interval)
