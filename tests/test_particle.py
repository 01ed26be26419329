import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_sector_states, random_direction, sparse_states
from mzi_qfi import cli, fock, particle
from mzi_qfi.errors import NormalizationError, ParameterError, SectorSupportError
from mzi_qfi.fock import ROUTE_ROUNDOFF, FockState, make_fock
from mzi_qfi.particle import (
    Sector,
    decompose_sectors,
    particle_moments,
    qfi_particle,
    sector_moments,
)
from mzi_qfi.qfi import qfi_variance
from mzi_qfi.serialize import read_state_file, write_state_file
from mzi_qfi.schwinger import apply_rotation, beam_splitter, mzi_unitary
from mzi_qfi.states import FAMILIES, ProbeSpec, build, build_for_nbar, solve_param_for_nbar
from oracles import (
    collective_spin_matrix,
    dense_decompose_sectors,
    dense_sector_table,
    dicke_isometry,
    hermitian_exponential,
    ladder_j_moment,
    layout_decompose_sectors,
    locality_check,
    locality_defect,
    multiqubit_oracle,
    reduced_single_particle,
    run_sums,
    sector_generator_matrix,
    symmetric_qubit_vector,
)

from scipy.linalg import expm


def fixed_n_superposition(entries, cutoff):
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for (j, k), amp in entries.items():
        grid[j, k] = amp
    return FockState(grid / np.linalg.norm(grid), cutoff)


def random_sector_state(rng, n):
    entries = {(k, n - k): rng.normal() + 1j * rng.normal() for k in range(n + 1)}
    return fixed_n_superposition(entries, n)


def assert_same_bits(got, expected):
    """Two decompositions hold the same sectors, weights and coefficients, bit for bit."""

    def bits(value):
        return np.asarray(value, dtype=np.float64).view(np.uint64).tolist()

    assert bits(got.weights_sum) == bits(expected.weights_sum)
    assert [s.n for s in got.sectors] == [s.n for s in expected.sectors]
    for sector, reference in zip(got.sectors, expected.sectors):
        assert bits(sector.weight) == bits(reference.weight)
        assert bits(sector.coeffs.view(np.float64)) == bits(reference.coeffs.view(np.float64))


def reembedded_sector(state, n):
    """Sector n on its own min(n, cutoff) grid, the way decompositions stored it as grids."""
    ks = np.arange(max(0, n - state.cutoff), min(n, state.cutoff) + 1)
    amps = state.amplitudes[ks, n - ks]
    weight = float(np.sum(np.abs(amps) ** 2))
    grid = np.zeros((min(n, state.cutoff) + 1,) * 2, dtype=np.complex128)
    if weight > 0:
        grid[ks, n - ks] = amps / math.sqrt(weight)
    return grid, weight


def ladder_z_stats(state, n):
    """<sigma_z>, Var and Cov from Jz moments of the grid by ladder operators."""
    mean_z = 2.0 * ladder_j_moment(state, "jz", 1) / n
    mean_zz = (4.0 * ladder_j_moment(state, "jz", 2) - n) / (n * (n - 1)) if n >= 2 else mean_z**2
    var_z = 1.0 - mean_z**2
    cov_z = mean_zz - mean_z**2
    return mean_z, var_z, cov_z, n * var_z + n * (n - 1) * cov_z


@st.composite
def truncated_sectors(draw):
    """A random pure sector-n state on a grid with cutoff between n/2 and n."""
    n = draw(st.integers(1, 40))
    cutoff = draw(st.integers((n + 1) // 2, n))
    ks = np.arange(n - cutoff, cutoff + 1)
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    coeffs = np.array(draw(st.lists(st.tuples(parts, parts), min_size=len(ks), max_size=len(ks))))
    amps = coeffs[:, 0] + 1j * coeffs[:, 1]
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps, norm = np.ones(len(ks), dtype=complex), math.sqrt(len(ks))
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[ks, n - ks] = amps / norm
    return FockState(grid, cutoff), n


class TestDecomposition:
    def test_single_ket_is_one_sector(self):
        decomp = decompose_sectors(make_fock(2, 1, 4))
        assert len(decomp.sectors) == 1
        assert decomp.sectors[0].n == 3
        assert decomp.sectors[0].weight == 1.0

    def test_sectors_under_the_weight_floor_are_dropped_but_summed(self):
        # literal weights a decade either side of WEIGHT_FLOOR = 1e-14
        light, trace = 1e-13, 1e-15
        state = fixed_n_superposition({(1, 0): math.sqrt(1 - light - trace),
                                       (1, 1): math.sqrt(light), (2, 1): math.sqrt(trace)}, 2)
        decomp = decompose_sectors(state)
        assert [sector.n for sector in decomp.sectors] == [1, 2]
        assert decomp.sectors[1].weight == pytest.approx(light, rel=1e-9)
        listed = sum(sector.weight for sector in decomp.sectors)
        assert decomp.weights_sum - listed == pytest.approx(trace, rel=0.5)
        assert decomp.occupied == 3

    @pytest.mark.parametrize("amplitude", [1e-170, 1e-9, -1e-9j])
    def test_one_nonzero_cell_outside_the_sector_means_no_fixed_n(self, amplitude):
        # 1e-170 squares to 0: the sector keeps all the weight, and weights_sum
        # equals it, yet the state occupies two sectors
        state = fixed_n_superposition({(2, 1): 1.0, (0, 0): amplitude}, 3)
        decomp = decompose_sectors(state)
        assert decomp.occupied == 2 and decomp.fixed_n_sector() is None
        assert qfi_particle(decomp) is None
        pure = decompose_sectors(fixed_n_superposition({(2, 1): 1.0}, 3))
        assert pure.occupied == 1 and pure.fixed_n_sector() == pure.sectors[0]

    def test_weights_sum_to_one_for_factory_states(self):
        for family, params in [
            ("two-mode-squeezed-vacuum", {"chi": 0.7}),
            ("entangled-coherent", {"alpha": 1.5}),
            ("twin-squeezed-vacuum", {"xi": 0.5}),
        ]:
            decomp = decompose_sectors(build(ProbeSpec(family, params)))
            assert abs(decomp.weights_sum - 1.0) < 1e-10

    @pytest.mark.parametrize(
        "family,params",
        [
            ("twin-squeezed-vacuum", {"xi": 0.6}),
            ("two-mode-squeezed-vacuum", {"chi": 0.7}),
            ("entangled-coherent", {"alpha": 1.5}),
            ("coherent", {"alpha": 2.0 + 0.5j}),
        ],
    )
    def test_sector_grid_view_is_bit_exact(self, family, params):
        state = build(ProbeSpec(family, params))
        decomp = decompose_sectors(state)
        weights_sum = 0.0
        for n in range(2 * state.cutoff + 1):
            weights_sum += reembedded_sector(state, n)[1]
        assert decomp.weights_sum == weights_sum
        assert len(decomp.sectors) > 1
        for sector in decomp.sectors:
            grid, weight = reembedded_sector(state, sector.n)
            assert sector.weight == weight
            assert sector.state.cutoff == sector.cutoff == min(sector.n, state.cutoff)
            assert np.array_equal(sector.state.amplitudes, grid)

    def test_sectors_are_vectors_not_grids(self, monkeypatch):
        monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "1024")
        params, _ = solve_param_for_nbar("twin-squeezed-vacuum", 15.0)
        state = build(ProbeSpec("twin-squeezed-vacuum", params))
        assert state.cutoff >= 400
        sectors = decompose_sectors(state).sectors
        assert sum(s.coeffs.nbytes for s in sectors) <= state.amplitudes.nbytes
        # one grid per sector would hold more than ten copies of the state
        grid_bytes = sum(16 * (s.cutoff + 1) ** 2 for s in sectors)
        assert grid_bytes > 10 * state.amplitudes.nbytes

    @settings(max_examples=200, deadline=None)
    @given(sparse_states())
    def test_matches_dense_sector_loop_bit_for_bit(self, state):
        assert_same_bits(decompose_sectors(state), dense_decompose_sectors(state))

    @settings(max_examples=200, deadline=None)
    @given(sparse_states())
    def test_matches_the_layout_gather_bit_for_bit(self, state):
        expected = layout_decompose_sectors(state)
        assert_same_bits(decompose_sectors(state), expected)
        fortran = FockState(np.asfortranarray(state.amplitudes), state.cutoff)
        assert not fortran.amplitudes.flags.c_contiguous
        assert_same_bits(decompose_sectors(fortran), expected)

    def test_probes_match_the_layout_gather_bit_for_bit(self, rng):
        states = [build_for_nbar(family, 4.0)[0] for family in FAMILIES]
        for family in ("twin-fock", "noon", "fraternal-twin-fock", "separable-coherent-probe",
                       "fock-pair"):
            probe = build(ProbeSpec(family, {"n": 12}))
            rotated = apply_rotation(probe, tuple(random_direction(rng)), rng.uniform(0.1, 6))
            assert rotated._sector is not None
            states += [rotated, FockState(rotated.amplitudes, rotated.cutoff)]  # and untagged
        for state in states:
            expected = layout_decompose_sectors(state)
            assert_same_bits(decompose_sectors(state), expected)
            fortran = FockState(np.asfortranarray(state.amplitudes), state.cutoff)
            assert_same_bits(decompose_sectors(fortran), expected)

    def test_fixed_n_probe_reads_one_sector(self, sector_reads):
        state = build(ProbeSpec("fock-pair", {"n": 200}))
        assert state.cutoff == 400
        sector_reads.clear()  # the build's beam splitter read it too
        assert [s.n for s in decompose_sectors(state).sectors] == [400]
        # the weights walk and the kept walk each read it, and neither the 800 empty sectors
        assert sector_reads == [400, 400]

    def test_tagged_state_is_decomposed_and_planned_without_a_scan(self, monkeypatch):
        probe = build(ProbeSpec("twin-fock", {"n": 30}))
        # cells of its own, so that its first rotation plans them
        state = FockState._from_cells(probe._cells.copy(), probe._sector, probe.cutoff)

        def scan(grid):
            raise AssertionError("an O(c^2) scan of a state that knows its sector")

        monkeypatch.setattr(fock, "nonzero_cells", scan)
        assert [s.n for s in decompose_sectors(state).sectors] == [60]
        assert mzi_unitary(state, 0.3)._sector == 60
        with pytest.raises(AssertionError, match="scan"):
            decompose_sectors(FockState(state.amplitudes, state.cutoff))  # untagged: scanned

    def test_equality_compares_values(self):
        spec = ProbeSpec("twin-fock", {"n": 2})
        first, second = decompose_sectors(build(spec)), decompose_sectors(build(spec))
        assert len(first.sectors[0].coeffs) > 1
        assert (first == second) is True
        sector = second.sectors[0]
        assert (first.sectors[0] == sector) is True and (first.sectors[0] != sector) is False
        assert sector in first.sectors and first.sectors.index(sector) == 0
        flipped = sector.coeffs.copy()
        flipped[0] = -flipped[0]
        for other in (dataclasses.replace(sector, coeffs=flipped),
                      dataclasses.replace(sector, weight=0.5),
                      dataclasses.replace(sector, n=3)):
            assert (sector == other) is False
        assert (first == first._replace(weights_sum=0.5)) is False
        with pytest.raises(TypeError):
            hash(sector)

    def test_tmsv_sectors(self):
        chi = 0.75
        decomp = decompose_sectors(build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": chi})))
        for sector in decomp.sectors[:6]:
            pairs = sector.n // 2
            assert sector.n % 2 == 0
            expected = math.tanh(chi) ** (2 * pairs) / math.cosh(chi) ** 2
            assert np.isclose(sector.weight, expected, atol=1e-12)
            assert np.isclose(abs(sector.state.amplitudes[pairs, pairs]), 1.0)


def analyze_document(state):
    """The ``analyze`` document of ``state``, read back from a state file, and that state."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.json")
        write_state_file(state, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", "--state-file", path])
        return code, json.loads(out.getvalue()), read_state_file(path)


def report_bits(report):
    """A particle report's floats as their bits, beside its n and its witness."""
    floats = [report.mean_sigma_z, report.var_sigma_z, report.cov_sigma_z, report.f_particle]
    return report.n, np.array(floats).view(np.uint64).tolist(), report.witness_entangled


class TestSectorSums:
    """A decomposition's sectors keep the sums its walk took over their cells, and the
    states ``Sector.state`` makes carry them to ``particle_moments``."""

    @pytest.mark.parametrize("strategy", [sparse_states(), near_sector_states()],
                             ids=["sparse_states", "near_sector_states"])
    def test_carried_sums_read_as_the_cells_do_bit_for_bit(self, strategy):
        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(strategy)
        def check(state):
            for sector in decompose_sectors(state).sectors:
                held = sector.state
                assert held is not sector.state and held._sector == sector.n
                assert held._cells is sector.coeffs and not held._cells.flags.writeable
                summed = run_sums(sector.coeffs, sector.n, sector.cutoff)
                assert np.array(held._sums).view(np.uint64).tolist() == \
                    summed.view(np.uint64).tolist()
                if sector.n == 0:
                    continue
                checked = FockState._from_cells(sector.coeffs, sector.n, sector.cutoff)
                expected = report_bits(particle_moments(checked, sector.n))
                assert report_bits(particle_moments(held, sector.n)) == expected
                assert report_bits(sector_moments(sector)) == expected

        check()

    @pytest.mark.parametrize("rows", [1, 3])
    @settings(max_examples=30, deadline=None)
    @given(sparse_states(max_cutoff=16))
    def test_walks_of_small_chunks_match_the_dense_loops_bit_for_bit(self, rows, state):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(particle, "TABLE_ROWS", rows)
            patch.setattr(particle, "KEPT_ROWS", rows)
            decomposition = decompose_sectors(state)
            table = particle._sector_table(state)
        assert_same_bits(decomposition, dense_decompose_sectors(state))
        dense = dense_sector_table(state)
        assert table.sums.view(np.uint64).tolist() == dense.sums.view(np.uint64).tolist()
        for sector in decomposition.sectors:
            summed = run_sums(sector.coeffs, sector.n, sector.cutoff)
            assert np.array(sector._sums).view(np.uint64).tolist() == \
                summed.view(np.uint64).tolist()

    def test_kept_cells_are_one_read_only_array(self):
        state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 1.2}, 300))
        sectors = decompose_sectors(state).sectors
        kept = sectors[0].coeffs.base
        assert not kept.flags.writeable
        assert kept.nbytes == sum(s.coeffs.nbytes for s in sectors)
        assert all(s.coeffs.base is kept and not s.coeffs.flags.writeable for s in sectors)

    def test_a_hand_built_sector_is_checked(self):
        off = Sector(1, 1.0, np.array([0.6, 0.8 * (1 + 1e-9)], dtype=complex), 1)
        with pytest.raises(NormalizationError, match="deviates from 1"):
            off.state
        unit = Sector(1, 1.0, np.array([0.6, 0.8], dtype=complex), 1)
        assert unit.state._sums is None
        kept = decompose_sectors(build(ProbeSpec("noon", {"n": 3}))).sectors[0]
        with pytest.raises(NormalizationError, match="deviates from 1"):
            dataclasses.replace(kept, coeffs=2 * kept.coeffs).state

    @pytest.mark.parametrize("state", [build(ProbeSpec("twin-squeezed-vacuum", {"xi": 0.8})),
                                       build(ProbeSpec("noon", {"n": 4}))],
                             ids=["grid", "cells"])
    def test_decomposition_checks_each_sector_norm(self, monkeypatch, state):
        assert decompose_sectors(state).sectors
        monkeypatch.setattr(fock, "_NORM_TOL", -1.0)  # every norm fails
        with pytest.raises(NormalizationError, match="deviates from 1"):
            decompose_sectors(state)

    def test_the_sector_path_sums_no_sector_twice(self, monkeypatch):
        # the decomposition's two walks are all the path reads: the calls that sum cells
        # or check a norm do not grow with the number of sectors
        calls = {}

        def counted(module, name):
            function = getattr(module, name)

            def count(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        probes = [build(ProbeSpec("twin-squeezed-vacuum", {"xi": xi}, 300)) for xi in (1.0, 1.4)]
        counted(fock, "squared_norm")
        counted(particle, "_walk_sectors")
        seen = []
        for probe in probes:
            calls.clear()
            sectors = decompose_sectors(probe).sectors
            for sector in sectors:
                if sector.n >= 1:
                    particle_moments(sector.state, sector.n)
            seen.append((len(sectors), dict(calls)))
        (few, first), (many, second) = seen
        assert many > few + 20
        assert first == second and sum(first.values()) <= 2


@st.composite
def held_sectors(draw):
    """One sector of a ``near_sector_states`` draw, its largest or any other, held by its
    cells on the draw's grid."""
    state = draw(near_sector_states())
    sectors = decompose_sectors(state).sectors
    sector = draw(st.sampled_from([max(sectors, key=lambda s: s.weight), *sectors]))
    return FockState._from_cells(sector.coeffs, sector.n, state.cutoff)


@st.composite
def rotated_fixed_n_probes(draw):
    """A fixed-n probe of up to 40 photons, turned about a random axis: held by its cells."""
    family = draw(st.sampled_from(["twin-fock", "noon", "fraternal-twin-fock",
                                   "separable-coherent-probe", "fock-pair"]))
    probe = build(ProbeSpec(family, {"n": draw(st.integers(1, 40))}))
    axis = random_direction(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return apply_rotation(probe, tuple(axis), draw(st.floats(0.1, 6.0)))


class TestSectorTable:
    @pytest.mark.parametrize("strategy", [held_sectors(), rotated_fixed_n_probes()],
                             ids=["held_sectors", "rotated_fixed_n_probes"])
    def test_a_held_state_reads_as_its_grid_twin_bit_for_bit(self, strategy):
        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(strategy)
        def check(held):
            n = held._sector
            assert n is not None and held._sums is None
            table, decomposition = particle._sector_table(held), decompose_sectors(held)
            report = report_bits(particle_moments(held, n)) if n else None
            assert "amplitudes" not in vars(held)
            twin = FockState(held.amplitudes, held.cutoff)
            expected = particle._sector_table(twin)
            assert table.n.tolist() == expected.n.tolist() == [n]
            assert table.sums.view(np.uint64).tolist() == expected.sums.view(np.uint64).tolist()
            assert_same_bits(decomposition, decompose_sectors(twin))
            if n:
                assert report == report_bits(particle_moments(twin, n))

        check()

    @settings(max_examples=200, deadline=None)
    @given(sparse_states())
    def test_matches_the_dense_sector_loop_bit_for_bit(self, state):
        table, dense = particle._sector_table(state), dense_sector_table(state)
        assert table.n.tolist() == dense.n.tolist()
        assert table.sums.view(np.uint64).tolist() == dense.sums.view(np.uint64).tolist()
        assert table.weights_sum == dense.weights_sum
        weights = particle._sector_table(state, moments=False).sums
        assert weights.view(np.uint64).tolist() == dense.sums[:1].view(np.uint64).tolist()

    @pytest.mark.parametrize("strategy", [sparse_states(), near_sector_states()],
                             ids=["sparse_states", "near_sector_states"])
    def test_documented_sectors_match_the_oracles(self, strategy):
        # each kept sector's statistics in the analyze document, against the ladder
        # moments of its normalized vector (and, up to ten photons, the 2^n qubit
        # vector), within ROUTE_ROUNDOFF n^2; every occupied sector's weight, those
        # under the floor included, adds up to weights_sum in order
        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(strategy)
        def check(state):
            code, doc, read = analyze_document(state)
            assert code in (0, 2)
            table = particle._sector_table(read)
            total = 0.0
            for weight in table.sums[0].tolist():
                total += weight
            assert total == doc["sectors"]["weights_sum"] == table.weights_sum
            sectors = {s.n: s for s in decompose_sectors(read).sectors}
            assert [s["n"] for s in doc["sectors"]["sectors"]] == list(sectors)
            for entry in doc["sectors"]["sectors"]:
                n, particle_doc = entry["n"], entry["particle"]
                assert entry["weight"] == sectors[n].weight
                if n == 0:
                    assert particle_doc is None
                    continue
                got = [particle_doc[key] for key in
                       ("mean_sigma_z", "var_sigma_z", "cov_sigma_z", "f_particle")]
                references = [ladder_z_stats(sectors[n].state, n)]
                if n <= 10:
                    oracle = multiqubit_oracle(sectors[n].state, n)
                    references.append((oracle.mean_sigma_z, oracle.var_sigma_z,
                                       oracle.cov_sigma_z, oracle.f_particle))
                for reference in references:
                    assert np.allclose(got, reference, rtol=0.0, atol=ROUTE_ROUNDOFF * n * n)

        check()


class TestParticleMoments:
    def test_noon_three(self):
        report = particle_moments(build(ProbeSpec("noon", {"n": 3})), 3)
        assert abs(report.mean_sigma_z) < 1e-12
        assert np.isclose(report.var_sigma_z, 1.0)
        assert np.isclose(report.cov_sigma_z, 1.0)
        assert np.isclose(report.f_particle, 9.0)
        assert report.witness_entangled

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_split_single_port_fock_is_product(self, n):
        state = build(ProbeSpec("separable-coherent-probe", {"n": n}))
        report = particle_moments(state, n)
        assert abs(report.cov_sigma_z) < 1e-9
        assert report.f_particle <= n + 1e-9
        assert not report.witness_entangled

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_balanced_pair_carries_nothing(self, n):
        report = particle_moments(make_fock(n, n, n), 2 * n)
        assert abs(report.mean_sigma_z) < 1e-12
        assert abs(report.f_particle) < 1e-10

    def test_single_particle_convention(self):
        report = particle_moments(make_fock(1, 0, 1), 1)
        assert report.cov_sigma_z == 0.0
        assert np.isclose(report.mean_sigma_z, 1.0)
        assert np.isclose(report.f_particle, report.var_sigma_z)

    def test_variance_identity(self, rng):
        for n in (2, 3, 5):
            report = particle_moments(random_sector_state(rng, n), n)
            assert abs(report.var_sigma_z - (1 - report.mean_sigma_z**2)) < 1e-10
            rebuilt = n * report.var_sigma_z + n * (n - 1) * report.cov_sigma_z
            assert rebuilt == report.f_particle

    def test_tagged_state_makes_no_whole_grid_pass(self, monkeypatch, rng):
        # an untagged state's grid is read by sectors to find its sector; a tagged one
        # is read on its own cells, builds no grid, and both give the same bits
        state = random_sector_state(rng, 5)
        tagged = FockState._from_cells(fock.sector_cells(state.amplitudes, 5), 5, state.cutoff)
        expected = particle_moments(state, 5)

        def whole_grid_pass(_):
            raise AssertionError("sector_rows called")

        monkeypatch.setattr(fock, "sector_rows", whole_grid_pass)
        assert particle_moments(tagged, 5) == expected
        assert "amplitudes" not in vars(tagged)
        with pytest.raises(AssertionError, match="sector_rows called"):
            particle_moments(state, 5)

    def test_multi_sector_rejected(self):
        mixed = fixed_n_superposition({(1, 0): 1.0, (2, 0): 1.0}, 3)
        for n in (1, 2, 3):
            with pytest.raises(SectorSupportError, match="outside photon-number sector"):
                particle_moments(mixed, n)

    def test_weight_just_over_tolerance_is_rejected(self):
        leak = math.sqrt(2e-12)
        state = fixed_n_superposition({(2, 1): math.sqrt(1 - leak**2), (0, 0): leak}, 3)
        with pytest.raises(SectorSupportError, match="outside photon-number sector 3"):
            particle_moments(state, 3)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_other_sector_requested(self, n):
        with pytest.raises(SectorSupportError, match="occupies sector 3, not the requested"):
            particle_moments(make_fock(2, 1, 4), n)

    def test_zero_photons_rejected(self):
        with pytest.raises(ParameterError):
            particle_moments(make_fock(0, 0, 2), 0)

    def test_sector_beyond_grid_rejected(self):
        with pytest.raises(SectorSupportError, match="occupies sector 2"):
            particle_moments(make_fock(1, 1, 2), 5)

    @settings(max_examples=150, deadline=None)
    @given(truncated_sectors())
    def test_vector_grid_and_ladder_routes_agree(self, case):
        state, n = case
        tol = 1e-12 * (1 + n**2)
        from_grid = particle_moments(state, n)
        (sector,) = decompose_sectors(state).sectors
        from_vector = sector_moments(sector)
        expected = ladder_z_stats(state, n)
        references = [expected]
        if n <= 10:
            oracle = multiqubit_oracle(state, n)
            references.append(
                (oracle.mean_sigma_z, oracle.var_sigma_z, oracle.cov_sigma_z, oracle.f_particle)
            )
        for report in (from_grid, from_vector):
            got = (report.mean_sigma_z, report.var_sigma_z, report.cov_sigma_z, report.f_particle)
            for reference in references:
                assert np.allclose(got, reference, rtol=0.0, atol=tol)


class TestQfiParticle:
    def test_noon(self):
        decomp = decompose_sectors(build(ProbeSpec("noon", {"n": 3})))
        assert np.isclose(qfi_particle(decomp), 9.0)

    def test_split_pair(self):
        decomp = decompose_sectors(build(ProbeSpec("twin-fock", {"n": 1})))
        assert np.isclose(qfi_particle(decomp), 4.0)

    def test_fluctuating_probe_undefined(self):
        decomp = decompose_sectors(build(ProbeSpec("coherent", {"alpha": 2.0})))
        assert qfi_particle(decomp) is None

    @pytest.mark.parametrize(
        "family,values",
        [
            ("noon", [1, 2, 3, 5, 8]),
            ("twin-fock", [1, 2, 3, 4]),
            ("fraternal-twin-fock", [0, 1, 2, 3]),
            ("fock-pair", [1, 2, 4]),
            ("separable-coherent-probe", [1, 3, 8]),
        ],
    )
    def test_matches_variance_route_on_fixed_n_families(self, family, values):
        for n in values:
            state = build(ProbeSpec(family, {"n": n}))
            decomp = decompose_sectors(state)
            assert abs(qfi_particle(decomp) - qfi_variance(state)) < 1e-9


class TestOracle:
    def test_antisymmetric_pair_sector(self):
        # (|2,0> - |0,2>)/sqrt2 maps to (|mu mu> - |nu nu>)/sqrt2
        state = fixed_n_superposition({(2, 0): 1.0, (0, 2): -1.0}, 2)
        report = multiqubit_oracle(state, 2)
        assert np.isclose(report.cov_sigma_z, 1.0)
        assert np.isclose(report.f_particle, 4.0)

    def test_split_two_photons_is_product(self):
        state = beam_splitter(make_fock(2, 0, 2), "first")
        report = multiqubit_oracle(state, 2)
        assert abs(report.cov_sigma_z) < 1e-12

    def test_single_photon(self):
        report = multiqubit_oracle(make_fock(1, 0, 1), 1)
        assert np.isclose(report.mean_sigma_z, 1.0)
        assert abs(report.var_sigma_z) < 1e-15

    def test_qubit_vector_is_normalized(self, rng):
        for n in range(1, 7):
            vec = symmetric_qubit_vector(random_sector_state(rng, n), n)
            assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_agrees_with_bridge_formulas(self, rng):
        for n in range(1, 7):
            for _ in range(5):
                state = random_sector_state(rng, n)
                bridge = particle_moments(state, n)
                direct = multiqubit_oracle(state, n)
                assert abs(bridge.mean_sigma_z - direct.mean_sigma_z) < 1e-10
                assert abs(bridge.var_sigma_z - direct.var_sigma_z) < 1e-10
                assert abs(bridge.cov_sigma_z - direct.cov_sigma_z) < 1e-10
                assert abs(bridge.f_particle - direct.f_particle) < 1e-10

    def test_size_cap(self):
        with pytest.raises(ParameterError):
            multiqubit_oracle(make_fock(6, 5, 11), 11)


class TestLocality:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_collective_rotations_factorize(self, n, rng):
        for _ in range(5):
            v = random_direction(rng)
            gamma = rng.uniform(-math.pi, math.pi)
            assert locality_check(n, v, gamma)
            assert locality_defect(n, v, gamma) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_eigh_exponential_matches_expm(self, n, rng):
        # locality_defect builds both sides of its comparison by the eigh route
        for _ in range(5):
            v = random_direction(rng)
            gamma = rng.uniform(-math.pi, math.pi)
            h = collective_spin_matrix(n, v)
            assert np.abs(hermitian_exponential(h, gamma) - expm(-1j * gamma * h)).max() < 1e-12

    def test_collective_generator_matches_sector_blocks(self, rng):
        # the symmetric restriction of the qubit-space generator reproduces
        # the mode-picture sector matrices
        for n in (1, 2, 4):
            v = random_direction(rng)
            s = dicke_isometry(n)
            restricted = s.conj().T @ collective_spin_matrix(n, v) @ s
            block = sector_generator_matrix(n, n, v)
            assert np.abs(restricted - block).max() < 1e-12

    def test_single_particle_spectrum_invariant_under_collective_rotation(self, rng):
        for n in (2, 4, 6):
            state = random_sector_state(rng, n)
            vec = symmetric_qubit_vector(state, n)
            spectrum = np.sort(np.linalg.eigvalsh(reduced_single_particle(vec, n)))
            v = random_direction(rng)
            gamma = rng.uniform(-math.pi, math.pi)
            rotated = expm(-1j * gamma * collective_spin_matrix(n, v)) @ vec
            after = np.sort(np.linalg.eigvalsh(reduced_single_particle(rotated, n)))
            assert np.abs(spectrum - after).max() < 1e-10


class TestWitness:
    def test_every_super_shot_noise_fixed_n_state_has_positive_covariance(self):
        cases = (
            [("noon", {"n": n}) for n in (2, 3, 4, 5)]
            + [("twin-fock", {"n": n}) for n in (1, 2, 3)]
            + [("fraternal-twin-fock", {"n": n}) for n in (1, 2, 3)]
        )
        for family, params in cases:
            state = build(ProbeSpec(family, params))
            decomp = decompose_sectors(state)
            sector = decomp.dominant()
            nbar = float(sector.n)
            if qfi_variance(state) > nbar + 1e-6:
                assert particle_moments(sector.state, sector.n).cov_sigma_z > 0
