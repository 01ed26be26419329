import math

import numpy as np
import pytest
from hypothesis import given, settings

import mzi_qfi.qfi as qfi_module
from conftest import near_sector_states, random_two_mode_state, sector_cell_runs, sparse_states
from mzi_qfi.coherence import analyze
from mzi_qfi.errors import ParameterError
from mzi_qfi.fock import FockState, make_fock, number_moments, sector_kets
from mzi_qfi.particle import decompose_sectors
from mzi_qfi.qfi import (
    build_report,
    classify_scaling,
    qfi_fidelity,
    qfi_mode,
    qfi_path_symmetric,
    qfi_variance,
)
from mzi_qfi.schwinger import phase_shift
from mzi_qfi.states import FAMILIES, ProbeSpec, build, build_for_nbar
from oracles import allocating_qfi_fidelity, difference_weight_fidelity


class TestVarianceRoute:
    def test_coherent_probe_shot_noise(self):
        state = build(ProbeSpec("coherent", {"alpha": 2.0}))
        assert abs(qfi_variance(state) - 4.0) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_balanced_pairs_carry_no_information(self, n):
        assert abs(qfi_variance(make_fock(n, n, n))) < 1e-12

    def test_noon_heisenberg(self):
        assert np.isclose(qfi_variance(build(ProbeSpec("noon", {"n": 3}))), 9.0)

    def test_split_pair(self):
        state = build(ProbeSpec("twin-fock", {"n": 1}))
        assert np.isclose(qfi_variance(state), 4.0)

    def test_number_variance_expansion(self, rng):
        # 4 Var[Jz] = Var[n_a] + Var[n_b] - 2 Cov[n_a, n_b]
        for _ in range(20):
            psi = random_two_mode_state(rng, 9, 6)
            report = analyze(psi)
            expanded = report.var_na + report.var_nb - 2 * report.cov_nab
            assert abs(qfi_variance(psi) - expanded) < 1e-9

    def test_never_meaningfully_negative(self, rng):
        for _ in range(20):
            assert qfi_variance(random_two_mode_state(rng, 8, 6)) >= -1e-10


class TestModeRoutes:
    def test_coherent_report(self):
        report = analyze(build(ProbeSpec("coherent", {"alpha": 2.0})))
        assert abs(qfi_mode(report) - 4.0) < 1e-8
        assert abs(qfi_path_symmetric(report) - 4.0) < 1e-8

    def test_noon_arithmetic(self):
        state = build(ProbeSpec("noon", {"n": 3}))
        report = analyze(state)
        # 3 + 1.5^2 (4/3 - 1) * 2 - 2 * 1.5^2 (0 - 1) = 9
        assert abs(qfi_mode(report) - 9.0) < 1e-12
        assert abs(qfi_mode(report) - qfi_variance(state)) < 1e-9
        assert abs(qfi_path_symmetric(report) - 9.0) < 1e-12

    def test_undefined_propagates(self):
        report = analyze(make_fock(2, 0, 3))
        assert qfi_mode(report) is None

    def test_path_symmetric_refuses_asymmetric_states(self):
        report = analyze(make_fock(2, 0, 3))
        assert qfi_path_symmetric(report) is None

    def test_routes_agree_on_random_lit_states(self, rng):
        count = 0
        while count < 15:
            psi = random_two_mode_state(rng, 9, 6)
            report = analyze(psi)
            if report.g2_a is None or report.g2_b is None or report.g2_ab is None:
                continue
            count += 1
            f_var = qfi_variance(psi)
            assert abs(qfi_mode(report) - f_var) < 1e-9 + 1e-9 * abs(f_var)


class TestFidelityRoute:
    def test_noon_matches_variance(self):
        state = build(ProbeSpec("noon", {"n": 3}))
        got = qfi_fidelity(state, step=1e-3)
        assert abs(got - 9.0) < 9.0 * 1e-6

    def test_vacuum_is_flat(self):
        assert qfi_fidelity(make_fock(0, 0, 2)) == 0.0

    def test_number_correlated_squeezed_vacuum_is_flat(self):
        state = build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": 0.88}))
        assert abs(qfi_fidelity(state)) < 1e-8

    def test_phase_origin_does_not_matter(self, rng):
        psi = random_two_mode_state(rng, 8, 5)
        at_zero = qfi_fidelity(psi)
        elsewhere = qfi_fidelity(phase_shift(psi, 0.7))
        assert abs(at_zero - elsewhere) < 1e-10

    def test_richardson_beats_raw_differences(self):
        state = build(ProbeSpec("noon", {"n": 4}))
        raw = abs(qfi_fidelity(state, step=1e-3, richardson=False) - 16.0)
        extrapolated = abs(qfi_fidelity(state, step=1e-3) - 16.0)
        assert extrapolated < raw / 100

    @pytest.mark.parametrize("step", [1e-6, 0.1])
    def test_step_range_enforced(self, step):
        with pytest.raises(ParameterError):
            qfi_fidelity(make_fock(1, 0, 2), step=step)


#: (step, richardson) of every comparison with the references; None is the default step
FIDELITY_SETTINGS = [
    (step, richardson) for step in (1e-5, 1e-3, 1e-2, None) for richardson in (True, False)
]

#: How far the route may lie from the allocating one, relative to 4 <Jz^2>, an
#: upper bound of every estimate's <dpsi|dpsi> term. The two round differently:
#: T_h(d) - T_-h(d) loses about eps / (h |d|) of itself in either, at most
#: 2.2e-11 at h = 1e-5, and in trials over such states the two agreed within 3.1e-11.
ALLOCATING_RTOL = 1e-9


def bits(value):
    return np.asarray(value, dtype=np.float64).view(np.uint64).item()


def assert_same_fidelity_bits(state):
    levels = np.arange(state.dim)
    jz_square = np.sum(state.probabilities() * np.subtract.outer(levels, levels) ** 2) / 4
    for step, richardson in FIDELITY_SETTINGS:
        got = qfi_fidelity(state, step=step, richardson=richardson)
        expected = difference_weight_fidelity(state, step, richardson=richardson)
        assert bits(got) == bits(expected), (step, richardson)
        if step is not None:
            allocating = allocating_qfi_fidelity(state, step, richardson=richardson)
            assert abs(got - allocating) <= ALLOCATING_RTOL * 4 * jz_square, (step, richardson)


class TestFidelityBits:
    """The route gives the bits of its per-cell reference at every setting, and
    agrees with the allocating central differences."""

    @settings(max_examples=100, deadline=None)
    @given(sparse_states())
    def test_sparse_states(self, state):
        assert_same_fidelity_bits(state)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nbar", [1.0, 4.0, 7.0])
    def test_families(self, family, nbar):
        assert_same_fidelity_bits(build_for_nbar(family, nbar)[0])


class TestFidelityOfOneSector:
    """A state of one sector gives the route the same weights however it is held."""

    @settings(max_examples=100, deadline=None)
    @given(sector_cell_runs(max_cutoff=40))
    def test_every_holding_of_a_sector_gives_the_same_bits(self, run):
        cells, n, cutoff, loss = run
        ks = sector_kets(n, cutoff)
        grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        grid[ks, n - ks] = cells
        held = FockState._from_cells(cells, n, cutoff, loss)
        copies = {
            "untagged": FockState(grid.copy(), cutoff, loss),
            "fortran": FockState(np.asfortranarray(grid), cutoff, loss),
        }
        assert cutoff == 0 or not copies["fortran"].amplitudes.flags.c_contiguous
        for step, richardson in FIDELITY_SETTINGS:
            expected = bits(qfi_fidelity(held, step, richardson))
            for name, copy in copies.items():
                assert bits(qfi_fidelity(copy, step, richardson)) == expected, name
        assert bits(build_report(held).f_fidelity) == bits(qfi_fidelity(held))
        assert "amplitudes" not in vars(held)


class TestScaling:
    def test_heisenberg_example(self):
        cls = classify_scaling(9.0, 3.0, ROUNDOFF * 9)
        assert cls.sub_shot_noise
        assert np.isclose(cls.ratio_heisenberg, 1.0)

    def test_shot_noise_example(self):
        cls = classify_scaling(4.0, 4.0, 0.0)
        assert not cls.sub_shot_noise
        assert np.isclose(cls.ratio_shot_noise, 1.0)

    def test_dead_probe(self):
        cls = classify_scaling(0.0, 2.0, ROUNDOFF * 4)
        assert not cls.sub_shot_noise
        assert cls.ratio_shot_noise == 0.0

    def test_requires_photons(self):
        with pytest.raises(ParameterError):
            classify_scaling(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("share,sub_shot_noise", [(0.9, False), (1.1, True)])
    def test_the_excess_is_judged_against_the_bound_given(self, share, sub_shot_noise):
        for nbar, bound in ((2.0, ROUNDOFF * 4), (1e4, ROUNDOFF * 1e8), (1e-9, 1e-3)):
            cls = classify_scaling(nbar + share * bound, nbar, bound)
            assert cls.sub_shot_noise is sub_shot_noise, (nbar, bound)


class TestCoherentFamilyBenchmark:
    @pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_laser_interferometry_sits_at_shot_noise(self, nbar):
        state, _, _ = build_for_nbar("coherent", nbar)
        assert abs(qfi_variance(state) / nbar - 1.0) < 1e-8


class TestFullReport:
    def test_dark_mode_reasons(self):
        report = build_report(make_fock(2, 0, 3))
        assert report.f_mode is None
        assert "dark mode" in report.reasons["f_mode"]
        assert report.routes_consistent

    def test_zero_information_has_no_crb(self):
        report = build_report(make_fock(2, 2, 4))
        assert report.crb is None
        assert "crb" in report.reasons

    @pytest.mark.parametrize("weight", [1e-100, 5e-13, 1e-6, 0.5])
    def test_any_information_above_the_roundoff_has_a_crb(self, weight):
        # sqrt(1 - w)|0,0> + sqrt(w)|1,0> has F = 4 Var[Jz] = w (1 - w) and <N^2> = w
        grid = np.zeros((2, 2), dtype=complex)
        grid[0, 0], grid[1, 0] = math.sqrt(1 - weight), math.sqrt(weight)
        report = build_report(FockState(grid, 1))
        assert report.f_variance == pytest.approx(weight * (1 - weight), rel=1e-9)
        assert report.crb == 1 / math.sqrt(report.f_variance) and "crb" not in report.reasons

    def test_vacuum_scaling_undefined(self):
        report = build_report(make_fock(0, 0, 1))
        assert report.scaling is None

    def test_noon_crb(self):
        report = build_report(build(ProbeSpec("noon", {"n": 3})))
        assert np.isclose(report.crb, 1 / 3)
        assert report.scaling.sub_shot_noise
        assert report.f_particle is not None

    def test_fluctuating_probe_has_no_particle_route(self):
        report = build_report(build(ProbeSpec("coherent", {"alpha": 2.0})))
        assert report.f_particle is None
        assert report.reasons["f_particle"] == "particle fluctuations present"

    def test_fidelity_pair_judged_at_its_relative_tolerance(self, monkeypatch):
        state = build(ProbeSpec("noon", {"n": 4}))
        # a 3e-7 relative offset: inside the finite-difference tolerance,
        # far outside the algebraic-identity one
        monkeypatch.setattr(qfi_module, "_fidelity", lambda *a, **k: (16.0 + 5e-6, 1e-3))
        report = build_report(state)
        assert report.routes_consistent
        assert report.disagreements == ()
        monkeypatch.setattr(qfi_module, "_fidelity", lambda *a, **k: (16.0 + 5e-4, 1e-3))
        report = build_report(state)
        assert not report.routes_consistent
        # each other route misses the fidelity route, by the fidelity route's truncation
        # and both routes' round-off at <N^2> = 16, to rounding
        roundoff = ROUNDOFF * total_squared(state)
        assert {tuple(record["routes"]) for record in report.disagreements} == {
            ("f_fidelity", name) for name in ("f_mode", "f_particle", "f_path_symmetric",
                                              "f_variance")
        }
        for record in report.disagreements:
            (name_a, a), (name_b, b) = record["routes"].items()
            assert record["residual"] == a - b
            assert record["allowance"] == roundoff + (1e-9 + 1e-6 * abs(a)) + roundoff
            assert abs(record["residual"]) > record["allowance"]
            assert record["fidelity_step"] == 1e-3

    def test_heavily_squeezed_probe_stays_consistent(self, monkeypatch):
        monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "512")
        state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 1.5}))
        report = build_report(state)
        assert report.routes_consistent
        nbar = 2 * math.sinh(1.5) ** 2
        assert abs(report.f_variance - (nbar**2 + 2 * nbar)) < 1e-6 * report.f_variance


#: Each route's round-off per unit of <N^2>, as ``qfi.ROUTE_ROUNDOFF`` states it.
ROUNDOFF = 32 * 2.0**-53

#: Every route of noon n = 4, each patched to a value of its own, far from the others.
FAR_APART = {"f_fidelity": 16.5, "f_mode": -17.0, "f_particle": 18.0,
             "f_path_symmetric": 19.0, "f_variance": 20.0}


def patch_routes(monkeypatch, values):
    """Make ``build_report`` take each route in ``values`` at the value given there."""
    if "f_fidelity" in values:
        monkeypatch.setattr(qfi_module, "_fidelity", lambda *a, **k: (values["f_fidelity"], 1e-3))
    for name in ("f_mode", "f_path_symmetric", "f_variance"):
        if name in values:
            monkeypatch.setattr(qfi_module, name.replace("f_", "qfi_"),
                                lambda *a, name=name: values[name])
    if "f_particle" in values:
        monkeypatch.setattr(qfi_module, "qfi_particle", lambda *a: values["f_particle"])


def allowances(monkeypatch, state, values=FAR_APART):
    """The allowance of each pair of routes that misses it, by the pair's names."""
    patch_routes(monkeypatch, values)
    return {frozenset(record["routes"]): record["allowance"]
            for record in build_report(state).disagreements}


def total_squared(state) -> float:
    """<N^2> = <(n_a + n_b)^2> from the state's number moments."""
    m = number_moments(state)
    return m.aa + m.a + m.bb + m.b + 2.0 * m.ab


def near_symmetric_twin_fock() -> FockState:
    """Twin-fock n = 4 with |8,0> and |0,8> scaled by 1 + 3e-11 and 1 - 3e-11.

    It is path-symmetric within ``PATH_SYMMETRY_TOL`` and occupies one sector;
    the symmetric route errs by about 1.05e-9.
    """
    grid = build(ProbeSpec("twin-fock", {"n": 4})).amplitudes.copy()
    grid[8, 0] *= 1 + 3e-11
    grid[0, 8] *= 1 - 3e-11
    return FockState.from_grid(grid)


class TestRouteAgreement:
    """A pair of routes agrees within the sum of its two routes' own error bounds."""

    def test_each_pair_is_allowed_the_sum_of_its_routes_own_bounds(self, monkeypatch):
        state = build(ProbeSpec("noon", {"n": 4}))
        noon = allowances(monkeypatch, state)
        assert len(noon) == 10  # every pair misses
        roundoff = ROUNDOFF * total_squared(state)  # <N^2> = 16, to rounding
        for pair, allowance in noon.items():
            if "f_fidelity" in pair:  # the fidelity route adds its truncation
                assert allowance == roundoff + (1e-9 + 1e-6 * 16.5) + roundoff, pair
            else:  # the same for every closed-form pair; noon is exactly symmetric
                assert allowance == 2 * roundoff, pair

    def test_the_allowance_is_symmetric_in_the_pair(self, monkeypatch):
        state = build(ProbeSpec("noon", {"n": 4}))
        noon = allowances(monkeypatch, state)
        for first, second in (("f_mode", "f_variance"), ("f_particle", "f_path_symmetric")):
            swapped = {**FAR_APART, first: FAR_APART[second], second: FAR_APART[first]}
            assert allowances(monkeypatch, state, swapped) == noon

    def test_the_closed_form_allowance_scales_with_the_squared_photon_number(self,
                                                                              monkeypatch):
        # <N^2> is 16 for noon n = 4 and 64 for n = 8
        small = allowances(monkeypatch, build(ProbeSpec("noon", {"n": 4})))
        large = allowances(monkeypatch, build(ProbeSpec("noon", {"n": 8})))
        for pair in small:
            if "f_fidelity" not in pair:
                assert large[pair] == pytest.approx(4 * small[pair], rel=1e-14), pair

    def test_only_the_symmetric_route_adds_its_premise_term(self, monkeypatch):
        state = near_symmetric_twin_fock()
        report = analyze(state)
        assert report.path_symmetric and report.nbar_a != report.nbar_b
        e = (report.nbar_a - report.nbar_b) / 2
        h = (report.g2_a - report.g2_b) / 2
        premise = 2 * e * e * abs(report.g2_a + report.g2_ab - 2) + 2 * abs(h) * report.nbar_b**2
        assert 1e-9 < premise < 1.1e-9
        found = allowances(monkeypatch, state)
        roundoff = ROUNDOFF * total_squared(state)
        assert len(found) == 10
        for pair, allowance in found.items():
            own = roundoff + (1e-9 + 1e-6 * 16.5) if "f_fidelity" in pair else roundoff
            if "f_path_symmetric" in pair:
                assert allowance == pytest.approx(own + roundoff + premise, rel=1e-12), pair
            else:
                assert allowance == own + roundoff, pair

    def test_premise_bound_covers_the_symmetric_routes_error(self, rng):
        # f_mode - f_path_symmetric = 2 e^2 (g2_a + g2_ab - 2) - 2 h nbar_b^2 exactly
        for _ in range(20):
            report = analyze(random_two_mode_state(rng, 8, 6), tol=1e3)
            e = (report.nbar_a - report.nbar_b) / 2
            h = (report.g2_a - report.g2_b) / 2
            error = qfi_mode(report) - qfi_path_symmetric(report)
            exact = 2 * e * e * (report.g2_a + report.g2_ab - 2) - 2 * h * report.nbar_b**2
            assert error == pytest.approx(exact, rel=1e-9, abs=1e-12)
            assert qfi_module._premise_bound(report) >= abs(exact)

    @pytest.mark.parametrize("share,consistent", [(0.9, True), (1.1, False)])
    @pytest.mark.parametrize("route", ["f_mode", "f_fidelity"])
    def test_a_pair_at_the_edge_of_its_allowance(self, monkeypatch, route, share, consistent):
        # noon n = 64: F = 4096 and <N^2> = 4096, exactly symmetric, so the closed-form
        # pairs may differ by 64 u <N^2>, 2.9e-11, and a fidelity pair by 1e-9 + 1e-6 F more
        state = build(ProbeSpec("noon", {"n": 64}))
        value = qfi_variance(state)
        edge = 2 * ROUNDOFF * total_squared(state)
        if route == "f_fidelity":
            edge += 1e-9 + 1e-6 * value
        values = dict.fromkeys(("f_mode", "f_particle", "f_path_symmetric", "f_fidelity"), value)
        values[route] = value + share * edge
        patch_routes(monkeypatch, values)
        report = build_report(state)
        assert report.routes_consistent is consistent
        others = {"f_mode", "f_particle", "f_path_symmetric", "f_variance"} - {route}
        assert {frozenset(record["routes"]) for record in report.disagreements} == (
            set() if consistent else {frozenset((route, other)) for other in others})

    def test_a_near_symmetric_probe_keeps_its_symmetric_route(self):
        state = near_symmetric_twin_fock()
        report = build_report(state)
        assert report.f_path_symmetric is not None and report.f_particle is not None
        assert report.routes_consistent, report.disagreements

    def test_a_remainder_a_weight_sum_cannot_hold_has_no_particle_route(self):
        # 1e-17 of the weight in sector 1300 is lost in the sum of the weights,
        # yet it moves f_mode by 1.7e-11: the state is not of fixed n
        grid = np.zeros((1301, 1301), dtype=np.complex128)
        grid[[2, 1, 0], [0, 1, 2]] = [0.5, -math.sqrt(0.5), 0.5]  # twin-fock n = 1
        grid[1300, 0] = math.sqrt(1e-17)
        state = FockState.from_grid(grid)
        decomposition = decompose_sectors(state)
        assert decomposition.weights_sum == decomposition.dominant().weight
        report = build_report(state, decomposition=decomposition)
        assert report.f_particle is None
        assert report.reasons["f_particle"] == "particle fluctuations present"
        assert report.routes_consistent, report.disagreements

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(near_sector_states())
    def test_near_sector_states_keep_every_pair_consistent(self, state):
        report = build_report(state)
        assert report.f_particle is None
        assert report.disagreements == ()
