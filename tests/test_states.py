import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzi_qfi import states
from mzi_qfi.coherence import analyze
from mzi_qfi.errors import (
    ParameterError,
    TruncationLossError,
    UnattainableTargetError,
)
from mzi_qfi.fock import cutoff_ceiling, inner, make_fock
from mzi_qfi.particle import decompose_sectors
from mzi_qfi.schwinger import beam_splitter
from mzi_qfi.states import (
    FAMILIES,
    ProbeSpec,
    build,
    build_for_nbar,
    mean_photon_number,
    solve_param_for_nbar,
    squeezed_vacuum_vector,
)
from oracles import squeezed_vacuum_reference


class TestBuilders:
    def test_noon_amplitudes(self):
        state = build(ProbeSpec("noon", {"n": 2}))
        assert np.isclose(state.amplitudes[2, 0], 1 / math.sqrt(2))
        assert np.isclose(state.amplitudes[0, 2], 1 / math.sqrt(2))
        assert np.count_nonzero(state.amplitudes) == 2

    def test_tmsv_is_number_correlated(self):
        chi = 0.9
        state = build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": chi}))
        diag = np.diag(state.amplitudes)
        n = np.arange(state.dim)
        assert np.allclose(diag, np.tanh(chi) ** n / np.cosh(chi), atol=1e-12)
        off = state.amplitudes - np.diag(diag)
        assert np.abs(off).max() == 0.0

    def test_coherent_probe_intensity_and_profile(self):
        state = build(ProbeSpec("coherent", {"alpha": 2.0}))
        assert np.isclose(mean_photon_number(state), 4.0, atol=1e-10)
        # per-mode Poisson moduli at mean |alpha|^2 / 2
        probs = state.probabilities()
        marginal = probs.sum(axis=1)
        mean = 2.0
        expected = np.array([math.exp(-mean) * mean**j / math.factorial(j) for j in range(10)])
        assert np.allclose(marginal[:10], expected, atol=1e-12)

    def test_entangled_coherent_exact_normalization(self):
        state = build(ProbeSpec("entangled-coherent", {"alpha": 1.0}))
        # overlap of the two branches doubles the vacuum cell
        norm_const = math.sqrt(2 * (1 + math.exp(-1.0)))
        assert np.isclose(abs(state.amplitudes[0, 0]), 2 * math.exp(-0.5) / norm_const, atol=1e-12)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            build(ProbeSpec("twin-squeezed-vacuum", {"xi": -0.3}))

    def test_complex_squeezing_rejected(self):
        with pytest.raises(ParameterError, match="complex squeezing"):
            build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": 0.5 + 0.1j}))

    def test_wrong_parameter_name_rejected(self):
        with pytest.raises(ParameterError):
            build(ProbeSpec("noon", {"alpha": 2.0}))

    def test_explicit_cutoff_too_small(self):
        with pytest.raises(TruncationLossError):
            build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": 1.0}, cutoff=4))

    def test_ceiling_insufficient(self, monkeypatch):
        monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "24")
        with pytest.raises(TruncationLossError, match="ceiling"):
            build(ProbeSpec("twin-squeezed-vacuum", {"xi": 1.2}))

    def test_auto_cutoff_is_smallest(self):
        state = build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": 0.8}))
        lam = math.tanh(0.8) ** 2
        loss_at = lambda n: lam ** (n + 1)  # geometric tail of the number distribution
        assert loss_at(state.cutoff) < 1e-14
        assert loss_at(state.cutoff - 1) >= 1e-14

    def test_split_photon_amplitudes_are_pinned(self):
        # the coherent and amplified-bell grids, and through their losses the
        # auto-cutoffs, depend on these bits: u real and v imaginary, exactly
        u, v = states._split_photon_amplitudes()
        assert (u.real.hex(), u.imag) == ("0x1.6a09e667f3bcdp-1", 0.0)
        assert (v.real, v.imag.hex()) == (0.0, "-0x1.6a09e667f3bccp-1")


class TestPathSymmetry:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_are_path_symmetric(self, family):
        state, _, _ = build_for_nbar(family, 4.0)
        report = analyze(state, tol=1e-8)
        assert report.path_symmetric
        assert abs(report.nbar_a - report.nbar_b) < 1e-8


class TestSqueezerCrossCheck:
    @pytest.mark.parametrize("xi", [0.3, 0.9, 1.5])
    def test_closed_form_matches_generator_exponential(self, xi):
        # generous headroom: the truncated generator reflects at the boundary
        dim = 501
        closed = squeezed_vacuum_vector(xi, dim)
        reference = squeezed_vacuum_reference(xi, dim)
        assert np.linalg.norm(closed - reference) < 1e-8


class TestDecompositionConsistency:
    def test_coherent_sectors_are_split_fock_states(self):
        state = build(ProbeSpec("coherent", {"alpha": 2.0}))
        decomp = decompose_sectors(state)
        for sector in decomp.sectors:
            if not 1 <= sector.n <= 6:
                continue
            target = beam_splitter(make_fock(sector.n, 0, sector.n), "first")
            assert abs(abs(inner(sector.state, target)) - 1.0) < 1e-8

    def test_twin_squeezed_sectors_are_split_pairs(self):
        xi = 0.65
        state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": xi}))
        decomp = decompose_sectors(state)
        lam = math.tanh(xi) ** 2
        for sector in decomp.sectors:
            if sector.n % 2 == 1 or sector.n > 10:
                continue
            pairs = sector.n // 2
            assert np.isclose(sector.weight, lam**pairs / math.cosh(xi) ** 2, atol=1e-10)
            target = beam_splitter(make_fock(pairs, pairs, sector.n), "first")
            assert abs(abs(inner(sector.state, target)) - 1.0) < 1e-10

    def test_amplified_bell_sectors_are_split_near_pairs(self):
        xi = 0.6
        state = build(ProbeSpec("amplified-bell", {"xi": xi}))
        decomp = decompose_sectors(state)
        lam = math.tanh(xi) ** 2
        for sector in decomp.sectors:
            if sector.n % 2 == 0 or sector.n > 9:
                continue
            m = (sector.n - 1) // 2
            expected_weight = (m + 1) * lam**m / math.cosh(xi) ** 4
            assert np.isclose(sector.weight, expected_weight, atol=1e-10)
            target = beam_splitter(make_fock(m + 1, m, sector.n), "first")
            assert abs(abs(inner(sector.state, target)) - 1.0) < 1e-10

    def test_entangled_coherent_sectors_are_noon(self):
        state = build(ProbeSpec("entangled-coherent", {"alpha": 4.0}))
        decomp = decompose_sectors(state)
        mean = 16.0
        for sector in decomp.sectors:
            if sector.n == 0:
                continue
            poisson_n = math.exp(-mean) * mean**sector.n / math.factorial(sector.n)
            assert abs(sector.weight - poisson_n) < 1.2e-7
            if sector.n <= 6:
                noon = build(ProbeSpec("noon", {"n": sector.n}))
                assert abs(abs(inner(sector.state, noon)) - 1.0) < 1e-10


#: Exact untruncated mean photon number of each continuous family, by its native parameter.
FORWARD_NBAR = {
    "twin-squeezed-vacuum": ("xi", lambda xi: 2 * math.sinh(xi) ** 2),
    "two-mode-squeezed-vacuum": ("chi", lambda chi: 2 * math.sinh(chi) ** 2),
    "amplified-bell": ("xi", lambda xi: 1 + 4 * math.sinh(xi) ** 2),
    "coherent": ("alpha", lambda alpha: abs(alpha) ** 2),
    "entangled-coherent": ("alpha", lambda a: abs(a) ** 2 / (1 + math.exp(-abs(a) ** 2))),
}


def solve_and_build(family, target):
    params, realized = solve_param_for_nbar(family, target)
    return params, realized, build(ProbeSpec(family, params))


class TestSolveForNbar:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(FORWARD_NBAR)), st.floats(0.05, 12.0))
    def test_closed_form_inversion(self, family, target):
        assume(family != "amplified-bell" or target >= 1.0)
        try:
            params, realized, state = solve_and_build(family, target)
        except TruncationLossError:
            # only a state that needs more than the default ceiling may fail
            with mock.patch.dict(os.environ, {"MZI_QFI_CUTOFF_CEILING": "1024"}):
                params, realized, state = solve_and_build(family, target)
            assert state.cutoff > cutoff_ceiling()
        key, forward = FORWARD_NBAR[family]
        assert abs(forward(params[key]) - target) <= 1e-12 * target
        assert abs(realized - target) < 1e-8
        assert abs(mean_photon_number(state) - target) < 1e-8

    @pytest.mark.parametrize("target", [1e-12, 1e-9, 1e-6, 1e-3, 0.05])
    def test_entangled_coherent_near_vacuum(self, target):
        # the branches' vacuum overlap halves the mean: |alpha|^2 = 2 nbar (1 - nbar + ...)
        params, realized, state = solve_and_build("entangled-coherent", target)
        _, forward = FORWARD_NBAR["entangled-coherent"]
        assert abs(forward(params["alpha"]) - target) <= 1e-12 * target
        assert abs(params["alpha"] ** 2 / (2 * target) - 1) <= 2 * target
        assert abs(realized - target) < 1e-8
        assert abs(mean_photon_number(state) - target) < 1e-8

    # continuous families return the solve's own build; an integer family's solve builds nothing
    @pytest.mark.parametrize("family,target", [
        ("coherent", 4.0), ("twin-squeezed-vacuum", 3.0), ("noon", 3.0),
    ])
    def test_build_for_nbar_builds_once(self, monkeypatch, family, target):
        calls = []
        original = states.build
        monkeypatch.setattr(states, "build", lambda spec: calls.append(spec) or original(spec))
        state, params, realized = build_for_nbar(family, target)
        assert len(calls) == 1
        expected = build(ProbeSpec(family, params))
        assert np.array_equal(state.amplitudes, expected.amplitudes)
        assert solve_param_for_nbar(family, target) == (params, realized)

    def test_build_for_nbar_with_explicit_cutoff_still_solves_first(self, monkeypatch):
        cutoffs = []
        original = states.build
        monkeypatch.setattr(states, "build",
                            lambda spec: cutoffs.append(spec.cutoff) or original(spec))
        state, _, _ = build_for_nbar("coherent", 4.0, cutoff=40)
        assert cutoffs == [None, 40] and state.cutoff == 40
        with pytest.raises(TruncationLossError, match="ceiling 256"):
            build_for_nbar("twin-squeezed-vacuum", 8.0, cutoff=20)

    def test_ceiling_raises_truncation_loss(self):
        with pytest.raises(TruncationLossError, match="ceiling 256"):
            solve_param_for_nbar("twin-squeezed-vacuum", 8.0)

    def test_tmsv_matches_arcsinh(self):
        params, realized = solve_param_for_nbar("two-mode-squeezed-vacuum", 2.0)
        assert abs(params["chi"] - math.asinh(1.0)) < 1e-8
        assert abs(realized - 2.0) < 1e-8

    def test_noon_integer(self):
        assert solve_param_for_nbar("noon", 3.0) == ({"n": 3}, 3.0)

    def test_twin_fock_integer(self):
        assert solve_param_for_nbar("twin-fock", 4.0) == ({"n": 2}, 4.0)

    def test_fraternal_rounds_to_nearest_odd(self):
        params, realized = solve_param_for_nbar("fraternal-twin-fock", 4.2)
        assert params == {"n": 2} and realized == 5.0

    @pytest.mark.parametrize("family", ["twin-squeezed-vacuum", "coherent", "entangled-coherent",
                                        "amplified-bell"])
    def test_continuous_families_hit_target(self, family):
        target = 4.0
        params, realized = solve_param_for_nbar(family, target)
        assert abs(realized - target) < 1e-8
        state = build(ProbeSpec(family, params))
        assert abs(mean_photon_number(state) - target) < 1e-8

    def test_noon_below_one_unattainable(self):
        with pytest.raises(UnattainableTargetError):
            solve_param_for_nbar("noon", 0.4)

    def test_amplified_bell_below_one_unattainable(self):
        with pytest.raises(UnattainableTargetError):
            solve_param_for_nbar("amplified-bell", 0.5)

    def test_nonpositive_target(self):
        with pytest.raises(UnattainableTargetError):
            solve_param_for_nbar("coherent", 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("target,message", [
        (math.inf, "target mean photon number must be finite, got inf"),
        (-math.inf, "target mean photon number must be positive, got -inf"),
        (math.nan, "target mean photon number must be positive, got nan"),
    ])
    def test_non_finite_target(self, family, target, message):
        with pytest.raises(UnattainableTargetError) as exc:
            solve_param_for_nbar(family, target)
        assert (exc.value.code, str(exc.value)) == ("unattainable-target", message)

    # a target half-way between two photon totals rounds n to even, and the
    # smallest n holding a photon serves targets down to half a photon below it
    @pytest.mark.parametrize("family,target,expected", [
        ("noon", 2.5, ({"n": 2}, 2.0)), ("noon", 3.5, ({"n": 4}, 4.0)),
        ("twin-fock", 5.0, ({"n": 2}, 4.0)), ("fraternal-twin-fock", 4.0, ({"n": 2}, 5.0)),
        ("twin-fock", 1.0, ({"n": 1}, 2.0)), ("noon", 0.5, ({"n": 1}, 1.0)),
    ])
    def test_half_way_targets(self, family, target, expected):
        assert solve_param_for_nbar(family, target) == expected

    def test_fraternal_reaches_any_positive_target(self):
        # the n = 0 member |1, 0> already holds a photon
        assert solve_param_for_nbar("fraternal-twin-fock", 0.4) == ({"n": 0}, 1.0)


FIXED_N_FAMILIES = ("twin-fock", "noon", "fraternal-twin-fock", "separable-coherent-probe",
                    "fock-pair")


class TestErrorContract:
    @pytest.mark.parametrize("family", FIXED_N_FAMILIES)
    def test_non_integer_n(self, family):
        with pytest.raises(ParameterError) as exc:
            build(ProbeSpec(family, {"n": 2.5}))
        assert (exc.value.code, str(exc.value)) == (
            "bad-parameter", f"family '{family}' needs an integer n, got 2.5")

    @pytest.mark.parametrize("family,key", [("twin-squeezed-vacuum", "xi"),
                                            ("amplified-bell", "xi"),
                                            ("two-mode-squeezed-vacuum", "chi")])
    def test_complex_and_negative_squeezing(self, family, key):
        with pytest.raises(ParameterError) as exc:
            build(ProbeSpec(family, {key: 0.5 + 0.1j}))
        assert (exc.value.code, str(exc.value)) == (
            "bad-parameter", f"complex squeezing is not supported, got {key}=(0.5+0.1j)")
        with pytest.raises(ParameterError) as exc:
            build(ProbeSpec(family, {key: -0.3 + 0j}))
        assert str(exc.value) == f"squeezing must be non-negative, got {key}=-0.3"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_foreign_parameter_key(self, family):
        key = "n" if family in FIXED_N_FAMILIES else FORWARD_NBAR[family][0]
        wrong = "xi" if key == "n" else "n"
        with pytest.raises(ParameterError) as exc:
            build(ProbeSpec(family, {wrong: 1}))
        assert str(exc.value) == f"family '{family}' takes parameters ('{key}',), got ('{wrong}',)"

    @pytest.mark.parametrize("name", ["bogus", "tsv"])
    def test_unknown_family(self, name):
        with pytest.raises(ParameterError) as exc:
            ProbeSpec(name)
        assert (exc.value.code, str(exc.value)) == (
            "bad-parameter", f"unknown family '{name}'; choose one of " + ", ".join(FAMILIES))
        with pytest.raises(ParameterError) as exc:
            solve_param_for_nbar(name, 1.0)
        assert (exc.value.code, str(exc.value)) == ("bad-parameter", f"unknown family '{name}'")
