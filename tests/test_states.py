import functools
import itertools
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mzi_qfi import states
from mzi_qfi.coherence import analyze
from mzi_qfi.errors import (
    MziError,
    NormalizationError,
    ParameterError,
    TruncationLossError,
    UnattainableTargetError,
)
from mzi_qfi.fock import (
    DEFAULT_LOSS_CEILING,
    ROUTE_ROUNDOFF,
    FockState,
    cutoff_ceiling,
    inner,
    make_fock,
)
from mzi_qfi.particle import decompose_sectors
from mzi_qfi.qfi import qfi_variance
from mzi_qfi.schwinger import beam_splitter
from mzi_qfi.states import (
    AUTO_LOSS_TARGET,
    FAMILIES,
    ProbeSpec,
    build,
    build_for_nbar,
    coherent_vector,
    resolve_family,
    solve_param_for_nbar,
    squeezed_one_vector,
    squeezed_vacuum_vector,
)
from oracles import (
    filled_tmsv_grid,
    forward_coherent_vector,
    mean_photon_number,
    poisson_magnitudes_reference,
    squeezed_vacuum_reference,
    strip_amplified_bell_grid,
    strip_twin_squeezed_grid,
    truncation_loss_reference,
    walked_head,
)

CONTINUOUS_FAMILIES = tuple(name for name in FAMILIES if resolve_family(name).loss is not None)

#: One parameter per continuous family, for the auto-cutoff tests.
FAMILY_CASES = [
    ("twin-squeezed-vacuum", 0.9), ("entangled-coherent", 3.0), ("amplified-bell", 0.7),
    ("coherent", 2.0 + 1.0j), ("two-mode-squeezed-vacuum", 0.8),
]
#: ... and tiny ones, whose smallest cutoff is 0 (1 for the photon of amplified-bell).
AUTO_CUTOFF_CASES = FAMILY_CASES + [(family, 1e-8) for family, _ in FAMILY_CASES]


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

    @pytest.mark.parametrize("family,value", AUTO_CUTOFF_CASES)
    def test_auto_cutoff_is_smallest(self, family, value):
        record = resolve_family(family)
        state = build(ProbeSpec(family, {record.key: value}))
        loss_at = lambda c: truncation_loss_reference(family, value, c)
        assert loss_at(state.cutoff) < AUTO_LOSS_TARGET <= loss_at(state.cutoff - 1)
        assert state.truncation_loss == record.loss(value, state.cutoff)
        assert state.truncation_loss == pytest.approx(loss_at(state.cutoff), rel=1e-13, abs=0)

    @pytest.mark.parametrize("family,value,cutoff", [
        ("coherent", 14.90625, 54), ("twin-squeezed-vacuum", 3.0, 20),
        ("amplified-bell", 3.0, 21), ("entangled-coherent", 10.0, 60),
    ])
    def test_loss_never_rises_near_one(self, family, value, cutoff):
        # where the head is tiny, 2T - T^2 rounded can rise by an ulp; 1 - (1 - T)^2 cannot
        loss = resolve_family(family).loss
        losses = [loss(value, c) for c in range(cutoff, cutoff + 4)]
        assert losses == sorted(losses, reverse=True)

    @pytest.mark.parametrize("family,value", FAMILY_CASES)
    def test_auto_cutoff_builds_one_grid(self, monkeypatch, family, value):
        # the search reads losses only; the one grid is the state's
        record = resolve_family(family)
        cutoffs = []
        spy = record._replace(grid=lambda v, c: cutoffs.append(c) or record.grid(v, c))
        monkeypatch.setitem(states._BY_NAME, family, spy)
        state = build(ProbeSpec(family, {record.key: value}))
        assert cutoffs == [state.cutoff]
        cutoffs.clear()
        state, _, _ = build_for_nbar(family, 5.0)
        assert cutoffs == [state.cutoff]
        cutoffs.clear()
        with pytest.raises(TruncationLossError, match="exceeds ceiling"):
            build(ProbeSpec(family, {record.key: value}, cutoff=1))
        assert cutoffs == []  # an explicit cutoff that cannot hold the state builds nothing

    @pytest.mark.parametrize("family,value,cutoffs", [
        ("twin-squeezed-vacuum", 0.9, (10, 30, 60)), ("entangled-coherent", 3.0, (12, 20, 30)),
        ("amplified-bell", 0.7, (9, 20, 40)), ("coherent", 2.0 + 1.0j, (6, 12, 20)),
        ("two-mode-squeezed-vacuum", 0.8, (10, 30, 60)),
    ])
    def test_loss_is_the_mass_the_grid_misses(self, family, value, cutoffs):
        # by subtraction, good to about 1e-15 absolute: ties the tail formulas to the grids
        record = resolve_family(family)
        for cutoff in cutoffs:
            grid = record.grid(value, cutoff)
            missing = 1.0 - float(np.sum(np.abs(grid) ** 2))
            assert abs(record.loss(value, cutoff) - missing) < 1e-14

    @pytest.mark.parametrize("xi", [0.3, 1.1, 2.0])
    def test_squeezed_photon_number_distribution(self, xi):
        # the loss of amplified-bell reads level 2m+1 of S|1> as (2m+1)/cosh^2 xi
        # times level 2m of S|0>
        one = np.abs(squeezed_one_vector(xi, 400)) ** 2
        vacuum = np.abs(squeezed_vacuum_vector(xi, 400)) ** 2
        m = np.arange(199)
        assert np.allclose(one[2 * m + 1], (2 * m + 1) * vacuum[2 * m] / math.cosh(xi) ** 2,
                           rtol=1e-12, atol=1e-300)
        assert not one[0::2].any()

    def test_split_photon_amplitudes_are_pinned(self):
        # the coherent and amplified-bell grids depend on these bits, u real and
        # v imaginary, exactly; their losses and auto-cutoffs do not, being
        # sums over the one-mode number distributions
        u, v = states._SPLIT_PHOTON
        assert (u.real.hex(), u.imag) == ("0x1.6a09e667f3bcdp-1", 0.0)
        assert (v.real, v.imag.hex()) == (0.0, "-0x1.6a09e667f3bccp-1")

    def test_split_photon_amplitudes_are_the_rotation_of_one_photon(self):
        v, u = beam_splitter(make_fock(1, 0, 1))._cells  # on |0, 1>, then |1, 0>
        parts = lambda pair: [part.hex() for z in pair for part in (z.real, z.imag)]
        assert parts((u, v)) == parts(states._SPLIT_PHOTON)  # signed zeros too


#: Each squeezed family that writes only the cells its mode vectors fill, and the
#: builder that wrote every cell.
CELL_BUILDERS = {
    "twin-squeezed-vacuum": strip_twin_squeezed_grid,
    "amplified-bell": strip_amplified_bell_grid,
    "two-mode-squeezed-vacuum": filled_tmsv_grid,
}


class TestCellBuilders:
    """A builder that writes only the cells its mode vectors fill, normalized by dividing
    those alone, gives the bits of every cell written and divided."""

    @staticmethod
    def normalized_bits(grid, loss, cells=None):
        """The bits of ``FockState._normalized``'s amplitudes, or the error it raises."""
        try:
            return FockState._normalized(grid, loss, cells).amplitudes.view(np.uint64)
        except NormalizationError as exc:
            return str(exc)

    @pytest.mark.parametrize("family", CELL_BUILDERS)
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(value=st.floats(0.0, 3.0))
    @example(value=1e-300)
    @example(value=1e-30)
    @example(value=1e-5)
    @example(value=0.01)
    @example(value=400.0)  # every |cell|^2 underflows: the grid is scaled by a power of two first
    def test_build_matches_every_cell_written_bit_for_bit(self, family, value):
        record, reference = resolve_family(family), CELL_BUILDERS[family]
        for cutoff in (0, 1, 2, 3, 180, 301, 302):
            grid = record.grid(value, cutoff)
            got = self.normalized_bits(grid, 0.0, record.cells(grid))
            expected = self.normalized_bits(reference(value, cutoff), 0.0)
            assert np.array_equal(got, expected), cutoff
            loss = record.loss(value, cutoff)
            if loss <= DEFAULT_LOSS_CEILING:
                built = build(ProbeSpec(family, {record.key: value}, cutoff)).amplitudes
                expected = self.normalized_bits(reference(value, cutoff), loss)
                assert np.array_equal(built.view(np.uint64), expected), cutoff


#: Each split fixed-n family: the ket (j, k) that its first splitter takes, and its F.
SPLIT_FAMILIES = {
    "twin-fock": (lambda n: (n, n), lambda n: 2 * n * (n + 1)),
    "fraternal-twin-fock": (lambda n: (n + 1, n), lambda n: 2 * n * n + 4 * n + 1),
    "separable-coherent-probe": (lambda n: (n, 0), lambda n: n),
}

#: The largest gap allowed between an amplitude of a split build and that of the
#: rotation of its ket: 32 u, where the rotation's products leave at most 17 u up
#: to n = 60.
SPLIT_ROTATION_TOL = 32 * np.finfo(float).eps / 2


class TestSplitFamilies:
    """The split fixed-n probes, each built from one Jx eigenvector with no rotation."""

    @pytest.mark.parametrize("family", SPLIT_FAMILIES)
    def test_a_split_build_is_the_rotation_of_its_ket(self, family):
        # amplitude by amplitude, with no global phase set aside
        ket = SPLIT_FAMILIES[family][0]
        for n in range(61):
            j, k = ket(n)
            got, want = build(ProbeSpec(family, {"n": n})), beam_splitter(make_fock(j, k, j + k))
            assert (got._sector, got.cutoff) == (want._sector, want.cutoff)
            assert np.max(np.abs(got._cells - want._cells)) <= SPLIT_ROTATION_TOL, n

    def test_every_ket_with_j_at_least_k_splits_as_it_rotates(self):
        # on a grid above the sector too
        for n in range(17):
            for j in range(n - n // 2, n + 1):
                got = states._split_fock(j, n - j, n + 2)
                want = beam_splitter(make_fock(j, n - j, n + 2))
                assert np.max(np.abs(got._cells - want._cells)) <= SPLIT_ROTATION_TOL, (j, n)

    @pytest.mark.parametrize("family", SPLIT_FAMILIES)
    def test_f_lies_within_the_route_roundoff_of_its_closed_form(self, family):
        exact = SPLIT_FAMILIES[family][1]
        for n in [*range(61), 2000, 5000, 20000]:
            state = build(ProbeSpec(family, {"n": n}))
            allowance = ROUTE_ROUNDOFF * state._sector**2  # <N^2> of one sector
            assert abs(qfi_variance(state) - exact(n)) <= allowance, n

    @pytest.mark.parametrize("family", SPLIT_FAMILIES)
    def test_a_grid_below_the_sector_refuses_it_as_a_rotation_would(self, family):
        j, k = SPLIT_FAMILIES[family][0](2)
        for cutoff in range(j + k):
            errors = []
            for make in (lambda: build(ProbeSpec(family, {"n": 2}, cutoff)),
                         lambda: beam_splitter(make_fock(j, k, cutoff))):
                with pytest.raises(MziError) as caught:
                    make()
                errors.append((type(caught.value), str(caught.value)))
            assert errors[0] == errors[1], cutoff


def _alphas(radius):
    return st.builds(lambda r, phase: r * complex(math.cos(phase), math.sin(phase)),
                     st.floats(0, radius), st.floats(0, 2 * math.pi))


#: Parameter ranges of the loss property: up to nbar 200 squeezed, 400 coherent.
LOSS_PARAMETERS = {
    "twin-squeezed-vacuum": st.floats(0, 3), "amplified-bell": st.floats(0, 3),
    "two-mode-squeezed-vacuum": st.floats(0, 3), "coherent": _alphas(20),
    "entangled-coherent": _alphas(20),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_loss_matches_the_decimal_oracle_and_never_rises(data):
    family = data.draw(st.sampled_from(CONTINUOUS_FAMILIES))
    value = data.draw(LOSS_PARAMETERS[family])
    cutoff = data.draw(st.one_of(st.integers(0, 60), st.integers(0, 1200)))
    record = resolve_family(family)
    loss, exact = record.loss(value, cutoff), truncation_loss_reference(family, value, cutoff)
    if exact >= 1e-30:  # every loss the search compares or reports
        assert abs(loss - exact) <= 1e-13 * exact
    elif exact >= 1e-280:
        # each tail term is exp of its log, so a few ulps of |log p| become its relative error
        assert abs(loss - exact) <= 4e-15 * abs(math.log(exact)) * exact
    else:  # a sum that starts below 1e-300 is dropped
        assert loss < 1e-279
    assert record.loss(value, cutoff + 1) <= loss


def _head_cases():
    """(mean, std, tail of the indices >= first) of one-mode distributions whose tails sum heads."""
    for mu in (3.0, 1e3, 1e5, 2.5e5):
        yield pytest.param(mu, math.sqrt(mu), functools.partial(states._poisson_tail, mu),
                           id=f"poisson-{mu:g}")
    for xi, photon in itertools.product((1.0, 4.0, 240.0), (0, 1)):
        yield pytest.param((1 + 2 * photon) * math.sinh(xi) ** 2 / 2, math.sinh(xi) ** 2,
                           lambda first, xi=xi, photon=photon: states._squeezed_tail(xi, first, photon),
                           id=f"squeezed-{xi:g}-photon-{photon}")


@pytest.mark.parametrize("mean,std,tail", _head_cases())
def test_a_tail_keeps_the_bits_of_the_walk_through_every_head_chunk(mean, std, tail, monkeypatch):
    # a head skips its leading chunks that add exactly 0 and stops at one half,
    # which _tail discards: every tail is the one a walk through each chunk gives
    firsts = sorted({max(0, min(int(mean + z * std), 10**6)) for z in (-45, -38, -3, -1, 0, 1, 5)})
    skipping = [tail(first) for first in firsts]
    series = states._series
    monkeypatch.setattr(states, "_series", lambda log_prob, ratio, start, stop, bound: (
        series(log_prob, ratio, start, stop, bound) if stop is None
        else walked_head(log_prob, ratio, start, stop)))
    assert [x.hex() for x in skipping] == [tail(first).hex() for first in firsts]


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


def _start_edge():
    """The smallest |beta| whose start e^{-|beta|^2/2} is not a normal float."""
    radius = math.sqrt(-2 * math.log(sys.float_info.min))
    while math.exp(-radius**2 / 2) >= sys.float_info.min:
        radius = math.nextafter(radius, math.inf)
    while math.exp(-math.nextafter(radius, 0) ** 2 / 2) < sys.float_info.min:
        radius = math.nextafter(radius, 0)
    return radius


class TestCoherentVector:
    def assert_matches_reference(self, beta, dim):
        v = coherent_vector(beta, dim)
        reference = poisson_magnitudes_reference(abs(beta), dim)
        normal = reference >= sys.float_info.min
        assert np.all(np.isfinite(v))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-13
        assert np.allclose(np.abs(v[normal]), reference[normal], rtol=1e-12, atol=0)
        levels = np.flatnonzero(normal)
        phases = np.exp(1j * np.angle(beta) * levels)
        assert np.allclose(v[normal] / np.abs(v[normal]), phases, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [60.0, 60.0 * np.exp(0.7j), -60j])
    def test_start_underflows_to_zero(self, beta):
        # e^{-1800} is 0 in floats: the forward run gave an all-zero vector
        assert not forward_coherent_vector(beta, 4200).any()
        self.assert_matches_reference(beta, 4200)

    def test_subnormal_start_is_taken_in_the_log_domain(self):
        radius = _start_edge()
        assert 0 < math.exp(-radius**2 / 2) < sys.float_info.min
        self.assert_matches_reference(radius, 1800)
        self.assert_matches_reference(radius * np.exp(-0.4j), 1800)

    @pytest.mark.parametrize("beta", [0.0, 1e-8, 2.0 - 1.0j, 25.0, 37.0j])
    def test_forward_run_below_the_edge(self, beta):
        dim = int(abs(beta) ** 2 + 12 * abs(beta) + 20)
        got, expected = coherent_vector(beta, dim), forward_coherent_vector(beta, dim)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_last_normal_start_runs_forward(self):
        radius = math.nextafter(_start_edge(), 0)
        assert math.exp(-radius**2 / 2) >= sys.float_info.min
        got, expected = coherent_vector(radius, 1800), forward_coherent_vector(radius, 1800)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        self.assert_matches_reference(radius, 1800)

    def test_entangled_coherent_alpha_40_builds(self):
        state = build(ProbeSpec("entangled-coherent", {"alpha": 40.0}, 2000))
        assert abs(mean_photon_number(state) - 1600.0) < 1e-9 * 1600.0


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

    # the solve builds nothing, so the one build, whose search the solve's kept, is the state's
    @pytest.mark.parametrize("family,target", [
        ("coherent", 4.0), ("twin-squeezed-vacuum", 3.0), ("noon", 3.0),
        ("entangled-coherent", 1e-9), ("two-mode-squeezed-vacuum", 6.0), ("amplified-bell", 5.0),
    ])
    def test_build_for_nbar_builds_once(self, monkeypatch, family, target):
        calls = []
        original = states.build
        monkeypatch.setattr(states, "build", lambda spec: calls.append(spec) or original(spec))
        state, params, realized = build_for_nbar(family, target)
        assert len(calls) == 1
        expected = build(ProbeSpec(family, params))
        assert state == expected  # the automatic build's cutoff, truncation loss and grid
        assert solve_param_for_nbar(family, target) == (params, realized)

    def test_build_for_nbar_with_explicit_cutoff_still_solves_first(self, monkeypatch):
        # the solve's cutoff search runs first, and can fail; then one build at the cutoff
        events = []
        search, original = states._auto_cutoff, states.build
        monkeypatch.setattr(states, "_auto_cutoff",
                            lambda *args: events.append("search") or search(*args))
        monkeypatch.setattr(states, "build",
                            lambda spec: events.append(spec.cutoff) or original(spec))
        state, _, _ = build_for_nbar("coherent", 4.0, cutoff=40)
        assert events == ["search", 40] and state.cutoff == 40
        with pytest.raises(TruncationLossError, match="ceiling 256"):
            build_for_nbar("twin-squeezed-vacuum", 8.0, cutoff=20)
        assert events == ["search", 40, "search"]

    @pytest.mark.parametrize("family,target", [
        ("coherent", 4.0), ("twin-squeezed-vacuum", 3.0), ("entangled-coherent", 2.5),
        ("two-mode-squeezed-vacuum", 6.0), ("amplified-bell", 5.0),
    ])
    def test_solve_then_build_searches_once(self, family, target):
        # the solve searches and the build finds that search kept
        states._auto_cutoff.cache_clear()
        state, _, _ = build_for_nbar(family, target)
        assert states._auto_cutoff.cache_info()[:2] == (1, 1)  # (hits, misses)
        params, _ = solve_param_for_nbar(family, target)
        expected = build(ProbeSpec(family, params))
        assert states._auto_cutoff.cache_info()[:2] == (3, 1)
        assert (state.cutoff, state.truncation_loss) == (expected.cutoff, expected.truncation_loss)
        assert np.array_equal(state.amplitudes.view(np.uint64), expected.amplitudes.view(np.uint64))

    def test_a_new_cutoff_ceiling_searches_afresh(self, monkeypatch):
        states._auto_cutoff.cache_clear()
        monkeypatch.delenv("MZI_QFI_CUTOFF_CEILING", raising=False)
        spec = ProbeSpec("twin-squeezed-vacuum", {"xi": 1.2})
        cutoff = build(spec).cutoff
        build(spec)
        assert states._auto_cutoff.cache_info()[:2] == (1, 1)  # (hits, misses)
        monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "512")
        assert build(spec).cutoff == cutoff
        assert states._auto_cutoff.cache_info()[:2] == (1, 2)
        monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "24")
        for _ in range(2):  # a failed search is not kept
            with pytest.raises(TruncationLossError, match="ceiling 24"):
                build(spec)
        assert states._auto_cutoff.cache_info()[:2] == (1, 4)

    def test_solve_builds_no_grid(self, monkeypatch):
        calls = []
        normalized = FockState._normalized.__func__
        monkeypatch.setattr(states, "build", lambda spec: calls.append(spec))
        monkeypatch.setattr(FockState, "_normalized", classmethod(
            lambda cls, grid, loss: calls.append(grid) or normalized(cls, grid, loss)))
        for family in FAMILIES:
            solve_param_for_nbar(family, 4.0)
        solve_param_for_nbar("entangled-coherent", 1e-9)
        assert calls == []

    def test_solve_makes_no_one_mode_vector(self, monkeypatch):
        # the solve inverts the untruncated mean and searches the losses: no amplitudes
        calls = []
        for name in ("squeezed_vacuum_vector", "squeezed_one_vector", "coherent_vector"):
            original = getattr(states, name)
            monkeypatch.setattr(states, name, lambda *args, original=original: (
                calls.append(args) or original(*args)))
        for family in FAMILIES:
            solve_param_for_nbar(family, 4.0)
        solve_param_for_nbar("entangled-coherent", 1e-9)
        assert calls == []
        build_for_nbar("coherent", 4.0)
        assert len(calls) == 2  # the build's two arms

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(CONTINUOUS_FAMILIES), st.floats(1e-9, 20.0))
    @example("entangled-coherent", 1e-9)
    @example("entangled-coherent", 1e-12)
    @example("coherent", 400.0)
    @example("amplified-bell", 1.0)
    def test_realized_nbar_is_the_target(self, family, target):
        # a continuous family reports the target its closed-form inverse meets, not
        # the mean of its truncated state: ecs at 1e-9 builds at cutoff 1, without n = 2
        assume(family != "amplified-bell" or target >= 1.0)
        with mock.patch.dict(os.environ, {"MZI_QFI_CUTOFF_CEILING": "4096"}):
            params, realized = solve_param_for_nbar(family, target)
        assert type(realized) is float and realized == target
        key, forward = FORWARD_NBAR[family]
        assert abs(forward(params[key]) - target) <= 1e-12 * target

    @pytest.mark.parametrize("target", [1e308, 7e307])
    def test_entangled_coherent_past_the_bracket_is_coherent(self, target):
        # 2 nbar, or nbar + 2 nbar, overflows; there |alpha|^2 is the target
        assert states._entangled_coherent_alpha(target) == math.sqrt(target)

    def test_ceiling_raises_truncation_loss(self):
        with pytest.raises(TruncationLossError, match="ceiling 256"):
            solve_param_for_nbar("twin-squeezed-vacuum", 8.0)

    def test_attainability_falls_monotonically_at_the_ceiling(self):
        # the loss at the ceiling rises with nbar, so every target below an
        # attainable one is attainable; 7.44 was refused between 7.42 and 7.46
        # while the loss was taken by subtraction
        targets = [round(7.30 + 0.02 * i, 2) for i in range(16)]
        assert {7.42, 7.44, 7.46} <= set(targets)
        attainable = []
        for target in targets:
            try:
                solve_param_for_nbar("twin-squeezed-vacuum", target)
                attainable.append(True)
            except TruncationLossError:
                attainable.append(False)
        assert attainable == sorted(attainable, reverse=True)

    def test_coherent_nbar_400_builds_under_a_raised_ceiling(self, monkeypatch):
        # refused while the loss was taken by subtraction: its round-off (1.9e-14) sat above target
        monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "4096")
        state, params, realized = build_for_nbar("coherent", 400.0)
        assert abs(realized - 400.0) < 1e-8
        exact = truncation_loss_reference("coherent", params["alpha"], state.cutoff)
        assert exact < AUTO_LOSS_TARGET
        assert state.truncation_loss == pytest.approx(exact, rel=1e-13, abs=0)

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
