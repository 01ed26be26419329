import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_direction, random_two_mode_state, sparse_states
from mzi_qfi.coherence import INTENSITY_FLOOR, analyze
from mzi_qfi.fock import FockState, NumberMoments, make_fock, number_moments
from mzi_qfi.qfi import qfi_variance
from mzi_qfi.schwinger import apply_rotation, mzi_unitary, phase_shift
from mzi_qfi.states import FAMILIES, ProbeSpec, build, build_for_nbar
from oracles import (
    fsum_number_moments,
    ladder_analyze,
    ladder_j_moment,
    ladder_moment,
    ladder_number_moments,
    mean_photon_number,
    moment_bound,
)


def two_mode_superposition(entries, cutoff):
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for (j, k), amp in entries.items():
        grid[j, k] = amp
    return FockState(grid / np.linalg.norm(grid), cutoff)


def test_coherent_probe_is_fully_coherent():
    report = analyze(build(ProbeSpec("coherent", {"alpha": 2.0})))
    assert np.isclose(report.nbar, 4.0, atol=1e-10)
    assert np.isclose(report.g2_a, 1.0, atol=1e-10)
    assert np.isclose(report.g2_b, 1.0, atol=1e-10)
    assert np.isclose(report.g2_ab, 1.0, atol=1e-10)


def test_noon_three_photon_statistics():
    report = analyze(build(ProbeSpec("noon", {"n": 3})))
    assert np.isclose(report.nbar, 3.0)
    assert np.isclose(report.g2_a, 4 / 3)  # 2 - 2/nbar at nbar = 3
    assert report.g2_ab == 0.0
    assert report.path_symmetric


def test_one_photon_per_arm_cannot_pair_trigger():
    report = analyze(make_fock(1, 1, 2))
    assert report.g2_a == 0.0
    assert report.g2_b == 0.0
    assert np.isclose(report.g2_ab, 1.0)


def test_vacuum_everything_undefined():
    report = analyze(make_fock(0, 0, 2))
    assert report.nbar == 0.0
    assert report.g2_a is None and report.g2_b is None and report.g2_ab is None
    assert report.path_symmetric  # both arms dark counts as symmetric


def test_dark_mode_is_undefined_not_zero():
    report = analyze(make_fock(2, 0, 3))
    assert report.g2_a is not None
    assert report.g2_b is None
    assert report.g2_ab is None
    assert not report.path_symmetric


def test_undefined_threshold_sits_at_the_floor():
    eps_below = math.sqrt(0.5 * INTENSITY_FLOOR)
    eps_above = math.sqrt(2.0 * INTENSITY_FLOOR)
    below = two_mode_superposition({(1, 0): 1.0, (0, 1): eps_below}, 2)
    above = two_mode_superposition({(1, 0): 1.0, (0, 1): eps_above}, 2)
    assert analyze(below).g2_b is None
    assert analyze(above).g2_b is not None


@pytest.mark.parametrize("nbar_b, lit", [(2e-9, True), (5e-10, False)])
def test_intensity_floor_is_1e_9(nbar_b, lit):
    # sqrt(1 - e)|1,0> + sqrt(e)|1,1> has nbar_b = e and g2_b = 0 where it is defined
    report = analyze(two_mode_superposition({(1, 0): math.sqrt(1 - nbar_b),
                                             (1, 1): math.sqrt(nbar_b)}, 1))
    assert report.nbar_b == pytest.approx(nbar_b, rel=1e-12)
    assert (report.g2_b, report.g2_ab is not None) == ((0.0, True) if lit else (None, False))


@pytest.mark.parametrize("imbalance, symmetric", [(2e-8, False), (5e-9, True)])
def test_path_symmetry_tolerance_is_1e_8(imbalance, symmetric):
    # cos t|1,0> + sin t|0,1> has nbar_a - nbar_b = cos 2t and g2 = 0 in both modes
    t = math.acos(imbalance) / 2
    report = analyze(two_mode_superposition({(1, 0): math.cos(t), (0, 1): math.sin(t)}, 1))
    assert report.nbar_a - report.nbar_b == pytest.approx(imbalance, rel=1e-6)
    assert report.g2_a == report.g2_b == 0.0
    assert report.path_symmetric is symmetric


@pytest.mark.parametrize("j,k", [(1, 0), (3, 2), (4, 4)])
def test_fock_state_baseline(j, k):
    report = analyze(make_fock(j, k, 8))
    assert abs(report.var_na) < 1e-12
    assert abs(report.var_nb) < 1e-12
    assert abs(report.cov_nab) < 1e-12
    if j >= 1:
        assert np.isclose(report.g2_a, 1 - 1 / j)


def test_intensities_add_exactly(rng):
    report = analyze(random_two_mode_state(rng, 9, 6))
    assert report.nbar == report.nbar_a + report.nbar_b


def test_variance_and_covariance_identities(rng):
    # Var[n] = nbar + nbar^2 (g2 - 1) and Cov = nbar_a nbar_b (g2_ab - 1)
    for _ in range(30):
        report = analyze(random_two_mode_state(rng, 10, 7))
        if report.g2_a is not None:
            assert abs(report.nbar_a + report.nbar_a**2 * (report.g2_a - 1) - report.var_na) < 1e-9
        if report.g2_b is not None:
            assert abs(report.nbar_b + report.nbar_b**2 * (report.g2_b - 1) - report.var_nb) < 1e-9
        if report.g2_ab is not None:
            assert abs(report.nbar_a * report.nbar_b * (report.g2_ab - 1) - report.cov_nab) < 1e-9


def test_report_invariant_under_phase_shift(rng):
    psi = random_two_mode_state(rng, 8, 5)
    base = analyze(psi)
    for phi in (0.3, math.pi / 2, 2.7):
        shifted = analyze(phase_shift(psi, phi))
        assert np.isclose(shifted.nbar_a, base.nbar_a, atol=1e-12)
        assert np.isclose(shifted.g2_a, base.g2_a, atol=1e-12)
        assert np.isclose(shifted.g2_ab, base.g2_ab, atol=1e-12)
        assert np.isclose(shifted.cov_nab, base.cov_nab, atol=1e-12)


def test_variances_are_nonnegative(rng):
    for _ in range(10):
        report = analyze(random_two_mode_state(rng, 8, 6))
        assert report.var_na >= -1e-10
        assert report.var_nb >= -1e-10


FIELDS = ("a", "b", "aa", "bb", "ab")


def assert_moments_within_bound(got, expected, state):
    bound = moment_bound(state)
    for field in FIELDS:
        value, exact = getattr(got, field), getattr(expected, field)
        assert type(value) is float, field
        assert abs(value - exact) <= bound * exact, (field, value, exact)


def assert_exactly_rounded_within_bound(state):
    assert_moments_within_bound(number_moments(state), fsum_number_moments(state), state)


@settings(max_examples=200, deadline=None)
@given(sparse_states())
def test_moments_within_bound_of_exact_sums(state):
    assert_exactly_rounded_within_bound(state)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("nbar", [1.0, 4.0, 7.0])
def test_moments_within_bound_of_exact_sums_on_every_family(family, nbar):
    assert_exactly_rounded_within_bound(build_for_nbar(family, nbar)[0])


def test_moments_within_bound_of_exact_sums_on_rotated_dense_states(rng):
    for cutoff in (1, 7, 30, 64):
        psi = random_two_mode_state(rng, cutoff, cutoff)
        assert_exactly_rounded_within_bound(
            apply_rotation(psi, random_direction(rng), rng.uniform(0.1, 3.0)))
    coherent = build(ProbeSpec("coherent", {"alpha": 8.0}, 160))
    assert_exactly_rounded_within_bound(mzi_unitary(coherent, 0.9))
    twin = build(ProbeSpec("twin-fock", {"n": 200}))
    assert_exactly_rounded_within_bound(apply_rotation(twin, random_direction(rng), 0.7))


def test_moments_within_bound_of_exact_sums_at_a_high_cutoff(monkeypatch):
    # about 470 000 cells, where the sums through BLAS drifted past the bound
    monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "1024")
    state = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 1.4}, 684))
    assert_exactly_rounded_within_bound(state)


@pytest.mark.parametrize("j, k, cutoff", [(0, 0, 0), (1, 0, 1), (0, 1, 3), (3, 5, 8), (2, 7, 400),
                                          (400, 399, 400)])
def test_fock_kets_give_exact_integers(j, k, cutoff):
    moments = number_moments(make_fock(j, k, cutoff))
    expected = (j, k, j * (j - 1), k * (k - 1), j * k)
    got = tuple(getattr(moments, field) for field in FIELDS)
    assert repr(got) == repr(tuple(map(float, expected)))  # also tells -0.0 from 0.0


@settings(max_examples=200, deadline=None)
@given(sparse_states())
def test_moments_within_bound_of_ladder_moments(state):
    expected = ladder_number_moments(state)
    for field in FIELDS:
        assert abs(getattr(expected, field).imag) <= 1e-12
    real = NumberMoments(*(getattr(expected, field).real for field in FIELDS))
    assert_moments_within_bound(number_moments(state), real, state)


@settings(max_examples=200, deadline=None)
@given(sparse_states())
def test_reports_within_bound_of_ladder_reports(state):
    # a field that subtracts moments, such as a variance, is held to the bound
    # on the largest of them, which is below (1 + nbar)^2; a pair coherence, a
    # quotient of moments, to eight times the bound relative to its value
    report, expected = analyze(state), ladder_analyze(state)
    scale = 4 * moment_bound(state) * (1.0 + expected.nbar) ** 2
    for field, value in report._asdict().items():
        reference = getattr(expected, field)
        if field.startswith("g2") and value is not None:
            assert abs(value - reference) <= 8 * moment_bound(state) * reference, field
        elif isinstance(value, float):
            assert abs(value - reference) <= scale, (field, value, reference)
        else:
            assert value == reference, field
    variance = 4.0 * (ladder_j_moment(state, "jz", 2) - ladder_j_moment(state, "jz", 1) ** 2)
    assert abs(qfi_variance(state) - variance) <= 2 * scale
    nbar = ladder_moment(state, 1, 1, 0, 0).real + ladder_moment(state, 0, 0, 1, 1).real
    assert abs(mean_photon_number(state) - nbar) <= 2 * moment_bound(state) * nbar
