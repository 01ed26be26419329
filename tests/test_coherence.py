import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_two_mode_state, sparse_states
from mzi_qfi import fock
from mzi_qfi.coherence import INTENSITY_FLOOR, analyze
from mzi_qfi.fock import FockState, make_fock
from mzi_qfi.qfi import qfi_variance
from mzi_qfi.schwinger import phase_shift
from mzi_qfi.states import ProbeSpec, build, mean_photon_number
from oracles import ladder_analyze, ladder_jz_moment, ladder_moment


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


@settings(max_examples=200, deadline=None)
@given(sparse_states())
def test_shared_lowerings_match_ladder_moments_bit_for_bit(state):
    report, expected = analyze(state), ladder_analyze(state)
    assert report == expected
    assert repr(report) == repr(expected)  # also tells -0.0 from 0.0
    variance = 4.0 * (ladder_jz_moment(state, 2) - ladder_jz_moment(state, 1) ** 2)
    assert repr(qfi_variance(state)) == repr(variance)
    nbar = ladder_moment(state, 1, 1, 0, 0).real + ladder_moment(state, 0, 0, 1, 1).real
    assert repr(mean_photon_number(state)) == repr(nbar)


def test_number_moments_lower_each_grid_once(monkeypatch):
    calls = []
    lower = fock._lower

    def counted(grid, axis):
        calls.append(axis)
        return lower(grid, axis)

    monkeypatch.setattr(fock, "_lower", counted)
    state = make_fock(2, 3, 6)
    for run, expected in ((analyze, 5), (qfi_variance, 5), (mean_photon_number, 2)):
        calls.clear()
        run(state)
        assert len(calls) == expected, run.__name__
