import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_direction, random_two_mode_state, sparse_states
from mzi_qfi.errors import TruncationOverflowError
from mzi_qfi.fock import FockState, make_fock, state_distance
from mzi_qfi.schwinger import (
    SpinDirection,
    X_AXIS,
    Y_AXIS,
    _nonzero_cells,
    _sector_eig,
    _sector_kvals,
    apply_rotation,
    beam_splitter,
    jz_moments,
    mzi_unitary,
    phase_shift,
    sector_generator_matrix,
)
from mzi_qfi.states import ProbeSpec, build, mean_photon_number
from oracles import dense_rotation, ladder_j_moment, oracle_apply_generator

EPSILON = {("jx", "jy"): "jz", ("jy", "jz"): "jx", ("jz", "jx"): "jy"}


def su2_defect(state) -> float:
    """Max deviation of <[Jk, Jl]> from i <Jm> over the three cyclic pairs."""
    worst = 0.0
    applied = {tag: oracle_apply_generator(state, tag) for tag in ("jx", "jy", "jz")}
    for (k, l), m in EPSILON.items():
        lhs = np.vdot(applied[k], applied[l]) - np.vdot(applied[l], applied[k])
        rhs = 1j * ladder_j_moment(state, m, 1)
        worst = max(worst, abs(lhs - rhs))
    return worst


def rotation_oracle(state: FockState, v, angle: float) -> np.ndarray:
    """Independent route: scipy expm of the explicit sector blocks."""
    out = np.zeros_like(state.amplitudes)
    for n in range(2 * state.cutoff + 1):
        ks = np.arange(max(0, n - state.cutoff), min(n, state.cutoff) + 1)
        block = sector_generator_matrix(n, state.cutoff, v)
        u = expm(-1j * angle * block)
        out[ks, n - ks] = u @ state.amplitudes[ks, n - ks]
    return out


class TestJMoments:
    def test_single_photon_jz(self):
        assert np.isclose(jz_moments(make_fock(1, 0, 4))[0], 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_balanced_pair_has_no_jz_spread(self, n):
        state = make_fock(n, n, n)
        assert abs(jz_moments(state)[1]) < 1e-12

    def test_noon_jz_second_moment(self):
        noon3 = build(ProbeSpec("noon", {"n": 3}))
        assert np.isclose(jz_moments(noon3)[1], 9 / 4)

    def test_total_number_is_twice_j0(self, rng):
        psi = random_two_mode_state(rng, 10, 6)
        probs = psi.probabilities()
        j = np.arange(psi.dim)[:, None]
        k = np.arange(psi.dim)[None, :]
        expected = float(np.sum(probs * (j + k)))
        assert np.isclose(mean_photon_number(psi), expected, atol=1e-12)
        assert np.isclose(ladder_j_moment(psi, "j0", 1) * 2, expected, atol=1e-12)

    @pytest.mark.parametrize("tag", ["jx", "jy", "jz", "j0"])
    def test_second_moments_match_applied_generators(self, tag, rng):
        # <J^2> must equal ||J psi||^2, an independent ladder-composition route
        for _ in range(8):
            psi = random_two_mode_state(rng, 10, 6)
            via_moments = ladder_j_moment(psi, tag, 2)
            applied = oracle_apply_generator(psi, tag)
            via_vector = np.vdot(applied, applied).real
            assert abs(via_moments - via_vector) < 1e-11
            if tag == "jz":
                assert abs(jz_moments(psi)[1] - via_vector) < 1e-11


class TestRotations:
    def test_vacuum_invariant(self):
        vac = make_fock(0, 0, 3)
        out = apply_rotation(vac, random_direction(np.random.default_rng(1)), 1.234)
        assert state_distance(vac, out) < 1e-14

    def test_hong_ou_mandel_against_expm_oracle(self):
        state = make_fock(1, 1, 2)
        out = apply_rotation(state, X_AXIS, math.pi / 2)
        oracle = rotation_oracle(state, X_AXIS, math.pi / 2)
        assert np.abs(out.amplitudes - oracle).max() < 1e-12
        assert abs(out.amplitudes[1, 1]) < 1e-12
        assert np.isclose(abs(out.amplitudes[2, 0]) ** 2, 0.5)
        assert np.isclose(abs(out.amplitudes[0, 2]) ** 2, 0.5)

    def test_single_photon_balanced_split(self):
        out = apply_rotation(make_fock(1, 0, 1), X_AXIS, math.pi / 2)
        oracle = rotation_oracle(make_fock(1, 0, 1), X_AXIS, math.pi / 2)
        assert np.abs(out.amplitudes - oracle).max() < 1e-14
        assert np.isclose(abs(out.amplitudes[1, 0]), 1 / math.sqrt(2))
        assert np.isclose(abs(out.amplitudes[0, 1]), 1 / math.sqrt(2))

    def test_random_rotations_match_oracle(self, rng):
        for _ in range(5):
            psi = random_two_mode_state(rng, 8, 8)
            v = random_direction(rng)
            angle = rng.uniform(-math.pi, math.pi)
            out = apply_rotation(psi, v, angle)
            assert np.abs(out.amplitudes - rotation_oracle(psi, v, angle)).max() < 1e-11

    def test_unitarity_and_sector_support(self, rng):
        psi = random_two_mode_state(rng, 10, 7)
        out = apply_rotation(psi, random_direction(rng), 0.9)
        assert np.isclose(np.linalg.norm(out.amplitudes), 1.0, atol=1e-10)
        j = np.arange(psi.dim)[:, None]
        k = np.arange(psi.dim)[None, :]
        before = np.bincount((j + k).ravel(), weights=psi.probabilities().ravel())
        after = np.bincount((j + k).ravel(), weights=out.probabilities().ravel())
        assert np.abs(before - after).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        sparse_states(),
        st.one_of(
            st.just(Y_AXIS),
            st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
        ),
        st.floats(-2 * math.pi, 2 * math.pi),
    )
    def test_matches_dense_sector_loop_bit_for_bit(self, state, v, angle):
        if not isinstance(v, SpinDirection):
            v = tuple(np.asarray(v) / np.linalg.norm(v))
        try:
            expected = dense_rotation(state, v, angle)
        except TruncationOverflowError as exc:
            with pytest.raises(TruncationOverflowError) as raised:
                apply_rotation(state, v, angle)
            assert str(raised.value) == str(exc)
            return
        got = apply_rotation(state, v, angle)
        # bit patterns, so that -0.0 and 0.0 count as different
        assert np.array_equal(got.amplitudes.view(np.uint64), expected.amplitudes.view(np.uint64))

    def test_nonzero_cells_is_complex_inequality(self, rng):
        values = np.array([0.0, -0.0, 5e-324, 1e-170, -2.5, np.inf, np.nan])
        grid = np.empty((7, 7), dtype=np.complex128)
        grid.real, grid.imag = rng.choice(values, (7, 7)), rng.choice(values, (7, 7))
        for view in (grid, grid.T, grid[::2, 1:], grid[:1, :1]):
            assert np.array_equal(_nonzero_cells(view), view != 0)

    def test_single_sector_probe_rotates_one_block(self):
        state = build(ProbeSpec("fock-pair", {"n": 200}))
        assert state.cutoff == 400
        v = np.array([0.2718, -0.3141, 0.5772])  # an axis no other test rotates about
        v = tuple(v / np.linalg.norm(v))
        eig = _sector_eig.cache_info()
        apply_rotation(state, v, 0.7)
        assert _sector_eig.cache_info().misses == eig.misses + 1
        assert _sector_eig.cache_info().hits == eig.hits
        # warm: one index lookup for the one occupied sector, none for the 800 empty ones
        kvals = _sector_kvals.cache_info()
        apply_rotation(state, v, 1.1)
        after = _sector_kvals.cache_info()
        assert after.hits + after.misses == kvals.hits + kvals.misses + 1

    def test_rotation_requires_headroom(self):
        # all support on the truncated corner sector
        grid = np.zeros((3, 3), dtype=complex)
        grid[2, 2] = 1.0
        with pytest.raises(TruncationOverflowError):
            apply_rotation(FockState(grid, 2), X_AXIS, 0.3)


class TestBeamSplitter:
    def test_second_inverts_first(self, rng):
        psi = random_two_mode_state(rng, 9, 6)
        there_and_back = beam_splitter(beam_splitter(psi, "first"), "second")
        assert state_distance(psi, there_and_back) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_split_fock_gives_binomial_profile(self, n):
        out = beam_splitter(make_fock(n, 0, n), "first")
        probs = out.probabilities()
        for k in range(n + 1):
            assert np.isclose(probs[k, n - k], math.comb(n, k) / 2**n, atol=1e-12)


class TestPhaseShift:
    def test_zero_is_identity(self, rng):
        psi = random_two_mode_state(rng, 6, 4)
        assert np.abs(phase_shift(psi, 0.0).amplitudes - psi.amplitudes).max() == 0.0

    def test_single_photon_half_turn(self):
        out = phase_shift(make_fock(1, 0, 2), math.pi)
        assert np.isclose(out.amplitudes[1, 0], -1j)

    def test_magnitudes_unchanged(self, rng):
        psi = random_two_mode_state(rng, 6, 4)
        out = phase_shift(psi, 1.7)
        assert np.abs(np.abs(out.amplitudes) - np.abs(psi.amplitudes)).max() < 1e-15


class TestMziUnitary:
    def test_zero_phase_identity(self, rng):
        psi = random_two_mode_state(rng, 6, 4)
        assert state_distance(psi, mzi_unitary(psi, 0.0)) < 1e-12

    def test_composition_identity(self, rng):
        phi = 0.7
        for _ in range(4):
            psi = random_two_mode_state(rng, 9, 6)
            composed = beam_splitter(phase_shift(beam_splitter(psi, "first"), phi), "second")
            assert state_distance(composed, mzi_unitary(psi, phi)) < 1e-10

    def test_single_photon_swaps_arms_at_pi(self):
        out = mzi_unitary(make_fock(1, 0, 1), math.pi)
        assert np.isclose(abs(out.amplitudes[0, 1]), 1.0)
        assert abs(out.amplitudes[1, 0]) < 1e-12


class TestAlgebra:
    def test_su2_on_random_states(self, rng):
        for _ in range(25):
            psi = random_two_mode_state(rng, 12, 8)
            assert su2_defect(psi) < 1e-10

    def test_total_number_conserved_by_rotations(self, rng):
        for _ in range(10):
            psi = random_two_mode_state(rng, 10, 6)
            v = random_direction(rng)
            angle = rng.uniform(-math.pi, math.pi)
            before = mean_photon_number(psi)
            after = mean_photon_number(apply_rotation(psi, v, angle))
            assert abs(before - after) < 1e-10

    def test_direction_must_be_unit(self):
        with pytest.raises(Exception):
            SpinDirection(1.0, 1.0, 0.0)
