import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_direction, random_two_mode_state, sparse_states
from mzi_qfi.errors import TruncationOverflowError
from mzi_qfi.fock import FockState, make_fock, pad_to, state_distance
from mzi_qfi.schwinger import (
    BASIS_CACHE_BYTES,
    SpinDirection,
    X_AXIS,
    Y_AXIS,
    _BasisCache,
    _euler_angles,
    _jx_basis,
    _nonzero_cells,
    _sector_kvals,
    apply_rotation,
    beam_splitter,
    jz_moments,
    mzi_unitary,
    phase_shift,
    sector_generator_matrix,
)
from mzi_qfi.states import ProbeSpec, build, coherent_vector, mean_photon_number
from oracles import (
    dense_rotation,
    ladder_j_moment,
    oracle_apply_generator,
    per_axis_eigh_rotation,
)

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
    """Independent route: scipy expm of the complete spin n/2 block of each sector.

    A sector above the cutoff is embedded in its complete block, rotated, and
    truncated back to the cells the grid holds; the result is renormalized.
    """
    out = np.zeros_like(state.amplitudes)
    for n in range(2 * state.cutoff + 1):
        ks = np.arange(max(0, n - state.cutoff), min(n, state.cutoff) + 1)
        full = np.zeros(n + 1, dtype=complex)
        full[ks] = state.amplitudes[ks, n - ks]
        u = expm(-1j * angle * sector_generator_matrix(n, n, v))
        out[ks, n - ks] = (u @ full)[ks]
    return out / np.linalg.norm(out)


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

    @settings(max_examples=150, deadline=None)
    @given(
        sparse_states(),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
        st.floats(-2 * math.pi, 2 * math.pi),
    )
    def test_matches_expm_of_complete_blocks(self, state, v, angle):
        v = tuple(np.asarray(v) / np.linalg.norm(v))
        try:
            got = apply_rotation(state, v, angle)
        except TruncationOverflowError:
            return
        assert np.abs(got.amplitudes - rotation_oracle(state, v, angle)).max() < 1e-12

    def test_matches_per_axis_eigendecomposition(self, rng):
        for _ in range(5):
            psi = random_two_mode_state(rng, 12, 12)
            v = random_direction(rng)
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            got = apply_rotation(psi, v, angle).amplitudes
            assert np.abs(got - per_axis_eigh_rotation(psi, v, angle).amplitudes).max() < 1e-12

    @pytest.mark.parametrize("v", [X_AXIS, Y_AXIS, (0.0, 0.0, 1.0), (0.6, -0.48, 0.64)])
    @pytest.mark.parametrize("angle", [0.0, 0.4, -math.pi / 2, 3.0, -5.5])
    def test_euler_angles_compose_the_spin_half_rotation(self, v, angle):
        alpha, beta, gamma = _euler_angles(v, angle)
        jz, jx = sector_generator_matrix(1, 1, (0, 0, 1)), sector_generator_matrix(1, 1, X_AXIS)
        composed = expm(-1j * alpha * jz) @ expm(-1j * beta * jx) @ expm(-1j * gamma * jz)
        direct = expm(-1j * angle * sector_generator_matrix(1, 1, v))
        assert np.abs(composed - direct).max() < 1e-15

    @pytest.mark.parametrize("angle", [math.pi / 2, -math.pi / 2, 0.3])
    def test_beam_splitter_axis_needs_no_phases(self, angle):
        assert _euler_angles(X_AXIS, angle) == (0.0, angle, 0.0)

    def test_partial_sectors_rotate_exactly(self):
        # a product coherent state stays one under a beam splitter, so the
        # cells of the partial sectors hold the rotated product's amplitudes,
        # instead of the weight the truncated block reflects off the grid edge
        state = build(ProbeSpec("coherent", {"alpha": 8.0}, 160))
        grid = state.amplitudes
        u, w = grid[1, 0] / grid[0, 0], grid[0, 1] / grid[0, 0]  # the arms' coherent amplitudes
        # exp(-i pi/2 Jx) maps mode amplitudes (u, w) to ((u - i w), (w - i u))/sqrt(2)
        a, b = (u - 1j * w) / math.sqrt(2), (w - 1j * u) / math.sqrt(2)
        expected = np.outer(coherent_vector(a, 161), coherent_vector(b, 161))
        got = beam_splitter(state, "first").amplitudes
        assert np.abs(got - expected / np.linalg.norm(expected)).max() < 1e-15
        assert abs(got[1, 160]) < 1e-20
        assert abs(per_axis_eigh_rotation(state, X_AXIS, math.pi / 2).amplitudes[1, 160]) > 1e-13

    def test_keeps_the_loss_of_a_coarse_state(self):
        # a state built to a loose loss target rotates: the loss ceiling guards
        # construction, not rotation
        coarse = pad_to(build(ProbeSpec("coherent", {"alpha": 2.0}), loss_target=1e-6), 24)
        out = mzi_unitary(coarse, 0.3)
        assert out.truncation_loss == coarse.truncation_loss > 1e-10
        assert abs(mean_photon_number(out) - mean_photon_number(coarse)) < 1e-12

    def test_single_sector_probe_rotates_one_block(self):
        state = build(ProbeSpec("fock-pair", {"n": 200}))
        assert state.cutoff == 400
        apply_rotation(state, X_AXIS, 0.3)  # the basis of sector 400, cold or warm
        v = np.array([0.2718, -0.3141, 0.5772])  # an axis no other test rotates about
        v = tuple(v / np.linalg.norm(v))
        misses = _jx_basis.misses
        apply_rotation(state, v, 0.7)
        assert _jx_basis.misses == misses  # a new axis needs no new basis
        # one index lookup for the one occupied sector, none for the 800 empty ones
        kvals = _sector_kvals.cache_info()
        apply_rotation(state, v, 1.1)
        after = _sector_kvals.cache_info()
        assert after.hits + after.misses == kvals.hits + kvals.misses + 1

    def test_basis_cache_stays_within_its_bytes(self):
        cache = _BasisCache(limit=3 * 41 * 21 * 8)
        for n in [40, 10, 40, 39, 38, 3, 41, 40, 50, 2, 37, 36, 35, 0, 40]:
            basis = cache(n)
            assert basis.shape == (n + 1, n // 2 + 1)
            assert cache.resident_bytes == sum(b.nbytes for b in cache._bases.values())
            assert cache.resident_bytes <= cache.limit
        assert 50 not in cache._bases  # larger than the whole budget: computed, not kept
        assert list(cache._bases) == [36, 35, 0, 40]  # least recently used first out
        assert _jx_basis.resident_bytes <= _jx_basis.limit == BASIS_CACHE_BYTES

    def test_basis_cache_accounting_survives_threads(self):
        cache = _BasisCache(limit=4 * 25 * 13 * 8)
        order = np.random.default_rng(7).integers(0, 25, size=(6, 300))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda ns=ns: [cache(int(n)) for n in ns])
                       for ns in order]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.resident_bytes == sum(b.nbytes for b in cache._bases.values())
        assert cache.resident_bytes <= cache.limit

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 31])
    def test_half_basis_and_its_mirror_diagonalize_jx(self, n):
        half = _jx_basis(n)
        parity = (-1.0) ** np.arange(n + 1)
        mirrored = parity[:, None] * half[:, ::-1][:, : n - n // 2]  # m = -n/2, ..., < 0
        basis = np.hstack([mirrored, half])
        jx = sector_generator_matrix(n, n, X_AXIS)
        exact = np.arange(n + 1) - n / 2
        assert np.abs(basis @ np.diag(exact) @ basis.T - jx).max() < 1e-13
        assert np.abs(basis.T @ basis - np.eye(n + 1)).max() < 1e-14

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
