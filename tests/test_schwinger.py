import dataclasses
import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_direction, random_two_mode_state, sparse_states
from mzi_qfi import schwinger
from mzi_qfi.errors import ParameterError, TruncationOverflowError
from mzi_qfi.fock import (
    FockState,
    _KeptTables,
    make_fock,
    nonzero_cells,
    pad_to,
    state_distance,
)
from mzi_qfi.schwinger import (
    BASIS_CACHE_BYTES,
    MIX_COLUMNS,
    SpinDirection,
    X_AXIS,
    Y_AXIS,
    _BasisCache,
    _euler_angles,
    _jx_basis,
    _jx_column,
    _jx_eigenbasis,
    apply_rotation,
    beam_splitter,
    jz_moments,
    mzi_unitary,
    phase_shift,
)
from mzi_qfi.states import (
    ProbeSpec,
    build,
    coherent_vector,
    resolve_family,
)
from oracles import (
    dense_rotation,
    ladder_j_moment,
    mean_photon_number,
    oracle_apply_generator,
    per_axis_eigh_rotation,
    phase_shift_formula,
    sector_generator_matrix,
    whole_block_jx_eigenbasis,
)

#: A random state on the cells j + k <= 150 of a cutoff 150 grid, rotated; prints its digest.
ROTATE_TRIANGLE = """
import hashlib
import numpy as np
from mzi_qfi import FockState, apply_rotation
rng = np.random.default_rng(2)
grid = rng.normal(size=(151, 151)) + 1j * rng.normal(size=(151, 151))
grid[np.add.outer(np.arange(151), np.arange(151)) > 150] = 0
rotated = apply_rotation(FockState.from_grid(grid), (0.48, 0.6, 0.64), 0.7)
print(hashlib.sha256(rotated.amplitudes.tobytes()).hexdigest())
"""

EPSILON = {("jx", "jy"): "jz", ("jy", "jz"): "jx", ("jz", "jx"): "jy"}

FIXED_N_FAMILIES = ("twin-fock", "fraternal-twin-fock", "noon", "separable-coherent-probe",
                    "fock-pair")
#: Each fixed-n family at its least n, at 2, 7 and 8, and at the benchmark's largest n.
FIXED_N_PROBES = [(family, n) for family in FIXED_N_FAMILIES
                  for n in sorted({resolve_family(family).min_n, 2, 7, 8, 200})]


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


def assert_stored_block_diagonalizes_jx(n: int) -> None:
    """The cached rows k <= n/2 of sector n, asked for from k = 0, with the rows and
    columns they imply, are an orthonormal basis that diagonalizes Jx with its exact
    eigenvalues."""
    first, stored = _jx_basis(n)
    assert first == 0
    assert stored.shape == (n // 2 + 1, n // 2 + 1) and stored.base is None
    signs = (-1.0) ** (n // 2 - np.arange(n // 2 + 1))
    half = np.vstack([stored, (signs * stored)[: n - n // 2][::-1]])  # row n-k = s_j row k
    parity = (-1.0) ** np.arange(n + 1)
    mirrored = parity[:, None] * half[:, ::-1][:, : n - n // 2]  # m = -n/2, ..., < 0
    basis = np.hstack([mirrored, half])
    jx = sector_generator_matrix(n, n, X_AXIS)
    exact = np.arange(n + 1) - n / 2
    # the bound of n <= 32, grown beyond with the norm n/2 of Jx; an eigh's
    # complete basis reaches 3.9e-13 at n = 400, the recurrence's 2.0e-13
    assert np.abs(basis @ np.diag(exact) @ basis.T - jx).max() < 1e-13 * max(1, n / 32)
    assert np.abs(basis.T @ basis - np.eye(n + 1)).max() < 1e-14


def tailed_grid(rng: np.random.Generator, cutoff: int) -> np.ndarray:
    """A random normalized grid whose every cell is nonzero, so every sector up to 2 cutoff
    is occupied; the cells above the cutoff are scaled by 1e-9, far below the
    rotation's allowance."""
    grid = rng.normal(size=(cutoff + 1, cutoff + 1, 2)).view(complex)[..., 0]
    levels = np.arange(cutoff + 1)
    grid[levels[:, None] + levels > cutoff] *= 1e-9
    return grid / np.linalg.norm(grid)


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
    # fixed-n probes, which hold their one sector's cells
    @example(build(ProbeSpec("twin-fock", {"n": 7})), Y_AXIS, 0.3)
    @example(build(ProbeSpec("fraternal-twin-fock", {"n": 8})), (0.48, -0.6, 0.64), -2.5)
    @example(build(ProbeSpec("noon", {"n": 1})), Y_AXIS, 4.0)
    @example(build(ProbeSpec("separable-coherent-probe", {"n": 2})), X_AXIS, 1.1)
    @example(build(ProbeSpec("fock-pair", {"n": 0})), (0.6, -0.48, 0.64), 0.7)
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

    @pytest.mark.parametrize("v", [X_AXIS, Y_AXIS, (0.48, -0.6, 0.64)])
    def test_matches_dense_sector_loop_bit_for_bit_when_mixed_in_blocks(self, v):
        # 321 sectors whose stored blocks have far more than MIX_COLUMNS columns in all
        state = build(ProbeSpec("coherent", {"alpha": 8.0}, 160))
        assert sum(n // 2 + 1 for n in range(321)) > 10 * MIX_COLUMNS
        got, expected = apply_rotation(state, v, 0.9), dense_rotation(state, v, 0.9)
        assert np.array_equal(got.amplitudes.view(np.uint64), expected.amplitudes.view(np.uint64))

    def test_rotation_does_not_depend_on_blas_threads(self):
        # the norm of the 11 476 cells of sectors 0..150 is a dot of more than 10 000
        # terms, which OpenBLAS would split across its threads; the products are not
        src = Path(__file__).resolve().parent.parent / "src"
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", ROTATE_TRIANGLE], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_nonzero_cells_is_complex_inequality(self, rng):
        values = np.array([0.0, -0.0, 5e-324, 1e-170, -2.5, np.inf, np.nan])
        grid = np.empty((7, 7), dtype=np.complex128)
        grid.real, grid.imag = rng.choice(values, (7, 7)), rng.choice(values, (7, 7))
        for view in (grid, grid.T, grid[::2, 1:], grid[:1, :1]):
            assert np.array_equal(nonzero_cells(view), view != 0)

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
        # a state truncated above the loss ceiling rotates: the ceiling guards
        # construction, not rotation
        coherent = resolve_family("coherent")
        grid = coherent.grid(2.0, 12)
        state = FockState(grid / np.linalg.norm(grid), 12, coherent.loss(2.0, 12))
        coarse = pad_to(state, 24)
        out = mzi_unitary(coarse, 0.3)
        assert out.truncation_loss == coarse.truncation_loss > 1e-10
        assert abs(mean_photon_number(out) - mean_photon_number(coarse)) < 1e-12

    def test_single_sector_probe_lays_out_once(self, sector_reads):
        built = build(ProbeSpec("fock-pair", {"n": 200}))
        state = FockState(built.amplitudes.copy(), built.cutoff)  # a grid no other test rotates
        assert state.cutoff == 400
        apply_rotation(state, X_AXIS, 0.3)  # the basis of sector 400, cold or warm
        # one layout read for the one occupied sector, none for the 800 empty ones
        assert sector_reads == [400]
        v = np.array([0.2718, -0.3141, 0.5772])  # an axis no other test rotates about
        v = tuple(v / np.linalg.norm(v))
        misses = _jx_basis.misses
        apply_rotation(state, v, 0.7)
        apply_rotation(state, v, 1.1)
        mzi_unitary(state, 0.2)
        assert _jx_basis.misses == misses  # a new axis needs no new basis
        assert sector_reads == [400]  # and no new layout: the state's plan is kept

    def test_interleaved_scans_match_dense_sector_loop_bit_for_bit(self, rng):
        # each state keeps its plan, and its coordinates are reused across phases
        # of one gamma and replaced for another gamma; the Y axis has
        # gamma = -pi/2 for |phi| < pi and +pi/2 past it
        states = [build(ProbeSpec("coherent", {"alpha": 2.0}, 30)),  # with partial sectors
                  random_two_mode_state(rng, 12, 12), make_fock(2, 5, 7)]
        steps = [(Y_AXIS, 0.3), (Y_AXIS, 1.2), (tuple(random_direction(rng)), 2.1),
                 (Y_AXIS, -2.0), (Y_AXIS, 0.3), (Y_AXIS, 3.5), (Y_AXIS, 4.0),
                 (X_AXIS, 0.8), (tuple(random_direction(rng)), -5.2), (Y_AXIS, 0.0)]
        for state in states + states[::-1]:
            for v, angle in steps:
                got = apply_rotation(state, v, angle).amplitudes
                expected = dense_rotation(state, v, angle).amplitudes
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (v, angle)

    @pytest.mark.parametrize("family, n", FIXED_N_PROBES,
                             ids=[f"{family}-{n}" for family, n in FIXED_N_PROBES])
    def test_fixed_n_scans_match_dense_sector_loop_bit_for_bit(self, family, n):
        # a warm fringe scan with new axes between its points, on the probe and on
        # a cold copy that holds the same cells and plans afresh; the Y axis has
        # gamma = -pi/2 for |phi| < pi and +pi/2 past it
        probe = build(ProbeSpec(family, {"n": n}))
        assert probe._cells is not None
        rng = np.random.default_rng(n)
        steps = [(Y_AXIS, math.pi * (i + 0.4) / 6) for i in range(6)]
        steps[2:2] = [(tuple(random_direction(rng)), 2.1)]
        steps[5:5] = [(tuple(random_direction(rng)), -0.8), (X_AXIS, math.pi / 2)]
        steps += [(Y_AXIS, 3.6), (Y_AXIS, 0.2)]
        cold = FockState._from_cells(probe._cells, probe._sector, probe.cutoff)
        for state in (probe, cold):
            for v, angle in steps:
                got = apply_rotation(state, v, angle)
                assert got._cells is not None  # one sector, held as its cells
                expected = dense_rotation(state, v, angle).amplitudes
                assert np.array_equal(got.amplitudes.view(np.uint64), expected.view(np.uint64)), \
                    (state is cold, v, angle)

    def test_a_warm_single_sector_rotation_reads_its_kept_operands(self, monkeypatch):
        # the plan keeps its run's views of the cached block, so a warm point asks
        # the cache for nothing, and its cos and sin tables hold the n//2 + 1
        # entries of its sector's one parity
        for family, n in (("twin-fock", 200), ("fraternal-twin-fock", 7), ("noon", 1)):
            probe = build(ProbeSpec(family, {"n": n}))
            mzi_unitary(probe, 0.3)
            asked, rotations = [], []
            basis = schwinger._jx_basis
            rotate = schwinger._rotate
            monkeypatch.setattr(schwinger, "_jx_basis",
                                lambda *args: asked.append(args) or basis(*args))
            monkeypatch.setattr(schwinger, "_rotate",
                                lambda plan, rotation, *args: rotations.append(rotation)
                                or rotate(plan, rotation, *args))
            for phi in (0.5, 1.9, -2.2):
                mzi_unitary(probe, phi)
            monkeypatch.undo()
            sector = probe._sector
            assert asked == [] and len(rotations) == 3, family
            for rotation in rotations:
                assert rotation.cos.shape == rotation.sin.shape == (sector // 2 + 1,), family

    def test_kept_operands_are_views_of_blocks_the_cache_holds(self, monkeypatch):
        cache = _BasisCache(BASIS_CACHE_BYTES)
        monkeypatch.setattr(schwinger, "_jx_basis", cache)
        states = [build(ProbeSpec("coherent", {"alpha": 2.0}, 30)),  # with partial sectors
                  build(ProbeSpec("twin-fock", {"n": 9})), make_fock(3, 2, 6)]
        for state in states:
            mzi_unitary(state, 0.3)
            plan = state._rotation[0]
            kept = 0
            for group in plan.groups:
                assert group.operands is not None
                for (n, *_), (even, odd, *_) in zip(group.runs, group.operands):
                    assert even.base is odd.base is cache._bases[n][1]
                    kept += 1
            assert kept == len(plan.occupied)

    def test_a_plan_pins_no_block_the_cache_did_not_keep(self, monkeypatch):
        built = []

        class Recording(_BasisCache):
            def __call__(self, n, low=0):
                first, rows = super().__call__(n, low)
                built.append(weakref.ref(rows))
                return first, rows

        monkeypatch.setattr(schwinger, "_jx_basis", Recording(limit=0))  # keeps no block
        for state in (build(ProbeSpec("twin-fock", {"n": 9})),
                      build(ProbeSpec("coherent", {"alpha": 2.0}, 30))):
            expected = [dense_rotation(state, Y_AXIS, phi).amplitudes for phi in (0.3, 0.9)]
            for phi, want in zip((0.3, 0.9), expected):
                got = mzi_unitary(state, phi)
                assert np.array_equal(got.amplitudes.view(np.uint64), want.view(np.uint64))
            assert all(group.operands is None for group in state._rotation[0].groups)
            gc.collect()
            assert built and all(ref() is None for ref in built)  # none outlives its call
            built.clear()

    def test_kept_coordinates_leave_the_right_phases_unbuilt(self, monkeypatch):
        state = random_two_mode_state(np.random.default_rng(5), 9, 9)
        mzi_unitary(state, 0.3)  # projects, with gamma = -pi/2
        angles = []
        recording = schwinger._phase_table
        monkeypatch.setattr(schwinger, "_phase_table",
                            lambda angle, m: angles.append(angle) or recording(angle, m))
        got = mzi_unitary(state, 0.9).amplitudes
        assert angles == [math.pi / 2]  # the left table alone
        expected = dense_rotation(state, Y_AXIS, 0.9).amplitudes
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_plan_is_kept_on_its_state_and_dropped_with_it(self):
        state = make_fock(3, 2, 6)  # it holds its cells, and its plan is theirs
        grid = FockState(state.amplitudes.copy(), 6)
        flats = []
        for held in (state, grid):
            assert held._rotation is None
            mzi_unitary(held, 0.4)
            plan, gamma, coordinates = held._rotation
            assert gamma == -math.pi / 2 and not coordinates.flags.writeable
            mzi_unitary(held, 0.9)  # the same gamma: the same record
            assert held._rotation[0] is plan and held._rotation[2] is coordinates
            flats.append(weakref.ref(plan.flats))
        del state, grid, held, plan, coordinates
        gc.collect()
        assert [ref() for ref in flats] == [None, None]

    def test_a_replaced_state_plans_afresh_with_the_same_bits(self, rng):
        for state in (make_fock(3, 2, 6), random_two_mode_state(rng, 9, 9)):
            steps = [(Y_AXIS, 0.4), (tuple(random_direction(rng)), 1.1)]
            expected = [apply_rotation(state, *step).amplitudes.view(np.uint64) for step in steps]
            replaced = dataclasses.replace(state)
            assert state._rotation is not None and replaced._rotation is None
            for step, want in zip(steps, expected):
                assert np.array_equal(apply_rotation(replaced, *step).amplitudes.view(np.uint64),
                                      want)
            assert replaced._rotation[0] is not state._rotation[0]

    def test_interleaved_scans_plan_each_state_once(self, monkeypatch):
        states = [build(ProbeSpec("coherent", {"alpha": 2.0}, 30)),
                  build(ProbeSpec("twin-fock", {"n": 10}))]
        planned = []
        original = schwinger._plan
        monkeypatch.setattr(schwinger, "_plan",
                            lambda state, held: planned.append(state) or original(state, held))
        for i in range(5):
            for state in states:
                mzi_unitary(state, 0.1 * (i + 1))
        assert list(map(id, planned)) == list(map(id, states))  # a plan each, kept

    def test_scans_in_threads_match_bit_for_bit(self):
        states = [build(ProbeSpec("coherent", {"alpha": 2.0}, 30)),
                  build(ProbeSpec("twin-fock", {"n": 10}))]
        steps = [(Y_AXIS, 0.25 * i) for i in range(12)] + [((0.48, -0.6, 0.64), 0.9), (X_AXIS, 1.3)]
        expected = [[dense_rotation(state, v, angle).amplitudes.view(np.uint64)
                     for v, angle in steps] for state in states]
        mismatches = []

        def scan(i):
            for _ in range(4):
                for (v, angle), want in zip(steps, expected[i]):
                    got = apply_rotation(states[i], v, angle).amplitudes.view(np.uint64)
                    if not np.array_equal(got, want):
                        mismatches.append((i, v, angle))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan, args=(i,)) for i in (0, 1, 0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches

    def test_kept_tables_hold_a_few_and_survive_threads(self):
        built = []
        tables = _KeptTables(lambda angle, top: built.append((angle, top)) or
                                       (angle, top), 3)
        for key in [(0.5, 8), (0.5, 8), (-0.5, 8), (0.5, 9), (0.1, 8), (0.5, 8)]:
            assert tables(*key) == key
        assert built == [(0.5, 8), (-0.5, 8), (0.5, 9), (0.1, 8), (0.5, 8)]
        assert list(tables._tables) == [(0.1, 8), (0.5, 8)]  # started afresh when full
        wrong = []

        def ask(seed):
            rng = np.random.default_rng(seed)
            for key in rng.integers(0, 6, size=(2000, 2)).tolist():
                if tables(*key) != tuple(key):
                    wrong.append(key)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and len(tables._tables) <= 3

    def test_basis_cache_stays_within_its_bytes(self):
        cache = _BasisCache(limit=3 * 21 * 21 * 8)
        for n in [40, 10, 40, 39, 38, 3, 41, 40, 72, 2, 37, 36, 35, 0, 40]:
            first, basis = cache(n)
            assert first == 0 and basis.shape == (n // 2 + 1, n // 2 + 1)
            assert cache.resident_bytes == sum(b.nbytes for _, b in cache._bases.values())
            assert cache.resident_bytes <= cache.limit
            if n == 72:  # larger than the whole budget: computed, not kept
                assert basis.nbytes > cache.limit and 72 not in cache._bases
        assert list(cache._bases) == [40, 10, 39, 38, 3, 2, 0]  # each kept if it fit when built
        assert _jx_basis.resident_bytes <= _jx_basis.limit == BASIS_CACHE_BYTES

    def test_basis_cache_keeps_the_rows_asked_for_and_grows_them_downward(self):
        cache = _BasisCache(limit=BASIS_CACHE_BYTES)
        full = _jx_eigenbasis(40)
        for low, first in [(12, 12), (15, 12), (20, 12), (5, 5), (12, 5), (0, 0), (9, 0)]:
            kept, rows = cache(40, low)
            assert kept == first <= low and rows.base is None and not rows.flags.writeable
            assert np.array_equal(rows.view(np.uint64), full[first:].view(np.uint64))
            assert cache.resident_bytes == rows.nbytes
        assert cache.misses == 3  # rows from 12, then from 5, then all

    def test_basis_cache_keeps_a_stored_block_when_its_superset_does_not_fit(self):
        size = 40 // 2 + 1
        cache = _BasisCache(limit=(size - 12) * size * 8)
        first, _ = cache(40, 12)
        assert first == 12 and cache.resident_bytes == cache.limit
        first, rows = cache(40, 5)  # built, not kept
        assert first == 5 and cache._bases[40][0] == 12
        assert cache.resident_bytes == cache.limit and cache.misses == 2

    def test_basis_cache_rescans_warm_past_its_bytes(self):
        # the same ascending scan over more blocks than fit, twice: the second
        # builds only the blocks that never fit (evicting the least recently
        # used would rebuild every one, each just before the scan needs it)
        scan = range(41)
        cache = _BasisCache(limit=sum((n // 2 + 1) ** 2 * 8 for n in range(30)))
        for n in scan:
            cache(n)
        assert list(cache._bases) == list(range(30)) and cache.misses == len(scan)
        for n in scan:
            cache(n)
        assert cache.misses == len(scan) + len(range(30, 41))

    def test_basis_cache_accounting_survives_threads(self):
        cache = _BasisCache(limit=4 * 13 * 13 * 8)
        # each call asks for the rows of sector n from a random low, so stored
        # blocks are replaced by supersets while other threads read them
        rng = np.random.default_rng(7)
        order = rng.integers(0, 25, size=(6, 300))
        lows = rng.integers(0, order // 2 + 1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda calls=calls: [cache(int(n), int(low))
                                                                    for n, low in calls])
                       for calls in np.stack([order, lows], axis=2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.resident_bytes == sum(b.nbytes for _, b in cache._bases.values())
        assert cache.resident_bytes <= cache.limit

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 31, 320, 399, 400])
    def test_stored_rows_and_their_mirrors_diagonalize_jx(self, n):
        assert_stored_block_diagonalizes_jx(n)

    @pytest.mark.parametrize("n", [2600, 4096])
    def test_large_sector_blocks_are_finite_unit_eigenvectors(self, n):
        # 2600 is the top sector of a ceiling-1300 grid; run from v_0 = 1, the
        # eigenvector of m = n/2 grows by about 2^(n/2) before it is normalized
        stored = _jx_eigenbasis(n)  # built, not kept in the shared cache
        assert np.isfinite(stored).all()
        size = n // 2 + 1
        signs = (-1.0) ** (n // 2 - np.arange(size))
        middle = n % 2 == 0
        norms = 2 * np.sum(stored**2, axis=0) - middle * stored[-1] ** 2
        assert np.abs(norms - 1).max() < 1e-14
        # Jx v = m v on the rows k <= n/2, one O(n) row at a time; the implied
        # row n//2 + 1 is s_j times row n - n//2 - 1. The rows above mirror
        # these, and m < 0 is their parity image. With unit norms, small
        # residuals also bound the overlaps, as distinct m are 1 or more apart.
        rows = np.vstack([stored, signs * stored[n - n // 2 - 1]])
        k = np.arange(size, dtype=float)
        half_coupling = np.sqrt((k + 1) * (n - k)) / 2  # <k+1, n-k-1| Jx |k, n-k>
        m = np.arange(size) + (n + 1) // 2 - n / 2
        worst = 0.0
        for row in range(size):
            jx_v = half_coupling[row] * rows[row + 1]
            if row:
                jx_v += half_coupling[row - 1] * rows[row - 1]
            worst = max(worst, np.abs(jx_v - m * rows[row]).max())
        assert worst < 1e-13 * n / 32

    @pytest.mark.parametrize("n", [0, 1, 2, 509, 510, 511, 512, 513, 1001, 2048, 4097])
    def test_norms_keep_the_bits_of_the_whole_block(self, n):
        # a block of 255, 256 or 257 columns, and several strips of 256, the last short
        stored = _jx_eigenbasis(n)
        assert np.array_equal(stored.view(np.uint64), whole_block_jx_eigenbasis(n).view(np.uint64))

    def test_one_column_keeps_the_bits_of_the_block(self):
        # every column up to n = 120, and sampled ones of large sectors, whose last
        # columns grow past 2^400 and are rescaled; rows n-k are s_j times rows k
        cases = [(n, range(n // 2 + 1)) for n in range(121)]
        cases += [(n, (0, 1, n // 4, n // 2 - 1, n // 2)) for n in (401, 1000, 2048)]
        for n, columns in cases:
            block = _jx_eigenbasis(n)
            for j in columns:
                vector = _jx_column(n, j)
                column, sign = block[:, j], (-1.0) ** (n // 2 - j)
                assert np.array_equal(vector[: n // 2 + 1].view(np.uint64),
                                      column.view(np.uint64)), (n, j)
                assert np.array_equal(vector[n // 2 + 1 :], sign * column[: n - n // 2][::-1])

    def test_a_cold_block_holds_one_strip_of_squares_beside_it(self):
        # sector 2000: a 1001-column block of 8.0 MB and a strip of 256 of its columns,
        # 2.0 MB; squaring the whole block would hold a second block
        _jx_eigenbasis(10)
        tracemalloc.start()
        try:
            block = _jx_eigenbasis(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes + 256 * block.shape[0] * 8 + 2**18  # and a few vectors

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(0, 40), st.integers(0, 400)))
    def test_stored_rows_and_their_mirrors_diagonalize_jx_up_to_400(self, n):
        assert_stored_block_diagonalizes_jx(n)

    def test_rotation_requires_headroom(self):
        # all support on the truncated corner sector, refused on every call
        grid = np.zeros((3, 3), dtype=complex)
        grid[2, 2] = 1.0
        state = FockState(grid, 2)
        for v in (X_AXIS, X_AXIS, Y_AXIS):
            with pytest.raises(TruncationOverflowError, match="weight 1.000e[+]00 sits above cutoff 2"):
                apply_rotation(state, v, 0.3)


class TestTrimmedBasisRows:
    """A grid with cutoff c reads the rows k >= n - c of a sector n above it, and the
    cache keeps only the rows asked for: rotations through them carry the bits of
    rotations through the full blocks of :func:`_jx_eigenbasis`."""

    CUTOFFS = (64, 160)

    @staticmethod
    def scans(rng):
        """For each cutoff, grid-held states with sectors above it, and the rotations of a scan."""
        scans = {}
        for cutoff in TestTrimmedBasisRows.CUTOFFS:
            grids = [tailed_grid(rng, cutoff),
                     build(ProbeSpec("coherent", {"alpha": 3.0}, cutoff)).amplitudes]
            steps = [(Y_AXIS, 0.3), (Y_AXIS, -1.7), (tuple(random_direction(rng)), 2.6),
                     (tuple(random_direction(rng)), -0.9)]
            scans[cutoff] = grids, steps
        return scans

    @staticmethod
    def scan(cutoff, grids, steps):
        """The bits of each rotation of a scan of a fresh state of each grid."""
        bits = []
        for grid in grids:
            state = FockState(grid, cutoff)
            bits.extend(apply_rotation(state, v, angle).amplitudes.view(np.uint64)
                        for v, angle in steps)
        return bits

    @pytest.mark.parametrize("order", [(64, 160, 64), (160, 64), "threads"],
                             ids=["64-160-64", "160-64", "threads"])
    def test_trimmed_rows_rotate_with_the_bits_of_full_blocks(self, monkeypatch, order):
        scans = self.scans(np.random.default_rng(28))
        full = {}

        def full_rows(n, low=0):
            if n not in full:
                full[n] = _jx_eigenbasis(n)
            return 0, full[n]

        monkeypatch.setattr(schwinger, "_jx_basis", full_rows)
        expected = {cutoff: self.scan(cutoff, *scans[cutoff]) for cutoff in self.CUTOFFS}
        del full
        cache = _BasisCache(BASIS_CACHE_BYTES)
        monkeypatch.setattr(schwinger, "_jx_basis", cache)
        passes = []  # (cutoff, bits) of each scan
        if order == "threads":
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=lambda c=cutoff: passes.append(
                    (c, self.scan(c, *scans[c])))) for cutoff in self.CUTOFFS]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(switch)
            assert not any(thread.is_alive() for thread in threads)
        else:
            for i, cutoff in enumerate(order):
                misses = cache.misses
                passes.append((cutoff, self.scan(cutoff, *scans[cutoff])))
                if i and cutoff == 64:  # after cutoff 160, every row it reads is kept
                    assert cache.misses == misses
        assert len(passes) == len(self.CUTOFFS if order == "threads" else order)
        for cutoff, bits in passes:
            assert len(bits) == len(expected[cutoff])
            for want, got in zip(expected[cutoff], bits):
                assert np.array_equal(got, want), (order, cutoff)
        # every sector is kept from the lowest row any grid asked for
        assert {n: first for n, (first, _) in cache._bases.items()} == {
            n: max(0, n - 160) for n in range(321)}
        assert all(rows.base is None for _, rows in cache._bases.values())
        assert cache.resident_bytes == sum(rows.nbytes for _, rows in cache._bases.values())

    def test_trimmed_rows_fit_where_full_blocks_overflow(self, monkeypatch):
        # a cache that cannot hold the full blocks of a cutoff-20 grid, 49448
        # bytes, holds the rows it reads, 19888, so a second rotation builds none
        cutoff = 20
        sectors = range(2 * cutoff + 1)
        cache = _BasisCache(limit=sum((n // 2 - max(0, n - cutoff) + 1) * (n // 2 + 1) * 8
                                      for n in sectors))
        assert sum((n // 2 + 1) ** 2 * 8 for n in sectors) > cache.limit
        monkeypatch.setattr(schwinger, "_jx_basis", cache)
        grid = tailed_grid(np.random.default_rng(3), cutoff)
        apply_rotation(FockState(grid, cutoff), Y_AXIS, 0.4)
        assert cache.misses == len(sectors) and cache.resident_bytes == cache.limit
        apply_rotation(FockState(grid, cutoff), (0.48, -0.6, 0.64), 1.3)
        assert cache.misses == len(sectors)


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

    @pytest.mark.parametrize("phi", [0.0, math.pi, -math.pi, 1e-3, 2.7])
    def test_phase_table_matches_cellwise_formula_bit_for_bit(self, rng, phi):
        for cutoff in range(65):
            grid = rng.normal(size=(cutoff + 1, cutoff + 1, 2)).view(complex)[..., 0]
            psi = FockState(grid / np.linalg.norm(grid), cutoff)
            got = phase_shift(psi, phi).amplitudes
            expected = phase_shift_formula(psi, phi).amplitudes
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), cutoff


    @pytest.mark.parametrize("phi", [1e308, -1e308, 2e307])
    def test_phase_overflowing_times_the_cutoff_is_refused_up_front(self, phi):
        cells = make_fock(2, 1, 16)
        for state in (cells, FockState(cells.amplitudes.copy(), 16)):  # cells, then a grid
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError, match="times cutoff 16 must be finite"):
                    phase_shift(state, phi)
        assert cells._cells is not None and state._cells is None

    def test_huge_phase_within_the_cutoff_still_shifts(self):
        # 2e307 times 4 is finite, as is every phase of the table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = phase_shift(make_fock(2, 1, 4), 2e307)
        assert np.isfinite(out.amplitudes).all()


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

    @pytest.mark.parametrize("v", [(math.nan, 0.0, 0.0), (0.6, math.nan, 0.8),
                                   (math.inf, 0.0, 0.0), (1e200, 0.0, 0.0)])
    def test_a_non_finite_direction_is_a_parameter_error(self, v):
        with pytest.raises(ParameterError, match="unit norm"):
            SpinDirection(*v)
        with pytest.raises(ParameterError, match="unit norm"):
            apply_rotation(make_fock(2, 1, 4), v, 0.3)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_angle_or_phase_is_a_parameter_error(self, angle, rng):
        for state in (make_fock(2, 1, 4), random_two_mode_state(rng, 4, 4)):
            for rotate in (lambda: apply_rotation(state, X_AXIS, angle),
                           lambda: mzi_unitary(state, angle), lambda: phase_shift(state, angle)):
                with pytest.raises(ParameterError, match="must be finite"):
                    rotate()
            assert state._rotation is None  # rejected before any work
