"""The report's verdicts, each judged against its routes' own round-off.

The paper's claim is that particle entanglement is necessary for
sub-shot-noise phase estimation, and mode entanglement is not. For n
particles F - n = n(n-1) Cov[sigma_z] - n <sigma_z>^2, so F > n implies
Cov[sigma_z] > 0 (Pezze & Smerzi, PRL 102, 100401, 2009). ``build_report``
calls a probe sub-shot-noise when F - nbar exceeds B = ``ROUTE_ROUNDOFF``
<N^2>, and defines its CRB when F exceeds B; a sector of n photons is
entangled when n(n-1) Cov[sigma_z] exceeds its B, ``ROUTE_ROUNDOFF`` n^2.
Each bound is tested at 0.9 and 1.1 of itself, and the claim as properties.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import epsilon_state, near_shot_noise_sectors
from mzi_qfi import fock, particle, qfi
from mzi_qfi.coherence import analyze
from mzi_qfi.entanglement import schmidt
from mzi_qfi.fock import FockState
from mzi_qfi.particle import decompose_sectors, sector_moments
from mzi_qfi.qfi import build_report
from mzi_qfi.states import ProbeSpec, build, build_for_nbar

#: Round-off per unit of <N^2>, as ``fock.ROUTE_ROUNDOFF`` states it.
ROUNDOFF = 32 * 2.0**-53


def verdicts(state):
    """The report of ``state`` and the particle report of each of its sectors with n >= 1."""
    decomposition = decompose_sectors(state)
    report = build_report(state, decomposition=decomposition)
    return report, [sector_moments(sector) for sector in decomposition.sectors if sector.n]


def assert_claim(state):
    """Where the routes agree, sub-shot-noise implies an entangled sole sector, and F <= n^2 + B."""
    report, [sector] = verdicts(state)
    n = sector.n
    assert report.f_particle <= n * n + ROUNDOFF * n * n
    if report.routes_consistent and report.scaling.sub_shot_noise:
        assert sector.witness_entangled, (report.f_variance, sector.cov_sigma_z)


class TestBounds:
    def test_the_routes_and_the_verdicts_read_one_roundoff(self):
        assert fock.ROUTE_ROUNDOFF == qfi.ROUTE_ROUNDOFF == particle.ROUTE_ROUNDOFF == ROUNDOFF

    @pytest.mark.parametrize("share", [0.9, 1.1])
    def test_sub_shot_noise_and_the_witness_at_their_bound(self, share):
        # n = 2, so both verdicts compare 2 eps with B = 4 ROUNDOFF
        bound = 4 * ROUNDOFF
        state = epsilon_state(share * bound / 2)
        report, [sector] = verdicts(state)
        assert report.routes_consistent
        assert (report.f_variance - analyze(state).nbar) / bound == pytest.approx(share, abs=0.05)
        assert 2 * sector.cov_sigma_z / bound == pytest.approx(share, abs=0.05)
        assert report.scaling.sub_shot_noise is (share > 1)
        assert sector.witness_entangled is (share > 1)

    @pytest.mark.parametrize("share", [0.9, 1.1])
    def test_the_crb_at_its_bound(self, share):
        # sqrt(1 - w)|0,0> + sqrt(w)|1,0>: F = w (1 - w) and <N^2> = w, so F/B = (1 - w)/ROUNDOFF
        weight = 1 - share * ROUNDOFF
        grid = np.zeros((2, 2), dtype=complex)
        grid[0, 0], grid[1, 0] = math.sqrt(1 - weight), math.sqrt(weight)
        report = build_report(FockState(grid, 1))
        assert report.f_variance / (ROUNDOFF * weight) == pytest.approx(share, abs=0.05)
        assert (report.crb is not None) is (share > 1)
        assert ("crb" in report.reasons) is (share < 1)


class TestResourceClaim:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(near_shot_noise_sectors())
    def test_near_shot_noise_sectors(self, state):
        assert_claim(state)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.floats(-16.0, -3.0))
    @example(math.log10(7e-10))
    def test_the_epsilon_family(self, exponent):
        assert_claim(epsilon_state(10.0**exponent))

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.floats(1e-9, 6.0))
    @example(1e-9)
    def test_a_mode_separable_probe_beats_shot_noise(self, nbar):
        state, _, _ = build_for_nbar("twin-squeezed-vacuum", nbar)
        assert schmidt(state).separable
        assert build_report(state).scaling.sub_shot_noise

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.floats(1e-6, 8.0))
    def test_a_coherent_probe_flags_neither_verdict(self, nbar):
        report, sectors = verdicts(build_for_nbar("coherent", nbar)[0])
        assert not report.scaling.sub_shot_noise
        assert not any(sector.witness_entangled for sector in sectors)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(1, 300))
    def test_a_separable_coherent_probe_flags_neither_verdict(self, n):
        report, [sector] = verdicts(build(ProbeSpec("separable-coherent-probe", {"n": n})))
        assert not report.scaling.sub_shot_noise
        assert not sector.witness_entangled
