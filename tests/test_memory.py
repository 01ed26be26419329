"""Each public stage's transient memory stays within its budget, and the
rotation cache keeps only the rows k <= n/2 of each sector's basis.

The peaks are those ``tools/stage_memory.py`` prints: the tracemalloc
high-water mark of a warm call above what was held before it, in grids of
16 (cutoff+1)^2 bytes, for probes at cutoffs of 300 and more.
"""

import pytest

from conftest import load_tool
from mzi_qfi import (
    ProbeSpec,
    analyze,
    build,
    decompose_sectors,
    mzi_unitary,
    particle_moments,
    schwinger,
)

stage_memory = load_tool("stage_memory")

#: What the fidelity route and the QFI report may hold beyond two grids:
#: numpy's fixed-size ufunc buffers and the reports' own small objects.
TWO_GRID_SLACK = 256 * 1024

TWO_GRID_STAGES = ("qfi_fidelity", "build_report")

#: The peak of every other stage in grids, rounded up to a hundredth, as
#: measured when the fidelity route was brought to two grids and the number
#: moments to one probability grid (half a grid) and its squares. The cold
#: rotation's was measured when the rotation plan and the Jx-basis
#: coordinates of the last grid rotated came to be kept: for tsv, about one
#: grid of coordinates (n//2 + 1 columns of each parity for each of its 301
#: even sectors) and half a grid of plan. A state that knows its one
#: occupied sector, such as twin-fock and its rotations, takes its moments
#: from the cells of that sector alone, so its ``analyze``, ``qfi_variance``
#: and ``analyze_rotated`` hold a few vectors of c + 1 floats. ``schmidt``
#: was measured when the Schmidt values of low-rank blocks came to be taken
#: by crosses, in place on the gathered block (a quarter grid for these
#: probes) with steps of ``entanglement.CHUNK_CELLS`` cells; ``schmidt_rotated``,
#: whose blocks fall back to an SVD, holds at most what it held before then.
#: ``decompose_sectors`` was measured when it came to read each occupied
#: sector in place: a scan of an untagged grid for its occupied sectors (a
#: quarter grid of int32 photon totals and the masks) and the sectors'
#: vectors; a state that knows its sector reads that sector's cells alone.
#: ``sector_states`` and twin-fock's ``build``, ``phase_shift``,
#: ``mzi_unitary`` and ``mzi_unitary_cold`` were measured when single-sector
#: states came to hold their cells and build no grid until one is read:
#: ``Sector.state`` holds its sector's vector, and a rotation or phase shift
#: of a fixed-n probe holds its c + 1 cells. Twin-fock's ``build`` keeps the
#: one grid of its basis ket, and ``mzi_unitary_cold`` the plan of a fresh
#: untagged copy, whose scan takes a quarter grid.
BUDGETS = {
    "tsv xi=1.2": {
        "build": 2.01, "analyze": 1.01, "decompose_sectors": 0.44, "qfi_variance": 1.01,
        "schmidt": 0.37, "phase_shift": 1.11, "mzi_unitary": 2.07, "analyze_rotated": 1.01,
        "schmidt_rotated": 0.67, "mzi_unitary_cold": 3.40, "sector_states": 0.03,
    },
    "amplified-bell xi=1.2": {
        "build": 2.19, "analyze": 1.01, "decompose_sectors": 0.44, "qfi_variance": 1.01,
        "schmidt": 0.37, "phase_shift": 1.11, "mzi_unitary": 2.07, "analyze_rotated": 1.01,
        "schmidt_rotated": 0.67, "mzi_unitary_cold": 3.38, "sector_states": 0.03,
    },
    "twin-fock n=200": {
        "build": 1.03, "analyze": 0.02, "decompose_sectors": 0.01, "qfi_variance": 0.02,
        "schmidt": 0.19, "phase_shift": 0.02, "mzi_unitary": 0.03, "analyze_rotated": 0.02,
        "schmidt_rotated": 0.19, "mzi_unitary_cold": 0.44, "sector_states": 0.01,
    },
}

#: The peak, in grids, of a read that needs no grid: a sector's state and its
#: particle statistics, or a fringe point of a fixed-n probe and its moments.
NO_GRID = 0.05


def test_every_stage_has_a_budget():
    for label, *_ in stage_memory.PROBES:
        assert set(BUDGETS[label]) | set(TWO_GRID_STAGES) == set(stage_memory.STAGES)


@pytest.mark.parametrize("label, family, params, cutoff", stage_memory.PROBES,
                         ids=[probe[0] for probe in stage_memory.PROBES])
def test_stage_peaks_within_budget(label, family, params, cutoff):
    chosen, peaks = stage_memory.stage_peaks(family, params, cutoff)
    grid = stage_memory.grid_bytes(chosen)
    assert chosen >= 300
    over = {}
    for stage, peak in peaks.items():
        if stage in TWO_GRID_STAGES:
            budget = 2 * grid + TWO_GRID_SLACK
        else:
            budget = BUDGETS[label][stage] * grid
        if peak > budget:
            over[stage] = (peak, round(peak / grid, 4), budget)
    assert not over, over


def test_sector_states_and_fixed_n_fringe_points_build_no_grid():
    probe = build(ProbeSpec("twin-fock", {"n": 200}))
    [sector] = decompose_sectors(probe).sectors

    def sector_statistics():
        return particle_moments(sector.state, sector.n)

    def fringe_point():
        return analyze(mzi_unitary(probe, 0.3))

    for call, cutoff in ((sector_statistics, sector.cutoff), (fringe_point, probe.cutoff)):
        call()  # the Jx basis, and the probe's grid and rotation plan
        peak = stage_memory.transient_peak(call)
        assert peak < NO_GRID * stage_memory.grid_bytes(cutoff), (call.__name__, peak)


def test_rotation_cache_holds_only_the_rows_k_up_to_half(monkeypatch):
    # every sector n <= 320 of the coherent probe keeps its (n//2+1)^2 block,
    # 21.2 MiB in all; the complete eigenvectors with m >= 0, (n+1)(n//2+1)
    # doubles each, would take 42.4 MiB
    cache = schwinger._BasisCache(schwinger.BASIS_CACHE_BYTES)
    monkeypatch.setattr(schwinger, "_jx_basis", cache)
    state = build(ProbeSpec("coherent", {"alpha": 8.0}, 160))
    mzi_unitary(state, 0.3)
    assert len(cache._bases) == 321
    assert cache.resident_bytes <= 22 * 2**20
    assert all(block.base is None for block in cache._bases.values())
