"""Each public stage's transient memory stays within its budget, and the
rotation cache keeps only the rows k <= n/2 of each sector's basis that a
grid holds.

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
    build_for_nbar,
    decompose_sectors,
    fock,
    mzi_unitary,
    particle_moments,
    schwinger,
)

stage_memory = load_tool("stage_memory")

#: The peak of every stage in grids, rounded up to a hundredth. The cold
#: rotation's was measured when the rotation plan and the Jx-basis
#: coordinates of a rotated state came to be kept: for tsv, about one
#: grid of coordinates (n//2 + 1 columns of each parity for each of its 301
#: even sectors) and half a grid of plan. A state that knows its one
#: occupied sector, such as twin-fock and its rotations, takes its moments
#: from the cells of that sector alone, so its ``analyze``, ``qfi_variance``
#: and ``analyze_rotated`` hold a few vectors of c + 1 floats. tsv's and
#: amplified-bell's ``schmidt`` were measured when the Schmidt values of
#: low-rank blocks came to be taken by crosses, in place on the gathered
#: block (a quarter grid for these probes) with steps of
#: ``entanglement.CHUNK_CELLS`` cells; their ``schmidt_rotated``, whose blocks
#: fall back to an SVD, holds at most what it held before then.
#: ``sector_states`` and twin-fock's ``phase_shift`` and ``mzi_unitary`` were
#: measured when single-sector states came to hold their cells and build no
#: grid until one is read: ``Sector.state`` holds its sector's vector, and a
#: rotation or phase shift of a fixed-n probe holds its c + 1 cells.
#: Twin-fock's ``build`` was measured when it came to be one Jx eigenvector of
#: its sector, with no rotation: a few vectors of c + 1 entries.
#: ``qfi_fidelity`` was measured when the
#: fidelity route came to take its weight on each j - k from the one read
#: that takes the number moments, kept in the state: its warm call reads
#: that p(d) and holds a few vectors of 2c + 1 floats.
#:
#: The rest were measured when every dense pass came to read a grid a strip
#: of rows at a time. ``build`` of tsv and amplified-bell holds the grid it
#: normalizes in place, plus numpy's buffers for a strip of its outer
#: products; tsv's was measured when its one outer product came to be
#: written a strip at a time too. ``analyze``, ``qfi_variance``,
#: ``analyze_rotated`` and ``build_report``, which peaks in ``analyze``, take
#: the number moments' half-height accumulator of k p (a quarter grid), two
#: strip buffers and the p(d) of 2c + 1 floats that the same read keeps: a
#: state keeps what it read, so each is measured on a fresh copy of its
#: state, not yet read.
#: ``decompose_sectors`` takes four strips' worth of booleans for its scan,
#: one chunk of its sector table's walk (18 rows' worth of cells at 24 bytes
#: each), and then the array of kept cells it returns beside one chunk of its
#: walk of the kept sectors (5 rows' worth at 32 bytes each); ``sector_path``,
#: the decomposition followed by every kept sector's statistics, which read no
#: cell, peaks in the decomposition and has its budget. Twin-fock's
#: ``schmidt`` and ``schmidt_rotated`` read the cells of its one sector, and
#: its ``mzi_unitary_cold`` scans the grid of its fresh copy in strips.
BUDGETS = {
    "tsv xi=1.2": {
        "build": 1.10, "analyze": 0.33, "decompose_sectors": 0.14, "qfi_variance": 0.33,
        "qfi_fidelity": 0.02, "build_report": 0.33,
        "schmidt": 0.37, "phase_shift": 1.11, "mzi_unitary": 2.07, "analyze_rotated": 0.33,
        "schmidt_rotated": 0.67, "mzi_unitary_cold": 3.40, "sector_states": 0.03,
        "sector_path": 0.14,
    },
    "amplified-bell xi=1.2": {
        "build": 1.14, "analyze": 0.33, "decompose_sectors": 0.16, "qfi_variance": 0.33,
        "qfi_fidelity": 0.02, "build_report": 0.33,
        "schmidt": 0.37, "phase_shift": 1.11, "mzi_unitary": 2.07, "analyze_rotated": 0.33,
        "schmidt_rotated": 0.67, "mzi_unitary_cold": 3.38, "sector_states": 0.03,
        "sector_path": 0.16,
    },
    "twin-fock n=200": {
        "build": 0.03, "analyze": 0.02, "decompose_sectors": 0.01, "qfi_variance": 0.02,
        "qfi_fidelity": 0.02, "build_report": 0.02,
        "schmidt": 0.01, "phase_shift": 0.02, "mzi_unitary": 0.03, "analyze_rotated": 0.02,
        "schmidt_rotated": 0.01, "mzi_unitary_cold": 0.04, "sector_states": 0.01,
        "sector_path": 0.01,
    },
}

#: The peak, in grids, of a read that needs no grid: a sector's state and its
#: particle statistics, or a fringe point of a fixed-n probe and its moments.
NO_GRID = 0.05


def test_every_stage_has_a_budget():
    for label, *_ in stage_memory.PROBES:
        assert set(BUDGETS[label]) == set(stage_memory.STAGES)


@pytest.mark.parametrize("label, family, params, cutoff", stage_memory.PROBES,
                         ids=[probe[0] for probe in stage_memory.PROBES])
def test_stage_peaks_within_budget(label, family, params, cutoff):
    chosen, peaks = stage_memory.stage_peaks(family, params, cutoff)
    grid = stage_memory.grid_bytes(chosen)
    assert chosen >= 300
    over = {}
    for stage, peak in peaks.items():
        budget = BUDGETS[label][stage] * grid
        if peak > budget:
            over[stage] = (peak, round(peak / grid, 4), budget)
    assert not over, over


def test_grown_strips_keep_the_cutoff_300_budgets(monkeypatch):
    # tsv at nbar 20 under a ceiling of 1300 takes cutoff 642, where the moments' read takes
    # 27 rows a strip, not the 6 of ``fock.strip_rows``, and the builder's strips grow with them
    monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "1300")
    state, params, _ = build_for_nbar("twin-squeezed-vacuum", 20.0)
    assert state.cutoff == 642 and fock.pass_rows(643) > fock.strip_rows(643)
    spec = ProbeSpec("twin-squeezed-vacuum", params)
    copies = [stage_memory.fresh_copy(state) for _ in range(2)]
    peaks = {}
    for stage, call in (("build", lambda: build(spec)), ("analyze", lambda: analyze(copies.pop()))):
        call()
        peaks[stage] = stage_memory.transient_peak(call) / stage_memory.grid_bytes(state.cutoff)
    budgets = BUDGETS["tsv xi=1.2"]
    assert all(peaks[stage] <= budgets[stage] for stage in peaks), peaks


def test_reading_every_sector_grid_pins_none_of_them():
    # the benchmark's traced decomposition reads s.state.amplitudes of every sector;
    # each state is new and builds its own grid, so the grids come and go one at a time
    probe = build(ProbeSpec("twin-squeezed-vacuum", {"xi": 1.2}, 300))
    sectors = decompose_sectors(probe).sectors
    grids = [stage_memory.grid_bytes(s.cutoff) for s in sectors]
    assert len(sectors) > 80 and sum(grids) > 20 * max(grids)

    def read_every_grid():
        return sum(s.state.amplitudes.nbytes for s in decompose_sectors(probe).sectors)

    read_every_grid()
    own = stage_memory.transient_peak(lambda: decompose_sectors(probe))
    assert stage_memory.transient_peak(read_every_grid) < own + 2 * max(grids)


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
    # every sector n <= 160 of the coherent probe keeps its (n//2+1)^2 block,
    # and each sector n above keeps only the rows k >= n - 160 that the grid
    # holds, 8.0 MiB in all; the full blocks would take 21.2 MiB, and the
    # complete eigenvectors with m >= 0, (n+1)(n//2+1) doubles each, 42.4 MiB
    cache = schwinger._BasisCache(schwinger.BASIS_CACHE_BYTES)
    monkeypatch.setattr(schwinger, "_jx_basis", cache)
    state = build(ProbeSpec("coherent", {"alpha": 8.0}, 160))
    mzi_unitary(state, 0.3)
    assert len(cache._bases) == 321
    assert cache.resident_bytes <= 8.5 * 2**20
    assert all(block.base is None for _, block in cache._bases.values())


def test_a_split_fixed_n_build_takes_o_n_and_no_basis_block(monkeypatch):
    # twin-fock n = 2000 is one eigenvector of sector 4000, about 73 bytes a cell at
    # its peak; the Jx basis of that sector alone would take 2001^2 doubles, 32 MB
    cache = schwinger._BasisCache(schwinger.BASIS_CACHE_BYTES)
    monkeypatch.setattr(schwinger, "_jx_basis", cache)
    peak = stage_memory.transient_peak(lambda: build(ProbeSpec("twin-fock", {"n": 2000})))
    assert peak < 128 * 4001
    assert cache.misses == 0 and not cache._bases
