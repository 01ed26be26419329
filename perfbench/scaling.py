"""Cutoff-scaling report: each stage's time against the per-mode cutoff.

    python3 perfbench/scaling.py

Twin squeezed vacuum probes are built with automatic cutoffs on a geometric
grid from 16 up to ``MAX_CUTOFF``; every stage is timed at each point (the
median of up to three calls) and its log-log slope against the cutoff is
fitted, which backs (or refutes) the O(c^2) and O(c^3) cost claims. A stage
stops before its computed peak memory passes ``MEMORY_BUDGET`` and the cutoff
where it stopped is recorded.
``apply_rotation`` needs a grid with no weight above its cutoff, so it rotates
the probe padded to twice its cutoff and is plotted against that cutoff.
Every rotation is about a new axis, so every timed call misses the package's
sector eigenvector cache.
Writes ``perfbench/out/scaling.json`` and prints one line per stage.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import sys
import time

import run

FAMILY = "twin-squeezed-vacuum"
MAX_CUTOFF = 1024
MEMORY_BUDGET = 2 * 2**30
#: Points below this cutoff are dominated by call overhead and left out of fits.
FIT_MIN_CUTOFF = 64
#: Each stage is timed this many times per point, or fewer once it has run for
#: REPEAT_BUDGET_S; the median is kept.
REPEATS = 3
REPEAT_BUDGET_S = 1.0
BYTES_PER_AMPLITUDE = 16


def sector_bytes(state, floor: float) -> float:
    """Bytes of the square sector blocks whose weight exceeds ``floor``: what
    ``decompose_sectors`` allocates (floor 1e-14) or what a rotation caches as
    eigenvectors (floor 0)."""
    import numpy as np

    dim = state.cutoff + 1
    totals = np.add.outer(np.arange(dim), np.arange(dim)).ravel()
    weights = np.bincount(totals, weights=(np.abs(state.amplitudes) ** 2).ravel())
    sizes = np.minimum(np.flatnonzero(weights > floor), state.cutoff) + 1
    return float(np.sum(sizes.astype(float) ** 2)) * BYTES_PER_AMPLITUDE


def xi_for_cutoff(cutoff: int) -> float:
    # the squeezed-vacuum tail falls like tanh(xi)^c; aim it at the 1e-14 loss target
    return math.atanh(math.exp(math.log(1e-14) / cutoff))


def main() -> int:
    threads = run.pin_blas_threads()
    os.environ["MZI_QFI_CUTOFF_CEILING"] = str(4 * MAX_CUTOFF)
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    import mzi_qfi

    axes = itertools.count(1)

    def rotate_cold(state):
        # a new axis on every call: the cache is keyed by axis, so this misses it
        t = 0.1 * next(axes)
        return mzi_qfi.apply_rotation(state, (math.cos(t), 0.0, math.sin(t)), 0.9)

    points = {}
    stopped = {}

    def timed(stage, cutoff, peak_bytes, fn, *fn_args):
        if stage in stopped:
            return None
        if peak_bytes > MEMORY_BUDGET:
            stopped[stage] = {"cutoff": cutoff, "computed_peak_bytes": int(peak_bytes)}
            return None
        times = []
        while len(times) < REPEATS and sum(times) < REPEAT_BUDGET_S:
            start = time.perf_counter()
            result = fn(*fn_args)
            times.append(time.perf_counter() - start)
        points.setdefault(stage, []).append((cutoff, statistics.median(times)))
        return result

    for step in range(int(2 * math.log2(MAX_CUTOFF / 16)) + 1):
        # a geometric grid of ratio sqrt(2)
        state_spec = mzi_qfi.ProbeSpec(FAMILY, {"xi": xi_for_cutoff(16 * 2 ** (step / 2))})
        state = mzi_qfi.build(state_spec)
        c = state.cutoff
        grid = state.amplitudes.nbytes
        sectors = sector_bytes(state, 1e-14)
        nbar = mzi_qfi.analyze(state).nbar
        timed("solve", c, 4 * grid, mzi_qfi.solve_param_for_nbar, FAMILY, nbar)
        timed("build", c, 4 * grid, mzi_qfi.build, state_spec)
        coherence = timed("analyze", c, 4 * grid, mzi_qfi.analyze, state)
        timed("qfi_variance", c, 4 * grid, mzi_qfi.qfi_variance, state)
        timed("qfi_fidelity", c, 4 * grid, mzi_qfi.qfi_fidelity, state)
        timed("schmidt", c, 3 * grid, mzi_qfi.schmidt, state)
        decomposition = timed("decompose_sectors", c, grid + sectors,
                              mzi_qfi.decompose_sectors, state)
        if decomposition is None:
            stopped.setdefault("particle_moments", stopped["decompose_sectors"])
            stopped.setdefault("build_report", stopped["decompose_sectors"])
        else:
            timed("particle_moments", c, grid + 2 * sectors,
                  lambda: [mzi_qfi.particle_moments(s.state, s.n)
                           for s in decomposition.sectors if s.n >= 1])
            timed("build_report", c, grid + 2 * sectors,
                  mzi_qfi.build_report, state, coherence, decomposition)
        del decomposition
        padded = mzi_qfi.pad_to(state, 2 * c)
        # Peak: the grids, this call's sector eigenvectors (which the package
        # caches), their working copies, and what earlier calls left in the
        # cache: at most about as much again, as earlier cutoffs are smaller.
        timed("apply_rotation", padded.cutoff,
              4 * padded.amplitudes.nbytes + 3 * sector_bytes(padded, 0.0),
              rotate_cold, padded)
        print(f"cutoff {c}: done", file=sys.stderr, flush=True)

    stages = {}
    for stage, series in points.items():
        fit = [(c, t) for c, t in series if c >= FIT_MIN_CUTOFF]
        slope = None
        if len(fit) >= 2:
            xs, ys = zip(*fit)
            slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
        stages[stage] = {"slope": slope, "points": series, "stopped": stopped.get(stage)}
        stop = stopped.get(stage)
        where = f"stopped before cutoff {stop['cutoff']}" if stop else "ran every point"
        shown = "n/a" if slope is None else f"{slope:.2f}"
        print(f"{stage:18s} slope {shown:>5s}  up to cutoff {series[-1][0]:5d}  {where}")
    record = {"provenance": run.provenance(None, threads), "family": FAMILY,
              "fit_min_cutoff": FIT_MIN_CUTOFF, "memory_budget_bytes": MEMORY_BUDGET,
              "stages": stages}
    run.OUT.mkdir(parents=True, exist_ok=True)
    path = run.OUT / "scaling.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"result file {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
