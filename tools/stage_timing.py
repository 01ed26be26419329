"""Print the in-process time of each public stage, for a fixed list of probes.

For every probe and stage it prints one line:

    probe cutoff stage microseconds

the least time of one call over ``REPEATS`` batches, each of as many calls
as fill about ``BATCH_SECONDS``. The stages are those of
``tools/stage_memory.py``, set up the same way: each is called once before
it is timed, so what a first call fills, such as the rotation's Jx bases
and plan, is not counted, and the stages that take the number moments run
each call on a fresh copy of their state, made before the batch. Two
more stages follow them:

- ``fringe_point``: ``analyze(mzi_unitary(probe, phi))`` at a new phase
  each call, on the probe planned once, a point of a fringe scan;
- ``rotation_new_axis``: ``apply_rotation`` of the planned probe about a
  new random axis each call, so each projects the probe afresh.

The probes of ``SECTOR_PROBES``, the squeezed probes with the most kept
sectors, time ``SECTOR_STAGES`` alone: ``build``, ``analyze``,
``schmidt`` and the stages of the sector path, the last of them
``sector_path``, the whole path as
``tools/stage_memory.py`` runs it: ``decompose_sectors`` and every kept
sector's ``state`` and ``particle_moments``. Work that moves between
``decompose_sectors`` and ``sector_states`` shows there as what it costs in
all.

A last line times the package itself: ``import_cli``, the least wall time of
``import mzi_qfi.cli`` after numpy over ``IMPORT_RUNS`` fresh interpreters,
the start-up that every CLI process pays. Each root's interpreters keep their
bytecode under a temporary ``PYTHONPYCACHEPREFIX`` of their own, filled by
one untimed import, so the timed ones load compiled modules however
``PYTHONDONTWRITEBYTECODE`` is set, and nothing is written into the checkout.

With no argument it times this checkout's ``src/`` in this process. With
the roots of one or more checkouts, it times each in a child process of its
own, alternating between them for ``ROUNDS`` rounds and keeping each
stage's least time, and prints one column per root and, for two, their
ratio:

    python3 tools/stage_timing.py
    python3 tools/stage_timing.py /path/to/parent .
    python3 tools/stage_timing.py --bench BENCH_46.json /path/to/parent .

With ``--bench`` and its path first, it also writes what it printed as a
JSON document there (:func:`bench_document`): each root's commit and a
SHA-256 of its ``src/``, the machine's and interpreter's versions, and each
stage's least time under every root.

The probe and stage lists are this checkout's, whichever ``src/`` runs
them. Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) on a shared
machine, as the timings are of single calls.
"""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

_SPEC = importlib.util.spec_from_file_location(
    "stage_memory", Path(__file__).resolve().with_name("stage_memory.py"))
stage_memory = importlib.util.module_from_spec(_SPEC)  # the sibling script, not a package
_SPEC.loader.exec_module(stage_memory)

ROOT = stage_memory.ROOT

#: (label, family, native parameters, explicit cutoff or None).
PROBES = (
    ("twin-fock n=128", "twin-fock", {"n": 128}, None),
    ("twin-fock n=200", "twin-fock", {"n": 200}, None),
    ("coherent alpha=8", "coherent", {"alpha": 8.0}, 160),
)

#: Probes of the sector path: ``--nbar 20``, ``--nbar 40`` and ``--nbar 40`` at the
#: cutoffs their solved parameters take under a ceiling of 1300, where 314, 599
#: and 342 sectors are kept and the sector path costs more than ``analyze``. A
#: rotation moves their weight past the cutoff, so only ``SECTOR_STAGES`` are timed.
SECTOR_PROBES = (
    ("tsv nbar=20", "twin-squeezed-vacuum", {"xi": 1.868551121099462}, 642),
    ("tmsv nbar=40", "two-mode-squeezed-vacuum", {"chi": 2.203285246538488}, 660),
    ("amp-bell nbar=40", "amplified-bell", {"xi": 1.8564883255866973}, 699),
)
SECTOR_STAGES = ("build", "analyze", "decompose_sectors", "build_report", "schmidt",
                 "sector_states", "sector_path")

STAGES = stage_memory.STAGES + ("fringe_point", "rotation_new_axis")

#: Batches per stage, and the seconds one batch should take at least.
REPEATS = 15
BATCH_SECONDS = 5e-3

#: Alternating rounds of child processes, one per root each, when roots are given.
ROUNDS = 3

#: Fresh interpreters of one ``import_cli`` timing, of which the least counts.
IMPORT_RUNS = 10

IMPORT_SNIPPET = ("import time, numpy; start = time.perf_counter(); import mzi_qfi.cli; "
                  "stop = time.perf_counter(); import os, sys; "
                  "print(stop - start, all(os.path.exists(m.__cached__) for name, m in "
                  "sys.modules.items() if name.split('.')[0] == 'mzi_qfi'))")


def least_time(call: Callable[[], object], prepare: Callable[[int], None],
               repeats: int = REPEATS) -> float:
    """Seconds of one ``call()``, the least over ``repeats`` batches.

    ``prepare(count)`` runs untimed before each batch of ``count`` calls, to
    make what they use up.
    """
    prepare(1)
    start = time.perf_counter()
    call()  # fills what a first call fills, and sizes the batches
    count = max(1, min(1000, int(BATCH_SECONDS / max(time.perf_counter() - start, 1e-9))))
    best = math.inf
    for _ in range(repeats):
        prepare(count)
        start = time.perf_counter()
        for _ in range(count):
            call()
        best = min(best, (time.perf_counter() - start) / count)
    return best


def stage_times(family: str, params: dict, cutoff, repeats: int = REPEATS,
                stages: Sequence[str] = STAGES) -> Tuple[int, Dict[str, float]]:
    """The probe's cutoff and the seconds of one call of each of ``stages``, in their order."""
    import numpy as np

    import mzi_qfi

    spec = mzi_qfi.ProbeSpec(family, params, cutoff)
    state = mzi_qfi.build(spec)
    # the fringe point of the stages that read one
    rotated = mzi_qfi.mzi_unitary(state, 0.3) if any("rotated" in s for s in stages) else None
    decomposed = mzi_qfi.decompose_sectors(state)
    rng = np.random.default_rng(7)
    phases = itertools.cycle(rng.uniform(-3.0, 3.0, 4096).tolist())
    axes = itertools.cycle([tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(4096, 3))])
    pool: List = []  # the states a batch pops, made before it

    def copies(source) -> Callable[[int], None]:
        return lambda count: pool.extend(stage_memory.fresh_copy(source) for _ in range(count))

    def grids(count: int) -> None:
        pool.extend(mzi_qfi.FockState(state.amplitudes.copy(), state.cutoff) for _ in range(count))

    def nothing(count: int) -> None:
        pool.clear()

    calls = {
        "build": (lambda: mzi_qfi.build(spec), nothing),
        "analyze": (lambda: mzi_qfi.analyze(pool.pop()), copies(state)),
        "decompose_sectors": (lambda: mzi_qfi.decompose_sectors(state), nothing),
        "qfi_variance": (lambda: mzi_qfi.qfi_variance(pool.pop()), copies(state)),
        "qfi_fidelity": (lambda: mzi_qfi.qfi_fidelity(state), nothing),
        "build_report": (lambda: mzi_qfi.build_report(pool.pop()), copies(state)),
        "schmidt": (lambda: mzi_qfi.schmidt(state), nothing),
        "phase_shift": (lambda: mzi_qfi.phase_shift(state, 0.3), nothing),
        "mzi_unitary": (lambda: mzi_qfi.mzi_unitary(state, 0.3), nothing),
        "analyze_rotated": (lambda: mzi_qfi.analyze(pool.pop()), copies(rotated)),
        "schmidt_rotated": (lambda: mzi_qfi.schmidt(rotated), nothing),
        "mzi_unitary_cold": (lambda: mzi_qfi.mzi_unitary(pool.pop(), 0.3), grids),
        "sector_states": (lambda: [mzi_qfi.particle_moments(s.state, s.n)
                                   for s in decomposed.sectors if s.n >= 1], nothing),
        "sector_path": (lambda: stage_memory.sector_path(state), nothing),
        "fringe_point": (lambda: mzi_qfi.analyze(mzi_qfi.mzi_unitary(state, next(phases))),
                         nothing),
        "rotation_new_axis": (lambda: mzi_qfi.apply_rotation(state, next(axes), 0.9), nothing),
    }
    times = {}
    for stage in stages:
        call, prepare = calls[stage]
        times[stage] = least_time(call, prepare, repeats)
        pool.clear()
    return state.cutoff, times


def timed_imports(root: Path, runs: int = IMPORT_RUNS) -> List[Tuple[float, bool]]:
    """Seconds of ``import mzi_qfi.cli`` after numpy in each of ``runs`` fresh interpreters of
    ``root/src``, and whether every ``mzi_qfi`` module had its bytecode cached before it.

    The interpreters share a temporary ``PYTHONPYCACHEPREFIX``, which one untimed import
    with bytecode writing on fills first; the timed ones write none.
    """
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=prefix)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        run = [sys.executable, "-c", IMPORT_SNIPPET]
        subprocess.run(run, env=env, check=True, capture_output=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        outs = [subprocess.run(run, env=env, check=True, capture_output=True, text=True).stdout
                for _ in range(runs)]
    return [(float(seconds), compiled == "True") for seconds, compiled in map(str.split, outs)]


def import_seconds(root: Path, runs: int = IMPORT_RUNS) -> float:
    """Least seconds of ``import mzi_qfi.cli`` after numpy, over ``runs`` fresh interpreters
    of ``root/src`` that load it compiled (:func:`timed_imports`)."""
    return min(seconds for seconds, _ in timed_imports(root, runs))


def measure(root: Path, repeats: int = REPEATS) -> List[Tuple[str, int, str, float]]:
    """(probe, cutoff, stage, seconds) of every probe and stage, in the imported ``src/``,
    then the ``import_cli`` line of ``root``, whose ``src/`` that is."""
    rows = []
    for probes, stages in ((PROBES, STAGES), (SECTOR_PROBES, SECTOR_STAGES)):
        for label, family, params, cutoff in probes:
            chosen, times = stage_times(family, params, cutoff, repeats, stages)
            rows += [(label, chosen, stage, seconds) for stage, seconds in times.items()]
    return rows + [("package", 0, "import_cli", import_seconds(root))]


def _child(root: Path) -> List[Tuple[str, int, str, float]]:
    """:func:`measure` of ``root``'s ``src/``, in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, "--json", str(root)], check=True,
                         capture_output=True, text=True).stdout
    return [tuple(row) for row in json.loads(out)]


def source_identity(root: Path) -> Dict[str, object]:
    """The commit of ``root`` (None outside a git checkout), whether its ``src/`` differs from
    that commit, and a SHA-256 of its ``src/**/*.py``, paths and bytes, in path order."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    commit = head.stdout.strip() if head.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit,
            "src_changed": None if commit is None else bool(git("status", "--porcelain",
                                                                "src").stdout.strip()),
            "src_sha256": digest.hexdigest()}


def bench_document(roots: Sequence[Path],
                   best: Dict[Tuple[str, int, str], List[float]]) -> Dict[str, object]:
    """The least times ``best`` of each (probe, cutoff, stage) under each of ``roots``, with
    what they were measured on, as one JSON-ready document."""
    import numpy as np

    rows = [{"probe": label, "cutoff": chosen, "stage": stage,
             "us": [round(seconds * 1e6, 1) for seconds in times],
             **({"ratio": round(times[1] / times[0], 3)} if len(times) == 2 else {})}
            for (label, chosen, stage), times in best.items()]
    return {
        "tool": "tools/stage_timing.py",
        "statistic": (f"least time of one call over {REPEATS} batches in each child process, "
                      f"least over {ROUNDS} rounds of children alternating between the roots"),
        "roots": [source_identity(root) for root in roots],
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "stages": rows,
    }


def main(args: Sequence[str]) -> int:
    if args[:1] == ["--json"]:  # a child: one root, timed in this process
        stage_memory._import_from(Path(args[1]))
        print(json.dumps(measure(Path(args[1]))))
        return 0
    if not args:
        stage_memory._import_from(ROOT)
        for label, chosen, stage, seconds in measure(ROOT):
            print(f"{label:<18} {chosen:>6} {stage:<18} {seconds * 1e6:12.1f}")
        return 0
    bench = args[1] if args[:1] == ["--bench"] else None
    roots = [Path(arg).resolve() for arg in (args[2:] if bench else args)]
    best: Dict[Tuple[str, int, str], List[float]] = {}
    for _ in range(ROUNDS):
        for i, root in enumerate(roots):
            for label, chosen, stage, seconds in _child(root):
                times = best.setdefault((label, chosen, stage), [math.inf] * len(roots))
                times[i] = min(times[i], seconds)
    for (label, chosen, stage), times in best.items():
        columns = " ".join(f"{seconds * 1e6:12.1f}" for seconds in times)
        ratio = f" {times[1] / times[0]:6.2f}" if len(times) == 2 else ""
        print(f"{label:<18} {chosen:>6} {stage:<18} {columns}{ratio}")
    if bench:
        with open(bench, "w") as handle:
            json.dump(bench_document(roots, best), handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
