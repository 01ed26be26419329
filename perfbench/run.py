"""Benchmark entry point for the mzi-qfi package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. Untraced runs (``--trace
0``) serve the whole rounds of requests that take about ``--seconds`` on the
reference machine, and report the end-to-end metrics. Traced runs (``--trace 1``) serve one
round with each request served untraced and traced, and report
the per-layer metrics. Every run checks each request's output, prints one
line per metric, writes a result file with provenance under
``perfbench/out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters timed per untraced run for ``setup_s``, spread evenly
#: between the requests so they see the machine as the requests do. This
#: process has imported the package before the first one, which writes the
#: bytecode cache in a new checkout.
SETUP_SAMPLES = 20
#: Fresh interpreters per traced run for the ``setup.import_*`` breakdown.
IMPORT_SAMPLES = 5
# exits without interpreter teardown, which setup_s does not include
SETUP_SNIPPET = ("import os, time; import mzi_qfi.cli; "
                 "print(repr(time.time()), flush=True); os._exit(0)")
IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import mzi_qfi.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

LAYER_TIMES = (
    "cli.main", "serialize.canonical_json", "states.solve", "states.build",
    "particle.decompose", "particle.moments", "entanglement.schmidt", "coherence.analyze",
    "qfi.build_report", "qfi.variance", "qfi.fidelity", "schwinger.mzi_unitary",
    "schwinger.apply_rotation",
)
LAYER_COUNTS = {
    "serialize.doc_bytes": "bytes", "states.cutoff_max": "count",
    "states.grid_bytes": "bytes", "particle.sectors": "count",
    "particle.sector_bytes": "bytes", "particle.moments_calls": "count",
    "coherence.calls": "count", "schwinger.rotations": "count",
    "schwinger.sector_blocks": "count", "qfi.route_disagreements": "count",
}


#: The workloads' BLAS calls are small. On 2 cores, a second OpenBLAS thread
#: left the wall time as it was, doubled the CPU time with its spinning, and
#: widened the run-to-run spread.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin BLAS threads, before numpy is first imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_seconds() -> float:
    """Wall time from spawning a fresh interpreter to ``import mzi_qfi.cli`` done."""
    start = time.time()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=child_env(),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout) - start


def import_breakdown(samples: int) -> dict:
    """Import times of numpy, scipy and the package's own modules, per fresh interpreter."""
    parts = {"setup.import_numpy_s": [], "setup.import_scipy_s": [],
             "setup.import_mzi_qfi_s": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_SNIPPET],
                              env=child_env(), capture_output=True, text=True, check=True)
        numpy_s, package_s = (float(x) for x in proc.stdout.split())
        scipy_us = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and fields[-1].strip().startswith("scipy"):
                scipy_us += int(fields[0].split(":")[1])
        parts["setup.import_numpy_s"].append(numpy_s)
        parts["setup.import_scipy_s"].append(scipy_us * 1e-6)
        parts["setup.import_mzi_qfi_s"].append(package_s - scipy_us * 1e-6)
    return parts


def tail_latency(latencies):
    """Latency at the highest quantile with at least ten samples beyond it.

    Runs with fewer than 40 requests use a quarter of the samples instead of
    ten, so the tail never falls below the median.
    """
    import numpy as np

    n = len(latencies)
    beyond = min(10, n // 4)
    q = 1.0 - beyond / n
    return float(np.quantile(latencies, q)), q


def untraced_run(workload, seconds: float):
    rounds = max(1, round(seconds / workload.round_seconds))
    workload.warm_up()
    requests = [request for _ in range(rounds) for request in workload.round()]
    outcomes, setup = [], []
    elapsed = 0.0
    for i, request in enumerate(requests):
        start = time.perf_counter()
        outcomes.append(workload.serve(request, None, i))
        elapsed += time.perf_counter() - start
        # setup samples go between requests, outside the time that serves them
        while len(setup) < SETUP_SAMPLES * (i + 1) // len(requests):
            setup.append(setup_seconds())
    latencies = [o.latency for o in outcomes]
    tail, q = tail_latency(latencies)
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    n = len(outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "requests_per_s": (n / elapsed, "1/s", n),
        "request_tail_s": (tail, "s", n),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB", 1),
    }
    # Recorded, not bounded: on fixed-n-fringe the median falls in a tight
    # cluster of small requests, and its seed-to-seed spread exceeded any bound.
    extra = {"request_p50_s": statistics.median(latencies), "tail_quantile": q,
             "elapsed_s": elapsed, "rounds": rounds, "setup_samples_s": setup}
    return outcomes, metrics, extra


def traced_run(workload, tracer):
    """Each request of one round served untraced and traced, alternating which
    goes first, so cache warmth favours neither side."""
    workload.warm_up()
    plain, traced = [], []
    for i, request in enumerate(workload.round()):
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                traced.append(workload.serve(request, tracer, 2 * i + 1))
            else:
                plain.append(workload.serve(request, None, 2 * i))
    plain_s = sum(o.latency for o in plain)
    traced_s = sum(o.latency for o in traced)
    n = len(traced)
    self_times = tracer.self_times()
    metrics = {f"{name}_s": (self_times[name], "s", n) for name in LAYER_TIMES}
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (tracer.maxima.get(name, tracer.counts[name]), unit, n)
    metrics["request.uncovered_s"] = (self_times["request"], "s", n)
    gap = 1.0 - plain_s / traced_s
    metrics["trace.overhead_share"] = (gap, "share", n)
    metrics["failed_share"] = (sum(1 for o in traced if o.reasons) / n, "share", n)
    for name, times in import_breakdown(IMPORT_SAMPLES).items():
        metrics[name] = (statistics.median(times), "s", len(times))
    extra = {"request_s": traced_s, "untraced_request_s": plain_s,
             "traced_vs_untraced_gap": gap}
    return plain + traced, metrics, extra


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "squeezed-highcut", "fixed-n-fringe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mzi_qfi" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, np.random.default_rng(args.seed))
    if args.trace:
        tracer = Tracer()
        workload.in_process = True
        outcomes, values, extra = traced_run(workload, tracer)
    else:
        outcomes, values, extra = untraced_run(workload, args.seconds)
    metrics = {name: {"value": v, "unit": unit, "samples": n}
               for name, (v, unit, n) in values.items()}

    tally = Counter(reason for o in outcomes for reason in o.reasons)
    unexpected = sum(1 for o in outcomes if o.unexpected)
    failed_any = sum(1 for o in outcomes if o.reasons)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": dict(provenance(args.seed, threads),
                           tail_quantile=extra.pop("tail_quantile", None),
                           traced_vs_untraced_gap=extra.pop("traced_vs_untraced_gap", None)),
        "attempted": len(outcomes), "failed": failed_any, "unexpected_failures": unexpected,
        "failed_share": failed_any / len(outcomes), "failures_by_reason": dict(tally),
        "requests": [[repr(o.request), o.latency, o.reasons] for o in outcomes],
        "metrics": metrics, **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json")

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:<22.10g} {m['unit']:6s} samples={m['samples']}")
    print(f"failed_share {record['failed_share']:.4f} of {len(outcomes)} requests; "
          f"by reason {dict(tally)}; unexpected {unexpected}")
    if "request_p50_s" in extra:
        print(f"request_p50_s {extra['request_p50_s']:.10g} s (recorded, not bounded); "
              f"request_tail_s is the q={record['provenance']['tail_quantile']:.4f} quantile")
    print(f"result file {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(outcomes),
        "failed": unexpected,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
