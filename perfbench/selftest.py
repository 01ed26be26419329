"""Self-test of the benchmark harness at tiny sizes (about 20 seconds).

    python3 perfbench/selftest.py

Runs every workload untraced and traced with shrunken inputs and checks that
each metric named in BENCHMARK.json is emitted with its unit, then plants a
wrong expected value and checks that the affected requests count as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

run.pin_blas_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

run.SETUP_SAMPLES = 1
run.IMPORT_SAMPLES = 1
workloads.CLI_FAMILIES = ("noon", "coherent")
workloads.CLI_FIXED = (["sweep", "--family", "coherent", "--nbar", "1,2"],)
workloads.HIGHCUT_TARGETS = (("twin-squeezed-vacuum", 1.0), ("amplified-bell", 2.0))
workloads.FRINGE_FAMILIES = ("noon", "twin-fock")
workloads.FRINGE_NS = (4,)
workloads.FRINGE_COHERENT = ((2.0, 32),)
workloads.FRINGE_PHASES = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def bench_run(workload: str, trace: int):
    """One in-process benchmark run: (last-line result, result file record)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    expect(code == 0, f"{workload} trace {trace} exited {code}")
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    record = json.loads((run.OUT / f"{workload}-seed7-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record = bench_run(workload["name"], trace)
            expect(result["correct"], f"{workload['name']} trace {trace}: {record}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in listed}
            expect(emitted == wanted, f"{workload['name']} trace {trace}: {emitted} != {wanted}")
            for key in ("nproc", "blas", "python", "numpy", "scipy", "git_commit", "seed",
                        "tail_quantile", "traced_vs_untraced_gap"):
                expect(key in record["provenance"], f"provenance lacks {key}")
            print(f"ok   {workload['name']} trace {trace}: {len(emitted)} metrics")

    real_row = checks._catalog_row

    def wrong_row(family):
        row = real_row(family)
        return dataclasses.replace(row, exact=True, qfi=lambda n: row.qfi(n) + 1.0)

    checks._catalog_row = wrong_row
    try:
        result, record = bench_run("squeezed-highcut", 0)
    finally:
        checks._catalog_row = real_row
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"planted wrong value not caught: {result}")
    expect(record["failed_share"] == 1.0 and record["failures_by_reason"].get("wrong-value"),
           f"planted wrong value not tallied: {record['failures_by_reason']}")
    print("ok   planted wrong expected value counted in failed_share")
    return 0


if __name__ == "__main__":
    sys.exit(main())
