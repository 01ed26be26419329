"""The benchmark's three workloads and the requests they issue.

Each workload draws its rounds of requests from the run's seeded RNG and
knows how to serve one request, untraced or through a
:class:`tracer.Tracer`. ``round_seconds`` is how long one round takes on a
2-core x86-64 VM with one BLAS thread; it turns ``--seconds`` into a
whole number of rounds, so every run of a workload does the same work. The
load generator is a closed loop with one client: the next request starts
when the previous one has finished.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

import mzi_qfi
from mzi_qfi import cli, serialize

import checks
from tracer import Tracer

#: Jitter applied to each nbar target. Each target runs twice per round, at
#: nbar (1 - d) and nbar (1 + d) with d drawn from this range, so every seed
#: does nearly the same total work while the inputs still move with the seed.
JITTER = (0.04, 0.05)

CLI_FAMILIES = (
    "twin-squeezed-vacuum", "twin-fock", "entangled-coherent", "noon", "amplified-bell",
    "fraternal-twin-fock", "coherent", "separable-coherent-probe",
    "two-mode-squeezed-vacuum", "fock-pair",
)
CLI_FIXED = (
    ["table1"],
    ["sweep", "--family", "coherent", "--nbar", "1,2,4,8"],
    ["sweep", "--family", "tsv", "--nbar", "2,4,8"],  # 8 is past the default ceiling
)

HIGHCUT_CEILING = "2048"
HIGHCUT_TARGETS = (
    ("twin-squeezed-vacuum", 5.0), ("twin-squeezed-vacuum", 10.0),
    ("twin-squeezed-vacuum", 15.0),
    ("two-mode-squeezed-vacuum", 10.0), ("two-mode-squeezed-vacuum", 20.0),
    ("amplified-bell", 10.0), ("amplified-bell", 20.0), ("amplified-bell", 40.0),
)

FRINGE_FAMILIES = ("twin-fock", "fraternal-twin-fock", "noon", "separable-coherent-probe",
                   "fock-pair")
FRINGE_NS = (8, 32, 64, 128, 200)
#: Coherent probes with an explicit cutoff that leaves no weight above it.
FRINGE_COHERENT = ((4.0, 64), (8.0, 160))
FRINGE_PHASES = 33
FRINGE_ROTATIONS = 3


@dataclass
class Outcome:
    """One served request: its latency and why it failed, if it did."""

    request: object
    latency: float
    reasons: List[str] = field(default_factory=list)
    expected_defect: bool = False  # route disagreement known at this package version

    @property
    def unexpected(self) -> bool:
        if not self.reasons:
            return False
        return not (self.expected_defect and self.reasons == ["route-disagreement"])


def jittered(rng: np.random.Generator, targets):
    out = []
    for family, nbar in targets:
        d = rng.uniform(*JITTER)
        out += [(family, nbar * (1 - d)), (family, nbar * (1 + d))]
    return out


# ---------------------------------------------------------------------------
# layer calls, plain or traced
# ---------------------------------------------------------------------------


def _count_build(tracer, args, state):
    tracer.note_max("states.cutoff_max", state.cutoff)
    tracer.counts["states.grid_bytes"] += state.amplitudes.nbytes


def _count_decompose(tracer, args, decomposition):
    tracer.counts["particle.sectors"] += len(decomposition.sectors)
    tracer.counts["particle.sector_bytes"] += sum(
        s.state.amplitudes.nbytes for s in decomposition.sectors)


def _count_report(tracer, args, report):
    tracer.counts["qfi.route_disagreements"] += not report.routes_consistent


def _count_rotation(tracer, args, result):
    state = args[0]
    j, k = np.nonzero(state.amplitudes)
    tracer.counts["schwinger.rotations"] += 1
    tracer.counts["schwinger.sector_blocks"] += len(np.unique(j + k))


def _count_calls(name):
    def count(tracer, args, result):
        tracer.counts[name] += 1
    return count


def _count_doc(tracer, args, text):
    tracer.counts["serialize.doc_bytes"] += len(text.encode())


#: span name -> (public function, exact work counter)
LAYERS = {
    "states.solve": (mzi_qfi.solve_param_for_nbar, None),
    "states.build": (mzi_qfi.build, _count_build),
    "coherence.analyze": (mzi_qfi.analyze, _count_calls("coherence.calls")),
    "particle.decompose": (mzi_qfi.decompose_sectors, _count_decompose),
    "qfi.build_report": (mzi_qfi.build_report, _count_report),
    "qfi.variance": (mzi_qfi.qfi_variance, None),
    "qfi.fidelity": (mzi_qfi.qfi_fidelity, None),
    "entanglement.schmidt": (mzi_qfi.schmidt, None),
    "particle.moments": (mzi_qfi.particle_moments, _count_calls("particle.moments_calls")),
    "schwinger.mzi_unitary": (mzi_qfi.mzi_unitary, _count_rotation),
    "schwinger.apply_rotation": (mzi_qfi.apply_rotation, _count_rotation),
    "serialize.canonical_json": (serialize.canonical_json, _count_doc),
}


def layers(tracer: Optional[Tracer]) -> SimpleNamespace:
    """Attribute access to each layer function, wrapped in spans when traced."""
    return SimpleNamespace(**{
        fn.__name__: fn if tracer is None else tracer.wrap(name, fn, count)
        for name, (fn, count) in LAYERS.items()
    })


def _timed(tracer: Optional[Tracer], request_id: int, serve):
    """Run ``serve()`` as one request; returns (latency, reasons, result)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            reasons, result = serve()
        else:
            tracer.request = request_id
            with tracer.span("request"):
                reasons, result = serve()
    except Exception:  # a failed request is tallied; the run goes on
        traceback.print_exc()
        reasons, result = ["error-exit"], None
    return time.perf_counter() - start, reasons, result


def analysis_report(L, state, info: dict):
    """What ``mzi-qfi analyze`` does after building the probe, in the same order."""
    coherence = L.analyze(state)
    decomposition = L.decompose_sectors(state)
    report = L.build_report(state, coherence, decomposition)
    entanglement = L.schmidt(state)
    sectors = [
        {"n": s.n, "weight": s.weight,
         "particle": L.particle_moments(s.state, s.n).as_dict() if s.n >= 1 else None}
        for s in decomposition.sectors
    ]
    doc = {
        "probe": dict(info, cutoff=state.cutoff, nbar=coherence.nbar),
        "coherence": coherence.as_dict(),
        "qfi": report.as_dict(),
        "mode_entanglement": entanglement.as_dict(),
        "sectors": {"weights_sum": decomposition.weights_sum, "sectors": sectors},
    }
    L.canonical_json(doc)
    return coherence, decomposition, report


def _route_split(L, tracer: Optional[Tracer], state) -> None:
    """Traced runs only: the two route functions alone, outside the request span."""
    if tracer is not None:
        L.qfi_variance(state)
        L.qfi_fidelity(state)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SqueezedHighcut:
    """Squeezed probes solved from nbar at cutoffs of about 180-700."""

    name = "squeezed-highcut"
    round_seconds = 37.0

    def __init__(self, root: Path, rng: np.random.Generator) -> None:
        os.environ["MZI_QFI_CUTOFF_CEILING"] = HIGHCUT_CEILING
        self.rng = rng

    def round(self):
        requests = jittered(self.rng, HIGHCUT_TARGETS)
        self.rng.shuffle(requests)
        return requests

    def warm_up(self) -> None:
        # nothing here is cached between requests; one small request loads lazy imports
        self.serve(("twin-squeezed-vacuum", 1.0), None, 0)

    def serve(self, request, tracer: Optional[Tracer], request_id: int) -> Outcome:
        family, target = request
        L = layers(tracer)

        def serve():
            params, _ = L.solve_param_for_nbar(family, target)
            state = L.build(mzi_qfi.ProbeSpec(family, params))
            coherence, decomposition, report = analysis_report(
                L, state, {"family": family, "nbar_target": target})
            return checks.report_reasons(
                family, coherence.nbar, report.f_variance, report.routes_consistent,
                decomposition.weights_sum, target), state

        latency, reasons, state = _timed(tracer, request_id, serve)
        if state is not None:
            _route_split(L, tracer, state)
        return Outcome(request, latency, reasons)


class FixedNFringe:
    """Fixed-photon-number probes from their native n, then a fringe scan."""

    name = "fixed-n-fringe"
    round_seconds = 10.5

    def __init__(self, root: Path, rng: np.random.Generator) -> None:
        os.environ.pop("MZI_QFI_CUTOFF_CEILING", None)
        self.rng = rng

    def round(self):
        # A fixed order: the package's rotation cache is a bounded LRU, so the
        # order decides which eigendecompositions stay resident, and with them
        # peak memory and which scans run warm. The seed moves only the phases
        # and rotation axes.
        requests = [(f, {"n": n}, None) for n in FRINGE_NS for f in FRINGE_FAMILIES]
        return requests + [("coherent", {"alpha": a}, c) for a, c in FRINGE_COHERENT]

    def warm_up(self) -> None:
        # fills the Y-axis sector eigendecompositions the fringe scans reuse
        for request in self.round():
            self.serve(request, None, 0)

    def serve(self, request, tracer: Optional[Tracer], request_id: int) -> Outcome:
        family, params, cutoff = request
        L = layers(tracer)
        # drawn per call, so every rotation direction is new to the package's caches
        offset = self.rng.uniform()
        directions = self.rng.normal(size=(FRINGE_ROTATIONS, 3))
        angles = self.rng.uniform(0.1, math.pi, size=FRINGE_ROTATIONS)

        def serve():
            state = L.build(mzi_qfi.ProbeSpec(family, params, cutoff))
            coherence, decomposition, report = analysis_report(
                L, state, {"family": family, "params": params})
            reasons = checks.report_reasons(
                family, coherence.nbar, report.f_variance, report.routes_consistent,
                decomposition.weights_sum)
            nbar_tol = 1e-9 * (1.0 + coherence.nbar)
            for i in range(FRINGE_PHASES):
                scanned = L.analyze(L.mzi_unitary(state, math.pi * (i + offset) / FRINGE_PHASES))
                if abs(scanned.nbar - coherence.nbar) > nbar_tol:
                    reasons.append("wrong-value")
            for v, angle in zip(directions, angles):
                rotated = L.apply_rotation(state, tuple(v / np.linalg.norm(v)), angle)
                if abs(_photon_number(rotated) - coherence.nbar) > nbar_tol:
                    reasons.append("wrong-value")
            return sorted(set(reasons)), state

        latency, reasons, state = _timed(tracer, request_id, serve)
        if state is not None:
            _route_split(L, tracer, state)
        known = checks.known_route_defect(family, params.get("n"))
        return Outcome(request, latency, reasons, known)


def _photon_number(state) -> float:
    probabilities = np.abs(state.amplitudes) ** 2
    levels = np.arange(state.dim)
    return float(probabilities.sum(axis=1) @ levels + probabilities.sum(axis=0) @ levels)


class CliCold:
    """Fresh ``python -m mzi_qfi.cli`` processes: import, argparse, serialization."""

    name = "cli-cold"
    round_seconds = 21.0
    #: Traced runs call ``cli.main`` in this process, where spans can see its layers.
    in_process = False

    def __init__(self, root: Path, rng: np.random.Generator) -> None:
        os.environ.pop("MZI_QFI_CUTOFF_CEILING", None)
        self.rng = rng
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = root / "perfbench" / "out" / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.outputs = {}  # argv -> output of its first invocation in this run

    def round(self):
        requests = [["analyze", "--family", f, "--nbar", repr(nbar)]
                    for f, nbar in jittered(self.rng, [(f, 4.0) for f in CLI_FAMILIES])]
        requests += [list(argv) for argv in CLI_FIXED for _ in range(2)]
        return [requests[i] for i in self.rng.permutation(len(requests))]

    def warm_up(self) -> None:
        # a fresh interpreter per request carries nothing over; in process, it would
        if self.in_process:
            for request in self.round():
                self.serve(request, None, 0)

    def serve(self, argv, tracer: Optional[Tracer], request_id: int) -> Outcome:
        if self.in_process:
            latency, code, text = self._serve_in_process(argv, tracer, request_id)
        else:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "mzi_qfi.cli", *argv],
                                  env=self.env, capture_output=True, text=True)
            latency = time.perf_counter() - start
            code, text = proc.returncode, proc.stdout
        reasons = checks.cli_reasons(argv, code, text)
        previous = self.outputs.setdefault(tuple(argv), text)
        if previous != text:
            reasons.append("nondeterministic")
        return Outcome(argv, latency, reasons)

    def _serve_in_process(self, argv, tracer: Optional[Tracer], request_id: int):
        """``cli.main`` in this process; when traced, its layer calls get spans."""
        out = self.work / f"request-{request_id}.out"
        out.unlink(missing_ok=True)
        argv = [*argv, "--out", str(out)]
        main, saved = cli.main, []
        if tracer is not None:
            L = layers(tracer)
            main = tracer.wrap("cli.main", cli.main)
            saved = [(cli, attr, getattr(cli, attr)) for attr in vars(L) if hasattr(cli, attr)]
            saved.append((serialize, "canonical_json", serialize.canonical_json))
            for module, attr, _ in saved:
                setattr(module, attr, getattr(L, attr))
        try:
            latency, reasons, code = _timed(tracer, request_id, lambda: ([], main(argv)))
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
        code = 1 if reasons else code  # an exception escaped cli.main
        return latency, code, out.read_text() if out.exists() else ""


WORKLOADS = {w.name: w for w in (CliCold, SqueezedHighcut, FixedNFringe)}
