"""Digest the CLI's output over a fixed list of invocations, one fresh process each.

Prints one line per invocation:

    sha256(stdout) sha256(stderr) exit-code argv

so that two checkouts print the same bytes exactly when their CLIs do:

    python3 tools/cli_digest.py > change.txt
    python3 tools/cli_digest.py /path/to/other/checkout > other.txt
    diff other.txt change.txt

The optional argument is the root of the checkout whose ``src/`` is run; by
default it is this one. The invocation list is this checkout's, whichever
``src/`` runs it. It covers every family and alias from ``--nbar``, the
fixed-n families from ``--n``, explicit cutoffs, ``table1`` in each format,
the ``cli-cold`` benchmark's sweeps, raised cutoff ceilings, a noon sweep
in csv and json up to n = 20000, probes at the edges of the route-agreement
rule (near the vacuum, near one sector, and fixed n far past the default
ceiling, noon n = 100000 among them), the three probes with the widest
sector documents (tsv at nbar 20, tmsv and amplified-bell at nbar 40, under
a ceiling of 1300), the three split fixed-n families at
n = 20000, each built from one Jx eigenvector of a sector whose whole Jx
basis would take 3 GB, six state files read with
``--state-file``, one of them a hair past shot noise, one so faint that
nbar^2 underflows, and two so faint that the fidelity route's products
underflow, the state files that ``--dump-state`` writes of tsv, tmsv and
amplified-bell at nbar 4 and, under a ceiling of 1300, at nbar 10, cutoffs
and photon
numbers whose arrays numpy refuses to allocate, an entangled-coherent target
whose double overflows a float, and every usage error of ``analyze`` and
``table1`` in ``tests/test_cli.py``. No invocation exits 2, so a change
that makes two routes disagree moves an exit code. Each state file is
written to a new temporary directory for each run, from the document its
placeholder names in ``STATE_DOCUMENTS``; its path is that placeholder in
the printed command line and in the digested output. A state file is the
one output that prints every amplitude's ``re`` and ``im``, signed zeros
included, so a run that dumps one, to ``DUMP_FILE`` in the command line,
digests the file's bytes after its stdout.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

FAMILIES = (
    "twin-squeezed-vacuum", "twin-fock", "entangled-coherent", "noon", "amplified-bell",
    "fraternal-twin-fock", "coherent", "separable-coherent-probe",
    "two-mode-squeezed-vacuum", "fock-pair",
)
ALIASES = ("tsv", "tmsv", "ecs")
FIXED_N = ("twin-fock", "noon", "fraternal-twin-fock", "separable-coherent-probe", "fock-pair")
#: A native parameter of every family, small enough for a cutoff of 3 to hold some of it.
NATIVE = {
    "twin-squeezed-vacuum": ["--xi", "0.3"], "entangled-coherent": ["--alpha", "1"],
    "amplified-bell": ["--xi", "0.3"], "coherent": ["--alpha", "1"],
    "two-mode-squeezed-vacuum": ["--chi", "0.3"],
    **{family: ["--n", "2"] for family in FIXED_N},
}
SWEEPS = (
    ["sweep", "--family", "coherent", "--nbar", "1,2,4,8"],
    ["sweep", "--family", "tsv", "--nbar", "2,4,8"],
)
CEILINGS = ("1024", "2048")
#: A sweep of noon up to n = 20000, where the default fidelity step must keep h max|d|
#: at 0.02: a floor of 1e-5 under it would put row 20000 at 0.2, past its allowance.
WIDE_NOON_SWEEP = ({}, ["sweep", "--family", "noon", "--nbar", "10000,20000"])
#: Probes whose routes agree within each route's round-off: several sectors near
#: the vacuum or near one sector, and fixed n with <N^2> far above F.
ROUTE_EDGES = (
    *[({}, ["analyze", "--family", name, "--nbar", "1e-9"]) for name in ("tsv", "ecs", "tmsv")],
    ({}, ["analyze", "--family", "amplified-bell", "--nbar", "1.000000001"]),
    ({}, ["analyze", "--family", "fock-pair", "--n", "100000"]),
    ({}, ["analyze", "--family", "noon", "--n", "100000"]),
    ({"MZI_QFI_CUTOFF_CEILING": "1300"}, ["analyze", "--family", "twin-fock", "--n", "644"]),
)
#: The probes with the most kept sectors, 314, 599 and 342 of them, so the widest
#: sector documents of any invocation.
WIDE_SECTOR_TABLES = tuple(
    ({"MZI_QFI_CUTOFF_CEILING": "1300"}, ["analyze", "--family", family, "--nbar", nbar])
    for family, nbar in (("tsv", "20"), ("tmsv", "40"), ("amplified-bell", "40")))
#: The families built as the first splitter on a Fock ket, at an n whose sector's
#: whole Jx basis would take 3 GB: each is one eigenvector of it, O(n).
SPLIT_AT_20000 = tuple(["analyze", "--family", family, "--n", "20000"]
                       for family in ("twin-fock", "fraternal-twin-fock",
                                      "separable-coherent-probe"))
#: Stands for the path of the state file a run dumps, in an invocation and in what it prints.
DUMP_FILE = "DUMP_FILE"
#: Runs that dump their squeezed probe's state, at a default and a raised ceiling.
DUMPS = tuple(
    (env, ["analyze", "--family", family, "--nbar", nbar, "--dump-state", DUMP_FILE])
    for env, nbar in (({}, "4"), ({"MZI_QFI_CUTOFF_CEILING": "1300"}, "10"))
    for family in ("tsv", "tmsv", "amplified-bell"))
#: Arrays numpy refuses to allocate at all, which ``build`` refuses first.
UNADDRESSABLE = (
    ["--family", "coherent", "--alpha", "2", "--cutoff", "10000000000000000000"],
    ["--family", "tmsv", "--chi", "0.3", "--cutoff", "100000000000"],
    ["--family", "noon", "--n", "100000000000000000000"],
)
#: A state whose norm is 1 + 2.4e-11: the reader divides it by its norm, which
#: it does not report, so every moment of the document depends on that norm.
STATE_DOCUMENT = (
    '{"cutoff": 2, "amplitudes": [{"ja": 0, "jb": 0, "re": 0.48000000005, "im": 0.0}, '
    '{"ja": 1, "jb": 2, "re": 0.6, "im": 0.0}, {"ja": 2, "jb": 1, "re": 0.0, "im": 0.64}]}'
)
#: A state whose cutoff numpy refuses to allocate a grid for.
OVERSIZED_STATE_DOCUMENT = (
    '{"cutoff": 1000000000, "amplitudes": [{"ja": 0, "jb": 0, "re": 1.0, "im": 0.0}]}'
)
#: a|2,0> + b|1,1> + a|0,2> with a^2 = 1/4 + eps/4 and eps = 7e-10: F - nbar and
#: n(n-1) Cov[sigma_z] are both 1.4e-9, so it is sub-shot-noise and entangled.
SHOT_NOISE_EDGE_DOCUMENT = (
    '{"cutoff": 2, "amplitudes": [{"ja": 0, "jb": 2, "re": 0.50000000017500001, "im": 0}, '
    '{"ja": 1, "jb": 1, "re": 0.70710678093906021, "im": 0}, '
    '{"ja": 2, "jb": 0, "re": 0.50000000017500001, "im": 0}]}'
)
#: Amplitude 1 on |0,0> and 1e-100 on |1,0>: nbar = 1e-200, whose square underflows
#: to 0, so the Heisenberg ratio is f / nbar / nbar.
FAINT_STATE_DOCUMENT = (
    '{"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": 1.0, "im": 0.0}, '
    '{"ja": 1, "jb": 0, "re": 1e-100, "im": 0.0}]}'
)


def underflow_state_document(eps: str, half: str) -> str:
    """|0,0> + eps |1,0> + (eps/2) i |0,100>, whose fidelity route's products underflow."""
    return ('{"cutoff": 100, "amplitudes": [{"ja": 0, "jb": 0, "re": 1.0, "im": 0.0}, '
            f'{{"ja": 1, "jb": 0, "re": {eps}, "im": 0.0}}, '
            f'{{"ja": 0, "jb": 100, "re": 0.0, "im": {half}}}]}}')


#: Stand for the path of each state file, in an invocation and in what it prints.
STATE_FILE = "STATE_FILE"
OVERSIZED_STATE_FILE = "OVERSIZED_STATE_FILE"
SHOT_NOISE_EDGE_FILE = "SHOT_NOISE_EDGE_FILE"
FAINT_STATE_FILE = "FAINT_STATE_FILE"
UNDERFLOW_155_FILE = "UNDERFLOW_155_FILE"
UNDERFLOW_160_FILE = "UNDERFLOW_160_FILE"
STATE_DOCUMENTS = {STATE_FILE: STATE_DOCUMENT, OVERSIZED_STATE_FILE: OVERSIZED_STATE_DOCUMENT,
                   SHOT_NOISE_EDGE_FILE: SHOT_NOISE_EDGE_DOCUMENT,
                   FAINT_STATE_FILE: FAINT_STATE_DOCUMENT,
                   # f_fidelity misses f_variance by 7.2e-317, and reads 0 against 2.5e-317
                   UNDERFLOW_155_FILE: underflow_state_document("1e-155", "5e-156"),
                   UNDERFLOW_160_FILE: underflow_state_document("1e-160", "5e-161")}

Invocation = Tuple[Dict[str, str], List[str]]


def _usage_errors() -> Tuple[List[List[str]], List[List[str]]]:
    """The arguments after ``analyze --family``, and after ``table1``, of every case in
    ``tests/test_cli.py``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import test_cli
    finally:
        del sys.path[:2]
    return ([args for args, _, _ in test_cli.ANALYZE_ERRORS],
            [args for args, _, _ in test_cli.TABLE1_ERRORS])


def invocations() -> List[Invocation]:
    """(environment overrides, argv) of every invocation, in the order they are printed."""
    runs: List[Invocation] = []
    for name in (*FAMILIES, *ALIASES):
        runs += [({}, ["analyze", "--family", name, "--nbar", nbar])
                 for nbar in ("0.3", "1", "4", "7")]
    for family in FIXED_N:
        runs += [({}, ["analyze", "--family", family, "--n", n])
                 for n in ("0", "1", "8", "64", "200")]
    for cutoff in ("3", "40"):
        runs += [({}, ["analyze", "--family", family, *NATIVE[family], "--cutoff", cutoff])
                 for family in FAMILIES]
    runs += [({}, ["table1", "--format", fmt]) for fmt in ("json", "csv", "table")]
    runs += [({}, list(argv)) for argv in SWEEPS]
    for ceiling in CEILINGS:
        env = {"MZI_QFI_CUTOFF_CEILING": ceiling}
        runs += [(env, list(argv)) for argv in SWEEPS]
        runs += [(env, ["analyze", "--family", family, "--nbar", "10"])
                 for family in ("tsv", "tmsv", "amplified-bell")]
    env, argv = WIDE_NOON_SWEEP
    runs += [(env, [*argv, "--format", fmt]) for fmt in ("csv", "json")]
    runs += [(env, list(argv)) for env, argv in ROUTE_EDGES]
    runs += [(env, list(argv)) for env, argv in WIDE_SECTOR_TABLES]
    runs += [({}, list(argv)) for argv in SPLIT_AT_20000]
    runs += [(env, list(argv)) for env, argv in DUMPS]
    runs += [({}, ["analyze", "--state-file", path]) for path in STATE_DOCUMENTS]
    runs += [({}, ["analyze", *args]) for args in UNADDRESSABLE]
    runs.append(({}, ["analyze", "--family", "ecs", "--nbar", "1e308"]))  # its bracket overflows
    analyze_errors, table1_errors = _usage_errors()
    runs += [({}, ["analyze", "--family", *args]) for args in analyze_errors]
    runs += [({}, ["table1", *args]) for args in table1_errors]
    unique: Dict[Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...]], Invocation] = {}
    for env, argv in runs:  # noon --n 0 is also a usage error
        unique.setdefault((tuple(env.items()), tuple(argv)), (env, argv))
    return list(unique.values())


def run(root: Path, env: Dict[str, str], argv: Sequence[str]) -> subprocess.CompletedProcess:
    """Run ``mzi-qfi argv`` from ``root/src`` in a fresh interpreter, capturing its bytes.

    An argument that is a placeholder of ``STATE_DOCUMENTS`` is replaced by
    the path of a new copy of its document, ``DUMP_FILE`` by the path of a
    file the run may write, whose bytes are kept as ``dumped`` (empty if it
    wrote none), and each path by its placeholder in what the run wrote.
    """
    run_env = {key: value for key, value in os.environ.items() if key != "MZI_QFI_CUTOFF_CEILING"}
    run_env.update(env, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for placeholder in STATE_DOCUMENTS.keys() & set(argv):
            paths[placeholder] = os.path.join(directory, f"{placeholder.lower()}.json")
            with open(paths[placeholder], "w") as handle:
                handle.write(STATE_DOCUMENTS[placeholder])
        if DUMP_FILE in argv:
            paths[DUMP_FILE] = os.path.join(directory, "dump.json")
        proc = subprocess.run(
            [sys.executable, "-m", "mzi_qfi.cli", *(paths.get(arg, arg) for arg in argv)],
            env=run_env, capture_output=True, check=False)
        proc.dumped = b""
        if os.path.exists(paths.get(DUMP_FILE, "")):
            with open(paths[DUMP_FILE], "rb") as handle:
                proc.dumped = handle.read()
    for placeholder, path in paths.items():
        proc.stdout = proc.stdout.replace(path.encode(), placeholder.encode())
        proc.stderr = proc.stderr.replace(path.encode(), placeholder.encode())
    return proc


def command_line(env: Dict[str, str], argv: Sequence[str]) -> str:
    """The invocation as one shell line, its environment overrides first."""
    return shlex.join([f"{key}={value}" for key, value in env.items()] + list(argv))


def digest(root: Path, env: Dict[str, str], argv: Sequence[str]) -> str:
    """Run ``mzi-qfi argv`` from ``root/src`` in a fresh interpreter and digest what it wrote:
    its stdout, then the bytes of any state file it dumped, and its stderr."""
    proc = run(root, env, argv)
    command = command_line(env, argv)
    return " ".join([hashlib.sha256(proc.stdout + proc.dumped).hexdigest(),
                     hashlib.sha256(proc.stderr).hexdigest(), str(proc.returncode), command])


def main(args: Sequence[str]) -> int:
    root = Path(args[0]).resolve() if args else ROOT
    for env, argv in invocations():
        print(digest(root, env, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
