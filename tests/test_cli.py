import inspect
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import epsilon_state, sparse_states
from mzi_qfi import catalog, cli, schwinger, serialize, states
from mzi_qfi.errors import CutoffExceededError, NormalizationError, StateFileError
from mzi_qfi.fock import make_fock
from mzi_qfi.serialize import (
    NormalizationWarning,
    canonical_json,
    read_state_file,
    state_from_document,
    write_state_file,
)
from mzi_qfi.states import ProbeSpec, build
from oracles import (
    dense_decompose_sectors,
    dense_rotation,
    piecewise_canonical_json,
    truncation_loss_reference,
)


#: State documents whose values have the wrong JSON type, each with the message that rejects it.
#: A JSON boolean is not an integer, though Python's ``json`` reads it as ``bool``, an int.
MALFORMED_STATE_DOCUMENTS = [
    pytest.param('{"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": "abc", "im": 0.0}]}',
                 "re/im must be numbers", id="string-re"),
    pytest.param('{"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": null, "im": 0.0}]}',
                 "re/im must be numbers", id="null-re"),
    pytest.param('{"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": [1], "im": 0.0}]}',
                 "re/im must be numbers", id="list-re"),
    pytest.param('{"cutoff": true, "amplitudes": [{"ja": 0, "jb": 0, "re": 1.0, "im": 0.0}]}',
                 "cutoff must be a non-negative integer", id="boolean-cutoff"),
    pytest.param('{"cutoff": 1, "amplitudes": [{"ja": false, "jb": true, "re": 1.0, "im": 0.0}]}',
                 "ja/jb must be non-negative integers", id="boolean-indices"),
    pytest.param('{"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": 1%s, "im": 0.0}]}'
                 % ("0" * 400), "re/im must lie within the float range", id="huge-integer-re"),
]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Top-level modules that ``import mzi_qfi.cli`` adds to a bare interpreter.
CLI_IMPORTS = frozenset({
    "__future__", "_ast", "_compat_pickle", "_contextvars", "_ctypes", "_datetime", "_json",
    "_opcode", "_pickle", "argparse", "ast", "contextvars", "copy", "ctypes", "dataclasses",
    "datetime", "dis", "gettext", "importlib", "inspect", "json", "linecache", "mzi_qfi",
    "numbers", "numpy", "opcode", "pickle", "platform", "textwrap", "token", "tokenize",
})


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: modules the test run already imported would hide a stray import.
    # scipy is a test-only oracle, and start-up loads nothing beyond numpy and the stdlib above.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import json, sys; before = set(sys.modules); import mzi_qfi.cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "scipy" not in loaded
    assert loaded <= CLI_IMPORTS, sorted(loaded - CLI_IMPORTS)


class TestCanonicalJson:
    def test_determinism(self):
        doc = {"b": 1.0 / 3.0, "a": [1, 2.5, None, True], "c": {"x": "s"}}
        assert canonical_json(doc) == canonical_json(doc)

    def test_float_precision_round_trips(self):
        value = 0.1 + 0.2
        text = canonical_json({"v": value})
        assert json.loads(text)["v"] == value

    def test_null_and_bool_tokens(self):
        text = canonical_json({"u": None, "t": True, "f": False})
        assert '"u": null' in text and '"t": true' in text and '"f": false' in text

    def test_non_finite_floats_are_null(self):
        doc = {"n": math.nan, "p": math.inf, "m": np.float64(-np.inf), "x": [1.5, math.nan]}
        assert json.loads(canonical_json(doc)) == {"n": None, "p": None, "m": None,
                                                   "x": [1.5, None]}


class _Frozen(Mapping):
    """A read-only ``Mapping`` that is not a ``dict``."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


_NUMPY_SCALARS = st.one_of(
    st.floats(width=64).map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**80, 2**80),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, 5e-324, 2.2e-308]),
    st.text(), _NUMPY_SCALARS,
)
_KEYS = st.one_of(st.text(), st.integers(-5, 5), st.floats(allow_nan=False), st.none())
DOCUMENTS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(_KEYS, children, max_size=4),
    st.dictionaries(st.text(), children, max_size=3).map(OrderedDict),
    st.dictionaries(st.text(), children, max_size=3).map(_Frozen),
), max_leaves=25)


def one_line(text):
    return " ".join(line.lstrip() for line in text.splitlines()) + "\n"


class TestCanonicalJsonWriter:
    """The type-exact writer against the ``isinstance`` writer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_matches_the_piecewise_writer(self, doc):
        expected = piecewise_canonical_json(doc)
        assert canonical_json(doc) == expected
        assert serialize.canonical_json_line(doc) == one_line(expected)

    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS, st.sampled_from([np.bool_(True), 1j, {1}, b"x", object(), np.array([1.0])]))
    def test_raises_where_the_piecewise_writer_raises(self, doc, bad):
        doc = {"doc": doc, "bad": [bad]}
        with pytest.raises(TypeError) as expected:
            piecewise_canonical_json(doc)
        with pytest.raises(TypeError) as got:
            canonical_json(doc)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("argv", [["analyze", "--family", "amplified-bell", "--nbar", "4"],
                                      ["analyze", "--family", "twin-fock", "--n", "3"],
                                      ["table1"]], ids=lambda argv: argv[-1])
    def test_cli_documents_take_only_the_exact_path(self, argv, capsys, monkeypatch):
        def other(obj, pad):
            raise AssertionError(f"{type(obj).__name__} left the exact path")

        monkeypatch.setattr(serialize, "_json_other", other)
        cli.main(argv)  # table1 exits 1 on the paper's mismatched rows
        assert json.loads(capsys.readouterr().out)


class TestStateFiles:
    def test_round_trip_is_bit_faithful(self, tmp_path):
        state = build(ProbeSpec("entangled-coherent", {"alpha": 1.3}))
        path = tmp_path / "probe.json"
        write_state_file(state, str(path))
        loaded = read_state_file(str(path))
        assert loaded.cutoff == state.cutoff
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    @settings(max_examples=150, deadline=None)
    @given(sparse_states())
    def test_round_trip_of_any_state(self, tmp_path_factory, state):
        # exact zeros, -0.0 cells (read back as +0.0, which array_equal accepts),
        # subnormals and amplitudes whose square underflows
        path = tmp_path_factory.mktemp("round-trip") / "state.json"
        write_state_file(state, str(path))
        loaded = read_state_file(str(path))
        assert loaded.cutoff == state.cutoff
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_single_photon_file(self, tmp_path):
        path = tmp_path / "one.json"
        write_state_file(make_fock(1, 0, 2), str(path))
        loaded = read_state_file(str(path))
        assert np.isclose(loaded.probabilities()[1, 0], 1.0)

    def test_slightly_off_norm_renormalized_with_warning(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 1, "jb": 0, "re": 0.999999, "im": 0.0}]}
        with pytest.warns(NormalizationWarning):
            state = state_from_document(doc)
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)

    def test_badly_off_norm_rejected(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 1, "jb": 0, "re": 0.9, "im": 0.0}]}
        with pytest.raises(NormalizationError):
            state_from_document(doc)

    def test_zero_norm_rejected(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": 0.0, "im": 0.0}]}
        with pytest.raises(NormalizationError):
            state_from_document(doc)

    @pytest.mark.parametrize("re,im", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_amplitude_rejected(self, re, im):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": 1.0, "im": 0.0},
                                           {"ja": 1, "jb": 1, "re": re, "im": im}]}
        with pytest.raises(NormalizationError, match="acceptance window"):
            state_from_document(doc)

    def test_index_beyond_cutoff_rejected(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 2, "jb": 0, "re": 1.0, "im": 0.0}]}
        with pytest.raises(CutoffExceededError, match="exceeds cutoff"):
            state_from_document(doc)

    def test_duplicate_entry_rejected(self):
        doc = {
            "cutoff": 1,
            "amplitudes": [
                {"ja": 0, "jb": 0, "re": 1.0, "im": 0.0},
                {"ja": 0, "jb": 0, "re": 0.0, "im": 1.0},
            ],
        }
        with pytest.raises(StateFileError, match="duplicate"):
            state_from_document(doc)

    @pytest.mark.parametrize("text,message", MALFORMED_STATE_DOCUMENTS)
    def test_malformed_values_rejected(self, text, message):
        with pytest.raises(StateFileError, match=f"^<state>: {message}$"):
            state_from_document(json.loads(text))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError):
            read_state_file(str(path))

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(serialize.os, "replace", explode)
        with pytest.raises(OSError):
            serialize.write_text_atomic(str(target), "partial content")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp sibling cleaned up too


REFERENCE_CASES = [
    ["analyze", "--family", family, "--n", str(n)]
    for family in ("twin-fock", "fraternal-twin-fock", "noon", "separable-coherent-probe",
                   "fock-pair")
    for n in (1, 8, 64)
] + [["analyze", "--family", "coherent", "--nbar", "4"]]


@pytest.mark.parametrize("argv", REFERENCE_CASES, ids=" ".join)
def test_analyze_document_matches_reference_paths(capsys, monkeypatch, argv):
    # the dense sector loops of the rotation and the decomposition, in place of the fast paths
    fast = run_cli(capsys, *argv)
    monkeypatch.setattr(schwinger, "apply_rotation", dense_rotation)
    monkeypatch.setattr(cli, "decompose_sectors", dense_decompose_sectors)
    assert run_cli(capsys, *argv) == fast


@pytest.mark.parametrize("argv", [["--family", "twin-fock", "--n", "150"],
                                  ["--family", "fraternal-twin-fock", "--n", "200"],
                                  ["--family", "tsv", "--nbar", "7"],
                                  ["--family", "amplified-bell", "--nbar", "12"]], ids=" ".join)
def test_analyze_document_does_not_depend_on_blas_threads(argv):
    # OpenBLAS splits a dot of more than 10 000 cells across its threads, which
    # changes how the dot rounds; no sum that reaches the document may go through it
    # (the exit code and stderr are compared too).
    # The Schmidt values of tsv (rank 1) and amplified-bell (rank 2, two blocks of 12 100
    # cells at cutoff 219) come from crosses, which LAPACK sees only as 1 x 1 cores
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "mzi_qfi.cli", "analyze", *argv], env=env,
                              capture_output=True, check=False)
        assert proc.stdout
        outputs.add((proc.returncode, proc.stdout, proc.stderr))
    assert len(outputs) == 1


#: The address space of the child in which an allocation is made to fail: room for
#: the interpreter and numpy, and far less than either allocation below.
CHILD_ADDRESS_SPACE = 2**30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("argv", [
    ["--family", "coherent", "--alpha", "2", "--cutoff", "50000"],  # a 37.3 GiB grid
    ["--family", "twin-fock", "--n", "20000"],  # a 2.98 GiB Jx basis
])
def test_a_failed_allocation_is_an_error_document(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "mzi_qfi.cli", "analyze", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          timeout=120, check=False)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["schema"] == "mzi-qfi/1" and error["error"]["code"] == "out-of-memory"
    assert error["error"]["message"].startswith("Unable to allocate")


#: Inputs at a cutoff whose grid no numpy array can hold, and that cutoff, which
#: ``build`` refuses before numpy or a tail sum fails on it with a traceback.
UNADDRESSABLE = [
    pytest.param(["--family", "coherent", "--alpha", "2", "--cutoff", str(10**19)], 10**19,
                 id="coherent-cutoff-1e19"),
    pytest.param(["--family", "tmsv", "--chi", "0.3", "--cutoff", str(10**11)], 10**11,
                 id="tmsv-cutoff-1e11"),
    pytest.param(["--family", "noon", "--n", str(10**20)], 10**20, id="noon-n-1e20"),
    pytest.param(["--family", "twin-fock", "--nbar", "1e18"], 10**18, id="twin-fock-nbar-1e18"),
    pytest.param(["--family", "twin-fock", "--n", "3", "--cutoff", str(10**20)], 10**20,
                 id="twin-fock-cutoff-1e20"),
    pytest.param(["--family", "twin-fock", "--n", "3", "--cutoff", str(10**10)], 10**10,
                 id="twin-fock-cutoff-1e10"),
    # refused before its loss, whose tail sums cannot take a cutoff past the floats
    pytest.param(["--family", "tsv", "--xi", "0.3", "--cutoff", str(10**400)], 10**400,
                 id="tsv-cutoff-1e400"),
]


@pytest.mark.parametrize("argv,cutoff", UNADDRESSABLE)
def test_an_unaddressable_grid_is_an_error_document(argv, cutoff):
    # refused before anything is allocated; the limit only guards a regression
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "mzi_qfi.cli", "analyze", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          timeout=120, check=False)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {"schema": "mzi-qfi/1", "error": {
        "code": "out-of-memory",
        "message": f"cutoff {cutoff} needs a grid of more than 9223372036854775807 bytes"}}


def test_a_value_error_of_another_origin_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not a size")

    monkeypatch.setattr(cli, "analyze", broken)
    with pytest.raises(ValueError, match="not a size"):
        cli.main(["analyze", "--family", "coherent", "--alpha", "1"])


def test_a_memory_error_without_a_message_is_named(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "analyze", exhausted)
    exit_code, out, err = run_cli(capsys, "analyze", "--family", "coherent", "--alpha", "1")
    assert (exit_code, out) == (1, "")
    assert json.loads(err) == {"schema": "mzi-qfi/1", "error": {
        "code": "out-of-memory", "message": "out of memory"}}


FIXED_N_FAMILIES = ["twin-fock", "noon", "fraternal-twin-fock", "separable-coherent-probe",
                    "fock-pair"]


class TestAnalyzeCommand:
    def test_noon_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "mzi-qfi/1"
        assert abs(doc["qfi"]["f_variance"] - 9.0) < 1e-9
        assert abs(doc["qfi"]["crb"] - 1 / 3) < 1e-12
        assert doc["qfi"]["scaling_class"]["sub_shot_noise"] is True

    def test_coherent_is_shot_noise_limited(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "coherent", "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["qfi"]["f_variance"] - 4.0) < 1e-8
        assert doc["qfi"]["scaling_class"]["sub_shot_noise"] is False

    def test_tmsv_flat_but_entangled(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family",
                               "two-mode-squeezed-vacuum", "--nbar", "2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["qfi"]["f_variance"]) < 1e-8
        assert doc["qfi"]["crb"] is None
        assert doc["mode_entanglement"]["entropy_nats"] > 0.5

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2")
        _, second, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2")
        assert first == second

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        write_state_file(build(ProbeSpec("noon", {"n": 2})), str(path))
        code, out, _ = run_cli(capsys, "analyze", "--state-file", str(path))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["qfi"]["f_variance"] - 4.0) < 1e-9

    def test_a_state_file_just_past_shot_noise_is_entangled(self, capsys, tmp_path):
        # eps = 7e-10: F - nbar = 1.4e-9 and n(n-1) Cov = 1.4e-9, both far past
        # their round-off bound, 4 ROUTE_ROUNDOFF = 1.4e-14
        path = tmp_path / "state.json"
        write_state_file(epsilon_state(7e-10), str(path))
        code, out, err = run_cli(capsys, "analyze", "--state-file", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["qfi"]["scaling_class"]["sub_shot_noise"] is True
        assert [sector["particle"]["witness_entangled"]
                for sector in doc["sectors"]["sectors"]] == [True]

    def test_dump_state_round_trip(self, capsys, tmp_path):
        path = tmp_path / "dump.json"
        code, _, _ = run_cli(capsys, "analyze", "--family", "twin-fock", "--n", "1",
                             "--dump-state", str(path))
        assert code == 0
        loaded = read_state_file(str(path))
        assert loaded.cutoff == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2",
                               "--out", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["command"] == "analyze"

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2",
                               "--format", "table")
        assert code == 0
        assert "f_variance" in out

    def test_family_aliases(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "tmsv", "--nbar", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["probe"]["family"] == "two-mode-squeezed-vacuum"
        assert abs(doc["probe"]["params"]["chi"] - math.asinh(1.0)) < 1e-8

    def test_explicit_cutoff_flag(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "coherent", "--alpha", "1",
                               "--cutoff", "30")
        assert code == 0
        assert json.loads(out)["probe"]["cutoff"] == 30

    def test_raw_fidelity_difference_mode(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "4",
                               "--fidelity-step", "0.01", "--raw-fidelity-difference")
        assert code == 0
        doc = json.loads(out)
        # a raw central difference at a coarse step visibly undershoots, is
        # reported as such, and does not trip the consistency gate
        assert 1e-6 < abs(doc["qfi"]["f_fidelity"] - 16.0) < 0.1
        assert doc["qfi"]["route_agreement"] > 1e-6
        assert doc["qfi"]["routes_consistent"] is True
        assert "exploratory" in doc["qfi"]["reasons"]["f_fidelity"]

    def test_route_disagreement_exits_two(self, capsys, monkeypatch):
        import mzi_qfi.qfi as qfi_module

        argv = ["analyze", "--family", "noon", "--n", "2"]
        _, passing, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(qfi_module, "_fidelity", lambda *a, **k: (123.0, 0.005))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        # stdout is the document, with the fidelity value the route returned
        doc = json.loads(out)
        assert doc["qfi"]["f_fidelity"] == 123.0
        assert doc["qfi"]["routes_consistent"] is False
        expected = json.loads(passing)
        expected["qfi"].update(f_fidelity=123.0, route_agreement=doc["qfi"]["route_agreement"],
                               routes_consistent=False)
        assert doc == expected
        # stderr holds one canonical JSON line for each failing pair: fidelity against
        # each of the four other routes, which agree with each other
        lines = err.splitlines()
        assert len(lines) == 4
        others = set()
        for line in lines:
            record = json.loads(line)
            assert serialize.canonical_json_line(record) == line + "\n"
            assert record["schema"] == "mzi-qfi/1"
            failing = record["route_disagreement"]
            assert set(failing) == {"routes", "residual", "allowance", "fidelity_step"}
            (name_a, a), (name_b, b) = failing["routes"].items()
            assert name_a == "f_fidelity" and a == 123.0
            others.add(name_b)
            assert failing["residual"] == a - b
            # each route's round-off, 32 ulps of <N^2> = 4, and the fidelity route's
            # truncation; noon is exactly symmetric, so no premise term is added
            roundoff = 32 * 2.0**-53 * 4
            assert failing["allowance"] == roundoff + (1e-9 + 1e-6 * 123.0) + roundoff
            assert failing["fidelity_step"] == 0.005
        assert others == {"f_mode", "f_particle", "f_path_symmetric", "f_variance"}

    @pytest.mark.parametrize("family", FIXED_N_FAMILIES)
    @pytest.mark.parametrize("n", [128, 200, 300, 600])
    def test_wide_fixed_n_probes_keep_their_routes_consistent(self, capsys, family, n):
        # the default fidelity step keeps h max|j - k| at 0.02 for any |j - k| up to 2000
        code, out, err = run_cli(capsys, "analyze", "--family", family, "--n", str(n))
        assert (code, err) == (0, "")
        assert json.loads(out)["qfi"]["routes_consistent"] is True

    @pytest.mark.parametrize("family,n", [
        ("twin-fock", 644), ("twin-fock", 649), ("fraternal-twin-fock", 557),
        ("fraternal-twin-fock", 622), ("fraternal-twin-fock", 623),
        ("fraternal-twin-fock", 631), ("fraternal-twin-fock", 641)])
    def test_fixed_n_probes_at_the_raised_ceiling_agree_within_their_roundoff(
            self, capsys, monkeypatch, family, n):
        # F is near 8e5 here; f_particle errs by about 1e-9, a few ulps of <N^2>
        monkeypatch.setenv("MZI_QFI_CUTOFF_CEILING", "1300")
        code, _, err = run_cli(capsys, "analyze", "--family", family, "--n", str(n))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("args", [
        ["tsv", "--nbar", "1e-9"], ["tsv", "--nbar", "2e-9"],
        ["amplified-bell", "--nbar", "1.000000001"],
        ["fock-pair", "--n", "100000"], ["separable-coherent-probe", "--n", "5000"],
        ["noon", "--n", "100000"]],
        ids=" ".join)
    def test_edges_of_the_range_keep_their_routes_consistent(self, capsys, args):
        # the first three occupy several sectors, so they have no particle route;
        # the last three are fixed-n, with <N^2> of 4e10, 2.5e7 and 1e10: noon's
        # default step, 2e-7, keeps h max|d| at 0.02
        code, out, err = run_cli(capsys, "analyze", "--family", *args)
        assert (code, err) == (0, "")
        qfi = json.loads(out)["qfi"]
        assert (qfi["f_particle"] is None) is (args[1] == "--nbar")

    def test_a_route_off_by_a_part_in_1e12_exits_two(self, capsys, monkeypatch):
        import mzi_qfi.qfi as qfi_module

        # tsv at nbar 4 has <N^2> = 40, so two closed-form routes may differ by 2.8e-13;
        # F = 24, so f_mode moves by 2.4e-11
        argv = ["analyze", "--family", "tsv", "--nbar", "4"]
        assert run_cli(capsys, *argv)[0] == 0
        mode = qfi_module.qfi_mode
        monkeypatch.setattr(qfi_module, "qfi_mode", lambda report: mode(report) * (1 + 1e-12))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert [sorted(json.loads(line)["route_disagreement"]["routes"])
                for line in err.splitlines()] == [["f_mode", name] for name in (
                    "f_path_symmetric", "f_variance")]

    def test_small_noon_probe_stays_inside_its_allowance(self, capsys):
        # noon n = 3 takes h = 0.02 / 3, near the largest step allowed
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "3")
        qfi = json.loads(out)["qfi"]
        allowance = 1e-9 + 1e-6 * qfi["f_fidelity"]
        assert code == 0
        assert abs(qfi["f_fidelity"] - qfi["f_variance"]) < allowance / 1000

    def test_an_explicit_fidelity_step_keeps_its_meaning(self, capsys):
        # at h = 1e-3, h max|d| = 0.128 for twin-fock n = 128: its fidelity route misses
        # every other route, and stderr names each pair with the step it took
        code, _, err = run_cli(capsys, "analyze", "--family", "twin-fock", "--n", "128",
                               "--fidelity-step", "1e-3")
        assert code == 2
        records = [json.loads(line)["route_disagreement"] for line in err.splitlines()]
        assert [list(record["routes"]) for record in records] == [
            ["f_fidelity", name] for name in ("f_mode", "f_particle", "f_path_symmetric",
                                              "f_variance")
        ]
        for record in records:
            assert record["fidelity_step"] == 1e-3
            assert -0.07 < record["residual"] < -record["allowance"]


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze", "--family", "noon", "--n", "2", "--bogus"])
        assert err.value.code == 1

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "noon")
        assert code == 1
        assert json.loads(err)["error"]["code"] == "error"

    def test_conflicting_parameters(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "coherent",
                               "--alpha", "2", "--nbar", "4")
        assert code == 1

    def test_foreign_parameter_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "coherent", "--n", "3")
        assert code == 1
        assert "--alpha" in json.loads(err)["error"]["message"]

    def test_unattainable_target(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "noon", "--nbar", "0.2")
        assert code == 1
        assert json.loads(err)["error"]["code"] == "unattainable-target"


#: Native flag of every family, and the aliases, as the CLI's messages name them.
NATIVE_FLAG = {
    "twin-squeezed-vacuum": "xi", "twin-fock": "n", "entangled-coherent": "alpha",
    "noon": "n", "amplified-bell": "xi", "fraternal-twin-fock": "n", "coherent": "alpha",
    "separable-coherent-probe": "n", "two-mode-squeezed-vacuum": "chi", "fock-pair": "n",
}
ALIASES = {"tsv": "twin-squeezed-vacuum", "tmsv": "two-mode-squeezed-vacuum",
           "ecs": "entangled-coherent"}


def _flag_errors():
    for name in (*NATIVE_FLAG, *ALIASES):
        family = ALIASES.get(name, name)
        key = NATIVE_FLAG[family]
        foreign = "n" if key == "xi" else "xi"
        yield ([name, f"--{foreign}", "1"], "error",
               f"family '{family}' takes --{key}, not --{foreign}")
        yield [name], "error", f"family '{family}' needs --{key} or --nbar"
        yield ([name, f"--{key}", "1", "--nbar", "2"], "error",
               f"give either --{key} or --nbar, not both")


#: (arguments after ``analyze --family``, error code, message) of every usage error
ANALYZE_ERRORS = [*_flag_errors()] + [
    (["noon", "--n", "0"], "bad-parameter", "family 'noon' needs n >= 1, got 0"),
    *[([family, "--n", "-1"], "bad-parameter", f"family '{family}' needs n >= 0, got -1")
      for family in ("twin-fock", "fraternal-twin-fock", "separable-coherent-probe", "fock-pair")],
    (["twin-squeezed-vacuum", "--xi", "-0.3"], "bad-parameter",
     "squeezing must be non-negative, got xi=-0.3"),
    (["amplified-bell", "--xi", "-0.3"], "bad-parameter",
     "squeezing must be non-negative, got xi=-0.3"),
    (["tmsv", "--chi", "-0.3"], "bad-parameter", "squeezing must be non-negative, got chi=-0.3"),
    (["noon", "--n", "5", "--cutoff", "3"], "bad-parameter",
     "cutoff 3 cannot hold a 5-photon branch"),
    (["twin-fock", "--n", "5", "--cutoff", "3"], "cutoff-exceeded",
     "occupation (5, 5) exceeds cutoff 3 (or is negative)"),
    (["fraternal-twin-fock", "--n", "5", "--cutoff", "3"], "cutoff-exceeded",
     "occupation (6, 5) exceeds cutoff 3 (or is negative)"),
    (["separable-coherent-probe", "--n", "5", "--cutoff", "3"], "cutoff-exceeded",
     "occupation (5, 0) exceeds cutoff 3 (or is negative)"),
    (["fock-pair", "--n", "5", "--cutoff", "3"], "cutoff-exceeded",
     "occupation (5, 5) exceeds cutoff 3 (or is negative)"),
    (["tsv", "--xi", "1", "--cutoff", "3"], "truncation-loss",
     "truncation loss 3.011e-01 exceeds ceiling 1.000e-10"),
    (["tmsv", "--chi", "1", "--cutoff", "3"], "truncation-loss",
     "truncation loss 1.132e-01 exceeds ceiling 1.000e-10"),
    (["amplified-bell", "--xi", "1", "--cutoff", "3"], "truncation-loss",
     "truncation loss 5.745e-01 exceeds ceiling 1.000e-10"),
    (["coherent", "--alpha", "2", "--cutoff", "3"], "truncation-loss",
     "truncation loss 2.653e-01 exceeds ceiling 1.000e-10"),
    (["ecs", "--alpha", "2", "--cutoff", "3"], "truncation-loss",
     "truncation loss 5.563e-01 exceeds ceiling 1.000e-10"),
    *[([family, "--nbar", "0.4"], "unattainable-target",
       f"family '{family}' cannot reach mean photon number 0.4 (minimum is {minimum})")
      for family, minimum in (("noon", 1), ("twin-fock", 2), ("separable-coherent-probe", 1),
                              ("fock-pair", 2), ("amplified-bell", 1))],
    (["coherent", "--nbar", "-1"], "unattainable-target",
     "target mean photon number must be positive, got -1.0"),
    (["coherent", "--nbar=-inf"], "unattainable-target",
     "target mean photon number must be positive, got -inf"),
    (["noon", "--nbar", "nan"], "unattainable-target",
     "target mean photon number must be positive, got nan"),
    *[([name, "--nbar", "inf"], "unattainable-target",
       "target mean photon number must be finite, got inf") for name in (*NATIVE_FLAG, *ALIASES)],
    (["tsv", "--xi", "nan"], "bad-parameter", "squeezing must be non-negative, got xi=nan"),
    (["coherent", "--alpha", "nan"], "bad-parameter",
     "displacement must be finite, got alpha=(nan+0j)"),
    (["ecs", "--alpha", "inf"], "bad-parameter", "displacement must be finite, got alpha=(inf+0j)"),
    *[([name, "--nbar", "1e308"], "truncation-loss",
       "cutoff ceiling 256 leaves truncation loss 1.000e+00 above the 1.0e-14 target")
      for name in ("coherent", "ecs")],
    (["coherent", "--alpha", "1e155"], "bad-parameter",
     "|alpha|^2 must be finite, got alpha=(1e+155+0j)"),
    (["ecs", "--alpha", "1e155j"], "bad-parameter", "|alpha|^2 must be finite, got alpha=1e+155j"),
    *[(["noon", "--n", "2", flag, value], "bad-parameter",
       f"{name} tolerance must be positive and finite, got {float(value)!r}")
      for flag, name in (("--path-tol", "path-symmetry"), ("--sep-tol", "separability"))
      for value in ("nan", "inf", "-1")],
    # several bad flags at once: --path-tol names the error, then --sep-tol, then --fidelity-step
    *[(["noon", "--n", "2", *flags, "--fidelity-step", "1"], "bad-parameter", message)
      for flags, message in (
          (["--path-tol", "-1", "--sep-tol", "-1"],
           "path-symmetry tolerance must be positive and finite, got -1.0"),
          (["--sep-tol", "-1"], "separability tolerance must be positive and finite, got -1.0"),
          ([], "fidelity step must lie in [1e-5, 1e-2], got 1.0"))],
]

#: (arguments after ``table1``, error code, message) of every usage error
TABLE1_ERRORS = [
    ([flag, value], "bad-parameter",
     f"{flag} must be finite and non-negative, got {float(value)!r}")
    for flag in ("--atol", "--rtol") for value in ("nan", "inf", "-1")
]

#: Parameters far past anything the cutoff ceiling can hold; building their grids would overflow.
EXTREME_PARAMETERS = [
    ["tsv", "--xi", "1000"], ["tmsv", "--chi", "800"], ["coherent", "--alpha", "1e6"],
    ["ecs", "--alpha", "1e6"], ["amplified-bell", "--xi", "1000"], ["tsv", "--xi", "inf"],
    ["coherent", "--alpha", "1e154"],  # |alpha|^2 = 1e308 is still a float
]


INVALID_FAMILY = (
    "error: argument --family: invalid choice: 'bogus' (choose from 'twin-squeezed-vacuum', "
    "'twin-fock', 'entangled-coherent', 'noon', 'amplified-bell', 'fraternal-twin-fock', "
    "'coherent', 'separable-coherent-probe', 'two-mode-squeezed-vacuum', 'fock-pair', 'tsv', "
    "'tmsv', 'ecs')\n"
)

ANALYZE_HELP = """\
usage: mzi-qfi analyze [-h] [--family FAMILY] [--n N] [--xi XI] [--chi CHI]
                       [--alpha ALPHA] [--nbar NBAR] [--state-file PATH]
                       [--cutoff CUTOFF] [--fidelity-step FIDELITY_STEP]
                       [--raw-fidelity-difference] [--path-tol PATH_TOL]
                       [--sep-tol SEP_TOL] [--dump-state PATH]
                       [--format {json,table}] [--out PATH]

Build a probe (or load a state file) and report coherence, phase information
by every route, mode entanglement, and the sector decomposition.

options:
  -h, --help            show this help message and exit
  --family FAMILY       probe family: twin-squeezed-vacuum, twin-fock,
                        entangled-coherent, noon, amplified-bell, fraternal-
                        twin-fock, coherent, separable-coherent-probe, two-
                        mode-squeezed-vacuum, fock-pair (aliases: tsv, tmsv,
                        ecs)
  --n N                 photon count for integer families
  --xi XI               squeezing parameter
  --chi CHI             two-mode squeezing parameter
  --alpha ALPHA         coherent displacement
  --nbar NBAR           target mean photon number (solved per family)
  --state-file PATH     load the probe from a JSON state file instead of a
                        family
  --cutoff CUTOFF       explicit per-mode cutoff
  --fidelity-step FIDELITY_STEP
                        finite-difference step for the fidelity route, in
                        [1e-5, 1e-2] (default: 0.02 over the widest |j - k|
                        the probe holds)
  --raw-fidelity-difference
                        skip Richardson extrapolation (exploratory mode)
  --path-tol PATH_TOL   path-symmetry tolerance
  --sep-tol SEP_TOL     separability tolerance on 1 - lambda_max
  --dump-state PATH     also write the built state to a JSON state file
  --format {json,table}
                        output format (default json)
  --out PATH            write output to PATH (atomically) instead of stdout
"""

SWEEP_HELP = """\
usage: mzi-qfi sweep [-h] --family FAMILY --nbar LIST [--format {csv,json}]
                     [--out PATH]

One output row per target mean photon number with columns: family,
nbar_target, status, nbar, qfi, g2, g2_ab, entropy, cov_sigma_z. Unattainable
targets are annotated, not dropped; UNDEFINED values are empty cells (null in
JSON).

options:
  -h, --help           show this help message and exit
  --family FAMILY      probe family: twin-squeezed-vacuum, twin-fock,
                       entangled-coherent, noon, amplified-bell, fraternal-
                       twin-fock, coherent, separable-coherent-probe, two-
                       mode-squeezed-vacuum, fock-pair (aliases: tsv, tmsv,
                       ecs)
  --nbar LIST          comma-separated target mean photon numbers, e.g.
                       1,2,4,8
  --format {csv,json}  output format (default csv)
  --out PATH           write output to PATH (atomically) instead of stdout
"""


class TestErrorContract:
    @pytest.mark.parametrize("args,code,message", ANALYZE_ERRORS, ids=lambda v: " ".join(v)
                             if isinstance(v, list) else "")
    def test_analyze_error(self, capsys, args, code, message):
        exit_code, out, err = run_cli(capsys, "analyze", "--family", *args)
        assert (exit_code, out) == (1, "")
        assert json.loads(err) == {"schema": "mzi-qfi/1",
                                   "error": {"code": code, "message": message}}

    def test_separability_tolerance_is_checked_before_the_decomposition(self, capsys,
                                                                         monkeypatch):
        def decompose(state):
            raise AssertionError("the decomposition ran before --sep-tol was checked")

        monkeypatch.setattr(cli, "decompose_sectors", decompose)
        cases = [(["tsv", "--nbar", "7", "--sep-tol", value], "bad-parameter",
                  f"separability tolerance must be positive and finite, got {float(value)!r}")
                 for value in ("nan", "inf", "-1", "0")]
        cases += [  # a bad probe and a bad --path-tol keep their own errors
            (["tsv", "--xi", "-0.3", "--sep-tol", "nan"], "bad-parameter",
             "squeezing must be non-negative, got xi=-0.3"),
            (["tsv", "--nbar", "7", "--path-tol", "-1", "--sep-tol", "nan"], "bad-parameter",
             "path-symmetry tolerance must be positive and finite, got -1.0"),
        ]
        for args, code, message in cases:
            exit_code, out, err = run_cli(capsys, "analyze", "--family", *args)
            assert (exit_code, out) == (1, ""), args
            assert json.loads(err)["error"] == {"code": code, "message": message}, args

    @pytest.mark.parametrize("step", ["1", "1e-6", "nan", "-inf"])
    def test_fidelity_step_is_checked_before_the_chain(self, capsys, monkeypatch, step):
        calls = []
        monkeypatch.setattr(cli, "analyze", lambda *a, **k: calls.append(a))
        exit_code, out, err = run_cli(capsys, "analyze", "--family", "tsv", "--nbar", "7",
                                      "--fidelity-step", step)
        assert (exit_code, out, calls) == (1, "", [])
        assert json.loads(err)["error"] == {
            "code": "bad-parameter",
            "message": f"fidelity step must lie in [1e-5, 1e-2], got {float(step)!r}"}

    @pytest.mark.parametrize("args,code,message", TABLE1_ERRORS, ids=lambda v: " ".join(v)
                             if isinstance(v, list) else "")
    def test_table1_error(self, capsys, args, code, message):
        exit_code, out, err = run_cli(capsys, "table1", *args)
        assert (exit_code, out) == (1, "")
        assert json.loads(err) == {"schema": "mzi-qfi/1",
                                   "error": {"code": code, "message": message}}

    @pytest.mark.parametrize("args", EXTREME_PARAMETERS, ids=" ".join)
    def test_extreme_parameters_fail_on_the_loss_alone(self, capsys, args):
        # the loss search fails at the ceiling before any grid is built: no
        # traceback, no overflow warning (warnings are errors here), no delay
        start = time.perf_counter()
        exit_code, out, err = run_cli(capsys, "analyze", "--family", *args)
        assert time.perf_counter() - start < 0.5
        assert (exit_code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "truncation-loss",
            "message": "cutoff ceiling 256 leaves truncation loss 1.000e+00 above the 1.0e-14 target"}
        exit_code, out, err = run_cli(capsys, "analyze", "--family", *args, "--cutoff", "10")
        assert (exit_code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "truncation-loss",
            "message": "truncation loss 1.000e+00 exceeds ceiling 1.000e-10"}

    def test_nan_amplitude_in_state_file(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"cutoff":1,"amplitudes":[{"ja":0,"jb":0,"re":1.0,"im":0.0},'
                        '{"ja":1,"jb":1,"re":NaN,"im":0.0}]}')
        exit_code, out, err = run_cli(capsys, "analyze", "--state-file", str(path))
        assert (exit_code, out) == (1, "")
        assert json.loads(err) == {"schema": "mzi-qfi/1", "error": {
            "code": "bad-norm",
            "message": f"{path}: norm nan deviates from 1 beyond the 1e-6 acceptance window"}}

    def test_oversized_cutoff_in_state_file(self, capsys, tmp_path):
        # a grid no numpy array can hold is refused before anything is allocated
        path = tmp_path / "oversized.json"
        path.write_text('{"cutoff": 1000000000, "amplitudes": [{"ja": 0, "jb": 0, "re": 1.0, '
                        '"im": 0.0}]}')
        exit_code, out, err = run_cli(capsys, "analyze", "--state-file", str(path))
        assert (exit_code, out) == (1, "")
        assert json.loads(err) == {"schema": "mzi-qfi/1", "error": {
            "code": "bad-state-file",
            "message": f"{path}: cannot allocate a grid of cutoff 1000000000"}}

    @pytest.mark.parametrize("text,message", MALFORMED_STATE_DOCUMENTS)
    def test_malformed_state_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        exit_code, out, err = run_cli(capsys, "analyze", "--state-file", str(path))
        assert (exit_code, out) == (1, "")
        assert json.loads(err) == {"schema": "mzi-qfi/1", "error": {
            "code": "bad-state-file", "message": f"{path}: {message}"}}

    @pytest.mark.parametrize("value", ["-1", "-0.5", "-1e3", "-inf", "-Infinity", "-nan"])
    def test_negative_nbar_needs_no_equals_sign(self, capsys, value):
        spaced = run_cli(capsys, "analyze", "--family", "coherent", "--nbar", value)
        joined = run_cli(capsys, "analyze", "--family", "coherent", f"--nbar={value}")
        assert spaced == joined
        assert spaced[0] == 1
        assert json.loads(spaced[2])["error"]["code"] == "unattainable-target"

    @pytest.mark.parametrize("command", [["analyze"], ["sweep", "--nbar", "1"]])
    def test_invalid_family_choice(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--family", "bogus"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.endswith(f"\nmzi-qfi {command[0]}: {INVALID_FAMILY}")

    @pytest.mark.parametrize("command,text", [("analyze", ANALYZE_HELP), ("sweep", SWEEP_HELP)])
    def test_help_text(self, capsys, monkeypatch, command, text):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == text


class TestFamilyRegistry:
    def test_catalog_rows_follow_the_registry(self):
        assert tuple(row.family for row in catalog.TABLE1) == states.FAMILIES

    @pytest.mark.parametrize("name", [*states.FAMILIES, *states.FAMILY_ALIASES])
    def test_cli_accepts_only_the_record_key(self, capsys, name):
        key = states.resolve_family(name).key
        for flag, value in (("n", "1"), ("xi", "0.1"), ("chi", "0.1"), ("alpha", "0.1")):
            code, out, err = run_cli(capsys, "analyze", "--family", name, f"--{flag}", value)
            if flag == key:
                assert code == 0 and list(json.loads(out)["probe"]["params"]) == [key]
            else:
                assert code == 1 and f"takes --{key}, not --{flag}" in err

    def test_cli_source_names_no_family(self):
        source = inspect.getsource(cli)
        for name in (*states.FAMILIES, *states.FAMILY_ALIASES):
            assert f'"{name}"' not in source and f"'{name}'" not in source, name


def _fidelity_lines(err, nbar_targets):
    """The route_disagreement records of ``err``, by (family, nbar_target), checked line by line.

    Every line is canonical JSON for a pair of the patched fidelity route (123.0) and
    another route, and names a row whose target is in ``nbar_targets``.
    """
    records = {}
    for line in err.splitlines():
        record = json.loads(line)
        assert serialize.canonical_json_line(record) == line + "\n"
        assert list(record) == ["schema", "family", "nbar_target", "route_disagreement"]
        assert record["schema"] == "mzi-qfi/1" and record["nbar_target"] in nbar_targets
        failing = record["route_disagreement"]
        (name_a, a), (name_b, b) = failing["routes"].items()
        assert "f_fidelity" in (name_a, name_b) and 123.0 in (a, b)
        assert failing["residual"] == a - b and failing["fidelity_step"] == 0.005
        records.setdefault((record["family"], record["nbar_target"]), []).append(failing)
    return records


class TestTable1Command:
    def test_route_disagreement_exits_two(self, capsys, monkeypatch):
        import mzi_qfi.qfi as qfi_module

        for fmt in ("json", "csv"):
            code, passing, err = run_cli(capsys, "table1", "--nbar", "3", "--format", fmt)
            assert (code, err) == (3, "")  # a consistent table1 writes nothing to stderr
            with monkeypatch.context() as patch:
                patch.setattr(qfi_module, "_fidelity", lambda *a, **k: (123.0, 0.005))
                code, out, err = run_cli(capsys, "table1", "--nbar", "3", "--format", fmt)
            assert code == 2
            # one line per failing pair, in the rows' order: fidelity against each other route
            records = _fidelity_lines(err, {3.0})
            assert list(records) == [(row.family, 3.0) for row in catalog.TABLE1]
            for failing in records.values():
                assert 1 <= len(failing) <= 4
                assert any("f_variance" in record["routes"] for record in failing)
            if fmt == "csv":
                assert out == passing.replace(",true\n", ",false\n")
                continue
            doc, expected = json.loads(out), json.loads(passing)
            for row, expected_row in zip(doc["rows"], expected["rows"]):
                assert row["route_agreement"] >= 100
                expected_row.update(route_agreement=row["route_agreement"],
                                    routes_consistent=False)
            assert doc == expected

    def test_audit_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 3  # known mismatching cells are flagged, not reconciled
        doc = json.loads(out)
        rows = {row["family"]: row for row in doc["rows"]}
        assert len(rows) == 10
        for row in doc["rows"]:
            assert row["routes_consistent"] is True
            for cell in row["cells"].values():
                assert cell["status"] in ("MATCH", "MISMATCH", "NOT-APPLICABLE")
                if cell["status"] == "MISMATCH":
                    assert cell["alt"] is not None
                    assert cell["alt"]["convention"] == "per-mode nbar"

        qfi_match = [f for f, row in rows.items() if row["cells"]["qfi"]["status"] == "MATCH"]
        for family in ("noon", "twin-fock", "fock-pair", "separable-coherent-probe",
                       "coherent", "fraternal-twin-fock", "two-mode-squeezed-vacuum",
                       "twin-squeezed-vacuum"):
            assert family in qfi_match

        # the per-mode convention explains the twin-squeezed pair coherence cell
        tsv_g2 = rows["twin-squeezed-vacuum"]["cells"]["g2"]
        assert tsv_g2["status"] == "MISMATCH"
        assert tsv_g2["alt"]["status"] == "MATCH"
        # the cross-coherence cell of the amplified Bell row fits neither convention
        ab_cell = rows["amplified-bell"]["cells"]["g2_ab"]
        assert ab_cell["status"] == "MISMATCH"
        assert ab_cell["alt"]["status"] == "MISMATCH"

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "table1", "--nbar", "3")
        _, second, _ = run_cli(capsys, "table1", "--nbar", "3")
        assert first == second

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("family,nbar,g2,")


class TestSweepCommand:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_route_disagreement_exits_two(self, capsys, monkeypatch, fmt):
        import mzi_qfi.qfi as qfi_module

        argv = ["sweep", "--family", "noon", "--nbar", "0.2,2,3", "--format", fmt]
        code, passing, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")  # a consistent sweep writes nothing to stderr
        monkeypatch.setattr(qfi_module, "_fidelity", lambda *a, **k: (123.0, 0.005))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == passing  # no sweep column reads the fidelity route
        # fidelity against each of the four other routes, for each attainable row
        records = _fidelity_lines(err, {2.0, 3.0})
        assert list(records) == [("noon", 2.0), ("noon", 3.0)]
        for failing in records.values():
            assert len(failing) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_wide_noon_holds_every_row(self, capsys, fmt):
        # the default step keeps h max|d| at 0.02 for n = 20000, where the fidelity
        # route errs by 1.1e-10 of F; a step floor of 1e-5 put it at 0.2, and 1.1e-6
        code, out, err = run_cli(capsys, "sweep", "--family", "noon",
                                 "--nbar", "10000,20000", "--format", fmt)
        assert (code, err) == (0, "")
        assert out.count(",ok,") == 2 if fmt == "csv" else [
            row["status"] for row in json.loads(out)["rows"]] == ["ok", "ok"]

    def test_coherent_tracks_shot_noise(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "coherent",
                               "--nbar", "1,2,4,8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        for line in lines[1:]:
            fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
            assert abs(float(fields["qfi"]) - float(fields["nbar"])) < 1e-8

    def test_noon_tracks_heisenberg(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "noon", "--nbar", "2,3,4")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
            assert abs(float(fields["qfi"]) - float(fields["nbar"]) ** 2) < 1e-9

    def test_twin_fock_formula(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "twin-fock", "--nbar", "2,4,6")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
            nbar = float(fields["nbar"])
            assert abs(float(fields["qfi"]) - (nbar**2 + 2 * nbar) / 2) < 1e-9

    def test_unattainable_rows_annotated_not_dropped(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "noon", "--nbar", "0.2,3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[2].startswith('"unattainable') or first[2].startswith("unattainable")
        assert first[4] == ""  # UNDEFINED serializes as an empty cell

    def test_unattainable_rows_report_the_exact_tail_loss(self, capsys):
        # the losses at the ceiling, 4 digits of the decimal oracle's (by
        # subtraction they read 6.939e-14 and 1.055e-14)
        for family, nbar, loss in [("tsv", "8", "6.893e-14"), ("tmsv", "15", "1.072e-14")]:
            value = states.resolve_family(family).param_for_nbar(float(nbar))
            assert f"{truncation_loss_reference(ALIASES[family], value, 256):.3e}" == loss
            code, out, err = run_cli(capsys, "sweep", "--family", family, "--nbar", nbar)
            assert (code, err) == (0, "")
            assert out.splitlines()[1] == (
                f"{ALIASES[family]},{nbar},unattainable: cutoff ceiling 256 leaves truncation "
                f"loss {loss} above the 1.0e-14 target,,,,,,")

    @pytest.mark.parametrize("name", [*NATIVE_FLAG, *ALIASES])
    def test_non_finite_target_row(self, capsys, name):
        code, out, err = run_cli(capsys, "sweep", "--family", name, "--nbar", "inf")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            f'{ALIASES.get(name, name)},inf,"unattainable: target mean photon number must be '
            'finite, got inf",,,,,,'
        ]

    @pytest.mark.parametrize("targets", ["-1,2", "-inf,2", "-0.5"])
    def test_negative_first_target_needs_no_equals_sign(self, capsys, targets):
        spaced = run_cli(capsys, "sweep", "--family", "noon", "--nbar", targets)
        joined = run_cli(capsys, "sweep", "--family", "noon", f"--nbar={targets}")
        assert spaced == joined
        code, out, err = spaced
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == len(targets.split(","))
        assert rows[0].startswith('noon,' + targets.split(",")[0] + ',"unattainable: target')
        assert all(",ok," in row for row in rows[1:])

    @pytest.mark.parametrize("targets", ["nan,2", "inf"])
    def test_json_with_non_finite_target_is_json(self, capsys, targets):
        code, out, _ = run_cli(capsys, "sweep", "--family", "noon", "--nbar", targets,
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["nbar_target"] is None
        assert rows[0]["status"].startswith("unattainable: target mean photon number must be")
        finite = [float(t) for t in targets.split(",")[1:]]
        assert [row["nbar_target"] for row in rows[1:]] == finite

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "fock-pair",
                               "--nbar", "2,4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row["nbar_target"] for row in doc["rows"]] == [2.0, 4.0]
        assert all(abs(row["qfi"]) < 1e-9 for row in doc["rows"])
