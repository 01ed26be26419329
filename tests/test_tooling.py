"""The suite's warning settings must let a failing property be reported, and the
repository's tools run."""

import hashlib
import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT, epsilon_state, load_tool
from mzi_qfi import cli
from mzi_qfi.serialize import read_state_file

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_patch_suggestion_module_imports_under_suite_warnings():
    # hypothesis imports this module only once a property has failed
    importlib.import_module("hypothesis.extra._patching")


def test_failing_property_is_reported_without_internal_error(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout  # tests failed, as opposed to 3: internal error
    assert "1 failed" in proc.stdout


def test_cli_digest_hashes_what_each_invocation_writes(capsys):
    digest = load_tool("cli_digest")
    runs = digest.invocations()
    assert len({(tuple(env.items()), tuple(argv)) for env, argv in runs}) == len(runs)
    for env, argv in (runs[0], runs[-1]):  # a report, then a usage error
        out_hash, err_hash, code, command = digest.digest(ROOT, env, argv).split(" ", 3)
        assert command == " ".join(argv)
        expected_code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert int(code) == expected_code
        assert out_hash == hashlib.sha256(captured.out.encode()).hexdigest()
        assert err_hash == hashlib.sha256(captured.err.encode()).hexdigest()


def test_cli_digest_reads_a_state_file_under_a_placeholder_path(capsys, tmp_path):
    digest = load_tool("cli_digest")
    env, argv = next(run for run in digest.invocations() if digest.STATE_FILE in run[1])
    out_hash, err_hash, code, command = digest.digest(ROOT, env, argv).split(" ", 3)
    assert command == " ".join(argv)
    path = tmp_path / "state.json"
    path.write_text(digest.STATE_DOCUMENT)
    assert cli.main([str(path) if arg == digest.STATE_FILE else arg for arg in argv]) == 0
    captured = capsys.readouterr()
    out = captured.out.replace(str(path), digest.STATE_FILE)
    assert f'"state_file": "{digest.STATE_FILE}"' in out
    assert int(code) == 0 and captured.err == ""
    assert out_hash == hashlib.sha256(out.encode()).hexdigest()
    assert err_hash == hashlib.sha256(b"").hexdigest()


def test_cli_digest_digests_a_dumped_state_file_after_stdout(capsys, tmp_path):
    digest = load_tool("cli_digest")
    env, argv = next(run for run in digest.invocations() if digest.DUMP_FILE in run[1])
    out_hash, err_hash, code, command = digest.digest(ROOT, env, argv).split(" ", 3)
    assert command == " ".join(argv) and not env
    path = tmp_path / "dump.json"
    assert cli.main([str(path) if arg == digest.DUMP_FILE else arg for arg in argv]) == 0
    captured = capsys.readouterr()
    assert int(code) == 0 and captured.err == "" and str(path) not in captured.out
    assert path.read_text().startswith('{\n  "cutoff": ')
    assert out_hash == hashlib.sha256(captured.out.encode() + path.read_bytes()).hexdigest()
    assert err_hash == hashlib.sha256(b"").hexdigest()


def test_cli_digest_reads_an_oversized_state_file_as_an_error(capsys, tmp_path):
    digest = load_tool("cli_digest")
    placeholder = digest.OVERSIZED_STATE_FILE
    env, argv = next(run for run in digest.invocations() if placeholder in run[1])
    out_hash, err_hash, code, _ = digest.digest(ROOT, env, argv).split(" ", 3)
    path = tmp_path / "oversized.json"
    path.write_text(digest.STATE_DOCUMENTS[placeholder])
    assert cli.main([str(path) if arg == placeholder else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.replace(str(path), placeholder)
    assert f'"message": "{placeholder}: cannot allocate' in err
    assert int(code) == 1 and captured.out == ""
    assert out_hash == hashlib.sha256(b"").hexdigest()
    assert err_hash == hashlib.sha256(err.encode()).hexdigest()


def test_stage_memory_prints_every_stage_of_every_probe(monkeypatch, capsys):
    tool = load_tool("stage_memory")
    monkeypatch.setattr(tool, "PROBES", (("noon n=6", "noon", {"n": 6}, 40),
                                         ("tsv xi=0.5", "twin-squeezed-vacuum", {"xi": 0.5}, 40)))
    assert tool.main([]) == 0
    rows = [line.rsplit(maxsplit=4) for line in capsys.readouterr().out.splitlines()]
    assert [(label, stage) for label, _, stage, _, _ in rows] == [
        (label, stage) for label, *_ in tool.PROBES for stage in tool.STAGES + ("basis_cache",)]
    for _, cutoff, _, peak, grids in rows:
        assert cutoff == "40" and int(peak) > 0
        assert float(grids) == pytest.approx(int(peak) / tool.grid_bytes(40), abs=0.005)
    # noon n=6 occupies sector 6 alone, whose block is 4 x 4 doubles; tsv the
    # even sectors 2m <= 80, each from its row 2m - 40 that the grid holds
    assert [int(peak) for _, _, stage, peak, _ in rows if stage == "basis_cache"] == [
        4 * 4 * 8, sum((m - max(0, 2 * m - 40) + 1) * (m + 1) * 8 for m in range(41))]


def test_stage_memory_counts_what_a_call_allocates():
    tool = load_tool("stage_memory")
    assert 8 * 10**6 <= tool.transient_peak(lambda: bytearray(8 * 10**6)) < 8 * 10**6 + 4096
    assert tool.transient_peak(lambda: None) < 4096


def test_stage_memory_refuses_a_package_imported_from_elsewhere(tmp_path):
    with pytest.raises(SystemExit, match="not from"):
        load_tool("stage_memory").main([str(tmp_path)])


def test_cli_fields_reads_each_document_format():
    tool = load_tool("cli_fields")
    assert tool.fields('{"a": {"b": [1.5, null]}, "c": "ok"}') == {
        "a.b[0]": "1.5", "a.b[1]": "null", "c": '"ok"'}
    assert tool.fields("family,qfi\ntsv,4.5\n") == {"[0].family": "tsv", "[0].qfi": "4.5"}
    assert tool.fields("schema: mzi-qfi/1\nrows:\n  -\n    nbar: 4\n  - undefined\n") == {
        "schema": "mzi-qfi/1", "rows[0].nbar": "4", "rows[1]": "undefined"}


def test_cli_fields_tells_a_moved_float_from_any_other_change():
    compare = load_tool("cli_fields").compare
    assert compare('{"f": 144.0, "n": 3}', '{"f": 144, "n": 3}') == ({}, [])
    moves, breaks = compare('{"f": 2.0, "g": [1e-300]}', '{"f": 2.0000000000000004, "g": [0.0]}')
    assert moves == {"f": (pytest.approx(4.44e-16, rel=1e-3), pytest.approx(2.22e-16, rel=1e-3)),
                     "g[0]": (1e-300, 1.0)}
    assert breaks == []
    for old, new in (('{"cutoff": 40}', '{"cutoff": 41}'), ('{"f": 1.5}', '{"f": null}'),
                     ('{"s": "ok"}', '{"s": "MISMATCH"}'), ('{"f": 1.5}', '{"g": 1.5}'),
                     ("a,b\ntrue,1.5\n", "a,b\nfalse,1.5\n")):
        assert compare(old, new)[1], (old, new)


def test_cli_fields_finds_no_change_against_its_own_checkout(monkeypatch, capsys):
    tool = load_tool("cli_fields")
    monkeypatch.setattr(tool.cli_digest, "invocations", lambda: [
        ({}, ["analyze", "--family", "noon", "--n", "2"]),
        ({}, ["analyze", "--family", "noon", "--n", "0"]),  # a usage error
        ({}, ["sweep", "--family", "coherent", "--nbar", "1,2"]),
    ])
    assert tool.main([str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0 of 3 invocations print different stdout"
    assert len(out) == 2  # the header of an empty table


CODE_LINES_FIXTURE = '''"""A module docstring
of two lines."""

import math  # a trailing comment

# a comment line
LIMIT = 3


class Box:
    """One line."""

    def area(self, side):
        """Two
        lines."""
        text = """a string
        that spans three
        lines"""
        return math.pow(side, 2), text
'''


def test_code_lines_leaves_out_comments_docstrings_and_blank_lines(capsys, tmp_path):
    tool = load_tool("code_lines")
    # import, LIMIT, class, def, the three lines of text, return
    assert tool.code_lines(CODE_LINES_FIXTURE) == 8
    package = tmp_path / "src" / "mzi_qfi"
    package.mkdir(parents=True)
    (package / "box.py").write_text(CODE_LINES_FIXTURE)
    (package / "empty.py").write_text('"""Nothing but a docstring."""\n')
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["box.py", "8", "empty.py", "0", "total", "8"]


def test_cli_digest_edge_state_is_the_epsilon_state(tmp_path):
    digest = load_tool("cli_digest")
    path = tmp_path / "edge.json"
    path.write_text(digest.STATE_DOCUMENTS[digest.SHOT_NOISE_EDGE_FILE])
    held = epsilon_state(7e-10).amplitudes
    read = read_state_file(str(path)).amplitudes
    assert np.array_equal(read.view(np.uint64), held.view(np.uint64))


def test_stage_timing_times_the_import_in_a_fresh_interpreter(tmp_path):
    # of compiled modules, in a copy of the sources that it writes no bytecode into
    tool = load_tool("stage_timing")
    shutil.copytree(ROOT / "src" / "mzi_qfi", tmp_path / "src" / "mzi_qfi",
                    ignore=shutil.ignore_patterns("__pycache__"))
    [(seconds, compiled)] = tool.timed_imports(tmp_path, runs=1)
    assert 0 < seconds < 5 and compiled
    assert not list(tmp_path.rglob("__pycache__"))


def test_stage_timing_bench_document_names_what_it_measured(tmp_path):
    tool = load_tool("stage_timing")
    shutil.copytree(ROOT / "src" / "mzi_qfi", tmp_path / "src" / "mzi_qfi",
                    ignore=shutil.ignore_patterns("__pycache__"))
    best = {("tsv nbar=20", 642, "build"): [2e-3, 1.5e-3]}
    doc = json.loads(json.dumps(tool.bench_document([tmp_path, ROOT], best)))
    copied, here = doc["roots"]
    assert copied["commit"] is None and copied["src_changed"] is None
    assert copied["src_sha256"] == here["src_sha256"]  # the same files, the same digest
    assert here["commit"] is None or len(here["commit"]) == 40
    assert set(doc["machine"]) == {"nproc", "python", "numpy", "blas_threads"}
    assert doc["stages"] == [{"probe": "tsv nbar=20", "cutoff": 642, "stage": "build",
                              "us": [2000.0, 1500.0], "ratio": 0.75}]


def test_stage_timing_times_every_stage_of_a_small_probe():
    tool = load_tool("stage_timing")
    assert tool.STAGES[: len(load_tool("stage_memory").STAGES)] == load_tool("stage_memory").STAGES
    cutoff, times = tool.stage_times("twin-fock", {"n": 8}, None, repeats=2)
    assert cutoff == 16
    assert list(times) == list(tool.STAGES)
    assert all(0 < seconds < 0.05 for seconds in times.values()), times
