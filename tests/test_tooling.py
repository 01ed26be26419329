"""The suite's warning settings must let a failing property be reported, and the
repository's tools run."""

import hashlib
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from mzi_qfi import cli

ROOT = Path(__file__).resolve().parents[1]

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


def _cli_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest_hashes_what_each_invocation_writes(capsys):
    digest = _cli_digest()
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
