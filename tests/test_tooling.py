"""The suite's warning settings must let a failing property be reported."""

import importlib
import subprocess
import sys
from pathlib import Path

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
