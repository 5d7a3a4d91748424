"""The project's pytest configuration holds on the pytest it runs under."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_a_test_with_an_unregistered_marker_fails_without_warnings_as_errors(tmp_path):
    # the probe runs beside a copy of this conftest under the project's
    # configuration, with the filterwarnings setting cleared
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_probe.py").write_text(
        "import pytest\n\n\n@pytest.mark.slwo\ndef test_typo():\n    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-o", "filterwarnings=", str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    # pytest 9 reaches the conftest check; a pytest that applies
    # --strict-markers from addopts refuses the module at collection
    assert result.returncode in (1, 2), result.stdout + result.stderr
    assert "'slwo'" in result.stdout
    assert " passed" not in result.stdout


def test_a_failing_property_test_leaves_the_rest_of_the_run_reported(tmp_path):
    # where libcst is installed, hypothesis imports a module on failure that
    # warns, and warnings are errors here; the run must still report the
    # falsifying example and the failure after it
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_property(n):\n    assert n < 0\n\n\n"
        "def test_later():\n    assert False\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example: test_property(" in output, output
    assert "FAILED test_probe.py::test_property" in output, output
    assert "FAILED test_probe.py::test_later" in output, output
    assert "2 failed" in result.stdout, output
