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
