"""Golden stdout of the command line, frozen from the seed release.

``golden_cli.json`` maps each argument list to its exit code and either its
whole stdout (``verify`` and every ``--help``) or, for the long ``table``
and ``gf`` outputs, the SHA-256 of its stdout.  It covers ``table`` for
every valid (family, method) pair, ``gf`` for all seven series, ``verify
12`` and the help text of the group and of each subcommand, which pins the
order of the family and method choices.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from flcubes.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_stdout_matches_golden(argv):
    expected = GOLDEN[argv]
    result = CliRunner().invoke(main, argv.split(), prog_name="flcubes")
    assert result.exit_code == expected["exit"]
    if "stdout" in expected:
        assert result.output == expected["stdout"]
    else:
        assert hashlib.sha256(result.output.encode()).hexdigest() == expected["sha256"]
