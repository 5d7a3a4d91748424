"""Golden stdout of the command line, each entry frozen from the release that added it.

``golden_cli.json`` maps each argument list to its exit code and either its
whole stdout (``verify`` and every ``--help``) or, for the long ``table``,
``gf`` and ``dot`` outputs, the SHA-256 of its stdout.  It covers ``table``
for every valid (family, method) pair, ``gf`` for all seven series, ``verify
12``, ``verify 40`` (the full battery, past the census cap of n = 25),
``verify`` at the range edges (0 to 6, where the ranges are empty or start and
the first of each split appears; 9, the last structural n; 14 and 15 around the
diagram census cap; 19, one past the benchmark's ``verify 18``; 41, just past
the formula cap), ``dot`` for the 7th
S-fence and for ``golden.poset``, and the help text of the group and of each
subcommand, which pins the order of the family and method choices.  Commands
run in this directory, so a poset file is named by its bare file name.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from flcubes.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_stdout_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent)
    expected = GOLDEN[argv]
    result = CliRunner().invoke(main, argv.split(), prog_name="flcubes")
    assert result.exit_code == expected["exit"]
    if "stdout" in expected:
        assert result.output == expected["stdout"]
    else:
        assert hashlib.sha256(result.output.encode()).hexdigest() == expected["sha256"]
