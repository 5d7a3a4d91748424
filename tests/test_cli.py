import json
from math import comb
from time import perf_counter

import pytest
from click.testing import CliRunner

from flcubes.cli import main
from flcubes.formulas import fib


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args))


# -- table -------------------------------------------------------------------


def test_table_rank_census_csv(runner):
    result = run(runner, "table", "rank", "0", "3", "census", "csv")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,k,coefficient"
    assert lines[1] == "0,0,1"
    assert lines[-1] == "3,3,1"
    assert all("," in line and not line.endswith(",") for line in lines)


def test_table_maxcube_closed_json(runner):
    result = run(runner, "table", "maxcube", "7", "7", "closed", "json")
    assert result.exit_code == 0
    assert json.loads(result.output) == [{"n": 7, "coeffs": [0, 0, 2, 5]}]


def test_table_cube_gf_single_row(runner):
    result = run(runner, "table", "cube", "0", "0", "gf", "csv")
    assert result.exit_code == 0
    assert result.output == "n,k,coefficient\n0,0,1\n"


def test_table_methods_agree(runner):
    outputs = set()
    for method in ("census", "recurrence", "closed", "gf"):
        result = run(runner, "table", "degree", "3", "9", method, "csv")
        assert result.exit_code == 0, method
        outputs.add(result.output)
    assert len(outputs) == 1


def test_table_output_is_byte_stable(runner):
    a = run(runner, "table", "indegree", "0", "10", "recurrence", "json")
    b = run(runner, "table", "indegree", "0", "10", "recurrence", "json")
    assert a.output == b.output
    assert a.output.endswith("\n")


_CENSUS_ONLY = "the outdegree family has a census method only; no formulas are known"
_BAD_FAMILY = (
    "Invalid value for '{rank|cube|maxcube|degree|indegree|outdegree}': 'nosuch' is not one of "
    "'rank', 'cube', 'maxcube', 'degree', 'indegree', 'outdegree'."
)
_BAD_METHOD = (
    "Invalid value for '{census|recurrence|closed|gf}': 'nosuch' is not one of "
    "'census', 'recurrence', 'closed', 'gf'."
)
# each argument list after "table", with the last line it writes to stderr
_USAGE_ERRORS = [
    ("rank 5 3 census csv", "need 0 <= FROM <= TO"),
    ("rank 0 26 census csv", "the census method is limited to n <= 25"),
    ("rank 0 41 gf csv", "the gf method is limited to n <= 40"),
    ("nosuch 0 3 census csv", _BAD_FAMILY),
    ("rank 0 3 nosuch csv", _BAD_METHOD),
    ("outdegree 0 3 closed csv", _CENSUS_ONLY),
    ("outdegree 0 3 recurrence csv", _CENSUS_ONLY),
    ("outdegree 0 3 gf csv", _CENSUS_ONLY),
    # the census-only refusal comes before the cap
    ("outdegree 0 50 closed csv", _CENSUS_ONLY),
    ("maxcube 0 5 closed csv", "closed form for maxcube is defined for n >= 3"),
    ("degree 2 5 closed csv", "closed form for degree is defined for n >= 3"),
    ("rank 1 5 closed csv", "closed form for rank is defined for n >= 2"),
    ("indegree 1 5 closed csv", "closed form for indegree is defined for n >= 3"),
]


@pytest.mark.parametrize("args, message", _USAGE_ERRORS, ids=[a for a, _ in _USAGE_ERRORS])
def test_table_usage_errors(runner, args, message):
    result = run(runner, "table", *args.split())
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.output.splitlines()[-1] == f"Error: {message}"


def test_table_outdegree_census_works(runner):
    result = run(runner, "table", "outdegree", "0", "4", "census", "csv")
    assert result.exit_code == 0
    assert result.output.splitlines()[-3:] == ["4,0,1", "4,1,4", "4,2,1"]


def test_table_poset_file(runner, tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text("3\n1 2\n2 3\n")
    result = run(runner, "table", "rank", "0", "0", "census", "csv", "--poset-file", str(path))
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[1:] == ["3,0,1", "3,1,1", "3,2,1", "3,3,1"]
    bad = run(runner, "table", "rank", "0", "0", "closed", "csv", "--poset-file", str(path))
    assert bad.exit_code == 2
    missing = run(runner, "table", "rank", "0", "0", "census", "csv", "--poset-file", str(tmp_path / "no"))
    assert missing.exit_code == 2
    trash = tmp_path / "trash.poset"
    trash.write_text("2\n1 5\n")
    assert run(runner, "table", "rank", "0", "0", "census", "csv", "--poset-file", str(trash)).exit_code == 2


def test_table_poset_file_ignores_the_range(runner, tmp_path):
    # with a poset file FROM/TO are not read, so a reversed range is accepted;
    # without one it is still a usage error
    path = tmp_path / "chain.poset"
    path.write_text("3\n1 2\n2 3\n")
    want = run(runner, "table", "rank", "0", "0", "census", "csv", "--poset-file", str(path))
    got = run(runner, "table", "rank", "3", "1", "census", "csv", "--poset-file", str(path))
    assert got.exit_code == want.exit_code == 0
    assert got.output == want.output
    plain = run(runner, "table", "rank", "3", "1", "census", "csv")
    assert plain.exit_code == 2
    assert plain.output.splitlines()[-1] == "Error: need 0 <= FROM <= TO"


def test_table_poset_file_still_parses_the_range_as_integers(runner, tmp_path):
    # FROM/TO are ignored with a poset file, but click still types them
    path = tmp_path / "chain.poset"
    path.write_text("3\n1 2\n2 3\n")
    result = run(runner, "table", "rank", "x", "0", "census", "csv", "--poset-file", str(path))
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: Invalid value for 'FROM': 'x' is not a valid integer."


@pytest.mark.parametrize("text, line", [("3\n2 x\n", "2 x"), ("10\n1_0 1\n", "1_0 1")])
def test_table_poset_file_with_a_non_digit_cover_entry(runner, tmp_path, text, line):
    path = tmp_path / "bad.poset"
    path.write_text(text)
    result = run(runner, "table", "rank", "0", "0", "census", "csv", "--poset-file", str(path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.output.splitlines()[-1] == (
        f"Error: cannot read poset file {path}: malformed cover line {line!r}"
    )


@pytest.mark.parametrize("header", ["1_0", "+3", "-3"])
def test_table_poset_file_with_a_non_digit_header(runner, tmp_path, header):
    path = tmp_path / "bad.poset"
    path.write_text(f"{header}\n")
    result = run(runner, "table", "rank", "0", "0", "census", "csv", "--poset-file", str(path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.output.splitlines()[-1] == (
        f"Error: cannot read poset file {path}: first line must be the element count, got {header!r}"
    )


def test_table_census_reaches_the_census_cap(runner):
    census = run(runner, "table", "rank", "25", "25", "census", "json")
    assert census.exit_code == 0
    assert census.output == run(runner, "table", "rank", "25", "25", "recurrence", "json").output


def test_table_poset_file_capacity_and_native_census(runner, tmp_path):
    wide = tmp_path / "antichain18.poset"
    wide.write_text("18\n")
    result = run(runner, "table", "cube", "0", "0", "census", "json", "--poset-file", str(wide))
    assert result.exit_code == 3
    assert "capacity error: filter count exceeds 200000" in result.output
    # 2^17 filters are within the bound and are counted without a diagram
    path = tmp_path / "antichain17.poset"
    path.write_text("17\n")
    cube = run(runner, "table", "cube", "0", "0", "census", "json", "--poset-file", str(path))
    assert cube.exit_code == 0
    expected = [comb(17, k) * 2 ** (17 - k) for k in range(18)]  # (2 + x)^17
    assert json.loads(cube.output) == [{"n": 17, "coeffs": expected}]
    maxcube = run(runner, "table", "maxcube", "0", "0", "census", "json", "--poset-file", str(path))
    assert maxcube.exit_code == 0
    assert json.loads(maxcube.output) == [{"n": 17, "coeffs": [0] * 17 + [1]}]


@pytest.mark.parametrize("command", [("table", "cube", "0", "0", "census", "json"), ("dot",)],
                         ids=["table", "dot"])
def test_poset_file_header_past_the_enumeration_bound(runner, tmp_path, command):
    huge = tmp_path / "huge.poset"
    huge.write_text("1000000000\n")
    t0 = perf_counter()
    result = run(runner, *command, "--poset-file", str(huge))
    assert perf_counter() - t0 < 1
    assert result.exit_code == 3
    assert result.output == (
        "capacity error: filter enumeration supports at most 32 elements, got 1000000000\n"
    )
    assert result.stdout == ""
    # the same words as when the filter enumeration refuses a 40-element poset
    wide = tmp_path / "antichain40.poset"
    wide.write_text("40\n")
    result = run(runner, *command, "--poset-file", str(wide))
    assert (result.exit_code, result.output, result.stdout) == (
        3, "capacity error: filter enumeration supports at most 32 elements, got 40\n", ""
    )
    # an 18-element antichain parses but has 2^18 filters, past the count bound
    wide.write_text("18\n")
    result = run(runner, *command, "--poset-file", str(wide))
    assert (result.exit_code, result.output, result.stdout) == (
        3, "capacity error: filter count exceeds 200000\n", ""
    )
    # malformed text is still a usage error, whatever the count
    wide.write_text("40\n1 2 3\n")
    assert run(runner, *command, "--poset-file", str(wide)).exit_code == 2


# -- verify ---------------------------------------------------------------------


def test_verify_zero_passes(runner):
    result = run(runner, "verify", "0")
    assert result.exit_code == 0
    assert "0 failed" in result.output


def test_verify_twelve_reports_three_errata(runner):
    result = run(runner, "verify", "12")
    assert result.exit_code == 0
    erratum_lines = [l for l in result.output.splitlines() if l.startswith("ERRATUM")]
    assert len(erratum_lines) == 3
    assert "0 failed, 3 errata" in result.output
    # the mismatching polynomials are printed
    assert "7 + 8x + 2x^2" in result.output
    assert "6 + 6x + x^2" in result.output


def test_verify_rejects_negative(runner):
    assert run(runner, "verify", "-1").exit_code == 2


def test_verify_output_is_byte_stable(runner):
    a = run(runner, "verify", "7")
    b = run(runner, "verify", "7")
    assert a.output == b.output


# -- dot -------------------------------------------------------------------------


def test_dot_single_vertex(runner):
    result = run(runner, "dot", "0")
    assert result.exit_code == 0
    assert result.output.count("label=") == 1
    assert 'label=""' in result.output  # the empty filter of no elements
    assert "->" not in result.output


def test_dot_phi4(runner):
    result = run(runner, "dot", "4")
    assert result.exit_code == 0
    assert result.output.count("label=") == 6
    assert result.output.count("->") == 6


def test_dot_phi7_counts(runner):
    result = run(runner, "dot", "7")
    assert result.exit_code == 0
    assert result.output.count("label=") == 26
    assert result.output.count("->") == 48


def test_dot_capacity(runner):
    t0 = perf_counter()
    result = run(runner, "dot", "26")
    assert perf_counter() - t0 < 1
    assert result.exit_code == 3
    assert result.output == "capacity error: dot export is limited to n <= 25\n"
    assert result.stdout == ""


def test_dot_phi15_counts(runner):
    result = run(runner, "dot", "15")
    assert result.exit_code == 0
    assert result.output.count("label=") == 2 * fib(15)


def test_dot_poset_file(runner, tmp_path):
    path = tmp_path / "v.poset"
    path.write_text("2\n\n")
    result = run(runner, "dot", "--poset-file", str(path))
    assert result.exit_code == 0
    assert result.output.count("label=") == 4  # antichain gives a diamond
    assert run(runner, "dot", "3", "--poset-file", str(path)).exit_code == 2
    assert run(runner, "dot").exit_code == 2


# -- gf ----------------------------------------------------------------------------


def test_gf_indegree_three_terms(runner):
    result = run(runner, "gf", "indegree", "3")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines == ["0: 1", "1: 1 1", "2: 1 2"]


def test_gf_rank_one_term(runner):
    result = run(runner, "gf", "rank", "1")
    assert result.exit_code == 0
    assert result.output == "0: 1\n"


def test_gf_cube_line_seven(runner):
    result = run(runner, "gf", "cube", "8")
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[7] == "7: 26 48 28 5"


def test_gf_half_families(runner):
    result = run(runner, "gf", "rank-even", "3")
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[2] == "2: 1 1 1 2 1"


def test_gf_usage_errors(runner):
    assert run(runner, "gf", "outdegree", "3").exit_code == 2
    assert run(runner, "gf", "rank", "0").exit_code == 2
    assert run(runner, "gf", "rank", "65").exit_code == 2
