"""Fault injection: a verify line that compares two routes must fail when one
of them is wrong, and only the lines that read the faulty route may fail."""

import dataclasses
import re
from math import comb

import pytest
from click.testing import CliRunner

from flcubes import census, formulas, genfun, lattice, verify
from flcubes.cli import main
from flcubes.lattice import Interval, is_cutting
from flcubes.polynomials import IntPoly
from flcubes.poset import Poset
from flcubes.verify import run_verification

CUBE_ERRATUM = "cube coefficient recurrence q(n,k) = q(n-1,k) + q(n-2,k) + q(n-2,k-1)"
INDEGREE_ERRATUM = "indegree coefficient recurrence d-(n,k) = d-(n-1,k) + d-(n-2,k-1)"
DEGREE_ERRATUM = (
    "degree coefficient recurrence d(n,k) = d(n-2,k-1) + d(n-1,k-1) - d(n-3,k-2) + d(n-3,k-1)"
)


def _clear_memos():
    """Clear everything kept past a run: the row windows, the closed forms'
    k-free sums with the trinomials under them, and the series rows, which
    live on the series each builder makes once per process."""
    formulas._KEPT.clear()
    formulas._COEFF_ROWS.clear()
    formulas._alternating_trinomial_row.cache_clear()
    formulas._cube_terms.cache_clear()
    formulas.trinomial.cache_clear()
    for build in genfun.ALL_SERIES.values():
        build.cache_clear()


@pytest.fixture
def fresh_memos():
    """No row computed before the fault, or under it, outlives the test."""
    _clear_memos()
    yield
    _clear_memos()


def _non_passing(max_n=12):
    return {(r.name, r.status) for r in run_verification(max_n).records if r.status != "pass"}


def test_unfaulted_run_reports_only_the_three_errata(fresh_memos):
    assert _non_passing() == {
        (CUBE_ERRATUM, "erratum"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }


def _cube_closed_form_one_too_many_1_cubes(n, k):
    return formulas.q_coeff(n, k) + (k == 1)


def _rank_closed_form_one_too_many_at_rank_1(n, k):
    return formulas.r_coeff(n, k) + (k == 1)


RANK_CLOSED_FORM_LINES = {
    "rank: census vs closed form",
    "rank: closed form vs recurrence",
    "rank: closed-form coefficient sum equals 2*fib",
}


def _series_with_one_coefficient_raised(family, part, i):
    """A builder of ``family``'s series with 1 added to the y^i coefficient of
    its ``part``; it builds from the entry it replaces, captured here."""
    build = genfun.ALL_SERIES[family]

    def faulty():
        series = build()
        rows = list(getattr(series, part))
        rows[i] += IntPoly.one()
        return dataclasses.replace(series, **{part: tuple(rows)})

    return faulty


@pytest.mark.parametrize(
    "table, family, fault, failing",
    [
        (
            formulas.CLOSED_FORMS,
            "cube",
            _cube_closed_form_one_too_many_1_cubes,
            {"cube: census vs closed form", "cube: closed form vs recurrence"},
        ),
        (
            formulas.CLOSED_FORMS,
            "rank",
            _rank_closed_form_one_too_many_at_rank_1,
            RANK_CLOSED_FORM_LINES,
        ),
        (
            genfun.ALL_SERIES,
            "cube",
            _series_with_one_coefficient_raised("cube", "numerator", 1),
            {"cube: recurrence vs generating function"},
        ),
        (
            genfun.ALL_SERIES,
            "cube",
            _series_with_one_coefficient_raised("cube", "denominator", 2),
            {"cube: recurrence vs generating function"},
        ),
        (
            genfun.ALL_SERIES,
            "maxcube",
            _series_with_one_coefficient_raised("maxcube", "correction", 1),
            {"maxcube: recurrence vs generating function"},
        ),
        (
            genfun.ALL_SERIES,
            "rank-odd",
            _series_with_one_coefficient_raised("rank-odd", "numerator", 1),
            {"rank series interleaves even and odd series"},
        ),
    ],
    ids=[
        "closed form",
        "rank closed form",
        "generating function",
        "generating function denominator",
        "generating function correction",
        "half-index generating function",
    ],
)
def test_a_fault_swapped_in_after_a_warm_run_fails_the_lines_it_fails_from_cold(
    fresh_memos, monkeypatch, table, family, fault, failing
):
    # the closed forms keep only their k-free sums between runs, which the
    # swapped entry reads through the same calls as the real one, and the
    # expansion rows live on the series that expanded them, so no kept row
    # can answer for the swapped route
    with monkeypatch.context() as local:
        local.setitem(table, family, fault)
        cold = _non_passing()
    _clear_memos()
    run_verification(12)
    monkeypatch.setitem(table, family, fault)
    warm = _non_passing()
    errata = {(CUBE_ERRATUM, "erratum"), (INDEGREE_ERRATUM, "erratum"), (DEGREE_ERRATUM, "erratum")}
    assert warm == cold == {(name, "fail") for name in failing} | errata


def test_a_wrong_alternating_trinomial_sum_under_the_row_memo_fails_the_rank_closed_form(
    fresh_memos, monkeypatch
):
    # the kept rows of P_a are built from this sum, so a fault in it must
    # reach every line that reads the rank closed form
    real = formulas._alternating_trinomial_sum
    monkeypatch.setattr(formulas, "_alternating_trinomial_sum", lambda a, k: real(a, k) + (k == 0))
    errata = {(CUBE_ERRATUM, "erratum"), (INDEGREE_ERRATUM, "erratum"), (DEGREE_ERRATUM, "erratum")}
    assert _non_passing() == {(name, "fail") for name in RANK_CLOSED_FORM_LINES} | errata


def test_a_wrong_cube_polynomial_step_fails_every_line_that_reads_it(fresh_memos, monkeypatch):
    cube = formulas.RECURRENCES["cube"]
    wrong = cube._replace(steps=((IntPoly.one(), IntPoly((1, 2))),))
    monkeypatch.setitem(formulas.RECURRENCES, "cube", wrong)
    assert _non_passing() == {
        ("cube: census vs recurrence", "fail"),
        ("cube: recurrence vs generating function", "fail"),
        ("cube: closed form vs recurrence", "fail"),
        ("cube: coefficient recurrence vs polynomial recurrence", "fail"),
        ("indegree(1+x) equals cube polynomial (recurrence route)", "fail"),
        # the probe reads the stated coefficient recurrence, not the step
        (CUBE_ERRATUM, "erratum"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }


def test_a_wrong_cube_statement_fails_its_coefficient_line_and_its_probe(
    fresh_memos, monkeypatch
):
    cube = formulas.COEFF_RECURRENCES["cube"]
    statement = "q(n,k) = q(n-1,k) + q(n-2,k) + q(n-2,k-2)"
    monkeypatch.setitem(formulas.COEFF_RECURRENCES, "cube", cube._replace(statement=statement))
    assert _non_passing() == {
        ("cube: coefficient recurrence vs polynomial recurrence", "fail"),
        (f"cube coefficient recurrence {statement}", "fail"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }


@pytest.mark.parametrize(
    "family, seeds",
    [("cube", ((4, 3), (6, 6, 2))), ("rank-odd", ((1, 1), (1, 1, 2, 1)))],
)
def test_a_wrong_seed_row_fails_only_its_coefficient_line(fresh_memos, monkeypatch, family, seeds):
    # one seed entry off by one; the erratum probes step census rows, not seeds
    rec = formulas.COEFF_RECURRENCES[family]
    monkeypatch.setitem(formulas.COEFF_RECURRENCES, family, rec._replace(seeds=seeds))
    assert _non_passing() == {
        (f"{family}: coefficient recurrence vs polynomial recurrence", "fail"),
        (CUBE_ERRATUM, "erratum"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }


def test_a_wrong_per_bottom_cube_row_fails_every_line_that_reads_the_diagram_cubes(
    fresh_memos, monkeypatch
):
    # every bottom of a filter lattice passes the whole-cover-set test, so
    # each bottom with a cover adds one 1-cube too many; comb is faulted only
    # inside the scan, and the native census reads its cubes off indegree(1+x)
    real = census.cube_polynomial

    def cube_polynomial(diagram):
        with monkeypatch.context() as local:
            local.setattr(census, "comb", lambda m, k: comb(m, k) + (k == 1))
            return real(diagram)

    monkeypatch.setitem(census.DIAGRAM_CENSUS, "cube", cube_polynomial)
    monkeypatch.setattr(verify, "cube_polynomial", cube_polynomial)
    assert _non_passing() == {
        ("indegree(1+x) equals cube polynomial (census route)", "fail"),
        ("dual-fence split: cube polynomial gains (1+x) times the cutting's", "fail"),
        ("last-element split: cube polynomial gains (1+x) times the cutting's", "fail"),
        ("subgraph search agrees with interval cube census", "fail"),
        (CUBE_ERRATUM, "erratum"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }


def test_a_wrong_census_rank_row_fails_the_vertex_count_lines(fresh_memos, monkeypatch):
    # the vertex count is read off the census's rank row at x = 1, so one
    # rank-1 filter too many for the 7-element poset reaches both lines that
    # read the count, beside the two rank lines
    real = verify.poset_census

    def census_with_one_more_rank_1_filter(poset):
        rows = real(poset)
        if len(poset) == 7:
            rows = {**rows, "rank": rows["rank"] + IntPoly((0, 1))}
        return rows

    monkeypatch.setattr(verify, "poset_census", census_with_one_more_rank_1_filter)
    assert _non_passing() == {
        ("rank: census vs recurrence", "fail"),
        ("rank: census vs closed form", "fail"),
        ("vertex count: filters vs 2*fib", "fail"),
        ("outdegree: census total vs vertex count", "fail"),
        (CUBE_ERRATUM, "erratum"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }


def test_expanding_along_another_cutting_fails_the_isomorphism_lines(fresh_memos, monkeypatch):
    # the first other cutting of the same size, so the vertex counts still
    # add up; for the last-element split there are two or three such
    # cuttings at each n = 6..9, and none of their expansions is phi(n)
    def other_cutting(host, interval):
        size = len(host.interval_members(interval))
        for bottom in range(len(host)):
            for top in range(len(host)):
                other = Interval(bottom, top)
                if (other != interval and host.leq(bottom, top)
                        and len(host.interval_members(other)) == size
                        and is_cutting(host, other)):
                    return lattice.convex_expansion(host, other)
        raise AssertionError("no other cutting of the same size")

    monkeypatch.setattr(verify, "convex_expansion", other_cutting)
    records = run_verification(9).records
    assert {(r.name, r.status) for r in records if r.status != "pass"} == {
        ("dual-fence split: rank polynomial obeys the bottom-anchored expansion split", "fail"),
        ("dual-fence split: cube polynomial gains (1+x) times the cutting's", "fail"),
        ("dual-fence split: expansion is isomorphic to the direct construction", "fail"),
        ("last-element split: rank polynomial obeys the top-anchored expansion split", "fail"),
        ("last-element split: rank polynomial obeys the bottom-anchored expansion split", "fail"),
        ("last-element split: cube polynomial gains (1+x) times the cutting's", "fail"),
        ("last-element split: expansion is isomorphic to the direct construction", "fail"),
        (CUBE_ERRATUM, "erratum"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }
    by_name = {}
    for r in records:
        by_name.setdefault(r.name, []).append(r.status)
    assert by_name["last-element split: vertex count is additive"] == ["pass"] * 4
    assert by_name["last-element split: expansion is isomorphic to the direct construction"] == [
        "fail"
    ] * 4
    # at n = 5, 7 and 9 the isomorphism line is the only dual-fence line to
    # fail; at n = 6 the other cutting's expansion is phi(6) as well
    assert by_name["dual-fence split: expansion is isomorphic to the direct construction"] == [
        "fail", "pass", "fail", "fail", "fail"
    ]


def test_join_irreducibles_returning_the_dual_fails_every_split_whose_poset_is_not_self_dual(
    fresh_memos, monkeypatch
):
    # each side of a split is certified against its own poset, so a J that
    # comes back turned upside down fails wherever that poset is not
    # self-dual: the S-fences from 4 elements on, and the odd fences from 3
    real = lattice.join_irreducibles
    monkeypatch.setattr(verify, "join_irreducibles", lambda d: real(d).dual())
    records = run_verification(12).records
    assert {r.name for r in records if r.status == "erratum"} == {
        CUBE_ERRATUM, INDEGREE_ERRATUM, DEGREE_ERRATUM,
    }
    dual_fence, last_element = "dual-fence split: ", "last-element split: "
    iso = "expansion is isomorphic to the direct construction"
    assert sorted((r.name, r.scope) for r in records if r.status == "fail") == sorted(
        [(dual_fence + iso, f"n={n}") for n in range(5, 10)]
        + [(dual_fence + "cutting matches the short fence lattice", f"n={n}") for n in (7, 9)]
        + [(last_element + "cutting matches the smaller cube", f"n={n}") for n in range(6, 10)]
        + [(last_element + iso, f"n={n}") for n in range(6, 10)]
    )


def test_a_split_along_a_non_cutting_fails_the_lines_that_read_the_expansion(monkeypatch):
    # one vertex of a rank that holds several is no cutting, so
    # convex_expansion refuses it; the run must report that, not raise it
    def mid_rank_vertex(poset, x):
        host, _ = lattice.deletion_cutting(poset, x)
        v = next(v for v in host.rank_order if host.ranks[v] == host.height // 2)
        assert not is_cutting(host, Interval(v, v))
        return host, Interval(v, v)

    monkeypatch.setattr(verify, "deletion_cutting", mid_rank_vertex)
    refusal = "interval is not a cutting; expansion would not be graded"
    expected = []
    for n in range(6, 10):
        expected.append(("cutting matches the smaller cube", f"n={n}",
                         "cutting is not the expected smaller cube"))
        expected.extend((check, f"n={n}", refusal) for check in (
            "vertex count is additive",
            "rank polynomial obeys the bottom-anchored expansion split",
            "cube polynomial gains (1+x) times the cutting's",
            "expansion is isomorphic to the direct construction",
        ))
    records = run_verification(9).records
    assert [
        (r.name.removeprefix("last-element split: "), r.scope, r.detail)
        for r in records if r.status == "fail"
    ] == expected
    result = CliRunner().invoke(main, ["verify", "9"])
    assert result.exit_code == 1, result.exception
    assert result.output.endswith("99 checks: 76 passed, 20 failed, 3 errata\n")


def test_a_wrong_deletion_count_fails_only_the_deletion_split_line(fresh_memos, monkeypatch):
    # one filter too many on the star side of element 3 of every poset; no
    # other line reads deletion_counts
    real = Poset.deletion_counts

    def one_too_many_apart_from_3(poset, x):
        rest, apart = real(poset, x)
        return rest, apart + (x == 3)

    monkeypatch.setattr(Poset, "deletion_counts", one_too_many_apart_from_3)
    split = "filter counts split under element deletion"
    records = run_verification(12).records
    assert {(r.name, r.status) for r in records if r.status != "pass"} == {
        (split, "fail"),
        (CUBE_ERRATUM, "erratum"),
        (INDEGREE_ERRATUM, "erratum"),
        (DEGREE_ERRATUM, "erratum"),
    }
    (detail,) = (r.detail for r in records if r.name == split)
    assert re.fullmatch(r"element 3 of a \d+-element poset: \d+ != \d+", detail), detail
