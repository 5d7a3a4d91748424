"""Fault injection: a verify line that compares two routes must fail when one
of them is wrong, and only the lines that read the faulty route may fail."""

import pytest

from flcubes import formulas, tables
from flcubes.polynomials import IntPoly
from flcubes.verify import run_verification

CUBE_ERRATUM = "cube coefficient recurrence q(n,k) = q(n-1,k) + q(n-2,k) + q(n-2,k-1)"
INDEGREE_ERRATUM = "indegree coefficient recurrence d-(n,k) = d-(n-1,k) + d-(n-2,k-1)"
DEGREE_ERRATUM = (
    "degree coefficient recurrence d(n,k) = d(n-2,k-1) + d(n-1,k-1) - d(n-3,k-2) + d(n-3,k-1)"
)


def _clear_memos():
    formulas._KEPT.clear()
    formulas._COEFF_ROWS.clear()
    tables._sfence_census.cache_clear()
    tables.phi_diagram.cache_clear()


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
