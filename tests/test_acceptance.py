"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them); every comparison is exact, and the stated wall-clock budgets are
asserted.  Criteria order follows the project requirements.
"""

import time
from contextlib import contextmanager

import golden_tables
from flcubes import tables
from flcubes.census import cube_polynomial, generic_cube_count
from flcubes.formulas import fib, padovan133
from flcubes.genfun import ALL_SERIES
from flcubes.lattice import (
    Interval,
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
    is_cutting,
    underlying_graph,
)
from flcubes.polynomials import IntPoly
from flcubes.poset import fence, sfence
from flcubes.verify import _isomorphic, run_verification

ONE_PLUS_X = IntPoly([1, 1])
X = IntPoly([0, 1])


def _phi(n):
    return filter_lattice(sfence(n))


@contextmanager
def criterion(num: int, description: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"ACCEPTANCE {num}: FAIL - {description} (took {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget_s}s budget")
    print(f"ACCEPTANCE {num}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_golden_tables():
    with criterion(1, "census reproduces every golden coefficient table", budget_s=5.0):
        for family, table in golden_tables.ALL.items():
            for n, coeffs in table.items():
                assert tables.census_poly(family, n) == IntPoly(coeffs), (family, n)


def test_criterion_2_vertex_counts():
    with criterion(2, "vertex counts are 2*fib(n), with 1, 2, 3 at n = 0, 1, 2", budget_s=30.0):
        assert [sfence(n).count_filters() for n in range(3)] == [1, 2, 3]
        for n in range(3, tables.CENSUS_MAX_N + 1):
            assert sfence(n).count_filters() == 2 * fib(n), n
        assert sfence(18).count_filters() == 5168
        assert sfence(25).count_filters() == 150050


def test_criterion_3_four_way_agreement():
    with criterion(3, "census, recurrence, closed form and GF agree pairwise", budget_s=60.0):
        for family in ("rank", "cube", "maxcube", "degree", "indegree"):
            closed_lo = tables.CLOSED_MIN_N[family]
            gf = tables.gf_polys(family, 41)
            for n in range(41):
                rec = tables.recurrence_poly(family, n)
                assert rec == gf[n], (family, n, "recurrence vs gf")
                if n >= closed_lo:
                    assert tables.closed_poly(family, n) == rec, (family, n, "closed vs recurrence")
                if n <= tables.CENSUS_MAX_N:
                    assert tables.census_poly(family, n) == rec, (family, n, "census vs recurrence")


def test_criterion_4_identity_suite():
    with criterion(4, "indegree/cube, Padovan, Fibonacci-sum and expansion identities"):
        for n in range(41):
            assert tables.recurrence_poly("indegree", n).compose(ONE_PLUS_X) == tables.recurrence_poly("cube", n)
        for n in range(3, 41):
            assert tables.recurrence_poly("maxcube", n)(1) == padovan133(n - 2)
            assert tables.closed_poly("rank", n)(1) == 2 * fib(n)
            assert tables.closed_poly("degree", n)(1) == 2 * fib(n)
            assert tables.closed_poly("indegree", n)(1) == 2 * fib(n)
        # cube-count split on every expansion the structural tests build
        for host, interval in _structural_expansions():
            part = interval_diagram(host, interval)
            expanded = convex_expansion(host, interval)
            assert cube_polynomial(expanded) == cube_polynomial(host) + ONE_PLUS_X * cube_polynomial(part)


def _structural_expansions():
    for n in range(5, 10):
        host = filter_lattice(fence(n - 1).dual())
        yield host, Interval(host.bottom, host.find_filter({1, 2, 3}))
    for n in range(6, 10):
        yield deletion_cutting(sfence(n), n)


def test_criterion_5_structural_isomorphisms():
    with criterion(5, "both structural decompositions reproduce the cubes", budget_s=10.0):
        for n in range(5, 10):
            host = filter_lattice(fence(n - 1).dual())
            interval = Interval(host.bottom, host.find_filter({1, 2, 3}))
            assert is_cutting(host, interval), n
            expanded = convex_expansion(host, interval)
            assert _isomorphic(expanded, _phi(n)), ("dual-fence form", n)
        for n in range(6, 10):
            host, interval = deletion_cutting(sfence(n), n)
            assert _isomorphic(interval_diagram(host, interval), _phi(n - 2)), n
            expanded = convex_expansion(host, interval)
            assert _isomorphic(expanded, _phi(n)), ("last-element form", n)


def test_criterion_6_deletion_count_split():
    with criterion(6, "filter counts split as |F(P)| = |F(P-x)| + |F(P*x)|"):
        for n in range(13):
            for poset in (sfence(n), fence(n)):
                total = poset.count_filters()
                for x in poset.elements:
                    assert (
                        poset.remove(x).count_filters()
                        + poset.star_remove(x).count_filters()
                        == total
                    ), (len(poset), x)


def test_criterion_7_oracle_independence():
    with criterion(7, "subgraph search and Boolean-interval cube counts agree"):
        for n in range(7):
            diagram = _phi(n)
            graph = underlying_graph(diagram)
            poly = cube_polynomial(diagram)
            for k in range(4):
                assert generic_cube_count(graph, k) == poly.coeff(k), (n, k)


def test_criterion_8_erratum_detection():
    with criterion(8, "verify reports the three recurrence-range errata and confirms the rest"):
        report = run_verification(18)
        assert report.failures == 0
        errata = [r for r in report.records if r.status == "erratum"]
        assert len(errata) == 3
        by_name = {r.name: r for r in errata}
        cube = next(r for name, r in by_name.items() if name.startswith("cube"))
        assert "n=4" in cube.scope
        assert "7 + 8x + 2x^2" in cube.detail and "6 + 6x + x^2" in cube.detail
        assert "holds for n=5..18" in cube.detail
        indeg = next(r for name, r in by_name.items() if name.startswith("indegree"))
        assert "n=3,4" in indeg.scope
        assert "holds for n=5..18" in indeg.detail
        deg = next(r for name, r in by_name.items() if name.startswith("degree"))
        assert "n=4,5" in deg.scope
        assert "holds for n=6..18" in deg.detail


def test_criterion_9_gf_exactness():
    with criterion(9, "each generating function re-multiplies to its numerator through y^40"):
        for family, builder in ALL_SERIES.items():
            assert builder().exactness_failure(41) is None, family
