"""Cross-verification suite over the whole library.

Every check compares two independent routes to the same numbers: census
against recurrence, recurrence against closed form, formula against
generating function, and each side of a structural split against the poset
whose filter lattice it must be, through its poset of join-irreducibles
(Birkhoff's theorem).  Known range errata of
three coefficient recurrences are probed explicitly and reported as
erratum records, which never fail a run but are always printed.

A run builds its subject once, the S-fences with their native censuses,
filter lattices and route rows, and hands each check group the lists it
reads; nothing is kept past the run.  Each group yields its records in
report order, and ``_record`` makes every pass or fail from its first failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tables
from .formulas import (
    COEFF_RECURRENCES,
    VALIDATED_FROM,
    binom,
    coeff_by_recurrence,
    fib,
    padovan133,
    polynomial_row,
    stated_step,
    stated_terms,
)
from .census import (
    GENERIC_DIM_BOUND,
    cube_polynomial,
    generic_cube_count,
    poset_census,
    rank_polynomial,
)
from .genfun import ALL_SERIES
from .lattice import (
    Interval,
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
    is_cutting,
    join_irreducibles,
    underlying_graph,
)
from .polynomials import IntPoly
from .poset import fence, sfence

# Each range is set by its cost, timed in-process (2-vCPU Xeon, Python
# 3.11.7; medians of five alternating rounds).  All seven series
# multiplied back to y^40: 5 ms (14 ms to y^80).
GF_EXACTNESS_DEPTH = 40
# Both splits to n = 9: 12 ms (36 ms to 12, 114 ms to 14).
STRUCTURAL_MAX_N = 9
# The filter-count split to n = 12: 2.5 ms (5.8 ms to 14, 40 ms to 18).
CONEXP_MAX_N = 12
# The subgraph oracle to n = 6: 1 ms; from n = 8 on the S-fence diagrams
# have more vertices than census.GENERIC_GRAPH_BOUND.
GENERIC_CUBE_MAX_N = 6
# The filter lattices to n = 14, which the diagram checks read: 8 ms (65 ms
# to 18).
QD_CENSUS_MAX_N = 14

_X = IntPoly((0, 1))
_ONE_PLUS_X = IntPoly((1, 1))


@dataclass
class CheckRecord:
    name: str
    scope: str
    status: str  # pass, fail or erratum
    detail: str = ""

    def render(self) -> str:
        line = f"{self.status.upper():8}{self.name} [{self.scope}]"
        if self.detail:
            line += f": {self.detail}"
        return line


@dataclass
class VerificationReport:
    max_n: int
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def errata(self) -> int:
        return sum(1 for r in self.records if r.status == "erratum")

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def render(self) -> str:
        lines = [f"verification report, max_n={self.max_n}"]
        lines.extend(r.render() for r in self.records)
        passed = len(self.records) - self.failures - self.errata
        lines.append(
            f"{len(self.records)} checks: {passed} passed, "
            f"{self.failures} failed, {self.errata} errata"
        )
        return "\n".join(lines)


def _record(name: str, scope: str, failures) -> CheckRecord:
    """One check: failed with the first detail the lazy iterable ``failures``
    yields, so nothing past it is computed, or passed."""
    detail = next(iter(failures), None)
    return CheckRecord(name, scope, "pass" if detail is None else "fail", detail or "")


def _compare(name: str, lo: int, hi: int, fa, fb) -> CheckRecord:
    """One check comparing fa(n) to fb(n) over lo..hi.  Both are called before
    it returns, so they may read a caller's loop variables."""
    pairs = ((n, fa(n), fb(n)) for n in range(lo, hi + 1))
    scope = f"n={lo}..{hi}" if lo <= hi else "empty range"
    return _record(name, scope, (f"n={n}: {a} vs {b}" for n, a, b in pairs if a != b))


def run_verification(max_n: int) -> VerificationReport:
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    census_hi = min(max_n, tables.CENSUS_MAX_N)
    formula_hi = min(max_n, tables.FORMULA_MAX_N)

    posets = [sfence(n) for n in range(census_hi + 1)]
    census = [poset_census(p) for p in posets]
    diagrams = [filter_lattice(p) for p in posets[: QD_CENSUS_MAX_N + 1]]
    rows = {(family, "census"): [c[family] for c in census] for family in tables.FAMILIES}
    for family, closed_lo in tables.CLOSED_MIN_N.items():
        # one row past formula_hi: row m of rank-odd is rank row 2m + 1
        rows[family, "recurrence"] = [
            tables.recurrence_poly(family, n) for n in range(formula_hi + 2)
        ]
        rows[family, "closed form"] = {
            n: tables.closed_poly(family, n) for n in range(closed_lo, formula_hi + 1)
        }
        rows[family, "generating function"] = tables.gf_polys(family, formula_hi + 1)

    records = [
        *_comparisons(rows, diagrams, census_hi, formula_hi),
        *_series(formula_hi),
        # the splits build lattices as large as the diagrams, so they stop where those stop
        *_structural(min(STRUCTURAL_MAX_N, len(diagrams) - 1), posets),
        *_oracles(posets, diagrams),
        *_erratum_probes(rows, census_hi),
    ]
    return VerificationReport(max_n, records)


# -- check groups: each yields its records, and a range stops at the end of the list it reads


def _comparisons(rows, diagrams, census_hi, formula_hi):
    """Each route against the others, then against identities in reference numbers.

    The vertex count is the census's rank row at x = 1, the number of filters.
    """
    for family, closed_lo in tables.CLOSED_MIN_N.items():
        for a, b, lo, hi in (
            ("census", "recurrence", 0, census_hi),
            ("census", "closed form", closed_lo, census_hi),
            ("recurrence", "generating function", 0, formula_hi),
            ("closed form", "recurrence", closed_lo, formula_hi),
        ):
            ra, rb = rows[family, a], rows[family, b]
            yield _compare(f"{family}: {a} vs {b}", lo, hi, ra.__getitem__, rb.__getitem__)
    yield _compare(
        "outdegree: census total vs vertex count", 0, census_hi,
        lambda n: rows["outdegree", "census"][n](1), lambda n: rows["rank", "census"][n](1),
    )
    for family, lo in VALIDATED_FROM.items():
        poly, size, shift = polynomial_row(family)
        yield _compare(
            f"{family}: coefficient recurrence vs polynomial recurrence", lo, formula_hi // size,
            lambda n: IntPoly([coeff_by_recurrence(family, n, k) for k in range(2 * n + 2)]),
            lambda n: rows[poly, "recurrence"][size * n + shift],
        )
    yield _compare(
        "vertex count: filters vs 2*fib", 0, census_hi,
        lambda n: rows["rank", "census"][n](1), lambda n: (1, 2, 3)[n] if n < 3 else 2 * fib(n),
    )
    yield _compare(
        "indegree(1+x) equals cube polynomial (recurrence route)", 0, formula_hi,
        lambda n: rows["indegree", "recurrence"][n].compose(_ONE_PLUS_X),
        rows["cube", "recurrence"].__getitem__,
    )
    # the native census counts cubes as indegree(1+x), so the cube side is
    # taken from the diagram scan to keep this check from being circular;
    # the scan adds C(m, k) for a bottom with m covers only once it has
    # found that they span a Boolean interval
    yield _compare(
        "indegree(1+x) equals cube polynomial (census route)", 0, min(census_hi, QD_CENSUS_MAX_N),
        lambda n: rows["indegree", "census"][n].compose(_ONE_PLUS_X),
        lambda n: tables.diagram_poly("cube", diagrams[n]),
    )
    yield _compare(
        "maximal cubes at x=1 equal Padovan numbers", 3, formula_hi,
        lambda n: rows["maxcube", "recurrence"][n](1), lambda n: padovan133(n - 2),
    )
    for family in ("rank", "degree", "indegree"):
        yield _compare(
            f"{family}: closed-form coefficient sum equals 2*fib", 3, formula_hi,
            lambda n: rows[family, "closed form"][n](1), lambda n: 2 * fib(n),
        )
    yield _compare(
        "rank generating function at x=1 equals 2*fib", 3, formula_hi,
        lambda n: rows["rank", "generating function"][n](1), lambda n: 2 * fib(n),
    )
    yield _compare(
        "diagonal binomial sums equal Fibonacci numbers", 0, formula_hi,
        lambda n: sum(binom(n - k, k) for k in range(n // 2 + 1)), lambda n: fib(n + 1),
    )


def _series(formula_hi: int):
    """Each series multiplied back by its denominator, then the rank series
    against its even and odd halves."""
    for family, builder in ALL_SERIES.items():
        failure = builder().exactness_failure(GF_EXACTNESS_DEPTH + 1)
        name = f"{family} generating function: expansion times denominator reproduces numerator"
        yield _record(name, f"y^0..y^{GF_EXACTNESS_DEPTH}", [] if failure is None else [failure])
    hi_m = formula_hi // 2
    evens = tables.gf_polys("rank-even", hi_m + 1)
    odds = tables.gf_polys("rank-odd", hi_m + 1)
    ranks = tables.gf_polys("rank", 2 * hi_m + 2)
    ok = ranks[0::2] == evens and ranks[1::2] == odds
    name = "rank series interleaves even and odd series"
    yield _record(name, f"m=0..{hi_m}", [] if ok else ["even or odd slice mismatch"])


def _split_checks(tag, n, host, interval, cutting, poset):
    """One split of phi(n) = F(``poset``): the cutting, counts, rank split, cube identity, iso.

    ``cutting`` is what the interval should be as its own diagram: the text
    after "matches", the poset whose filter lattice it must be, and the
    failure detail.  Every split checked here is anchored at the host's top
    or at its bottom, which fixes the rank split.  A detail is built only
    for a check that fails.  If the interval is not a cutting, each line
    that reads the expansion fails with ``convex_expansion``'s refusal.
    """
    scope = f"n={n}"
    part = interval_diagram(host, interval)
    what, small, detail = cutting
    ok = _certifies(part, small)
    yield _record(f"{tag}: cutting matches {what}", scope, [] if ok else [detail])

    r_host, r_part = rank_polynomial(host), rank_polynomial(part)
    if interval.top == host.top:
        label, r_split = "top-anchored", r_host + r_part.shift(host.ranks[interval.bottom] + 1)
    else:
        label, r_split = "bottom-anchored", r_part + _X * r_host
    names = [f"{tag}: {check}" for check in (
        "vertex count is additive",
        f"rank polynomial obeys the {label} expansion split",
        "cube polynomial gains (1+x) times the cutting's",
        "expansion is isomorphic to the direct construction",
    )]
    try:
        expanded = convex_expansion(host, interval)
    except ValueError as refusal:  # the interval is not a cutting
        yield from (_record(name, scope, [str(refusal)]) for name in names)
        return
    ok = len(expanded) == len(host) + len(part)
    yield _record(names[0], scope, [] if ok else ["count mismatch"])
    r_exp = rank_polynomial(expanded)
    yield _record(names[1], scope, [] if r_exp == r_split else [f"{r_exp} vs {r_split}"])
    q_exp = cube_polynomial(expanded)
    expected = cube_polynomial(host) + _ONE_PLUS_X * cube_polynomial(part)
    yield _record(names[2], scope, [] if q_exp == expected else [f"{q_exp} vs {expected}"])
    ok = _certifies(expanded, poset)
    yield _record(names[3], scope, [] if ok else ["no rank-preserving isomorphism found"])


def _structural(hi: int, posets):
    for n in range(5, hi + 1):
        host = filter_lattice(fence(n - 1).dual())
        interval = Interval(host.bottom, host.find_filter({1, 2, 3}))
        name = "dual-fence split: interval is a cutting"
        yield _record(name, f"n={n}", [] if is_cutting(host, interval) else ["not a cutting"])
        short = fence(n - 4)
        cutting = ("the short fence lattice", short, "cutting is not the expected fence lattice")
        yield from _split_checks("dual-fence split", n, host, interval, cutting, posets[n])
    for n in range(6, hi + 1):
        host, interval = deletion_cutting(posets[n], n)
        cutting = ("the smaller cube", posets[n - 2], "cutting is not the expected smaller cube")
        yield from _split_checks("last-element split", n, host, interval, cutting, posets[n])


def _certifies(diagram, poset) -> bool:
    """True iff the diagram certifies as distributive with join-irreducibles ≅ ``poset``."""
    j = join_irreducibles(diagram)
    return j is not None and j.is_isomorphic(poset)


def _oracles(posets, diagrams):
    """The filter counts under element deletion, and the subgraph search against the scan.

    The deletion split #F(P) = #F(P - x) + #F(P -* x) reads one enumerator
    on all three sides: the whole poset's count, enumerated afresh, and
    each side counted inside the poset over the positions it keeps.
    """
    hi = min(CONEXP_MAX_N, len(posets) - 1)
    name = "filter counts split under element deletion"
    yield _record(name, f"n<={hi}", _conexp_counts(posets, hi))
    hi = min(GENERIC_CUBE_MAX_N, len(diagrams) - 1)
    name = "subgraph search agrees with interval cube census"
    yield _record(name, f"n<={hi}, k<={GENERIC_DIM_BOUND}", _generic_cubes(diagrams, hi))


def _conexp_counts(posets, hi: int):
    """The failure details of the filter-count split over S-fences and fences to ``hi``.

    The whole count is ``count_filters``, which enumerates: the fences have
    no census to read it from, and re-counting the S-fences is cheap at this
    range.  ``Poset.deletion_counts`` counts both sides without building
    either subposet; ``remove`` and ``star_remove`` are its definition-level
    side in the tests.
    """
    for n in range(0, hi + 1):
        for poset in (posets[n], fence(n)):
            total = poset.count_filters()
            for x in poset.elements:
                split = sum(poset.deletion_counts(x))
                if split != total:
                    yield f"element {x} of a {len(poset)}-element poset: {split} != {total}"


def _generic_cubes(diagrams, hi: int):
    """The failure details of the subgraph search against the cube scan to ``hi``."""
    for n in range(0, hi + 1):
        graph = underlying_graph(diagrams[n])
        poly = cube_polynomial(diagrams[n])
        for k in range(GENERIC_DIM_BOUND + 1):
            got = generic_cube_count(graph, k)
            if got != poly.coeff(k):
                yield f"n={n}, k={k}: {got} vs {poly.coeff(k)}"


# The three coefficient recurrences whose stated start fails, in report
# order, with that start.  Each probe applies the statement to census rows,
# expects the mismatch at every index from the stated start up to the
# validated one, and confirms the validated range.
_ERRATA = (("cube", 4), ("indegree", 3), ("degree", 4))


def _erratum_probes(rows, census_hi: int):
    for family, stated_from in _ERRATA:
        statement = COEFF_RECURRENCES[family].statement
        valid_from = VALIDATED_FROM[family]
        probe_ns = range(stated_from, valid_from)
        if census_hi < max(probe_ns):
            continue

        terms = stated_terms(statement)
        census = rows[family, "census"]
        coeffs = [p.coeffs for p in census]
        # row n as the statement predicts it from the census rows below n
        predicted = {
            n: IntPoly(stated_step(terms, coeffs[:n])) for n in range(stated_from, census_hi + 1)
        }
        details = [
            f"n={n}: recurrence gives {predicted[n]}, census gives {census[n]}"
            if predicted[n] != census[n]
            else f"expected mismatch at n={n} but the recurrence holds"
            for n in probe_ns
        ]
        fails = [n for n in range(valid_from, census_hi + 1) if predicted[n] != census[n]]
        details.append(
            f"recurrence unexpectedly fails at n={fails[0]}"
            if fails
            else f"holds for n={valid_from}..{census_hi}"
        )
        ok = not fails and all(predicted[n] != census[n] for n in probe_ns)
        yield CheckRecord(
            f"{family} coefficient recurrence {statement}",
            f"probe n={','.join(map(str, probe_ns))}",
            "erratum" if ok else "fail",
            "; ".join(details),
        )
