"""Cross-verification suite over the whole library.

Every check compares two independent routes to the same numbers: census
against recurrence, recurrence against closed form, formula against
generating function, structure against expansion, the last through
posets of join-irreducibles (Birkhoff's theorem).  Known range errata of
three coefficient recurrences are probed explicitly and reported as
erratum records, which never fail a run but are always printed.

A run builds its subject once, the S-fences with their native censuses,
filter lattices and route rows, and hands each check group the lists it
reads; nothing is kept past the run.
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
# 3.11.7; medians of five alternating rounds) against 73 ms for a whole run
# to n = 18.  All seven series multiplied back to y^40: 5 ms (14 ms to y^80).
GF_EXACTNESS_DEPTH = 40
# Both splits to n = 9: 12 ms (36 ms to 12, 114 ms to 14).
STRUCTURAL_MAX_N = 9
# The filter-count split to n = 12: 13 ms (22 ms to 14, 98 ms to 18).
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

    def record(self, name, scope, failures) -> None:
        """Record one check: failed with the first detail the lazy iterable
        ``failures`` yields, so nothing past it is computed, or passed."""
        detail = next(iter(failures), None)
        status = "pass" if detail is None else "fail"
        self.records.append(CheckRecord(name, scope, status, detail or ""))

    def compare_range(self, name, lo, hi, fa, fb) -> None:
        """Record one check comparing fa(n) to fb(n) over lo..hi."""
        pairs = ((n, fa(n), fb(n)) for n in range(lo, hi + 1))
        scope = f"n={lo}..{hi}" if lo <= hi else "empty range"
        self.record(name, scope, (f"n={n}: {a} vs {b}" for n, a, b in pairs if a != b))

    def check(self, name, scope, ok, detail="") -> None:
        self.record(name, scope, () if ok else (detail,))


def run_verification(max_n: int) -> VerificationReport:
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    report = VerificationReport(max_n)
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

    _method_agreement(report, rows, posets, census_hi, formula_hi)
    _identity_suite(report, rows, diagrams, census_hi, formula_hi)
    _gf_exactness(report)
    _interleaving(report, formula_hi)
    # each range below stops at the end of the list it reads
    _structural(report, min(STRUCTURAL_MAX_N, len(diagrams) - 1), posets, diagrams)
    hi = min(CONEXP_MAX_N, len(posets) - 1)
    name = "filter counts split under element deletion"
    report.record(name, f"n<={hi}", _conexp_counts(posets, hi))
    hi = min(GENERIC_CUBE_MAX_N, len(diagrams) - 1)
    name = "subgraph search agrees with interval cube census"
    report.record(name, f"n<={hi}, k<={GENERIC_DIM_BOUND}", _generic_cubes(diagrams, hi))
    _erratum_probes(report, rows, census_hi)

    return report


# -- check groups ---------------------------------------------------------------


def _method_agreement(report: VerificationReport, rows, posets, census_hi, formula_hi) -> None:
    for family, closed_lo in tables.CLOSED_MIN_N.items():
        for a, b, lo, hi in (
            ("census", "recurrence", 0, census_hi),
            ("census", "closed form", closed_lo, census_hi),
            ("recurrence", "generating function", 0, formula_hi),
            ("closed form", "recurrence", closed_lo, formula_hi),
        ):
            ra, rb = rows[family, a], rows[family, b]
            report.compare_range(f"{family}: {a} vs {b}", lo, hi, ra.__getitem__, rb.__getitem__)
    report.compare_range(
        "outdegree: census total vs vertex count",
        0,
        census_hi,
        lambda n: rows["outdegree", "census"][n](1),
        lambda n: posets[n].count_filters(),
    )
    for family, lo in VALIDATED_FROM.items():
        poly, size, shift = polynomial_row(family)
        report.compare_range(
            f"{family}: coefficient recurrence vs polynomial recurrence",
            lo,
            formula_hi // size,
            lambda n, f=family: IntPoly([coeff_by_recurrence(f, n, k) for k in range(2 * n + 2)]),
            lambda n, r=rows[poly, "recurrence"], s=size, h=shift: r[s * n + h],
        )
    report.compare_range(
        "vertex count: filters vs 2*fib",
        0,
        census_hi,
        lambda n: posets[n].count_filters(),
        lambda n: (1, 2, 3)[n] if n < 3 else 2 * fib(n),
    )


def _identity_suite(report: VerificationReport, rows, diagrams, census_hi, formula_hi) -> None:
    report.compare_range(
        "indegree(1+x) equals cube polynomial (recurrence route)",
        0,
        formula_hi,
        lambda n: rows["indegree", "recurrence"][n].compose(_ONE_PLUS_X),
        rows["cube", "recurrence"].__getitem__,
    )
    # the native census counts cubes as indegree(1+x), so the cube side is
    # taken from the diagram scan to keep this check from being circular;
    # the scan adds C(m, k) for a bottom with m covers only once it has
    # found that they span a Boolean interval
    report.compare_range(
        "indegree(1+x) equals cube polynomial (census route)",
        0,
        min(census_hi, QD_CENSUS_MAX_N),
        lambda n: rows["indegree", "census"][n].compose(_ONE_PLUS_X),
        lambda n: tables.diagram_poly("cube", diagrams[n]),
    )
    report.compare_range(
        "maximal cubes at x=1 equal Padovan numbers",
        3,
        formula_hi,
        lambda n: rows["maxcube", "recurrence"][n](1),
        lambda n: padovan133(n - 2),
    )
    for family in ("rank", "degree", "indegree"):
        report.compare_range(
            f"{family}: closed-form coefficient sum equals 2*fib",
            3,
            formula_hi,
            lambda n, r=rows[family, "closed form"]: r[n](1),
            lambda n: 2 * fib(n),
        )
    report.compare_range(
        "rank generating function at x=1 equals 2*fib",
        3,
        formula_hi,
        lambda n: rows["rank", "generating function"][n](1),
        lambda n: 2 * fib(n),
    )
    report.compare_range(
        "diagonal binomial sums equal Fibonacci numbers",
        0,
        formula_hi,
        lambda n: sum(binom(n - k, k) for k in range(n // 2 + 1)),
        lambda n: fib(n + 1),
    )


def _gf_exactness(report: VerificationReport) -> None:
    for family, builder in ALL_SERIES.items():
        failure = builder().exactness_failure(GF_EXACTNESS_DEPTH + 1)
        report.check(
            f"{family} generating function: expansion times denominator "
            "reproduces numerator",
            f"y^0..y^{GF_EXACTNESS_DEPTH}",
            failure is None,
            failure or "",
        )


def _interleaving(report: VerificationReport, formula_hi: int) -> None:
    hi_m = formula_hi // 2
    evens = tables.gf_polys("rank-even", hi_m + 1)
    odds = tables.gf_polys("rank-odd", hi_m + 1)
    ranks = tables.gf_polys("rank", 2 * hi_m + 2)
    ok = ranks[0::2] == evens and ranks[1::2] == odds
    report.check(
        "rank series interleaves even and odd series", f"m=0..{hi_m}", ok,
        "even or odd slice mismatch",
    )


def _split_checks(report: VerificationReport, tag, n, host, interval, cutting, direct) -> None:
    """One split of ``direct`` = phi(n): the cutting, counts, rank split, cube identity, iso.

    ``cutting`` is what the interval should be as its own diagram: the text
    after "matches", that diagram, and the failure detail.  Every split
    checked here is anchored at the host's top or at its bottom, which fixes
    the rank split.
    """
    scope = f"n={n}"
    part = interval_diagram(host, interval)
    what, expected_part, detail = cutting
    report.check(f"{tag}: cutting matches {what}", scope, _isomorphic(part, expected_part), detail)

    expanded = convex_expansion(host, interval)
    ok = len(expanded) == len(host) + len(part)
    report.check(f"{tag}: vertex count is additive", scope, ok, "count mismatch")

    r_host = rank_polynomial(host)
    r_part = rank_polynomial(part)
    r_exp = rank_polynomial(expanded)
    if interval.top == host.top:
        shift = host.ranks[interval.bottom] + 1
        expected = r_host + r_part.shift(shift)
        label = "top-anchored"
    else:
        expected = r_part + _X * r_host
        label = "bottom-anchored"
    report.check(
        f"{tag}: rank polynomial obeys the {label} expansion split",
        scope,
        r_exp == expected,
        f"{r_exp} vs {expected}",
    )

    q_host = cube_polynomial(host)
    q_part = cube_polynomial(part)
    q_exp = cube_polynomial(expanded)
    report.check(
        f"{tag}: cube polynomial gains (1+x) times the cutting's",
        scope,
        q_exp == q_host + _ONE_PLUS_X * q_part,
        f"{q_exp} vs {q_host + _ONE_PLUS_X * q_part}",
    )

    report.check(
        f"{tag}: expansion is isomorphic to the direct construction",
        scope,
        _isomorphic(expanded, direct),
        "no rank-preserving isomorphism found",
    )


def _structural(report: VerificationReport, hi: int, posets, diagrams) -> None:
    for n in range(5, hi + 1):
        host = filter_lattice(fence(n - 1).dual())
        interval = Interval(host.bottom, host.find_filter({1, 2, 3}))
        report.check(
            "dual-fence split: interval is a cutting",
            f"n={n}",
            is_cutting(host, interval),
            "not a cutting",
        )
        fences = filter_lattice(fence(n - 4))
        cutting = ("the short fence lattice", fences, "cutting is not the expected fence lattice")
        _split_checks(report, "dual-fence split", n, host, interval, cutting, diagrams[n])
    for n in range(6, hi + 1):
        host, interval = deletion_cutting(posets[n], n)
        cutting = ("the smaller cube", diagrams[n - 2], "cutting is not the expected smaller cube")
        _split_checks(report, "last-element split", n, host, interval, cutting, diagrams[n])


def _isomorphic(a, b) -> bool:
    """True iff both diagrams certify as distributive, with isomorphic join-irreducibles."""
    ja, jb = join_irreducibles(a), join_irreducibles(b)
    return ja is not None and jb is not None and ja.is_isomorphic(jb)


def _conexp_counts(posets, hi: int):
    """The failure details of the filter-count split over S-fences and fences to ``hi``."""
    for n in range(0, hi + 1):
        for poset in (posets[n], fence(n)):
            total = poset.count_filters()
            for x in poset.elements:
                split = poset.remove(x).count_filters() + poset.star_remove(x).count_filters()
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


# -- erratum probes -----------------------------------------------------------

# The three coefficient recurrences whose stated start fails, in report
# order, with that start.  Each probe applies the statement to census rows,
# expects the mismatch at every index from the stated start up to the
# validated one, and confirms the validated range.
_ERRATA = (("cube", 4), ("indegree", 3), ("degree", 4))


def _erratum_probes(report: VerificationReport, rows, census_hi: int) -> None:
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
        report.records.append(
            CheckRecord(
                f"{family} coefficient recurrence {statement}",
                f"probe n={','.join(map(str, probe_ns))}",
                "erratum" if ok else "fail",
                "; ".join(details),
            )
        )
