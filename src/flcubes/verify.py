"""Cross-verification suite over the whole library.

Every check compares two independent routes to the same numbers: census
against recurrence, recurrence against closed form, formula against
generating function, structure against expansion.  Known range errata of
three coefficient recurrences are probed explicitly and reported as
erratum records, which never fail a run but are always printed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import tables
from .formulas import (
    COEFF_RECURRENCES,
    VALIDATED_FROM,
    binom,
    coeff_by_recurrence,
    fib,
    padovan133,
    stated_step,
    stated_terms,
)
from .census import cube_polynomial, generic_cube_count, rank_polynomial
from .genfun import ALL_SERIES
from .lattice import (
    Interval,
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
    is_cutting,
    iso_check,
    underlying_graph,
)
from .polynomials import IntPoly
from .poset import fence, sfence

GF_EXACTNESS_DEPTH = 40
STRUCTURAL_MAX_N = 9
CONEXP_MAX_N = 12
GENERIC_CUBE_MAX_N = 6
QD_CENSUS_MAX_N = 14
INTERLEAVE_MAX_M = 20

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

    def compare_range(self, name, lo, hi, fa, fb) -> None:
        """Record one check comparing fa(n) to fb(n) over lo..hi."""
        scope = f"n={lo}..{hi}" if lo <= hi else "empty range"
        for n in range(lo, hi + 1):
            va, vb = fa(n), fb(n)
            if va != vb:
                self.records.append(CheckRecord(name, scope, "fail", f"n={n}: {va} vs {vb}"))
                return
        self.records.append(CheckRecord(name, scope, "pass"))

    def check(self, name, scope, ok, detail="") -> None:
        self.records.append(CheckRecord(name, scope, "pass" if ok else "fail", "" if ok else detail))


def run_verification(max_n: int) -> VerificationReport:
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    report = VerificationReport(max_n)
    census_hi = min(max_n, tables.CENSUS_MAX_N)
    formula_hi = min(max_n, tables.FORMULA_MAX_N)

    _method_agreement(report, census_hi, formula_hi)
    _vertex_counts(report, census_hi)
    _identity_suite(report, census_hi, formula_hi)
    _gf_exactness(report)
    _interleaving(report, formula_hi)
    _structural(report, min(max_n, STRUCTURAL_MAX_N))
    _conexp_counts(report, min(max_n, CONEXP_MAX_N))
    _generic_cubes(report, min(max_n, GENERIC_CUBE_MAX_N))
    _erratum_probes(report, census_hi)

    return report


# -- check groups ---------------------------------------------------------------


def _method_agreement(report: VerificationReport, census_hi: int, formula_hi: int) -> None:
    for family, closed_lo in tables.CLOSED_MIN_N.items():
        gf = tables.gf_polys(family, formula_hi + 1)
        routes = {
            "census": partial(tables.census_poly, family),
            "recurrence": partial(tables.recurrence_poly, family),
            "closed form": partial(tables.closed_poly, family),
            "generating function": gf.__getitem__,
        }
        for a, b, lo, hi in (
            ("census", "recurrence", 0, census_hi),
            ("census", "closed form", closed_lo, census_hi),
            ("recurrence", "generating function", 0, formula_hi),
            ("closed form", "recurrence", closed_lo, formula_hi),
        ):
            report.compare_range(f"{family}: {a} vs {b}", lo, hi, routes[a], routes[b])
    report.compare_range(
        "outdegree: census total vs vertex count",
        0,
        census_hi,
        lambda n: tables.census_poly("outdegree", n)(1),
        lambda n: sfence(n).count_filters(),
    )
    for family, lo in VALIDATED_FROM.items():
        # row m of a half-index series is the rank row 2m + half
        half = COEFF_RECURRENCES[family].half
        poly, size, shift = (family, 1, 0) if half is None else ("rank", 2, half)
        report.compare_range(
            f"{family}: coefficient recurrence vs polynomial recurrence",
            lo,
            formula_hi // size,
            lambda n, f=family: IntPoly([coeff_by_recurrence(f, n, k) for k in range(2 * n + 2)]),
            lambda n, p=poly, s=size, h=shift: tables.recurrence_poly(p, s * n + h),
        )


def _vertex_counts(report: VerificationReport, census_hi: int) -> None:
    small = {0: 1, 1: 2, 2: 3}
    report.compare_range(
        "vertex count: filters vs 2*fib",
        0,
        census_hi,
        lambda n: sfence(n).count_filters(),
        lambda n: small[n] if n < 3 else 2 * fib(n),
    )


def _identity_suite(report: VerificationReport, census_hi: int, formula_hi: int) -> None:
    report.compare_range(
        "indegree(1+x) equals cube polynomial (recurrence route)",
        0,
        formula_hi,
        lambda n: tables.recurrence_poly("indegree", n).compose(_ONE_PLUS_X),
        lambda n: tables.recurrence_poly("cube", n),
    )
    # the native census counts cubes as indegree(1+x), so the cube side is
    # taken from the diagram scan to keep this check from being circular;
    # the scan adds C(m, k) for a bottom with m covers only once it has
    # found that they span a Boolean interval
    report.compare_range(
        "indegree(1+x) equals cube polynomial (census route)",
        0,
        min(census_hi, QD_CENSUS_MAX_N),
        lambda n: tables.census_poly("indegree", n).compose(_ONE_PLUS_X),
        lambda n: tables.diagram_poly("cube", tables.phi_diagram(n)),
    )
    report.compare_range(
        "maximal cubes at x=1 equal Padovan numbers",
        3,
        formula_hi,
        lambda n: tables.recurrence_poly("maxcube", n)(1),
        lambda n: padovan133(n - 2),
    )
    for family in ("rank", "degree", "indegree"):
        report.compare_range(
            f"{family}: closed-form coefficient sum equals 2*fib",
            3,
            formula_hi,
            lambda n, f=family: tables.closed_poly(f, n)(1),
            lambda n: 2 * fib(n),
        )
    report.compare_range(
        "rank generating function at x=1 equals 2*fib",
        3,
        formula_hi,
        lambda n, gf=tables.gf_polys("rank", formula_hi + 1): gf[n](1),
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
    hi_m = min(INTERLEAVE_MAX_M, formula_hi // 2)
    evens = tables.gf_polys("rank-even", hi_m + 1)
    odds = tables.gf_polys("rank-odd", hi_m + 1)
    ranks = tables.gf_polys("rank", 2 * hi_m + 2)
    ok = all(ranks[2 * m] == evens[m] for m in range(hi_m + 1)) and all(
        ranks[2 * m + 1] == odds[m] for m in range(hi_m + 1)
    )
    report.check(
        "rank series interleaves even and odd series", f"m=0..{hi_m}", ok,
        "even or odd slice mismatch",
    )


def _expansion_checks(report: VerificationReport, tag: str, scope: str, host, interval, expect) -> None:
    """Shared per-expansion battery: counts, rank split, cube identity, iso."""
    part = interval_diagram(host, interval)
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
    elif interval.bottom == host.bottom:
        expected = r_part + _X * r_host
        label = "bottom-anchored"
    else:
        expected = None
        label = "unanchored"
    if expected is not None:
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
        iso_check(expanded, expect),
        "no rank-preserving isomorphism found",
    )


def _structural(report: VerificationReport, hi: int) -> None:
    for n in range(5, hi + 1):
        host = filter_lattice(fence(n - 1).dual())
        interval = Interval(host.bottom, host.find_filter({1, 2, 3}))
        report.check(
            "dual-fence split: interval is a cutting",
            f"n={n}",
            is_cutting(host, interval),
            "not a cutting",
        )
        report.check(
            "dual-fence split: cutting matches the short fence lattice",
            f"n={n}",
            iso_check(interval_diagram(host, interval), filter_lattice(fence(n - 4))),
            "cutting is not the expected fence lattice",
        )
        _expansion_checks(
            report,
            "dual-fence split",
            f"n={n}",
            host,
            interval,
            tables.phi_diagram(n),
        )
    for n in range(6, hi + 1):
        host, interval = deletion_cutting(sfence(n), n)
        report.check(
            "last-element split: cutting matches the smaller cube",
            f"n={n}",
            iso_check(interval_diagram(host, interval), tables.phi_diagram(n - 2)),
            "cutting is not the expected smaller cube",
        )
        _expansion_checks(
            report,
            "last-element split",
            f"n={n}",
            host,
            interval,
            tables.phi_diagram(n),
        )


def _conexp_counts(report: VerificationReport, hi: int) -> None:
    for n in range(0, hi + 1):
        for poset in (sfence(n), fence(n)):
            total = poset.count_filters()
            for x in poset.elements:
                split = poset.remove(x).count_filters() + poset.star_remove(x).count_filters()
                if split != total:
                    report.check(
                        "filter counts split under element deletion",
                        f"n<={hi}",
                        False,
                        f"element {x} of a {len(poset)}-element poset: {split} != {total}",
                    )
                    return
    report.check("filter counts split under element deletion", f"n<={hi}", True)


def _generic_cubes(report: VerificationReport, hi: int) -> None:
    for n in range(0, hi + 1):
        diagram = tables.phi_diagram(n)
        graph = underlying_graph(diagram)
        poly = cube_polynomial(diagram)
        for k in range(0, 4):
            got = generic_cube_count(graph, k)
            if got != poly.coeff(k):
                report.check(
                    "subgraph search agrees with interval cube census",
                    f"n<={hi}, k<=3",
                    False,
                    f"n={n}, k={k}: {got} vs {poly.coeff(k)}",
                )
                return
    report.check("subgraph search agrees with interval cube census", f"n<={hi}, k<=3", True)


# -- erratum probes -----------------------------------------------------------

# The three coefficient recurrences whose stated start fails, in report
# order, with that start.  Each probe applies the statement to census rows,
# expects the mismatch at every index from the stated start up to the
# validated one, and confirms the validated range.
_ERRATA = (("cube", 4), ("indegree", 3), ("degree", 4))


def _erratum_probes(report: VerificationReport, census_hi: int) -> None:
    for family, stated_from in _ERRATA:
        statement = COEFF_RECURRENCES[family].statement
        valid_from = VALIDATED_FROM[family]
        probe_ns = range(stated_from, valid_from)
        if census_hi < max(probe_ns):
            continue

        terms = stated_terms(statement)
        rows = partial(tables.census_poly, family)

        def predict(n):
            return IntPoly(stated_step(terms, n, lambda i: rows(i).coeffs))

        details = []
        ok = True
        for n in probe_ns:
            predicted = predict(n)
            actual = rows(n)
            if predicted == actual:
                ok = False
                details.append(f"expected mismatch at n={n} but the recurrence holds")
            else:
                details.append(f"n={n}: recurrence gives {predicted}, census gives {actual}")
        for n in range(valid_from, census_hi + 1):
            if predict(n) != rows(n):
                ok = False
                details.append(f"recurrence unexpectedly fails at n={n}")
                break
        else:
            details.append(f"holds for n={valid_from}..{census_hi}")
        report.records.append(
            CheckRecord(
                f"{family} coefficient recurrence {statement}",
                f"probe n={','.join(map(str, probe_ns))}",
                "erratum" if ok else "fail",
                "; ".join(details),
            )
        )
