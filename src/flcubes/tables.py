"""Uniform access to each polynomial family by computation method.

Four methods cover the five formula-backed families: the census counts on
the filter lattice (natively on the S-fence poset, or by the
definition-level scan on any diagram), the recurrence and closed forms
evaluate the derived expressions, and the generating-function route expands
a rational series.  Each route owns its family table; this module adds only
the lowest n each closed form is claimed for and two caps on n: the census
cap, derived from the poset layer's filter-count bound, and the formula
cap, the range the formulas are claimed for.  The outdegree family is
census-only, and the half-index rank series have a generating function and
a coefficient recurrence only.  Nothing here keeps a row: a caller that
reads a row twice, as ``verify`` does, holds it for its own run.
"""

from __future__ import annotations

from itertools import count

from . import census, formulas, genfun
from .lattice import LatticeDiagram
from .polynomials import IntPoly
from .poset import FILTER_COUNT_BOUND, sfence

FAMILIES = tuple(census.DIAGRAM_CENSUS)
CLOSED_MIN_N = {"rank": 2, "cube": 0, "maxcube": 3, "degree": 3, "indegree": 3}
GF_FAMILIES = tuple(sorted(genfun.ALL_SERIES, key=lambda f: f not in FAMILIES))
# The largest S-fence whose 2*F(n) filters the poset layer enumerates: the
# census, verify's census range and dot all stop there.
CENSUS_MAX_N = next(n for n in count(3) if 2 * formulas.fib(n + 1) > FILTER_COUNT_BOUND)
FORMULA_MAX_N = 40


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")


def _formula_family(family: str) -> None:
    _check_family(family)
    if family not in CLOSED_MIN_N:
        raise ValueError(f"the {family} family has a census method only; no formulas are known")


def census_poly(family: str, n: int) -> IntPoly:
    """Census polynomial of the n-th S-fence, counted natively on the poset."""
    _check_family(family)
    return census.poset_census(sfence(n))[family]


def diagram_poly(family: str, diagram: LatticeDiagram) -> IntPoly:
    """Census polynomial of an arbitrary diagram, by the definition-level scan."""
    _check_family(family)
    return census.DIAGRAM_CENSUS[family](diagram)


def recurrence_poly(family: str, n: int) -> IntPoly:
    _formula_family(family)
    return formulas.poly_by_recurrence(family, n)


def closed_poly(family: str, n: int) -> IntPoly:
    _formula_family(family)
    lo = CLOSED_MIN_N[family]
    if n < lo:
        raise ValueError(f"closed form for {family} is defined for n >= {lo}")
    coeff = formulas.CLOSED_FORMS[family]
    return IntPoly([coeff(n, k) for k in range(n + 1)])


def gf_polys(family: str, count: int) -> list[IntPoly]:
    if family not in genfun.ALL_SERIES:
        raise ValueError(f"no generating function for family {family!r}")
    return genfun.ALL_SERIES[family]().expand(count)


METHODS = ("census", "recurrence", "closed", "gf")


def family_rows(family: str, lo: int, hi: int, method: str) -> list[IntPoly]:
    """The polynomials n = lo..hi of ``family`` by a method in ``METHODS``.

    A negative ``lo`` is refused first, then a formula method on a
    census-only family, then a range past the method's cap, before any row
    is built; ``closed_poly`` refuses a row below the family's lowest
    closed-form n.
    """
    if lo < 0:
        raise ValueError(f"lo must be non-negative, got {lo}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "census":
        _formula_family(family)
    cap = CENSUS_MAX_N if method == "census" else FORMULA_MAX_N
    if hi > cap:
        raise ValueError(f"the {method} method is limited to n <= {cap}")
    if method == "gf":
        return gf_polys(family, hi + 1)[lo:]
    poly = {"census": census_poly, "recurrence": recurrence_poly, "closed": closed_poly}[method]
    return [poly(family, n) for n in range(lo, hi + 1)]
