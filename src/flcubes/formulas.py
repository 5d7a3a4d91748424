"""Closed forms and recurrences for the counting polynomials of S-fence
filter lattices: Fibonacci and Padovan numbers, trinomial coefficients, and
per-family coefficient evaluators.

Every binomial goes through :func:`binom`, which is zero whenever
0 <= k <= n fails; several of the closed forms lean on that convention to
kill out-of-range terms.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import comb
from typing import NamedTuple

from .polynomials import IntPoly


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero unless 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@cache
def fib(n: int) -> int:
    """Fibonacci numbers with F(0) = 0, F(1) = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@cache
def padovan133(n: int) -> int:
    """(1,3,3)-Padovan numbers: p0 = 1, p1 = 3, p2 = 3, p(n) = p(n-2) + p(n-3)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n < 3:
        return (1, 3, 3)[n]
    a, b, c = 1, 3, 3
    for _ in range(n - 2):
        a, b, c = b, c, b + a
    return c


@cache
def trinomial(n: int, k: int) -> int:
    """Coefficient of x^k in (1 + x + x^2)^n; zero for k < 0 or k > 2n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > 2 * n:
        return 0
    return sum(binom(n, k - i) * binom(k - i, i) for i in range(k // 2 + 1))


# -- closed forms ---------------------------------------------------------------


def r_coeff(n: int, k: int) -> int:
    """Closed form for the rank coefficients, contract n >= 2.

    Even index 2m carries a Kronecker correction at (m, k) = (1, 0); sums
    with a negative upper limit are empty.
    """
    if n < 2:
        raise ValueError("closed rank form is contracted for n >= 2")
    if k < 0:
        return 0
    m, odd = divmod(n, 2)
    # trinomial(a, b) vanishes unless 0 <= b <= 2a, so each sum stops at
    # the last i whose trinomial arguments can be in range.
    if odd:
        total = 0
        for i in range(min(m // 2, k // 2, (2 * m - k + 1) // 2) + 1):
            total += (-1) ** i * binom(m - i, i) * (
                trinomial(m - 2 * i, k - 2 * i) + trinomial(m - 2 * i, k - 2 * i - 1)
            )
        for i in range(min((m - 1) // 2, (k - 1) // 2, (2 * m - k) // 2) + 1):
            total -= (-1) ** i * binom(m - i - 1, i) * (
                trinomial(m - 2 * i - 1, k - 2 * i - 1)
                + trinomial(m - 2 * i - 1, k - 2 * i - 2)
            )
        return total
    total = 1 if (m == 1 and k == 0) else 0
    for i in range(min(m // 2, k // 2, (2 * m - k) // 2) + 1):
        total += (-1) ** i * binom(m - i, i) * trinomial(m - 2 * i, k - 2 * i)
    for i in range(min((m - 1) // 2, k // 2, (2 * m - k - 2) // 2) + 1):
        total -= (-1) ** i * binom(m - i - 1, i) * trinomial(m - 2 * i - 1, k - 2 * i)
    for i in range(min((m - 2) // 2, k // 2, (2 * m - k - 4) // 2) + 1):
        total += (-1) ** i * binom(m - i - 2, i) * trinomial(m - 2 * i - 2, k - 2 * i)
    return total


def q_coeff(n: int, k: int) -> int:
    """Closed form for the number of k-cubes, valid from n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0:
        return 0
    # binom(j, k) vanishes for j < k, so each sum starts at j = k at least.
    total = 0
    for j in range(k, (n + 1) // 2 + 1):
        total += binom(n - j + 1, j) * binom(j, k)
    for j in range(max(k, 2), (n + 1) // 2 + 1):
        total -= binom(n - j - 1, j - 2) * binom(j, k)
    for j in range(max(k, 2), n // 2 + 1):
        total -= binom(n - j - 2, j - 2) * binom(j, k)
    return total


def h_coeff(n: int, k: int) -> int:
    """Closed form for the number of maximal k-cubes, valid from n = 3."""
    if n < 3:
        raise ValueError("closed maximal-cube form is defined for n >= 3")
    if k < 0:
        return 0
    return binom(k + 1, n - 2 * k) + binom(k, n - 2 * k - 1)


def d_coeff(n: int, k: int) -> int:
    """Closed form for the number of degree-k vertices, valid from n = 3."""
    if n < 3:
        raise ValueError("closed degree form is defined for n >= 3")
    if k < 0:
        return 0
    # Every term has a factor binom(j, n - k - j) or binom(j, n - k - j - 1),
    # which vanishes unless (n - k) // 2 <= j <= n - k.
    total = 0
    for j in range(max(0, (n - k) // 2), min(k, n - k) + 1):
        total += binom(n - 2 * j, k - j) * binom(j, n - k - j)
        total += binom(n - 2 * j - 1, k - j) * binom(j, n - k - j - 1)
        total -= binom(n - 2 * j - 2, k - j - 2) * binom(j, n - k - j)
    return total


def dm_coeff(n: int, k: int) -> int:
    """Closed form for the number of indegree-k vertices.

    Empirically exact for n = 0 and every n >= 3; at n = 1 and n = 2 the
    two-binomial expression undercounts, so callers wanting a guaranteed
    range should stay at n >= 3.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0:
        return 0
    return binom(n - k - 2, k - 1) + binom(n - k, k)


# -- recurrences --------------------------------------------------------------------

_ONE = IntPoly.one()
_X = IntPoly((0, 1))
_X2 = IntPoly((0, 0, 1))


class Recurrence(NamedTuple):
    """row(n) = c1 row(n-1) + c2 row(n-2) + ... with polynomial coefficients.

    ``steps`` holds the coefficients (c1, c2, ...) once per residue of n
    modulo the period.  ``bases`` are the hard-coded rows 0, 1, ... of the
    polynomial route.  ``seeds`` are the indices whose rows the coefficient
    route takes from the census; it is validated from the next index on.
    Row m of a ``half`` series is the rank row 2m + half.
    """

    steps: tuple[tuple[IntPoly, ...], ...]
    bases: tuple[tuple[int, ...], ...] = ()
    seeds: tuple[int, ...] = ()
    half: int | None = None


_HALF_INDEX_STEP = ((IntPoly((1, 1, 1)), -_X2),)

RECURRENCES = {
    # even n: r(n-1) + x^2 r(n-2); odd n: x r(n-1) + r(n-2)
    "rank": Recurrence(
        steps=((_ONE, _X2), (_X, _ONE)),
        bases=((1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2, 1)),
    ),
    "cube": Recurrence(
        steps=((_ONE, IntPoly((1, 1))),),
        bases=((1,), (2, 1), (3, 2), (4, 3), (6, 6, 1)),
        seeds=(3, 4),
    ),
    "maxcube": Recurrence(
        steps=((IntPoly.zero(), _X, _X),),
        bases=((1,), (0, 1), (0, 2), (0, 3), (0, 2, 1), (0, 0, 4)),
        seeds=(3, 4, 5),
    ),
    "degree": Recurrence(
        steps=((_X, _X, IntPoly((0, 1, -1))),),
        bases=((1,), (0, 2), (0, 2, 1), (0, 2, 2), (0, 1, 4, 1), (0, 0, 5, 4, 1)),
        seeds=(3, 4, 5),
    ),
    "indegree": Recurrence(
        steps=((_ONE, _X),),
        bases=((1,), (1, 1), (1, 2), (1, 3), (1, 4, 1)),
        seeds=(3, 4),
    ),
    "rank-even": Recurrence(steps=_HALF_INDEX_STEP, seeds=(2, 3), half=0),
    "rank-odd": Recurrence(steps=_HALF_INDEX_STEP, seeds=(0, 1), half=1),
}

# Lowest index at which each coefficient recurrence agrees with the census;
# below it the recurrence is refused (three of them fail on their stated
# start, see the verification suite's erratum probes).
VALIDATED_FROM = {f: rec.seeds[-1] + 1 for f, rec in RECURRENCES.items() if rec.seeds}


def recurrence_step(family: str, n: int, row) -> IntPoly:
    """Row n of ``family``'s recurrence from the earlier rows ``row(i)``."""
    steps = RECURRENCES[family].steps
    return IntPoly.sum_of_products(
        (c, row(n - j)) for j, c in enumerate(steps[n % len(steps)], 1) if c
    )


def lattice_row(family: str, n: int) -> tuple[str, int]:
    """The census family and S-fence size whose polynomial is row n."""
    half = RECURRENCES[family].half
    return (family, n) if half is None else ("rank", 2 * n + half)


# (family, route) -> index of the first kept row, and the kept rows
_KEPT: dict[tuple[str, str], tuple[int, list[IntPoly]]] = {}


@lru_cache(maxsize=16)
def _evaluate(family: str, route: str, n: int) -> IntPoly:
    """Row n of ``family``'s recurrence, stepped up iteratively from the
    first rows of ``route``: "poly" starts from the hard-coded bases,
    "coeff" from the census seeds.

    Only the rows the next step reads are kept, so ascending or repeated
    requests cost at most one step per new row in constant memory; a
    request below the kept rows starts again from the first rows.  The
    small cache serves the many requests for one row that reading it a
    coefficient at a time makes.
    """
    start, rows = _KEPT.get((family, route), (n + 1, []))
    rec = RECURRENCES[family]
    if n < start:
        if route == "poly":
            start, rows = 0, [IntPoly(b) for b in rec.bases]
        else:
            from . import tables  # imported here: tables imports this module

            start = rec.seeds[0]
            rows = [tables.census_poly(*lattice_row(family, i)) for i in rec.seeds]
    order = max(map(len, rec.steps))
    while start + len(rows) <= n:
        rows.append(recurrence_step(family, start + len(rows), lambda i: rows[i - start]))
        drop = len(rows) - order
        if drop > 0:
            del rows[:drop]
            start += drop
    _KEPT[(family, route)] = (start, rows)
    return rows[n - start]


def poly_by_recurrence(family: str, n: int) -> IntPoly:
    """Polynomial of ``family`` at n by its recurrence from the hard-coded bases."""
    if family not in RECURRENCES or not RECURRENCES[family].bases:
        raise ValueError(f"no polynomial recurrence for family {family!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    return _evaluate(family, "poly", n)


def coeff_by_recurrence(family: str, n: int, k: int) -> int:
    """Coefficient via the per-family coefficient recurrence.

    ``family`` is one of cube, maxcube, degree, indegree, rank-even or
    rank-odd (the last two recurse on the half-index).  Indices below the
    empirically validated start raise a range error naming the family.
    """
    if family not in VALIDATED_FROM:
        raise ValueError(f"unknown family {family!r}")
    if n < VALIDATED_FROM[family]:
        raise ValueError(
            f"{family} coefficient recurrence is validated for n >= "
            f"{VALIDATED_FROM[family]}, got {n}"
        )
    return _evaluate(family, "coeff", n).coeff(k)
