"""Closed forms and recurrences for the counting polynomials of S-fence
filter lattices: Fibonacci and Padovan numbers, trinomial coefficients, the
polynomial recurrences, and the coefficient recurrences, a separate route
that steps plain coefficient lists by each recurrence's statement as data.

The rank closed form is written through one alternating trinomial sum,
P_a = sum_i (-1)^i C(a - i, i) x^(2i) (1 + x + x^2)^(a - 2i), the y^a
coefficient of 1 / (1 - (1 + x + x^2) y + x^2 y^2), the denominator the two
half-index rank series share.  Each rank polynomial is its series' numerator
times P: rank(2m + 1) = (1 + x)(P_m - x P_(m-1)) and rank(2m) =
P_m - P_(m-1) + P_(m-2), plus 1 at (m, k) = (1, 0).

Every binomial goes through :func:`binom`, which is zero whenever
0 <= k <= n fails; several of the closed forms lean on that convention to
kill out-of-range terms.

The rank and cube forms keep their k-free inner sums between calls: the
coefficient rows of P_a for the last three a read, and the cube form's
terms T_j of the last n read (see :func:`q_coeff`).  Both memos are
bounded to what an ascending sweep reads, so their memory does not grow
with n, and a query in any other order is answered the same, only
recomputed.  Every kept entry is still computed through :func:`binom` and
:func:`trinomial` alone, so the closed forms read nothing of the
recurrence and series routes they are checked against.  The degree form
keeps nothing: each of its binomials reads k, so no part of it is shared
between coefficients.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from math import comb
from operator import add, sub
from typing import NamedTuple

from .census import poset_census
from .polynomials import IntPoly
from .poset import sfence


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


def _alternating_trinomial_sum(a: int, k: int) -> int:
    """The x^k coefficient of P_a (see the module docstring).

    As the y^a coefficient of 1 / (1 - (1 + x + x^2) y + x^2 y^2), P_0 = 1,
    P_1 = 1 + x + x^2 and P_a = (1 + x + x^2) P_(a-1) - x^2 P_(a-2).  The sum
    is empty for a < 0 or k < 0; it stops at the last i where C(a - i, i) and
    the trinomial can both be nonzero (i <= a/2, 2i <= k, k - 2i <= 2(a - 2i)).
    """
    total = 0
    for i in range(min(a // 2, k // 2, (2 * a - k) // 2) + 1):
        total += (-1) ** i * binom(a - i, i) * trinomial(a - 2 * i, k - 2 * i)
    return total


@lru_cache(maxsize=3)
def _alternating_trinomial_row(a: int) -> tuple[int, ...]:
    """The coefficients of P_a, x^0 .. x^(2a); empty for a < 0."""
    return tuple(_alternating_trinomial_sum(a, k) for k in range(2 * a + 1))


def _at(row: tuple[int, ...], k: int) -> int:
    """Entry k of a row, zero outside it."""
    return row[k] if 0 <= k < len(row) else 0


def r_coeff(n: int, k: int) -> int:
    """Closed form for the rank coefficients, contract n >= 2, by the
    factorizations through P_a in the module docstring.

    The coefficient rows of P_a are kept for the last three a read: an even
    rank reads P_m, P_(m-1) and P_(m-2), an odd one P_m and P_(m-1), so an
    ascending sweep computes each row once, and row a serves the ranks
    2a .. 2a + 4.  Any other order gets the same values, recomputing rows.
    """
    if n < 2:
        raise ValueError("closed rank form is contracted for n >= 2")
    m, odd = divmod(n, 2)
    row = _alternating_trinomial_row
    if odd:
        p, q = row(m), row(m - 1)
        return _at(p, k) + _at(p, k - 1) - _at(q, k - 1) - _at(q, k - 2)
    return (m == 1 and k == 0) + _at(row(m), k) - _at(row(m - 1), k) + _at(row(m - 2), k)


@lru_cache(maxsize=1)
def _cube_terms(n: int) -> tuple[int, ...]:
    """T_j = C(n - j + 1, j) - C(n - j - 1, j - 2) - C(n - j - 2, j - 2) for
    j = 0 .. (n + 1) / 2; binom's zero convention drops both subtracted
    terms for j < 2, and C(n - j - 2, j - 2) at j = (n + 1) / 2 for odd n."""
    return tuple(
        binom(n - j + 1, j) - binom(n - j - 1, j - 2) - binom(n - j - 2, j - 2)
        for j in range((n + 1) // 2 + 1)
    )


def q_coeff(n: int, k: int) -> int:
    """Closed form for the number of k-cubes, valid from n = 0.

    It is the sum over j of C(j, k) T_j, which starts at j = k since C(j, k)
    vanishes below it.  The k-free terms T_j of n are kept for the last n
    read: every coefficient of one n reads the same terms, and an ascending
    sweep computes them once per n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0:
        return 0
    terms = _cube_terms(n)
    return sum(binom(j, k) * terms[j] for j in range(k, len(terms)))


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


CLOSED_FORMS = {"rank": r_coeff, "cube": q_coeff, "maxcube": h_coeff, "degree": d_coeff,
                "indegree": dm_coeff}


# -- polynomial recurrences ----------------------------------------------------------

_ONE = IntPoly.one()
_X = IntPoly((0, 1))


class Recurrence(NamedTuple):
    """row(n) = c1 row(n-1) + c2 row(n-2) + ... with polynomial coefficients.

    ``steps`` holds the coefficients (c1, c2, ...) once per residue of n
    modulo the period, and ``bases`` the hard-coded rows 0, 1, ....
    """

    steps: tuple[tuple[IntPoly, ...], ...]
    bases: tuple[tuple[int, ...], ...]


RECURRENCES = {
    # even n: r(n-1) + x^2 r(n-2); odd n: x r(n-1) + r(n-2)
    "rank": Recurrence(
        steps=((_ONE, IntPoly((0, 0, 1))), (_X, _ONE)),
        bases=((1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2, 1)),
    ),
    "cube": Recurrence(
        steps=((_ONE, IntPoly((1, 1))),),
        bases=((1,), (2, 1), (3, 2), (4, 3), (6, 6, 1)),
    ),
    "maxcube": Recurrence(
        steps=((IntPoly.zero(), _X, _X),),
        bases=((1,), (0, 1), (0, 2), (0, 3), (0, 2, 1), (0, 0, 4)),
    ),
    "degree": Recurrence(
        steps=((_X, _X, IntPoly((0, 1, -1))),),
        bases=((1,), (0, 2), (0, 2, 1), (0, 2, 2), (0, 1, 4, 1), (0, 0, 5, 4, 1)),
    ),
    "indegree": Recurrence(
        steps=((_ONE, _X),),
        bases=((1,), (1, 1), (1, 2), (1, 3), (1, 4, 1)),
    ),
}

# family -> index of the first kept row, and the kept rows: a window as long
# as the bases, so callers that ask for ascending n step each row once
_KEPT: dict[str, tuple[int, list[IntPoly]]] = {}


def poly_by_recurrence(family: str, n: int) -> IntPoly:
    """Polynomial of ``family`` at n by its recurrence from the hard-coded bases.

    As many rows as there are bases are kept, so ascending or repeated
    requests cost at most one step per new row in constant memory; a
    request below the kept rows starts again from the bases.
    """
    if family not in RECURRENCES:
        raise ValueError(f"no polynomial recurrence for family {family!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    rec = RECURRENCES[family]
    start, rows = _KEPT.get(family, (n + 1, []))
    if n < start:
        start, rows = 0, [IntPoly(b) for b in rec.bases]
    while start + len(rows) <= n:
        step = rec.steps[(start + len(rows)) % len(rec.steps)]
        rows.append(IntPoly.sum_of_products((c, rows[-j]) for j, c in enumerate(step, 1) if c))
        del rows[0]
        start += 1
    _KEPT[family] = (start, rows)
    return rows[n - start]


# -- coefficient recurrences ----------------------------------------------------------


class CoeffRecurrence(NamedTuple):
    """A coefficient recurrence as stated, ``row(n,k) = row(n-i,k-j) +/- ...``,
    and the consecutive indices of the census rows it starts from, as many as
    it reads back; it is validated from the next index on.  A ``half`` series
    recurs on m, and its row m is the census rank row 2m + half.
    """

    statement: str
    seeds: tuple[int, ...]
    half: int | None = None


_HALF_INDEX = "r(m,k) = r(m-1,k) + r(m-1,k-1) + r(m-1,k-2) - r(m-2,k-2)"

COEFF_RECURRENCES = {
    "cube": CoeffRecurrence("q(n,k) = q(n-1,k) + q(n-2,k) + q(n-2,k-1)", (3, 4)),
    "maxcube": CoeffRecurrence("h(n,k) = h(n-2,k-1) + h(n-3,k-1)", (3, 4, 5)),
    "degree": CoeffRecurrence(
        "d(n,k) = d(n-2,k-1) + d(n-1,k-1) - d(n-3,k-2) + d(n-3,k-1)", (3, 4, 5)
    ),
    "indegree": CoeffRecurrence("d-(n,k) = d-(n-1,k) + d-(n-2,k-1)", (3, 4)),
    "rank-even": CoeffRecurrence(_HALF_INDEX, (2, 3), half=0),
    "rank-odd": CoeffRecurrence(_HALF_INDEX, (0, 1), half=1),
}

# Lowest index at which each coefficient recurrence agrees with the census;
# below it the recurrence is refused (three of them fail on their stated
# start, see the verification suite's erratum probes).
VALIDATED_FROM = {f: rec.seeds[-1] + 1 for f, rec in COEFF_RECURRENCES.items()}


def polynomial_row(family: str) -> tuple[str, int, int]:
    """(f, size, shift) such that row m of ``family``'s coefficient recurrence
    is row size * m + shift of the polynomial family f: the rank row 2m + half
    for a half-index series, row m of ``family`` itself otherwise."""
    half = COEFF_RECURRENCES[family].half
    return (family, 1, 0) if half is None else ("rank", 2, half)


def stated_terms(statement: str) -> list[tuple[int, int, int]]:
    """The terms (sign, i, j) of a statement ``row(n,k) = +/- row(n-i,k-j) ...``."""
    head = re.fullmatch(r"(\S+)\(([nm]),k\) = (.+)", statement)
    term = head and rf" ([+-]) {re.escape(head[1])}\({head[2]}-(\d+),k(?:-(\d+))?\)"
    if not head or not re.fullmatch(f"(?:{term})+", " + " + head[3]):
        raise ValueError(f"cannot read the recurrence {statement!r}")
    return [(int(s + "1"), int(i), int(j or 0)) for s, i, j in re.findall(term, " + " + head[3])]


def stated_step(terms: list[tuple[int, int, int]], rows) -> list[int]:
    """The row after ``rows`` by the stated ``terms``: term (sign, i, j) adds or
    subtracts ``rows[-i]`` shifted up by j.  The row may end in zeros."""
    out = [0] * max(len(rows[-i]) + j for _, i, j in terms)
    for sign, i, j in terms:
        r = rows[-i]
        out[j : j + len(r)] = map(add if sign > 0 else sub, out[j : j + len(r)], r)
    return out


# family -> index of the first kept coefficient row, the kept rows, and the
# terms of the statement they are stepped by
_COEFF_ROWS: dict[str, tuple[int, list[list[int]], list[tuple[int, int, int]]]] = {}


def coeff_by_recurrence(family: str, n: int, k: int) -> int:
    """Coefficient via the per-family coefficient recurrence.

    ``family`` is one of cube, maxcube, degree, indegree, rank-even or
    rank-odd (the last two recurse on the half-index).  Indices below the
    empirically validated start raise a range error naming the family.
    Rows are stepped up from the seeds and kept as in ``poly_by_recurrence``.
    A kept row at or past the validated start is returned before any other
    work; kept rows below that start (seeds) are still refused.
    """
    start, rows, _ = _COEFF_ROWS.get(family) or (n + 1, (), ())
    if not (start <= n < start + len(rows) and n >= VALIDATED_FROM[family]):
        start, rows = _step_coeff_rows(family, n)
    row = rows[n - start]
    return row[k] if 0 <= k < len(row) else 0


def _step_coeff_rows(family: str, n: int) -> tuple[int, list[list[int]]]:
    """Check ``family`` and n, and step its kept rows until they hold row n.

    Kept apart from ``coeff_by_recurrence`` so that a lookup answered from
    the kept rows pays for none of this: the seeds' list comprehension reads
    locals of its function, which makes them cells created on every call,
    and merged into the lookup that cost it about 1.5x on Python 3.11.
    """
    if family not in VALIDATED_FROM:
        raise ValueError(f"unknown family {family!r}")
    lo = VALIDATED_FROM[family]
    if n < lo:
        raise ValueError(f"{family} coefficient recurrence is validated for n >= {lo}, got {n}")
    start, rows, terms = _COEFF_ROWS.get(family) or (n + 1, [], [])
    rec = COEFF_RECURRENCES[family]
    if n < start:
        key, size, shift = polynomial_row(family)
        start, terms = rec.seeds[0], stated_terms(rec.statement)
        rows = [list(poset_census(sfence(size * i + shift))[key].coeffs) for i in rec.seeds]
    while start + len(rows) <= n:
        rows.append(stated_step(terms, rows))
        del rows[0]
        start += 1
    _COEFF_ROWS[family] = (start, rows, terms)
    return start, rows
