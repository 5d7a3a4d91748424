"""Exact expansion of rational generating functions in y whose coefficients
are integer polynomials in x.

A series is numerator / denominator plus an optional finite correction
added outside the fraction.  The denominator's constant term must be the
unit polynomial, which makes coefficient extraction an integer-exact linear
recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .polynomials import IntPoly


def _p(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


@dataclass(frozen=True)
class RationalSeries:
    numerator: tuple[IntPoly, ...]
    denominator: tuple[IntPoly, ...]
    correction: tuple[IntPoly, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))
        object.__setattr__(self, "correction", tuple(self.correction))
        if not self.denominator or self.denominator[0] != IntPoly.one():
            raise ValueError("denominator constant term must be 1")
        # fraction_coeffs' rows, extended on demand and dropped with the series,
        # so that exactness_failure multiplies back the rows expand has built
        # instead of expanding the series again (4.6 % of the benchmark's
        # formulas operation when it was added)
        object.__setattr__(self, "_rows", [])

    def fraction_coeffs(self, count: int) -> list[IntPoly]:
        """First ``count`` coefficients of numerator/denominator alone.

        The rows are memoized on the series, for as long as it lives, and
        extended when a call asks for more; each call gets its own list, so a
        caller that edits it, as ``expand`` does, leaves the memo alone.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        num, den, out = self.numerator, self.denominator, self._rows
        neg_den = [-d for d in den[1:]]
        for n in range(len(out), count):
            # c_n = num_n - sum of den_i * c_(n-i), i = 1, 2, ...
            head = ((1, num[n]),) if n < len(num) else ()
            out.append(IntPoly.sum_of_products((*head, *zip(neg_den, reversed(out)))))
        return out[:count]

    def expand(self, count: int) -> list[IntPoly]:
        """First ``count`` coefficients of the whole series, correction included."""
        out = self.fraction_coeffs(count)
        for i, c in enumerate(self.correction):
            if i < count:
                out[i] = out[i] + c
        return out

    def exactness_failure(self, count: int) -> str | None:
        """Re-multiply the expansion by the denominator; describe the first
        coefficient that fails to reproduce the numerator, or None.

        The expansion is ``fraction_coeffs``', so rows already expanded on
        this series are read from its memo rather than computed again.
        """
        frac = self.fraction_coeffs(count)
        for n in range(count):
            acc = IntPoly.sum_of_products(
                (d, frac[n - i]) for i, d in enumerate(self.denominator[: n + 1])
            )
            expected = self.numerator[n] if n < len(self.numerator) else IntPoly.zero()
            if acc != expected:
                return f"y^{n}: expansion*denominator gives {acc}, numerator has {expected}"
        return None


# -- the concrete series -----------------------------------------------------
# Each builder returns one series per process, so ``tables.gf_polys`` and the
# exactness checks share its rows.


@cache
def rank_gf() -> RationalSeries:
    """Generating function of the rank polynomials."""
    return RationalSeries(
        numerator=(_p(1), _p(1, 1), _p(0), _p(0, -1, -1), _p(0, -1, -1), _p(0), _p(0, 0, 1)),
        denominator=(_p(1), _p(0), _p(-1, -1, -1), _p(0), _p(0, 0, 1)),
    )


@cache
def rank_even_gf() -> RationalSeries:
    """Generating function of the even-index rank polynomials (z-variable)."""
    return RationalSeries(
        numerator=(_p(1), _p(-1), _p(1)),
        denominator=(_p(1), _p(-1, -1, -1), _p(0, 0, 1)),
        correction=(_p(0), _p(1)),
    )


@cache
def rank_odd_gf() -> RationalSeries:
    """Generating function of the odd-index rank polynomials (z-variable)."""
    return RationalSeries(
        numerator=(_p(1, 1), _p(0, -1, -1)),
        denominator=(_p(1), _p(-1, -1, -1), _p(0, 0, 1)),
    )


@cache
def cube_gf() -> RationalSeries:
    """Generating function of the cube polynomials."""
    return RationalSeries(
        numerator=(_p(1), _p(1, 1), _p(0), _p(-1, -2, -1), _p(-1, -2, -1)),
        denominator=(_p(1), _p(-1), _p(-1, -1)),
    )


@cache
def maxcube_gf() -> RationalSeries:
    """Generating function of the maximal-cube polynomials."""
    return RationalSeries(
        numerator=(_p(1), _p(2)),
        denominator=(_p(1), _p(0), _p(0, -1), _p(0, -1)),
        correction=(_p(0), _p(-2, 1), _p(0, 1)),
    )


@cache
def degree_gf() -> RationalSeries:
    """Generating function of the degree polynomials."""
    return RationalSeries(
        numerator=(_p(1), _p(1), _p(0, 0, -1)),
        denominator=(_p(1), _p(0, -1), _p(0, -1), _p(0, -1, 1)),
        correction=(_p(0), _p(-1, 1), _p(0, 0, 1)),
    )


@cache
def indegree_gf() -> RationalSeries:
    """Generating function of the indegree polynomials."""
    return RationalSeries(
        numerator=(_p(1), _p(0, 1), _p(0), _p(0, 0, -1), _p(0, 0, -1)),
        denominator=(_p(1), _p(-1), _p(0, -1)),
    )


ALL_SERIES = {
    "rank": rank_gf,
    "rank-even": rank_even_gf,
    "rank-odd": rank_odd_gf,
    "cube": cube_gf,
    "maxcube": maxcube_gf,
    "degree": degree_gf,
    "indegree": indegree_gf,
}

