"""Exact expansion of rational generating functions in y whose coefficients
are integer polynomials in x.

A series is numerator / denominator plus an optional finite correction
added outside the fraction.  The denominator's constant term must be the
unit polynomial, which makes coefficient extraction an integer-exact linear
recurrence.

The seven series of the counting polynomials are stated once, as plain
integer tuples in one table; ``ALL_SERIES[family]()`` returns the series of
``family``, built on the first call and the same object on every later one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .polynomials import IntPoly


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
# family -> (numerator, denominator, correction), each a tuple of coefficients
# of y^0, y^1, ..., each coefficient the x^0, x^1, ... coefficients of an IntPoly
_SERIES = {
    "rank": (
        ((1,), (1, 1), (0,), (0, -1, -1), (0, -1, -1), (0,), (0, 0, 1)),
        ((1,), (0,), (-1, -1, -1), (0,), (0, 0, 1)),
        (),
    ),
    # rank polynomials 2m and 2m + 1 at y^m (the paper's z-variable)
    "rank-even": (((1,), (-1,), (1,)), ((1,), (-1, -1, -1), (0, 0, 1)), ((0,), (1,))),
    "rank-odd": (((1, 1), (0, -1, -1)), ((1,), (-1, -1, -1), (0, 0, 1)), ()),
    "cube": (((1,), (1, 1), (0,), (-1, -2, -1), (-1, -2, -1)), ((1,), (-1,), (-1, -1)), ()),
    "maxcube": (((1,), (2,)), ((1,), (0,), (0, -1), (0, -1)), ((0,), (-2, 1), (0, 1))),
    "degree": (
        ((1,), (1,), (0, 0, -1)),
        ((1,), (0, -1), (0, -1), (0, -1, 1)),
        ((0,), (-1, 1), (0, 0, 1)),
    ),
    "indegree": (((1,), (0, 1), (0,), (0, 0, -1), (0, 0, -1)), ((1,), (-1,), (0, -1)), ()),
}


def _series(*parts: tuple[tuple[int, ...], ...]) -> RationalSeries:
    return RationalSeries(*(map(IntPoly, part) for part in parts))


# family -> a builder that makes the series once per process, so that
# ``tables.gf_polys`` and the exactness checks share its rows
ALL_SERIES = {family: cache(partial(_series, *parts)) for family, parts in _SERIES.items()}
