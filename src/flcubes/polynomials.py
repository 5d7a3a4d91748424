"""Dense univariate polynomials with exact integer coefficients."""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, mul, neg, sub
from typing import Iterable

# Terms of sum_of_products folded into one pass over the output row.  A
# bounded window keeps the iterator nesting shallow and pads each term with
# zeros over the window's span only, not the whole row.
_WINDOW = 8


class IntPoly:
    """Polynomial over the integers, stored densely by ascending power.

    Coefficients are plain Python ints, so arithmetic is exact at any size.
    Trailing zero coefficients are trimmed, so the zero polynomial has an
    empty coefficient tuple.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # A constant hashes as the int it equals, so eq and hash agree.
        cs = self.coeffs
        if len(cs) > 1:
            return hash(cs)
        return hash(cs[0] if cs else 0)

    # The coefficient loops below run in C: ``map`` over operator functions
    # adds or scales a whole row of Python ints in one pass.

    def __add__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly((*map(add, a, b), *a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(map(neg, self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return IntPoly((*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])))

    def __rsub__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        short, long = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        return IntPoly.sum_of_products(((short, long),))

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["IntPoly | int", "IntPoly"]]) -> "IntPoly":
        """The sum of c * p over ``(c, p)`` pairs, where c is an IntPoly or an int.

        This is the one convolution loop.  Each nonzero coefficient k at
        power i of a c gives a term k * x**i * p.  The terms are taken a
        window at a time: each term is padded with zeros to the window's
        span, and ``map(add, ...)`` (``sub`` where k = -1) folds them into
        one iterator that adds the whole window in a single pass over the
        row.  Pass the shorter factor as c.
        """
        terms = [
            (i, k, b)
            for c, p in pairs
            if (b := p.coeffs)
            for i, k in enumerate((c,) if isinstance(c, int) else c.coeffs)
            if k
        ]
        out: list[int] = []
        for w in range(0, len(terms), _WINDOW):
            window = terms[w:w + _WINDOW]
            hi = max(i + len(b) for i, _, b in window)
            if w:  # add into the row built so far, over this window's span
                lo = min(i for i, _, _ in window)
                out.extend(repeat(0, hi - len(out)))
                acc = out[lo:hi]
            else:
                lo, acc = 0, None
            for i, k, b in window:
                # k = -1 subtracts b, except as the first term of the row
                scaled = b if k == 1 or (k == -1 and acc is not None) else map(mul, repeat(k), b)
                row = chain(repeat(0, i - lo), scaled, repeat(0, hi - i - len(b)))
                acc = row if acc is None else map(sub if k == -1 else add, acc, row)
            out[lo:hi] = acc
        return IntPoly(out)

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def compose(self, other: "IntPoly") -> "IntPoly":
        """Substitute ``other`` for the variable."""
        acc = IntPoly(())
        for c in reversed(self.coeffs):
            acc = acc * other + IntPoly((c,))
        return acc

    @staticmethod
    def _coerce(value):
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return IntPoly((value,))
        return NotImplemented

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)
