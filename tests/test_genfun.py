import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

import golden_tables
from flcubes import tables
from flcubes.formulas import COEFF_RECURRENCES, RECURRENCES, fib, stated_terms
from flcubes.genfun import ALL_SERIES, RationalSeries
from flcubes.polynomials import IntPoly

GF_FOR = {f: ALL_SERIES[f] for f in ("rank", "cube", "maxcube", "degree", "indegree")}


def test_fibonacci_shift():
    series = RationalSeries(numerator=(IntPoly([1]),), denominator=(IntPoly([1]), IntPoly([-1]), IntPoly([-1])))
    got = [p.coeff(0) for p in series.expand(8)]
    assert got == [1, 1, 2, 3, 5, 8, 13, 21]


def test_non_unit_denominator_rejected():
    with pytest.raises(ValueError):
        RationalSeries(numerator=(IntPoly([1]),), denominator=(IntPoly([2]),))
    with pytest.raises(ValueError):
        RationalSeries(numerator=(IntPoly([1]),), denominator=())


@pytest.mark.parametrize("family", sorted(GF_FOR))
def test_expansions_match_golden_tables(family):
    table = golden_tables.ALL[family]
    polys = GF_FOR[family]().expand(max(table) + 1)
    for n, coeffs in table.items():
        assert polys[n] == IntPoly(coeffs), (family, n)


def test_expansion_spot_values():
    assert ALL_SERIES["cube"]().expand(5)[3] == IntPoly([4, 3])
    assert ALL_SERIES["rank"]().expand(10)[9] == IntPoly(golden_tables.RANK[9])
    assert ALL_SERIES["maxcube"]().expand(8)[1] == IntPoly([0, 1])
    assert ALL_SERIES["maxcube"]().expand(8)[4] == IntPoly([0, 2, 1])
    assert ALL_SERIES["degree"]().expand(6)[5] == IntPoly([0, 0, 5, 4, 1])
    assert ALL_SERIES["indegree"]().expand(5)[2] == IntPoly([1, 2])
    assert ALL_SERIES["indegree"]().expand(5)[4] == IntPoly([1, 4, 1])


def test_even_and_odd_series():
    evens = ALL_SERIES["rank-even"]().expand(4)
    odds = ALL_SERIES["rank-odd"]().expand(4)
    assert evens[0] == IntPoly([1])
    assert evens[2] == IntPoly(golden_tables.RANK[4])
    assert odds[0] == IntPoly([1, 1])
    assert odds[3] == IntPoly(golden_tables.RANK[7])


def test_interleaving_identity():
    ranks = ALL_SERIES["rank"]().expand(42)
    evens = ALL_SERIES["rank-even"]().expand(21)
    odds = ALL_SERIES["rank-odd"]().expand(21)
    for m in range(21):
        assert ranks[2 * m] == evens[m]
        assert ranks[2 * m + 1] == odds[m]


def test_rank_series_at_one_counts_vertices():
    polys = ALL_SERIES["rank"]().expand(41)
    assert [p(1) for p in polys[:3]] == [1, 2, 3]
    for n in range(3, 41):
        assert polys[n](1) == 2 * fib(n)


@pytest.mark.parametrize("family", sorted(ALL_SERIES))
def test_exactness_through_y40(family):
    assert ALL_SERIES[family]().exactness_failure(41) is None


LONG_RANGE_N = 200


@pytest.mark.parametrize("family", sorted(ALL_SERIES))
def test_expansions_match_the_recurrences_to_n200(family):
    """Large-int rows: the GF route against the recurrence route, and the
    series times its denominator against its numerator, past y^200."""
    series = ALL_SERIES[family]()
    half = COEFF_RECURRENCES[family].half if family in COEFF_RECURRENCES else None
    if half is None:
        expected = [tables.recurrence_poly(family, n) for n in range(LONG_RANGE_N + 1)]
    else:
        rows = range(half, LONG_RANGE_N + 1, 2)
        expected = [tables.recurrence_poly("rank", n) for n in rows]
    assert series.expand(len(expected)) == expected
    assert series.exactness_failure(LONG_RANGE_N + 1) is None


def _characteristic(step):
    """1 - c1 y - c2 y^2 - ... for the recurrence row(n) = c1 row(n-1) + c2 row(n-2) + ..."""
    return (IntPoly.one(),) + tuple(-c for c in step)


def _step_of_statement(family):
    """The step (c1, c2, ...) read off the stated coefficient recurrence:
    a term +/- row(n-i,k-j) adds +/- x^j to c_i."""
    terms = stated_terms(COEFF_RECURRENCES[family].statement)
    step = [IntPoly.zero()] * max(i for _, i, _ in terms)
    for sign, i, j in terms:
        step[i - 1] += IntPoly([0] * j + [sign])
    return step


@pytest.mark.parametrize(
    "family", ["cube", "maxcube", "degree", "indegree", "rank-even", "rank-odd"]
)
def test_denominator_is_characteristic_polynomial_of_the_recurrence(family):
    assert ALL_SERIES[family]().denominator == _characteristic(_step_of_statement(family))


def _period_characteristic(steps):
    """1 - tr(M) t + det(M) t^2, with M the product over one period of the
    companion matrices [[0, 1], [c2, c1]] of an order-2 recurrence."""
    (a, b), (c, d) = (IntPoly.one(), IntPoly.zero()), (IntPoly.zero(), IntPoly.one())
    for c1, c2 in steps:
        (a, b), (c, d) = (c, d), (c2 * a + c1 * c, c2 * b + c1 * d)
    return (IntPoly.one(), -(a + d), a * d - b * c)


@pytest.mark.parametrize("family", ["rank", "cube", "maxcube", "degree", "indegree"])
def test_denominator_is_characteristic_polynomial_of_the_polynomial_step(family):
    steps = RECURRENCES[family].steps
    denominator = ALL_SERIES[family]().denominator
    if family == "rank":
        # period 2 in n: the characteristic polynomial of a period, in y^2
        assert denominator[0::2] == _period_characteristic(steps)
        assert not any(denominator[1::2])
    else:
        (step,) = steps
        assert denominator == _characteristic(step)


def test_rank_denominator_is_the_half_index_step_in_y_squared():
    denominator = ALL_SERIES["rank"]().denominator
    for family in ("rank-even", "rank-odd"):
        assert denominator[0::2] == _characteristic(_step_of_statement(family)), family
    assert not any(denominator[1::2])


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), min_size=1, max_size=3),
)
def test_random_series_expand_exactly(corr, num, den_tail):
    series = RationalSeries(
        numerator=tuple(IntPoly(c) for c in num),
        denominator=(IntPoly([1]),) + tuple(IntPoly(c) for c in den_tail),
        correction=tuple(IntPoly([c]) for c in corr),
    )
    assert series.exactness_failure(15) is None
    expanded = series.expand(15)
    fraction = series.fraction_coeffs(15)
    for i in range(15):
        extra = IntPoly([corr[i]]) if i < len(corr) else IntPoly.zero()
        assert expanded[i] == fraction[i] + extra


# -- the expansion memo ---------------------------------------------------------


def test_callers_get_their_own_rows():
    series = ALL_SERIES["maxcube"]()  # expand adds its correction into the list it returns
    fraction = series.fraction_coeffs(12)
    expanded = series.expand(12)
    assert series.fraction_coeffs(12) == fraction != expanded
    for call, rows in ((series.fraction_coeffs, fraction), (series.expand, expanded)):
        kept = list(rows)
        rows[1] = IntPoly([99])
        rows.pop()
        assert call(12) == kept


@pytest.mark.parametrize("family", sorted(ALL_SERIES))
def test_rows_read_from_a_longer_or_shorter_expansion_equal_cold_rows(family):
    series = ALL_SERIES[family]()
    series._rows.clear()
    cold_10 = series.fraction_coeffs(10)
    series._rows.clear()
    cold_50 = series.fraction_coeffs(50)
    assert series.fraction_coeffs(10) == cold_10  # read from the longer rows
    series._rows.clear()
    series.fraction_coeffs(10)
    assert series.fraction_coeffs(50) == cold_50  # extended from the shorter rows


@pytest.mark.parametrize("family", sorted(ALL_SERIES))
def test_each_series_is_built_once_and_its_rows_go_with_it(family):
    series = ALL_SERIES[family]()
    assert ALL_SERIES[family]() is series
    tables.gf_polys(family, 30)
    assert len(series._rows) >= 30  # the rows the exactness check multiplies back
    twin = RationalSeries(series.numerator, series.denominator, series.correction)
    assert twin == series and twin._rows is not series._rows
    assert twin.fraction_coeffs(30) == series.fraction_coeffs(30)
    gone = weakref.ref(twin)
    del twin
    gc.collect()
    assert gone() is None
