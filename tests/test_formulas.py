import pytest
from hypothesis import given
from hypothesis import strategies as st

import golden_tables
from flcubes import formulas
from flcubes.census import poset_census
from flcubes.formulas import (
    CLOSED_FORMS,
    COEFF_RECURRENCES,
    RECURRENCES,
    VALIDATED_FROM,
    binom,
    coeff_by_recurrence,
    d_coeff,
    dm_coeff,
    fib,
    h_coeff,
    padovan133,
    q_coeff,
    r_coeff,
    trinomial,
)
from flcubes.genfun import ALL_SERIES
from flcubes.polynomials import IntPoly
from flcubes.poset import sfence
from flcubes.tables import CLOSED_MIN_N, FAMILIES, METHODS, family_rows, recurrence_poly

CLOSED = {
    "rank": (r_coeff, 2),
    "cube": (q_coeff, 0),
    "maxcube": (h_coeff, 3),
    "degree": (d_coeff, 3),
    "indegree": (dm_coeff, 3),
}


# -- sequences -------------------------------------------------------------


def test_fib():
    assert [fib(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert fib(7) == 13
    assert fib(18) == 2584
    with pytest.raises(ValueError):
        fib(-1)


def test_padovan133():
    assert [padovan133(n) for n in range(8)] == [1, 3, 3, 4, 6, 7, 10, 13]
    assert padovan133(5) == 7
    with pytest.raises(ValueError):
        padovan133(-2)


def test_binom_zero_convention():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(-2, 0) == 0
    assert binom(3, 7) == 0
    assert binom(0, 0) == 1


def test_trinomial_values():
    assert trinomial(0, 0) == 1
    assert trinomial(2, 2) == 3
    assert trinomial(1, 3) == 0
    assert trinomial(4, -1) == 0


def test_trinomial_is_the_power_coefficient():
    # Rows of (1 + x + x^2)^n by T(n, k) = T(n-1, k) + T(n-1, k-1) + T(n-1, k-2),
    # in plain ints, to the n the closed forms of the benchmark reach.
    row = [1]
    for n in range(41):
        assert [trinomial(n, k) for k in range(-2, 2 * n + 3)] == [0, 0, *row, 0, 0]
        padded = [0, 0, *row, 0, 0]
        row = [sum(padded[k : k + 3]) for k in range(2 * n + 3)]


@given(st.integers(min_value=0, max_value=40))
def test_trinomial_row_sum(n):
    assert sum(trinomial(n, k) for k in range(2 * n + 1)) == 3**n


@given(st.integers(min_value=0, max_value=40))
def test_diagonal_binomials_give_fibonacci(n):
    assert sum(binom(n - k, k) for k in range(n // 2 + 1)) == fib(n + 1)


# -- closed forms against the golden tables -----------------------------------


@pytest.mark.parametrize("family", sorted(CLOSED))
def test_closed_forms_match_golden_tables(family):
    coeff_fn, lo = CLOSED[family]
    for n, coeffs in golden_tables.ALL[family].items():
        if n < lo:
            continue
        got = [coeff_fn(n, k) for k in range(len(coeffs))]
        assert got == coeffs, (family, n)
        assert coeff_fn(n, len(coeffs) + 3) == 0


def test_closed_form_spot_values():
    assert r_coeff(4, 3) == 2
    assert r_coeff(2, 0) == 1
    assert r_coeff(9, 4) == 12
    assert q_coeff(4, 1) == 6
    assert q_coeff(7, 3) == 5
    assert h_coeff(7, 3) == 5
    assert h_coeff(6, 2) == 5
    assert h_coeff(3, 1) == 3
    assert d_coeff(4, 2) == 4
    assert d_coeff(7, 4) == 10
    assert dm_coeff(7, 2) == 13
    assert dm_coeff(6, 3) == 1
    for n in range(0, 30):
        assert dm_coeff(n, 0) == 1


def test_closed_form_domains():
    with pytest.raises(ValueError):
        r_coeff(1, 0)
    with pytest.raises(ValueError):
        h_coeff(2, 1)
    with pytest.raises(ValueError):
        d_coeff(2, 1)
    with pytest.raises(ValueError):
        q_coeff(-1, 0)


def test_closed_sums_are_fibonacci():
    for n in range(3, 41):
        assert sum(r_coeff(n, k) for k in range(n + 1)) == 2 * fib(n)
        assert sum(d_coeff(n, k) for k in range(n + 1)) == 2 * fib(n)
        assert sum(dm_coeff(n, k) for k in range(n + 1)) == 2 * fib(n)
        assert q_coeff(n, 0) == 2 * fib(n)


def test_indegree_closed_form_fails_only_at_1_and_2():
    # the two-binomial indegree expression undercounts at n = 1 and n = 2,
    # which is why its guaranteed domain starts at 3
    assert [dm_coeff(1, k) for k in range(2)] == [1, 0]
    assert golden_tables.INDEGREE[1] == [1, 1]
    assert [dm_coeff(2, k) for k in range(2)] == [1, 1]
    assert golden_tables.INDEGREE[2] == [1, 2]
    assert [dm_coeff(0, k) for k in range(1)] == golden_tables.INDEGREE[0]


# -- polynomial recurrences ------------------------------------------------------


@pytest.mark.parametrize("family", sorted(CLOSED))
def test_recurrences_match_golden_tables(family):
    for n, coeffs in golden_tables.ALL[family].items():
        assert recurrence_poly(family, n) == IntPoly(coeffs), (family, n)


def test_recurrence_spot_checks():
    assert recurrence_poly("rank", 5) == IntPoly([1, 2, 2, 2, 2, 1])
    assert recurrence_poly("rank", 6) == recurrence_poly("rank", 5) + IntPoly([0, 0, 1]) * recurrence_poly("rank", 4)
    assert recurrence_poly("cube", 5) == IntPoly([10, 13, 4])
    assert recurrence_poly("maxcube", 7) == IntPoly([0, 0, 2, 5])
    assert recurrence_poly("degree", 6) == IntPoly([0, 0, 3, 9, 3, 1])
    assert recurrence_poly("indegree", 5) == IntPoly([1, 5, 4])
    assert recurrence_poly("indegree", 7) == IntPoly([1, 7, 13, 5])
    with pytest.raises(ValueError):
        recurrence_poly("rank", -1)


def test_rank_parity_recurrence_cases():
    for n in range(5, 30):
        if n % 2:
            expect = IntPoly([0, 1]) * recurrence_poly("rank", n - 1) + recurrence_poly("rank", n - 2)
        else:
            expect = recurrence_poly("rank", n - 1) + IntPoly([0, 0, 1]) * recurrence_poly("rank", n - 2)
        assert recurrence_poly("rank", n) == expect


def test_closed_forms_track_recurrences_deep():
    for n in range(2, 41):
        assert IntPoly([r_coeff(n, k) for k in range(n + 1)]) == recurrence_poly("rank", n)
    for n in range(0, 41):
        assert IntPoly([q_coeff(n, k) for k in range(n + 1)]) == recurrence_poly("cube", n)
    for n in range(3, 41):
        assert IntPoly([h_coeff(n, k) for k in range(n + 1)]) == recurrence_poly("maxcube", n)
        assert IntPoly([d_coeff(n, k) for k in range(n + 1)]) == recurrence_poly("degree", n)
        assert IntPoly([dm_coeff(n, k) for k in range(n + 1)]) == recurrence_poly("indegree", n)


# The closed forms as printed: every sum over its full range, relying on
# binom's and trinomial's zero convention to kill the out-of-range terms.
# The evaluators skip those terms; these are the reference they must match.


def r_full(n, k):
    if k < 0:
        return 0
    m, odd = divmod(n, 2)
    if odd:
        total = 0
        for i in range(m // 2 + 1):
            total += (-1) ** i * binom(m - i, i) * (
                trinomial(m - 2 * i, k - 2 * i) + trinomial(m - 2 * i, k - 2 * i - 1)
            )
        for i in range((m - 1) // 2 + 1):
            total -= (-1) ** i * binom(m - i - 1, i) * (
                trinomial(m - 2 * i - 1, k - 2 * i - 1)
                + trinomial(m - 2 * i - 1, k - 2 * i - 2)
            )
        return total
    total = 1 if (m == 1 and k == 0) else 0
    for i in range(m // 2 + 1):
        total += (-1) ** i * binom(m - i, i) * trinomial(m - 2 * i, k - 2 * i)
    for i in range((m - 1) // 2 + 1):
        total -= (-1) ** i * binom(m - i - 1, i) * trinomial(m - 2 * i - 1, k - 2 * i)
    for i in range((m - 2) // 2 + 1):
        total += (-1) ** i * binom(m - i - 2, i) * trinomial(m - 2 * i - 2, k - 2 * i)
    return total


def q_full(n, k):
    if k < 0:
        return 0
    total = 0
    for j in range((n + 1) // 2 + 1):
        total += binom(n - j + 1, j) * binom(j, k)
    for j in range(2, (n + 1) // 2 + 1):
        total -= binom(n - j - 1, j - 2) * binom(j, k)
    for j in range(2, n // 2 + 1):
        total -= binom(n - j - 2, j - 2) * binom(j, k)
    return total


def h_full(n, k):
    if k < 0:
        return 0
    return binom(k + 1, n - 2 * k) + binom(k, n - 2 * k - 1)


def d_full(n, k):
    if k < 0:
        return 0
    total = 0
    for j in range(k + 1):
        total += binom(n - 2 * j, k - j) * binom(j, n - k - j)
        total += binom(n - 2 * j - 1, k - j) * binom(j, n - k - j - 1)
        total -= binom(n - 2 * j - 2, k - j - 2) * binom(j, n - k - j)
    return total


def dm_full(n, k):
    if k < 0:
        return 0
    return binom(n - k - 2, k - 1) + binom(n - k, k)


FULL_RANGE = {"rank": r_full, "cube": q_full, "maxcube": h_full, "degree": d_full, "indegree": dm_full}


@pytest.mark.parametrize("family", sorted(FULL_RANGE))
def test_closed_forms_equal_their_full_range_sums(family):
    coeff, lo = CLOSED[family]
    assert lo == CLOSED_MIN_N[family]
    full = FULL_RANGE[family]
    for n in range(lo, 81):
        for k in range(-2, n + 4):
            assert coeff(n, k) == full(n, k), (family, n, k)


def test_alternating_trinomial_rows_step_by_the_half_index_rank_denominator():
    # the rank closed form's P_a is the y^a coefficient of 1 / denominator,
    # so its rows step by the denominator's negated y^1 and y^2 terms
    one, c1, c2 = ALL_SERIES["rank-even"]().denominator
    assert (one, -c1, -c2) == (IntPoly.one(), IntPoly([1, 1, 1]), IntPoly([0, 0, -1]))
    assert ALL_SERIES["rank-odd"]().denominator == (one, c1, c2)
    p = formulas._alternating_trinomial_sum
    rows = [IntPoly([p(a, k) for k in range(2 * a + 1)]) for a in range(81)]
    assert rows[0] == IntPoly.one() and rows[1] == IntPoly([1, 1, 1])
    for a in range(2, 81):
        assert rows[a] == -c1 * rows[a - 1] - c2 * rows[a - 2], a
    for a in range(-2, 81):
        assert [p(a, k) for k in (-2, -1, 2 * a + 1, 2 * a + 2)] == [0, 0, 0, 0], a


def _clear_closed_form_memos():
    formulas._alternating_trinomial_row.cache_clear()
    formulas._cube_terms.cache_clear()
    formulas.trinomial.cache_clear()


def _queries_in(order):
    """(family, n) pairs to n = 80: rank and cube from the top n down, or every
    family at n = 80, 0, 79, 1, ..., so that the kept sums are read in an
    order other than the ascending sweep they are bounded for."""
    if order == "descending":
        return [(f, n) for f in ("rank", "cube") for n in range(80, CLOSED[f][1] - 1, -1)]
    zigzag = [n for pair in zip(range(80, 40, -1), range(40)) for n in pair] + [40]
    return [(f, n) for n in zigzag for f in sorted(CLOSED) if n >= CLOSED[f][1]]


@pytest.mark.parametrize("order", ["descending", "interleaved"])
def test_the_kept_closed_form_sums_answer_queries_in_any_order(order):
    _clear_closed_form_memos()
    for family, n in _queries_in(order):
        coeff, full = CLOSED[family][0], FULL_RANGE[family]
        for k in range(-2, n + 4):
            assert coeff(n, k) == full(n, k), (family, n, k)


def test_the_alternating_trinomial_row_of_a_negative_index_is_empty():
    _clear_closed_form_memos()
    assert formulas._alternating_trinomial_row(-1) == formulas._alternating_trinomial_row(-2) == ()


@pytest.mark.parametrize("top", [80, pytest.param(400, marks=pytest.mark.slow)])
def test_an_ascending_sweep_keeps_the_closed_form_sums_within_their_bounds(top):
    _clear_closed_form_memos()
    rows, terms = formulas._alternating_trinomial_row, formulas._cube_terms
    assert (rows.cache_info().maxsize, terms.cache_info().maxsize) == (3, 1)
    for n in range(top + 1):
        for k in (0, n // 3, n):
            if n >= 2:
                r_coeff(n, k)
            q_coeff(n, k)
        assert rows.cache_info().currsize <= 3 and terms.cache_info().currsize <= 1, n
    # each row is computed once: P_(-1) .. P_(top / 2), and the terms of every n
    assert (rows.cache_info().misses, terms.cache_info().misses) == (top // 2 + 2, top + 1)


def test_every_route_table_names_the_same_formula_families():
    # each route owns its family table, so a family added to one route and
    # missed by another shows up here rather than at its first call
    formula_families = set(CLOSED_FORMS)
    assert formula_families == set(RECURRENCES) == set(CLOSED_MIN_N)
    assert formula_families == set(ALL_SERIES) & set(FAMILIES)
    assert tuple(poset_census(sfence(4))) == FAMILIES


@pytest.mark.parametrize("method", METHODS)
def test_family_rows_refuses_a_negative_start_by_every_method(method):
    # the gf route slices its expansion, where -2 would count from the end
    with pytest.raises(ValueError, match="non-negative"):
        family_rows("cube", -2, 5, method)


def test_indegree_compose_equals_cube_deep():
    one_plus_x = IntPoly([1, 1])
    for n in range(41):
        assert recurrence_poly("indegree", n).compose(one_plus_x) == recurrence_poly("cube", n)


def test_maxcube_at_one_is_padovan():
    for n in range(3, 41):
        assert recurrence_poly("maxcube", n)(1) == padovan133(n - 2)


# -- coefficient recurrences --------------------------------------------------------


def test_coeff_recurrence_worked_examples():
    assert coeff_by_recurrence("cube", 5, 2) == 4
    assert coeff_by_recurrence("maxcube", 7, 3) == 5
    assert coeff_by_recurrence("indegree", 6, 2) == 8


def test_coeff_recurrence_matches_polynomials():
    for family in ("cube", "maxcube", "degree", "indegree"):
        for n in range(VALIDATED_FROM[family], 25):
            row = IntPoly([coeff_by_recurrence(family, n, k) for k in range(n + 2)])
            assert row == recurrence_poly(family, n), (family, n)
    for m in range(VALIDATED_FROM["rank-even"], 13):
        row = IntPoly([coeff_by_recurrence("rank-even", m, k) for k in range(2 * m + 1)])
        assert row == recurrence_poly("rank", 2 * m), m
    for m in range(VALIDATED_FROM["rank-odd"], 13):
        row = IntPoly([coeff_by_recurrence("rank-odd", m, k) for k in range(2 * m + 2)])
        assert row == recurrence_poly("rank", 2 * m + 1), m


def test_coeff_recurrence_range_errors():
    with pytest.raises(ValueError, match="cube"):
        coeff_by_recurrence("cube", 4, 0)
    with pytest.raises(ValueError, match="degree"):
        coeff_by_recurrence("degree", 5, 2)
    with pytest.raises(ValueError, match="indegree"):
        coeff_by_recurrence("indegree", 4, 1)
    with pytest.raises(ValueError, match="rank-even"):
        coeff_by_recurrence("rank-even", 3, 0)
    with pytest.raises(ValueError):
        coeff_by_recurrence("nonsense", 9, 0)


def test_coeff_recurrence_refuses_the_seed_rows_it_keeps():
    # after the first validated row the kept rows still reach back to seeds,
    # which stay refused with the same message
    for family, lo in VALIDATED_FROM.items():
        coeff_by_recurrence(family, lo, 0)
        for n in COEFF_RECURRENCES[family].seeds:
            with pytest.raises(ValueError, match=f"^{family} coefficient recurrence is "
                               f"validated for n >= {lo}, got {n}$"):
                coeff_by_recurrence(family, n, 0)


def _window_answers(order):
    """Every polynomial row and coefficient row to n = 40, each family's rows
    queried in ``order(lowest valid n)``."""
    polys = [(("poly", f, n), recurrence_poly(f, n)) for f in RECURRENCES for n in order(0)]
    coeffs = [
        (("coeff", f, n), [coeff_by_recurrence(f, n, k) for k in range(2 * n + 2)])
        for f, lo in VALIDATED_FROM.items()
        for n in order(lo)
    ]
    return polys + coeffs


def test_queries_below_the_kept_rows_equal_a_fresh_ascending_sweep():
    formulas._KEPT.clear()
    formulas._COEFF_ROWS.clear()
    expected = dict(_window_answers(lambda lo: range(lo, 41)))
    # the windows now end at n = 40, so each query below them restarts from
    # the bases or the seeds; the last one repeats a query the window answers
    for key, value in _window_answers(lambda lo: [*range(40, lo - 1, -1), lo]):
        assert value == expected[key], key


# -- the three range errata ----------------------------------------------------------


def test_cube_recurrence_fails_at_4():
    one_plus_x = IntPoly([1, 1])
    predicted = recurrence_poly("cube", 3) + one_plus_x * recurrence_poly("cube", 2)
    assert predicted == IntPoly([7, 8, 2])
    assert recurrence_poly("cube", 4) == IntPoly([6, 6, 1])
    assert predicted != recurrence_poly("cube", 4)


def test_indegree_recurrence_fails_at_3_and_4():
    x = IntPoly([0, 1])
    assert recurrence_poly("indegree", 2) + x * recurrence_poly("indegree", 1) == IntPoly([1, 3, 1])
    assert recurrence_poly("indegree", 3) == IntPoly([1, 3])
    assert recurrence_poly("indegree", 3) + x * recurrence_poly("indegree", 2) == IntPoly([1, 4, 2])
    assert recurrence_poly("indegree", 4) == IntPoly([1, 4, 1])


def test_degree_recurrence_fails_at_4_and_5():
    x, x2 = IntPoly([0, 1]), IntPoly([0, 0, 1])

    def predict(n):
        return (
            x * recurrence_poly("degree", n - 2)
            + x * recurrence_poly("degree", n - 1)
            - x2 * recurrence_poly("degree", n - 3)
            + x * recurrence_poly("degree", n - 3)
        )

    assert predict(4) == IntPoly([0, 0, 6, 1])
    assert recurrence_poly("degree", 4) == IntPoly([0, 1, 4, 1])
    assert predict(5) == IntPoly([0, 0, 5, 5])
    assert recurrence_poly("degree", 5) == IntPoly([0, 0, 5, 4, 1])
    for n in range(6, 20):
        assert predict(n) == recurrence_poly("degree", n)


def test_recurrences_run_iteratively_far_beyond_the_recursion_limit():
    n = 1500
    two_fib = 2 * fib(n)
    polys = {f: recurrence_poly(f, n) for f in sorted(CLOSED)}
    for family in ("rank", "degree", "indegree"):
        assert polys[family](1) == two_fib, family
    assert polys["cube"].coeff(0) == two_fib
    assert polys["maxcube"](1) == padovan133(n - 2)
    for family in ("cube", "maxcube", "degree", "indegree"):
        assert coeff_by_recurrence(family, n, 0) == polys[family].coeff(0), family
    # one bottom vertex at every lattice index 2n and 2n + 1
    assert coeff_by_recurrence("rank-even", n, 0) == 1
    assert coeff_by_recurrence("rank-odd", n, 0) == 1
