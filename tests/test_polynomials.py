import pytest
from hypothesis import given
from hypothesis import strategies as st

from flcubes.polynomials import _WINDOW, IntPoly

coeff_lists = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=8)

# Rows for the kernel tests: up to 40 terms, with 0, +-1 (the kernels'
# special cases) and ~800-bit coefficients (the size of the n = 800 rows).
kernel_coeffs = st.one_of(
    st.sampled_from((0, 1, -1)),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-(2**800), max_value=2**800),
)
kernel_rows = st.lists(kernel_coeffs, max_size=40)


@st.composite
def cancelling_rows(draw):
    """Rows a, b of one length whose top coefficients cancel in a + b."""
    a = draw(st.lists(kernel_coeffs, min_size=1, max_size=40))
    k = draw(st.integers(min_value=1, max_value=len(a)))
    low = draw(st.lists(kernel_coeffs, min_size=len(a) - k, max_size=len(a) - k))
    return a, low + [-c for c in a[len(a) - k :]]


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def coefficient(cs, k):
    return cs[k] if k < len(cs) else 0


def sum_by_definition(a, b):
    return trimmed(coefficient(a, k) + coefficient(b, k) for k in range(max(len(a), len(b))))


def product_by_definition(a, b):
    # c_k = sum over i + j = k of a_i * b_j
    return trimmed(
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    )


def sum_of_products_by_definition(pairs):
    # c_k = sum over the pairs (a, b) of sum over i + j = k of a_i * b_j
    length = max((len(a) + len(b) - 1 for a, b in pairs), default=0)
    return trimmed(
        sum(a[i] * b[k - i] for a, b in pairs for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(length)
    )


def test_trailing_zeros_trimmed():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert not IntPoly([0, 0])


@pytest.mark.parametrize(
    "cs, expected",
    [
        ([1, 2, 0, 0], (1, 2)),
        ([0, -3, 0, 5], (0, -3, 0, 5)),
        ([2**800, 0], (2**800,)),
        ([0, 0, 0], ()),
        ([], ()),
    ],
)
def test_constructor_gives_one_tuple_for_any_iterable(cs, expected):
    inputs = [cs, tuple(cs), (c for c in cs), map(int, cs), iter(cs)]
    for x in inputs:
        assert IntPoly(x).coeffs == expected
        assert type(IntPoly(x).coeffs) is tuple


def test_degree_and_coeff():
    p = IntPoly([3, 0, 5])
    assert len(p.coeffs) - 1 == 2
    assert p.coeff(0) == 3
    assert p.coeff(1) == 0
    assert p.coeff(7) == 0
    assert len(IntPoly.zero().coeffs) - 1 == -1


def test_arithmetic_basics():
    p = IntPoly([1, 1])
    assert p * p == IntPoly([1, 2, 1])
    assert p + IntPoly([0, -1]) == IntPoly([1])
    assert p - p == IntPoly.zero()
    assert 3 * p == IntPoly([3, 3])
    assert p.shift(2) == IntPoly([0, 0, 1, 1])


def test_evaluation_and_compose():
    p = IntPoly([1, 2, 1])  # (1+x)^2
    assert p(3) == 16
    q = p.compose(IntPoly([1, 1]))  # (2+x)^2
    assert q == IntPoly([4, 4, 1])
    assert IntPoly.zero().compose(p) == IntPoly.zero()


def test_str_forms():
    assert str(IntPoly.zero()) == "0"
    assert str(IntPoly([1, -2, 1])) == "1 - 2x + x^2"
    assert str(IntPoly([0, 0, 3])) == "3x^2"
    assert str(IntPoly([-1, 1])) == "-1 + x"


def test_immutability():
    p = IntPoly([1])
    with pytest.raises(AttributeError):
        p.coeffs = (2,)


def test_shift_rejects_negative_power():
    with pytest.raises(ValueError):
        IntPoly.one().shift(-1)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws(a, b, c):
    pa, pb, pc = IntPoly(a), IntPoly(b), IntPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeff_lists, coeff_lists, st.integers(min_value=-20, max_value=20))
def test_evaluation_is_a_homomorphism(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    assert (pa + pb)(x) == pa(x) + pb(x)
    assert (pa * pb)(x) == pa(x) * pb(x)


@given(coeff_lists, coeff_lists, st.integers(min_value=-9, max_value=9))
def test_compose_matches_evaluation(a, b, x):
    pa, pb = IntPoly(a), IntPoly(b)
    assert pa.compose(pb)(x) == pa(pb(x))


@given(kernel_rows, kernel_rows)
def test_kernels_match_the_definitions(a, b):
    pa, pb = IntPoly(a), IntPoly(b)
    minus_b = [-c for c in b]
    assert (pa + pb).coeffs == sum_by_definition(a, b)
    assert (pb + pa).coeffs == sum_by_definition(a, b)
    assert (pa - pb).coeffs == sum_by_definition(a, minus_b)
    assert (pb - pa).coeffs == sum_by_definition(b, [-c for c in a])
    assert (-pb).coeffs == trimmed(minus_b)
    assert (pa * pb).coeffs == product_by_definition(a, b)
    assert (pb * pa).coeffs == product_by_definition(a, b)


@given(kernel_rows, kernel_coeffs)
def test_kernels_match_the_definitions_with_an_int_operand(a, c):
    pa = IntPoly(a)
    assert (pa + c).coeffs == (c + pa).coeffs == sum_by_definition(a, [c])
    assert (pa - c).coeffs == sum_by_definition(a, [-c])
    assert (c - pa).coeffs == sum_by_definition([c], [-x for x in a])
    assert (pa * c).coeffs == (c * pa).coeffs == product_by_definition(a, [c])


@given(cancelling_rows())
def test_kernels_trim_cancelled_top_coefficients(rows):
    a, b = rows
    pa, pb = IntPoly(a), IntPoly(b)
    expected = sum_by_definition(a, b)
    assert len(expected) < len(a)
    assert (pa + pb).coeffs == (pb + pa).coeffs == expected
    assert (pa - (-pb)).coeffs == expected
    assert (pa - pa).coeffs == ()
    assert (pa + (-pa)).coeffs == ()


def test_constants_hash_as_their_int():
    assert len({IntPoly((5,)), 5}) == 1
    assert len({IntPoly(()), 0}) == 1
    assert hash(IntPoly((-1,))) == hash(-1)


polys_and_ints = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(IntPoly, st.lists(st.integers(min_value=-3, max_value=3), max_size=3)),
)


@given(polys_and_ints, polys_and_ints)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


# A factor c of sum_of_products is an int or an IntPoly; zero rows are drawn
# on purpose, since a zero row still has to leave the sum unchanged.
kernel_factors = st.one_of(kernel_coeffs, kernel_rows, st.lists(st.just(0), max_size=5))


def as_factor(c):
    return c if isinstance(c, int) else IntPoly(c)


def as_row(c):
    return [c] if isinstance(c, int) else c


@given(st.lists(st.tuples(kernel_factors, kernel_rows), max_size=5))
def test_sum_of_products_matches_the_definition(pairs):
    got = IntPoly.sum_of_products((as_factor(c), IntPoly(p)) for c, p in pairs)
    assert got.coeffs == sum_of_products_by_definition([(as_row(c), p) for c, p in pairs])


def test_sum_of_products_of_nothing_is_zero():
    assert IntPoly.sum_of_products([]).coeffs == ()
    assert IntPoly.sum_of_products([(0, IntPoly([1, 2])), (IntPoly(), IntPoly([3]))]).coeffs == ()
    assert IntPoly.sum_of_products([(5, IntPoly())]).coeffs == ()


def test_sum_of_products_of_rows_of_different_lengths():
    big = 2**800 + 1
    pairs = [
        (1, [4, 0, 0, 5]),
        (-1, [0, 7]),
        ([0, 0, 1], [1, -1, 0, 2, 0, 0, 3]),
        (big, [1]),
        ([-1, 0, big], [2, 0, -3]),
        (0, [9, 9, 9, 9, 9, 9, 9, 9, 9, 9]),
    ]
    got = IntPoly.sum_of_products((as_factor(c), IntPoly(p)) for c, p in pairs)
    expected = sum_of_products_by_definition([(as_row(c), p) for c, p in pairs])
    assert got.coeffs == expected
    assert expected == (big + 2, -7, 2 * big + 4, 4, -3 * big, 2, 0, 0, 3)


@given(cancelling_rows(), kernel_factors)
def test_sum_of_products_trims_cancelled_top_coefficients(rows, c):
    a, b = rows
    c = as_factor(c)
    pa, pb = IntPoly(a), IntPoly(b)
    expected = sum_by_definition(a, b)
    assert len(expected) < len(a)
    assert IntPoly.sum_of_products([(1, pa), (1, pb)]).coeffs == expected
    assert IntPoly.sum_of_products([(1, pa), (-1, -pb)]).coeffs == expected
    assert IntPoly.sum_of_products([(c, pa), (c, pb)]) == c * IntPoly(expected)
    assert IntPoly.sum_of_products([(c, pa), (-c, pa)]).coeffs == ()


# Rows with more nonzero coefficients than one window of the kernel, so the
# terms of one factor are folded in several windows.
many_terms = st.lists(
    st.one_of(st.sampled_from((1, -1, 2, -7)), st.integers(min_value=-(2**200), max_value=2**200)),
    min_size=_WINDOW + 1,
    max_size=3 * _WINDOW + 2,
).filter(lambda cs: sum(1 for c in cs if c) > _WINDOW)


@given(many_terms, kernel_rows, st.lists(st.tuples(kernel_factors, kernel_rows), max_size=3))
def test_sum_of_products_over_several_windows(a, b, more):
    pairs = [(a, b), *((as_row(c), p) for c, p in more)]
    got = IntPoly.sum_of_products((IntPoly(c), IntPoly(p)) for c, p in pairs)
    assert got.coeffs == sum_of_products_by_definition(pairs)
    assert (IntPoly(a) * IntPoly(b)).coeffs == product_by_definition(a, b)


@given(st.lists(st.tuples(st.sampled_from((0, 1, -1, 2, -2, 10**30)), kernel_rows), max_size=3 * _WINDOW))
def test_sum_of_products_of_many_int_scalars(pairs):
    # each nonzero int scalar is one term, so long lists span several windows
    got = IntPoly.sum_of_products((c, IntPoly(p)) for c, p in pairs)
    assert got.coeffs == sum_of_products_by_definition([([c], p) for c, p in pairs])


def test_sum_of_products_with_zero_polynomials_in_every_window():
    row = [3, -1, 4, 1, -5]
    pairs = [(c, row if c % 3 else []) for c in range(-_WINDOW, 2 * _WINDOW)]
    pairs += [([0] * 5, row), ([], row), (list(range(2 * _WINDOW)), [])]
    got = IntPoly.sum_of_products((IntPoly(as_row(c)), IntPoly(p)) for c, p in pairs)
    assert got.coeffs == sum_of_products_by_definition([(as_row(c), p) for c, p in pairs])


def test_sum_of_products_of_rows_of_different_lengths_across_windows():
    # shifts that go down as well as up from one window to the next
    pairs = [
        ([0] * 12 + [1] * 9, [1, 2, 3]),
        ([1, -1, 2] * 4, [5] * 30),
        (-1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 7]),
        ([0] * 40 + [2], [1]),
    ]
    got = IntPoly.sum_of_products((IntPoly(as_row(c)), IntPoly(p)) for c, p in pairs)
    assert got.coeffs == sum_of_products_by_definition([(as_row(c), p) for c, p in pairs])


@given(many_terms, kernel_rows)
def test_sum_of_products_cancels_over_several_windows(a, b):
    pa, pb = IntPoly(a), IntPoly(b)
    assert IntPoly.sum_of_products([(pa, pb), (-pa, pb)]).coeffs == ()
    assert IntPoly.sum_of_products([(pb, pa), (1, pa), (-1, pa), (-pb, pa)]).coeffs == ()
    # cancel the top of a * b, leaving a lower degree
    top = IntPoly([a[-1]]).shift(len(a) - 1)
    got = IntPoly.sum_of_products([(pa, pb), (-top, pb)])
    assert got.coeffs == product_by_definition(a[:-1], b)


def test_3000_term_square_has_triangle_coefficients():
    ones = IntPoly([1] * 3000)
    assert (ones * ones).coeffs == tuple(min(k + 1, 5999 - k) for k in range(5999))
