from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import chain, mask_of, members, naturally_labelled_posets, posets
from flcubes import poset as poset_module
from flcubes import tables
from flcubes.census import poset_census
from flcubes.errors import CapacityError
from flcubes.formulas import fib
from flcubes.lattice import filter_lattice, to_dot
from flcubes.poset import (
    Poset,
    fence,
    poset_from_text,
    sfence,
)


# -- construction -----------------------------------------------------------


def test_fence_small():
    assert fence(0).covers == frozenset()
    assert fence(1).covers == frozenset()
    assert fence(3).covers == frozenset({(2, 1), (2, 3)})
    assert fence(4).covers == frozenset({(2, 1), (2, 3), (4, 3)})


def test_sfence_small():
    assert sfence(0).covers == frozenset()
    assert len(sfence(0)) == 0
    assert sfence(3).covers == frozenset({(1, 2), (2, 3)})
    assert sfence(5).covers == frozenset({(1, 2), (2, 3), (4, 2), (4, 5)})
    assert sfence(6).covers == sfence(5).covers | {(6, 5)}
    assert sfence(7).covers == sfence(6).covers | {(6, 7)}


def test_constructor_rejects_cycles_and_redundancy():
    with pytest.raises(ValueError):
        Poset((1, 2), frozenset({(1, 2), (2, 1)}))
    with pytest.raises(ValueError):
        # (1, 3) is implied by 1 > 2 > 3
        Poset((1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)}))
    with pytest.raises(ValueError):
        Poset((1, 2), frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Poset((1, 1, 2), frozenset())


def test_a_cycle_below_a_maximal_element_is_refused():
    # 1 is maximal and covers 2, which lies on the cycle 2 > 3 > 4 > 2
    with pytest.raises(ValueError, match="cover relation contains a cycle"):
        Poset((1, 2, 3, 4), frozenset({(1, 2), (2, 3), (3, 4), (4, 2)}))


def assert_top_down(p):
    """``_top_down`` lists every position once, each after all positions above it."""
    assert sorted(p._top_down) == list(range(len(p)))
    decided = 0
    for e in p._top_down:
        assert p._strict_up[e] & ~decided == 0, (p, e)
        decided |= 1 << e


@given(posets())
def test_enumeration_order_is_a_top_down_linear_extension(p):
    assert_top_down(p)


def test_enumeration_order_is_a_top_down_linear_extension_on_every_small_poset():
    for n in range(7):
        for p in naturally_labelled_posets(n):
            assert_top_down(p)
            assert_top_down(p.dual())


def test_order_queries():
    p = sfence(5)
    assert 1 in p.up_set(3) and 3 in p.down_set(1)
    assert 4 in p.up_set(2) and 2 in p.down_set(4)
    assert 4 not in p.up_set(1) and 1 not in p.down_set(4)
    assert p.up_set(3) == {1, 2, 4}
    assert p.down_set(3) == set()
    assert {e for e in p.elements if not p.up_set(e)} == {1, 4}
    assert {e for e in p.elements if not p.down_set(e)} == {3, 5}


# -- dual ----------------------------------------------------------------------


def test_dual_examples():
    assert fence(0).dual() == fence(0)
    assert fence(3).dual().covers == frozenset({(1, 2), (3, 2)})
    p = sfence(7)
    assert p.dual().dual() == p


@given(posets())
def test_dual_is_an_involution(p):
    assert p.dual().dual() == p
    assert len(p.dual().covers) == len(p.covers)


# -- removal -----------------------------------------------------------------


def test_remove_endpoint_gives_smaller_sfence():
    assert sfence(5).remove(5) == sfence(4)
    assert sfence(3).remove(3).covers == frozenset({(1, 2)})


def test_remove_middle_uses_induced_transitivity():
    chain = Poset((1, 2, 3), frozenset({(1, 2), (2, 3)}))
    assert chain.remove(2) == Poset((1, 3), frozenset({(1, 3)}))


def test_remove_unknown_element():
    with pytest.raises(KeyError):
        sfence(3).remove(9)
    with pytest.raises(KeyError):
        sfence(3).star_remove(9)


def test_star_remove_examples():
    # 4 > 2 > 3 makes x4 comparable to x3, so only x5 survives; the
    # count split |F(P)| = |F(P-x)| + |F(P*x)| pins this down: 10 = 8 + 2
    assert sfence(5).star_remove(3) == Poset((5,), frozenset())
    assert sfence(7).star_remove(3) == Poset((5, 6, 7), frozenset({(6, 5), (6, 7)}))
    chain = Poset((1, 2, 3), frozenset({(1, 2), (2, 3)}))
    assert len(chain.star_remove(2)) == 0
    for n in (6, 8):
        assert sfence(n).star_remove(n) == sfence(n - 2)
    for n in (7, 9):
        assert sfence(n).star_remove(n).elements == tuple(range(1, n - 1))


@given(posets())
@settings(max_examples=60)
def test_removals_yield_valid_posets(p):
    # the Poset constructor re-validates acyclicity and reduction
    for x in p.elements:
        assert len(p.remove(x)) == len(p) - 1
        smaller = p.star_remove(x)
        assert x not in smaller.elements


# -- filters -------------------------------------------------------------------


def is_filter(p, subset):
    return mask_of(p.elements, subset) in p.filter_masks()


def is_upward_closed(p, subset):
    return all(p.up_set(x) <= subset for x in subset)


def test_is_filter_examples():
    p3 = sfence(3)
    assert not is_filter(p3, {2})
    assert is_filter(p3, set())
    assert is_filter(sfence(5), {1, 4})
    assert is_filter(fence(4), {2, 4, 3})
    assert not is_filter(fence(4), {3})


def test_filters_of_empty_poset():
    fs = sfence(0).filters()
    assert len(fs) == 1
    assert members((), fs[0]) == frozenset()
    assert '[label=""' in to_dot(filter_lattice(sfence(0)))


def test_filters_of_chain():
    p = sfence(3)
    got = [members(p.elements, f) for f in p.filters()]
    assert got == [
        frozenset(),
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
    ]


def test_filter_counts_match_fibonacci():
    assert len(sfence(6).filters()) == 16
    for n in range(3, 13):
        assert sfence(n).count_filters() == 2 * fib(n)
    assert [sfence(n).count_filters() for n in range(3)] == [1, 2, 3]


def test_fence_filter_counts():
    # fence filter lattices are the classical Fibonacci cubes
    for n in range(0, 13):
        assert fence(n).count_filters() == fib(n + 2)


def test_canonical_order_is_cardinality_then_mask():
    fs = sfence(6).filters()
    keys = [(f.bit_count(), f) for f in fs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_capacity_bounds(monkeypatch):
    big = Poset(tuple(range(1, 40)), frozenset())
    with pytest.raises(CapacityError):
        big.filters()
    fence_20 = Poset(fence(20).elements, fence(20).covers)  # no count recorded yet
    monkeypatch.setattr(poset_module, "FILTER_COUNT_BOUND", 10)
    with pytest.raises(CapacityError, match="filter count exceeds 10"):
        fence_20.count_filters()
    with pytest.raises(CapacityError, match="filter count exceeds 10"):
        fence_20.filters()
    monkeypatch.setattr(poset_module, "FILTER_COUNT_BOUND", fib(22))
    assert len(fence_20.filters()) == fib(22)  # the bound itself is allowed


def test_every_filter_entry_point_refuses_past_the_count_bound():
    # 2^18 = 262 144 filters, more than the 200 000 bound
    antichain = Poset(tuple(range(1, 19)), frozenset())
    for enumerate_filters in (
        antichain.filter_masks,
        antichain.filters,
        antichain.count_filters,
        lambda: filter_lattice(antichain),
        lambda: poset_census(antichain),
    ):
        for _ in range(2):  # a refusal records no count, so a second call refuses too
            with pytest.raises(CapacityError, match="^filter count exceeds 200000$"):
                enumerate_filters()


def test_the_census_cap_is_the_largest_sfence_under_the_count_bound():
    assert sfence(tables.CENSUS_MAX_N).count_filters() <= poset_module.FILTER_COUNT_BOUND
    with pytest.raises(CapacityError, match="^filter count exceeds 200000$"):
        sfence(tables.CENSUS_MAX_N + 1).count_filters()


def test_count_filters_shares_the_enumeration_bound():
    with pytest.raises(CapacityError, match="at most 32 elements, got 40"):
        chain(40).filters()
    with pytest.raises(CapacityError, match="at most 32 elements, got 40"):
        chain(40).count_filters()
    assert chain(32).count_filters() == 33


def test_count_filters_refuses_a_long_chain_without_recursing():
    with pytest.raises(CapacityError, match="at most 32 elements, got 1500"):
        chain(1500).count_filters()


@given(posets(max_size=12))
@settings(max_examples=60)
def test_enumeration_agrees_with_brute_force(p):
    # to 12 elements, where depth-first and layer-by-layer orders differ
    fs = {members(p.elements, f) for f in p.filters()}
    up = {x: p.up_set(x) for x in p.elements}
    brute = set()
    for r in range(len(p) + 1):
        for combo in combinations(p.elements, r):
            if all(up[x] <= set(combo) for x in combo):
                brute.add(frozenset(combo))
    assert fs == brute
    assert len(fs) == p.count_filters()


@given(posets())
@settings(max_examples=60)
def test_count_filters_equals_the_enumeration_before_and_after_it(p):
    cold = Poset(p.elements, p.covers)  # nothing enumerated yet
    assert cold.count_filters() == len(p.filter_masks())
    assert p.count_filters() == len(p.filter_masks()) == len(cold.filters())


def test_fence_and_sfence_covers_match_their_definitions():
    for n in range(41):
        ground = range(1, n + 1)
        # even-indexed elements cover their odd neighbours
        zigzag = {(a, b) for a in ground for b in ground if a % 2 == 0 and abs(a - b) == 1}
        assert fence(n).covers == zigzag, n
        # 1>2, 2>3, 4>2, 4>5, then 2i > 2i-1 and 2i > 2i+1 from the third tooth on
        head = {(a, b) for a, b in ((1, 2), (2, 3), (4, 2), (4, 5)) if max(a, b) <= n}
        assert sfence(n).covers == head | {(a, b) for a, b in zigzag if a >= 6}, n


@given(posets())
@settings(max_examples=60)
def test_every_enumerated_set_is_a_filter(p):
    for f in p.filters():
        assert is_upward_closed(p, members(p.elements, f))


@given(posets(max_size=7))
@settings(max_examples=60)
def test_deletion_splits_filter_counts(p):
    for x in p.elements:
        assert (
            p.count_filters()
            == p.remove(x).count_filters() + p.star_remove(x).count_filters()
        )


# -- text format ----------------------------------------------------------------


def test_text_round_trip():
    assert poset_from_text("6\n1 2\n2 3\n4 2\n4 5\n6 5\n") == sfence(6)


def test_text_refuses_a_count_past_the_enumeration_bound():
    with pytest.raises(CapacityError, match="at most 32 elements, got 1000000000"):
        poset_from_text("1000000000\n")
    with pytest.raises(ValueError, match="out of range"):
        poset_from_text("40\n1 41\n")
    assert len(poset_from_text("32\n")) == 32


def test_text_parsing_errors():
    with pytest.raises(ValueError):
        poset_from_text("")
    with pytest.raises(ValueError):
        poset_from_text("x\n")
    with pytest.raises(ValueError):
        poset_from_text("2\n1 3\n")
    with pytest.raises(ValueError):
        poset_from_text("2\n1 2 3\n")


@pytest.mark.parametrize("line", ["2 x", "1_0 1", "+2 1", "2 -1", "\u0662 1"])
def test_text_refuses_a_cover_entry_that_is_not_ascii_decimal_digits(line):
    # "1_0" would read as 10 and "\u0662" (Arabic-Indic two) as 2 by int()
    with pytest.raises(ValueError) as info:
        poset_from_text(f"10\n{line}\n")
    assert str(info.value) == f"malformed cover line {line!r}"


@pytest.mark.parametrize("header", ["1_0", "+3", "\u0663", "-3", "3 1"])
def test_text_refuses_a_header_that_is_not_ascii_decimal_digits(header):
    # int() would read "1_0" as 10 and "+3" and "\u0663" (Arabic-Indic three) as 3
    with pytest.raises(ValueError) as info:
        poset_from_text(f"{header}\n")
    assert str(info.value) == f"first line must be the element count, got {header!r}"
