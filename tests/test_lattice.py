import hashlib

import pytest
from hypothesis import given, settings

from conftest import BOWTIE, M3, lattice_from_covers, mask_of, members, posets
from flcubes import poset as poset_module
from flcubes.census import rank_polynomial
from flcubes.errors import CapacityError
from flcubes.lattice import (
    Interval,
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
    is_cutting,
    iso_check,
    to_dot,
    underlying_graph,
)
from flcubes.polynomials import IntPoly
from flcubes.poset import Poset, fence, sfence


def phi(n):
    return filter_lattice(sfence(n))


# -- filter lattice construction ---------------------------------------------


def test_trivial_lattice():
    d = phi(0)
    assert len(d) == 1
    assert d.arcs == frozenset()
    assert d.ranks == (0,)
    assert d.bottom == d.top == 0


def test_two_chain():
    d = phi(1)
    assert len(d) == 2
    assert len(d.arcs) == 1
    assert sorted(d.ranks) == [0, 1]


def test_phi4_structure():
    d = phi(4)
    assert len(d) == 6
    assert rank_polynomial(d) == IntPoly([1, 1, 1, 2, 1])
    assert len(d.elements) == 4
    # minimum is the full ground set, maximum the empty filter
    assert members(d.elements, d.vertices[d.bottom]) == {1, 2, 3, 4}
    assert members(d.elements, d.vertices[d.top]) == set()


def test_arcs_are_single_element_differences():
    d = phi(6)
    for u, v in d.arcs:
        small, large = d.vertices[u], d.vertices[v]
        assert small & ~large == 0 and (large ^ small).bit_count() == 1
        assert d.ranks[u] == d.ranks[v] + 1


# -- the stored covers against the definition ----------------------------------


def definition_covers(filters):
    """Every (upper, lower) pair of the given filter masks that differ by
    exactly one element, found by comparing all pairs."""
    return {(a, b) for a in filters for b in filters if a & ~b == 0 and (a ^ b).bit_count() == 1}


def definition_filters(p):
    """The bitmask of every upward closed subset of ``p``, by testing every subset."""
    above = [mask_of(p.elements, p.up_set(e)) for e in p.elements]
    return {
        s for s in range(1 << len(p))
        if all(not above[i] & ~s for i in range(len(p)) if s >> i & 1)
    }


def diagram_covers(d):
    """The cover pairs of a diagram, as payloads, from both adjacency lists."""
    up = {(d.vertices[u], d.vertices[v]) for v, ups in enumerate(d.up_adj) for u in ups}
    down = {(d.vertices[u], d.vertices[v]) for u, downs in enumerate(d.down_adj) for v in downs}
    assert up == down and len(up) == len(d.arcs) == sum(map(len, d.up_adj))
    return up


def assert_matches_definition(p):
    filters = definition_filters(p)
    d = filter_lattice(p)
    assert d.elements == p.elements
    assert sorted(d.vertices) == sorted(filters)
    assert d.ranks == tuple(len(p) - f.bit_count() for f in d.vertices)
    assert diagram_covers(d) == definition_covers(filters)
    if not p.elements:
        return
    # the cutting of P - x as a standalone diagram: the filters W of P - x
    # between its bottom and top, with the covers among them
    x = p.elements[-1]
    host, interval = deletion_cutting(p, x)
    part = interval_diagram(host, interval)
    lo, hi = host.vertices[interval.bottom], host.vertices[interval.top]
    inside = {w for w in definition_filters(p.remove(x)) if hi & ~w == 0 and w & ~lo == 0}
    assert part.elements == host.elements
    assert sorted(part.vertices) == sorted(inside)
    assert diagram_covers(part) == definition_covers(inside)


@given(posets(max_size=7))
@settings(max_examples=60, deadline=None)
def test_filter_lattice_matches_definition_on_random_posets(p):
    assert_matches_definition(p)


def test_filter_lattice_matches_definition_on_fences():
    for build in (fence, sfence, lambda n: fence(n).dual()):
        for n in range(10):
            assert_matches_definition(build(n))


# -- the order masks against the definition --------------------------------------


def reachable_up(d, u):
    """Every vertex reached from u along covering arcs, u included."""
    seen, stack = {u}, [u]
    while stack:
        for w in d.up_adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def assert_masks_match_definition(p):
    d = filter_lattice(p)
    vs = range(len(d))
    # u <= v in reverse inclusion: the filter of v lies inside the filter of u
    below = [[d.vertices[v] & ~d.vertices[u] == 0 for v in vs] for u in vs]
    by_rank = sorted(vs, key=lambda v: (d.ranks[v], v))
    assert d.rank_order == tuple(by_rank)
    for u in vs:
        for v in vs:
            assert d.leq(u, v) == below[u][v]
            if below[u][v]:
                between = [w for w in by_rank if below[u][w] and below[w][v]]
                assert d.interval_members(Interval(u, v)) == between
    if not p.elements:
        return
    expanded = convex_expansion(*deletion_cutting(p, p.elements[-1]))
    for u in range(len(expanded)):
        up = reachable_up(expanded, u)
        assert all(expanded.leq(u, v) == (v in up) for v in range(len(expanded)))


@given(posets(max_size=6))
@settings(max_examples=40, deadline=None)
def test_order_masks_match_definition_on_random_posets(p):
    assert_masks_match_definition(p)


def test_order_masks_match_definition_on_fences():
    for build in (fence, sfence):
        for n in range(10):
            assert_masks_match_definition(build(n))


@pytest.mark.parametrize("build", [
    lambda: phi(6),
    lambda: M3,
    lambda: convex_expansion(*deletion_cutting(sfence(7), 7)),
    lambda: BOWTIE,
], ids=["phi-6", "m3", "expansion", "bowtie"])
def test_highest_bit_of_an_up_set_intersection_is_its_least_element(build):
    # mask bits count down from the top rank: bit p is rank_order[-1 - p]
    d = build()
    vs = range(len(d))
    ambiguous = 0
    for u in vs:
        for v in vs:
            common = d.up_masks[u] & d.up_masks[v]
            j = d.rank_order[-common.bit_length()]
            uppers = [w for w in vs if d.leq(u, w) and d.leq(v, w)]
            least = [w for w in uppers if all(d.leq(w, x) for x in uppers)]
            if least:
                assert least == [j]
            else:
                assert common != d.up_masks[j]
                ambiguous += 1
    assert (ambiguous > 0) == (d is BOWTIE)


def test_leq_and_masks():
    d = phi(5)
    assert d.leq(d.bottom, d.top)
    assert not d.leq(d.top, d.bottom)
    for u, v in d.arcs:
        assert d.leq(v, u)


def test_find_filter():
    d = phi(5)
    i = d.find_filter({1, 4})
    assert members(d.elements, d.vertices[i]) == {1, 4}
    with pytest.raises(KeyError):
        d.find_filter({2})


def test_filter_lattice_capacity(monkeypatch):
    monkeypatch.setattr(poset_module, "FILTER_COUNT_BOUND", 10)
    with pytest.raises(CapacityError):
        filter_lattice(fence(20))


def test_diagram_validation():
    with pytest.raises(ValueError):
        lattice_from_covers((), [])
    with pytest.raises(ValueError):
        # two minima
        lattice_from_covers((0, 0), [])
    with pytest.raises(ValueError):
        # arc must drop rank by one
        lattice_from_covers((0, 1, 2), [(2, 0), (1, 0), (2, 1)])
    with pytest.raises(ValueError, match="lists a cover more than once"):
        lattice_from_covers((0, 1), [(1, 0), (1, 0)])


# -- intervals and cuttings --------------------------------------------------


def test_whole_lattice_is_a_cutting():
    d = phi(4)
    assert is_cutting(d, Interval(d.bottom, d.top))


def test_diamond_middle_vertex_is_not_a_cutting():
    antichain = Poset((1, 2), frozenset())
    d = filter_lattice(antichain)  # a diamond
    mids = [v for v in range(4) if d.ranks[v] == 1]
    assert len(mids) == 2
    assert not is_cutting(d, Interval(mids[0], mids[0]))
    assert is_cutting(d, Interval(d.bottom, mids[0]))


def test_phi5_contains_a_phi3_cutting():
    host, interval = deletion_cutting(sfence(5), 5)
    assert is_cutting(host, interval)
    part = interval_diagram(host, interval)
    assert iso_check(part, phi(3))


def test_interval_members_rejects_unordered_pair():
    d = phi(4)
    with pytest.raises(ValueError):
        d.interval_members(Interval(d.top, d.bottom))


def test_interval_diagram_reranks():
    host, interval = deletion_cutting(sfence(6), 6)
    part = interval_diagram(host, interval)
    assert min(part.ranks) == 0
    assert len(part) == len(host.interval_members(interval))


# -- convex expansion ----------------------------------------------------------


def test_smallest_expansion_is_a_three_chain():
    d = phi(1)
    expanded = convex_expansion(d, Interval(d.top, d.top))
    assert len(expanded) == 3
    assert iso_check(expanded, phi(2))


def test_expansion_rejects_non_cutting():
    d = filter_lattice(Poset((1, 2), frozenset()))
    mid = next(v for v in range(4) if d.ranks[v] == 1)
    with pytest.raises(ValueError):
        convex_expansion(d, Interval(mid, mid))


def test_expansion_duplicating_whole_diamond():
    # duplicating the whole lattice must double the vertex count and stay graded
    d = filter_lattice(Poset((1, 2), frozenset()))
    expanded = convex_expansion(d, Interval(d.bottom, d.top))
    assert len(expanded) == 8


def test_phi6_is_phi5_expanded_by_phi4():
    host, interval = deletion_cutting(sfence(6), 6)
    assert len(host) == 10
    part = interval_diagram(host, interval)
    assert len(part) == 6
    expanded = convex_expansion(host, interval)
    assert len(expanded) == 16
    assert iso_check(expanded, phi(6))


def test_phi7_is_phi6_expanded_by_phi5():
    host, interval = deletion_cutting(sfence(7), 7)
    expanded = convex_expansion(host, interval)
    assert iso_check(expanded, phi(7))
    assert not iso_check(expanded, phi(6))


def test_rank_split_of_expansion():
    # bottom-anchored cutting: R(L expanded) = R(K) + x R(L)
    host, interval = deletion_cutting(sfence(7), 7)
    assert interval.bottom == host.bottom
    part = interval_diagram(host, interval)
    expanded = convex_expansion(host, interval)
    assert rank_polynomial(expanded) == rank_polynomial(part) + IntPoly([0, 1]) * rank_polynomial(host)
    # top-anchored cutting: R(L expanded) = R(L) + x^(h+1) R(K)
    host, interval = deletion_cutting(sfence(8), 8)
    assert interval.top == host.top
    h = host.ranks[interval.bottom]
    part = interval_diagram(host, interval)
    expanded = convex_expansion(host, interval)
    assert rank_polynomial(expanded) == rank_polynomial(host) + rank_polynomial(part).shift(h + 1)


@given(posets(max_size=6))
@settings(max_examples=40, deadline=None)
def test_deletion_expansion_rebuilds_filter_lattice(p):
    full = filter_lattice(p)
    for x in p.elements:
        host, interval = deletion_cutting(p, x)
        expanded = convex_expansion(host, interval)
        assert len(expanded) == len(full)
        assert iso_check(expanded, full)


# -- underlying graph -----------------------------------------------------------


def test_underlying_graph_phi1():
    g = underlying_graph(phi(1))
    assert g == (frozenset({1}), frozenset({0}))


def test_underlying_graph_phi4_degrees():
    g = underlying_graph(phi(4))
    assert sorted(len(nbrs) for nbrs in g) == [1, 2, 2, 2, 2, 3]


def test_underlying_graph_phi6_counts():
    g = underlying_graph(phi(6))
    assert len(g) == 16
    assert sum(len(nbrs) for nbrs in g) // 2 == 25


# -- isomorphism -----------------------------------------------------------------


def test_phi3_is_a_four_chain():
    four_chain = lattice_from_covers((0, 1, 2, 3), [(1, 0), (2, 1), (3, 2)])
    assert iso_check(phi(3), four_chain)


def test_size_mismatch_is_not_isomorphic():
    gamma3 = filter_lattice(fence(3))
    assert len(gamma3) == 5
    assert not iso_check(phi(4), gamma3)


def test_rank_profile_mismatch():
    # same size and arc count, different rank profile
    gamma3 = filter_lattice(fence(3))
    gamma3_star = filter_lattice(fence(3).dual())
    assert not iso_check(gamma3, gamma3_star)


def test_iso_capacity():
    big = phi(13)
    with pytest.raises(CapacityError):
        iso_check(big, big)


def test_self_iso():
    for n in range(9):
        assert iso_check(phi(n), phi(n))


# -- dot export --------------------------------------------------------------------


def test_dot_output_shape():
    text = to_dot(phi(4))
    lines = text.strip().splitlines()
    assert lines[0] == "digraph lattice {"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if "label=" in l) == 6
    assert sum(1 for l in lines if "->" in l) == 6
    assert '"1111"' in text  # full filter label
    assert text.endswith("\n")


def test_dot_is_deterministic():
    assert to_dot(phi(5)) == to_dot(filter_lattice(sfence(5)))


def test_dot_of_expansion_uses_synthetic_ids():
    host, interval = deletion_cutting(sfence(5), 5)
    text = to_dot(convex_expansion(host, interval))
    assert '"L0"' in text and '"K0"' in text
    assert text.count("label=") == 10


@pytest.mark.parametrize(
    "split, digest",
    [
        ("dual-fence", "ab8a9377b2882ad0933bded6acb46c5831882bdc15fa3bafdd16acb8b8471b40"),
        ("last-element", "7b3668ff344601b2250a099eaa1a00023ca0a22345dd8e7f1e4a1b735362e83a"),
    ],
)
def test_dot_of_expansion_is_pinned(split, digest):
    """The DOT text of each kind of split at n = 7, as verify builds them."""
    if split == "dual-fence":
        host = filter_lattice(fence(6).dual())
        interval = Interval(host.bottom, host.find_filter({1, 2, 3}))
    else:
        host, interval = deletion_cutting(sfence(7), 7)
    text = to_dot(convex_expansion(host, interval))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
