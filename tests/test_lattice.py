import hashlib
import time

import pytest
from hypothesis import given, settings

from conftest import (
    BOWTIE,
    M3,
    lattice_from_covers,
    mask_of,
    members,
    naturally_labelled_posets,
    posets,
)
from flcubes import poset as poset_module
from flcubes import tables
from flcubes.census import cube_polynomial, rank_polynomial
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


# -- convex expansion against its order rules -----------------------------------


def reference_expansion(host, interval):
    """The expansion from the four order rules in ``convex_expansion``'s docstring.

    Points are (host vertex, is copy) pairs compared pair by pair; x is
    covered by y when x < y with no point strictly between, and a point's
    rank is the length of the longest cover chain below it.  Returns the
    payloads, ``up_adj`` and ranks in (rank, point index) order, host
    vertices first and copies in ascending host index.
    """
    n, b = len(host), interval.bottom
    points = [(v, False) for v in range(n)]
    points += [(w, True) for w in sorted(host.interval_members(interval))]

    def less(x, y):
        (u, u_copy), (v, v_copy) = x, y
        if x == y:
            return False
        if v_copy and not u_copy:  # an original lies below a copy only from outside up(b)
            return u != v and host.leq(u, v) and not host.leq(b, u)
        return host.leq(u, v)

    below = [{i for i, x in enumerate(points) if less(x, y)} for y in points]
    covered = [{i for i in down if not any(i in below[k] for k in down)} for down in below]
    rank = [0] * len(points)
    for j in sorted(range(len(points)), key=lambda j: len(below[j])):
        rank[j] = max((rank[i] + 1 for i in covered[j]), default=0)
    order = sorted(range(len(points)), key=lambda j: (rank[j], j))
    pos = {j: p for p, j in enumerate(order)}
    return (
        tuple(f"K{j - n}" if j >= n else f"L{j}" for j in order),
        tuple(tuple(sorted(pos[j] for j in order if i in covered[j])) for i in order),
        tuple(rank[j] for j in order),
    )


def assert_expansion_matches_reference(host, interval):
    expanded = convex_expansion(host, interval)
    assert (expanded.vertices, expanded.up_adj, expanded.ranks) == reference_expansion(host, interval)


def cutting_intervals(d):
    """Every interval of ``d`` that is a cutting."""
    pairs = (Interval(u, v) for u in range(len(d)) for v in range(len(d)) if d.leq(u, v))
    return [interval for interval in pairs if is_cutting(d, interval)]


@given(posets())
@settings(max_examples=60, deadline=None)
def test_expansion_matches_order_rules_on_random_deletion_cuttings(p):
    for x in p.elements:
        assert_expansion_matches_reference(*deletion_cutting(p, x))


@pytest.mark.parametrize("build, count", [
    (fence, 124),
    (lambda n: fence(n).dual(), 124),
], ids=["fence", "dual-fence"])
def test_expansion_matches_order_rules_on_every_cutting_of_small_fences(build, count):
    cases = 0
    for n in range(7):
        host = filter_lattice(build(n))
        for interval in cutting_intervals(host):
            assert_expansion_matches_reference(host, interval)
            cases += 1
    assert cases == count


@pytest.mark.parametrize("host, count", [
    (filter_lattice(Poset((1, 2), frozenset())), 7),
    (M3, 9),
    (BOWTIE, 11),
], ids=["diamond", "m3", "bowtie"])
def test_expansion_matches_order_rules_on_every_cutting_of_small_lattices(host, count):
    cuttings = cutting_intervals(host)
    for interval in cuttings:
        assert_expansion_matches_reference(host, interval)
    assert len(cuttings) == count


@pytest.mark.slow
def test_expansion_matches_order_rules_on_every_deletion_cutting_up_to_six_elements():
    # every element of each naturally labelled poset on at most 6 elements
    cases = 0
    for n in range(7):
        for p in naturally_labelled_posets(n):
            for x in p.elements:
                assert_expansion_matches_reference(*deletion_cutting(p, x))
                cases += 1
    assert cases == 30915


def test_expansion_is_linear_in_the_host():
    # 5 168 vertices, past iso_check's bound, so the polynomials stand in for it
    host, interval = deletion_cutting(sfence(18), 18)
    start = time.perf_counter()
    expanded = convex_expansion(host, interval)
    elapsed = time.perf_counter() - start
    direct = tables.phi_diagram(18)
    assert len(expanded) == len(direct) == 5168
    assert rank_polynomial(expanded) == rank_polynomial(direct)
    assert cube_polynomial(expanded) == cube_polynomial(direct)
    assert elapsed < 2.0, f"expansion took {elapsed:.2f} s"


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
