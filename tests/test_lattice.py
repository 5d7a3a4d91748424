import hashlib
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BOWTIE,
    FAKE_CUBE,
    M3,
    M3_ON_A_SQUARE,
    SPARE_VERTEX,
    TWO_SUBSETS,
    graded_diagrams,
    lattice_from_covers,
    mask_of,
    members,
    naturally_labelled_posets,
    posets,
    reduced_poset,
)
from flcubes import poset as poset_module
from flcubes.census import cube_polynomial, rank_polynomial
from flcubes.errors import CapacityError
from flcubes.lattice import (
    Interval,
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
    is_cutting,
    join_irreducibles,
    to_dot,
    underlying_graph,
)
from flcubes.polynomials import IntPoly
from flcubes.poset import Poset, fence, sfence
from flcubes.verify import _isomorphic


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
    assert _isomorphic(part, phi(3))


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
    assert _isomorphic(expanded, phi(2))


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
    assert _isomorphic(expanded, phi(6))


def test_phi7_is_phi6_expanded_by_phi5():
    host, interval = deletion_cutting(sfence(7), 7)
    expanded = convex_expansion(host, interval)
    assert _isomorphic(expanded, phi(7))
    assert not _isomorphic(expanded, phi(6))


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
        assert _isomorphic(expanded, full)


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
    host, interval = deletion_cutting(sfence(18), 18)
    start = time.perf_counter()
    expanded = convex_expansion(host, interval)
    elapsed = time.perf_counter() - start
    direct = phi(18)
    assert len(expanded) == len(direct) == 5168
    assert rank_polynomial(expanded) == rank_polynomial(direct)
    assert cube_polynomial(expanded) == cube_polynomial(direct)
    assert _isomorphic(expanded, direct)
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
    assert _isomorphic(phi(3), four_chain)


def test_size_mismatch_is_not_isomorphic():
    gamma3 = filter_lattice(fence(3))
    assert len(gamma3) == 5
    assert not _isomorphic(phi(4), gamma3)


def test_rank_profile_mismatch():
    # same size and arc count, different rank profile
    gamma3 = filter_lattice(fence(3))
    gamma3_star = filter_lattice(fence(3).dual())
    assert not _isomorphic(gamma3, gamma3_star)


def test_self_iso():
    for n in range(9):
        assert _isomorphic(phi(n), phi(n))


# -- distributivity certificate and poset isomorphism -------------------------------


def assert_round_trip(p):
    """J(F(P)) is P: each join-irreducible of the filter lattice is the
    complement of the down-set of one element, and those elements order the
    join-irreducibles as the diagram does."""
    d = filter_lattice(p)
    j = join_irreducibles(d)
    assert j is not None
    full = (1 << len(p)) - 1
    element_of = {}
    for v in j.elements:
        ideal = members(p.elements, full & ~d.vertices[v])
        tops = [x for x in ideal if not p.up_set(x) & ideal]
        assert len(tops) == 1 and ideal == p.down_set(tops[0]) | {tops[0]}
        element_of[v] = tops[0]
    assert sorted(element_of.values()) == list(p.elements)
    for v in j.elements:
        assert {element_of[u] for u in j.down_set(v)} == p.down_set(element_of[v])
    assert j.is_isomorphic(p)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_birkhoff_round_trip_on_random_posets(p):
    assert_round_trip(p)


def test_birkhoff_round_trip_on_every_small_poset():
    count = 0
    for n in range(7):
        for p in naturally_labelled_posets(n):
            assert join_irreducibles(filter_lattice(p)).is_isomorphic(p)
            count += 1
    assert count == 5232


def test_birkhoff_round_trip_on_the_sfences():
    for n in range(19):
        assert_round_trip(sfence(n))


# atoms 1, 2, 3 under 4 = 1 v 2 and two vertices 5, 6 over 1 and 3, all
# under the top: the vertex and cover counts of the cube 2^3, and every cover
# adds one join-irreducible, but 5 and 6 have the same ones below them
SHARED_JOIN_IRREDUCIBLES = lattice_from_covers(
    (0, 1, 1, 1, 2, 2, 2, 3),
    [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (5, 1), (5, 3), (6, 1), (6, 3),
     (7, 4), (7, 5), (7, 6)],
)

# the down-sets of 1, 2, 3 and 8 > 1, 3, as vertices 0..9, without the cover
# of {1, 3} by {1, 2, 3}: the vertex count still matches, but not the arcs
DROPPED_COVER = lattice_from_covers(
    (0, 1, 1, 1, 2, 2, 2, 3, 3, 4),
    [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 3),
     (7, 4), (7, 6), (8, 5), (9, 7), (9, 8)],
)


def is_distributive_lattice(d):
    """By definition: every pair has a join and a meet, and meets distribute over joins."""
    vs = range(len(d))

    def least(xs, le):
        best = [z for z in xs if all(le(z, w) for w in xs)]
        return best[0] if best else None

    join = {(x, y): least([z for z in vs if d.leq(x, z) and d.leq(y, z)], d.leq)
            for x in vs for y in vs}
    meet = {(x, y): least([z for z in vs if d.leq(z, x) and d.leq(z, y)], lambda a, b: d.leq(b, a))
            for x in vs for y in vs}
    if None in join.values() or None in meet.values():
        return False
    return all(meet[x, join[y, z]] == join[meet[x, y], meet[x, z]]
               for x in vs for y in vs for z in vs)


small_diagrams = st.one_of(
    graded_diagrams(max_width=3),
    posets(max_size=4).map(filter_lattice).filter(lambda d: len(d) <= 12),
)


@pytest.mark.parametrize("diagram", [
    M3, BOWTIE, TWO_SUBSETS, FAKE_CUBE, SPARE_VERTEX, M3_ON_A_SQUARE, SHARED_JOIN_IRREDUCIBLES,
    DROPPED_COVER,
], ids=["m3", "bowtie", "two-subsets", "fake-cube", "spare-vertex", "m3-on-a-square",
        "shared-join-irreducibles", "dropped-cover"])
def test_certificate_refuses_non_distributive_diagrams(diagram):
    assert not is_distributive_lattice(diagram)
    assert join_irreducibles(diagram) is None


@given(st.one_of(graded_diagrams(), posets(max_size=5).map(filter_lattice)))
@settings(max_examples=150, deadline=None)
def test_certificate_accepts_exactly_the_distributive_lattices(d):
    assert (join_irreducibles(d) is not None) == is_distributive_lattice(d)


def relabelled_diagram(d, order):
    """``d`` with vertex v renumbered ``order[v]``."""
    ranks = [0] * len(d)
    for v, r in enumerate(d.ranks):
        ranks[order[v]] = r
    return lattice_from_covers(ranks, [(order[u], order[v]) for u, v in d.arcs])


def brute_diagram_isomorphic(a, b):
    """Some rank-preserving bijection maps a's covers onto b's."""
    if sorted(a.ranks) != sorted(b.ranks):
        return False
    levels = [[[v for v in range(len(d)) if d.ranks[v] == r] for r in range(d.height + 1)]
              for d in (a, b)]
    for choice in product(*(permutations(level) for level in levels[1])):
        image = {v: w for la, lb in zip(levels[0], choice) for v, w in zip(la, lb)}
        if {(image[u], image[v]) for u, v in a.arcs} == b.arcs:
            return True
    return False


@given(small_diagrams, small_diagrams, st.data())
@settings(max_examples=100, deadline=None)
def test_isomorphic_matches_rank_preserving_brute_force(a, b, data):
    order = data.draw(st.permutations(range(len(a))))
    for other in (b, relabelled_diagram(a, order)):
        expected = join_irreducibles(a) is not None and brute_diagram_isomorphic(a, other)
        assert _isomorphic(a, other) == expected


def brute_poset_isomorphic(p, q):
    """Some bijection of the ground sets maps p's strict order onto q's."""
    if len(p) != len(q):
        return False
    order_p = {(a, b) for b in p.elements for a in p.down_set(b)}
    order_q = {(a, b) for b in q.elements for a in q.down_set(b)}
    return any(
        {(image[a], image[b]) for a, b in order_p} == order_q
        for image in (dict(zip(p.elements, perm)) for perm in permutations(q.elements))
    )


@given(posets(), st.data())
@settings(max_examples=80, deadline=None)
def test_poset_isomorphism_matches_brute_force(p, data):
    perm = dict(zip(p.elements, data.draw(st.permutations(p.elements))))
    relabelled = Poset(p.elements, frozenset((perm[a], perm[b]) for a, b in p.covers))
    assert p.is_isomorphic(relabelled) and relabelled.is_isomorphic(p)
    variants = []
    if p.covers:
        dropped = data.draw(st.sampled_from(sorted(p.covers)))
        variants.append(Poset(p.elements, p.covers - {dropped}))
    apart = [(a, b) for a in p.elements for b in p.elements
             if a > b and a not in p.up_set(b) | p.down_set(b)]
    if apart:
        added = data.draw(st.sampled_from(apart))
        variants.append(reduced_poset(len(p), set(p.covers) | {added}))
    for q in variants:
        assert p.is_isomorphic(q) == brute_poset_isomorphic(p, q)


def crowns(*sizes):
    """Disjoint crowns: crown k has minimal elements m_0..m_k-1 and maximal
    elements M_0..M_k-1, with M_i above m_i and m_i+1 (mod k), so each
    element has two covers or is covered twice."""
    covers, first = set(), 1
    for k in sizes:
        covers |= {(first + k + i, first + j) for i in range(k) for j in (i, (i + 1) % k)}
        first += 2 * k
    return Poset(tuple(range(1, first)), frozenset(covers))


def test_poset_isomorphism_separates_posets_that_colours_do_not():
    # every element of both has the same colour: an 8-cycle of covers is
    # connected, two 4-cycles are not; each of those has twin elements,
    # which a map that is not one-to-one could merge
    one, two = crowns(4), crowns(2, 2)
    assert sorted(one._colours()) == sorted(two._colours())
    assert not one.is_isomorphic(two) and not two.is_isomorphic(one)
    assert one.is_isomorphic(Poset(one.elements, frozenset((9 - a, 9 - b) for a, b in one.covers)))
    assert two.is_isomorphic(crowns(2, 2))


def test_poset_isomorphism_reads_the_order_both_ways():
    # equal colours but 168 and 170 filters; a search that compared only the
    # elements above each newly mapped element, or only those below it, would
    # map the one onto the other (the dual pair for the second)
    a = Poset(tuple(range(1, 11)), frozenset(
        [(4, 1), (4, 2), (7, 2), (7, 3), (7, 5), (9, 1), (9, 8), (10, 2), (10, 3)]))
    b = Poset(tuple(range(1, 11)), frozenset(
        [(6, 1), (6, 2), (6, 5), (7, 4), (7, 5), (8, 1), (8, 3), (9, 1), (9, 3)]))
    assert sorted(a._colours()) == sorted(b._colours())
    assert (a.count_filters(), b.count_filters()) == (168, 170)
    assert not a.is_isomorphic(b) and not a.dual().is_isomorphic(b.dual())


def test_isomorphism_refuses_past_the_element_bound():
    antichain = Poset(tuple(range(33)), frozenset())
    with pytest.raises(CapacityError, match="poset isomorphism supports at most 32 elements"):
        antichain.is_isomorphic(antichain)


def test_certificate_refuses_a_wide_antichain_of_join_irreducibles_without_enumerating():
    # the intervals [a, b] of 1..20 under inclusion, below them the empty
    # set: 211 vertices, J the 20 singletons, whose 2^20 down-sets are past
    # the filter count bound; [a, b] has at most two upper covers but
    # 20 - (b - a + 1) addable singletons, so the cover test refuses it
    spans = [(a, b) for a in range(1, 21) for b in range(a, 21)]
    index = {s: i + 1 for i, s in enumerate(spans)}
    covers = [(index[a, a], 0) for a in range(1, 21)] + [
        (index[a, b], index[s]) for a, b in spans if a < b for s in ((a + 1, b), (a, b - 1))
    ]
    lattice = lattice_from_covers([0] + [b - a + 1 for a, b in spans], covers)
    assert len(lattice) == 211
    assert join_irreducibles(lattice) is None


def test_certificate_refuses_a_chain_past_the_element_bound():
    # J of a 34-vertex chain is a 33-element chain, past filter enumeration
    chain = lattice_from_covers(range(34), [(i + 1, i) for i in range(33)])
    with pytest.raises(CapacityError, match="at most 32 elements, got 33"):
        join_irreducibles(chain)


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
