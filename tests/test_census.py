import gc
import random
import time
import weakref
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import golden_tables
from conftest import (
    BOWTIE,
    FAKE_CUBE,
    FAR_FIFTH_ATOM,
    M3,
    M3_ON_A_SQUARE,
    SPARE_VERTEX,
    TWO_SUBSETS,
    graded_diagrams,
    lattice_from_covers,
    naturally_labelled_posets,
    posets,
    reduced_poset,
)
from flcubes import census, tables
from flcubes.census import (
    cube_polynomial,
    degree_polynomial,
    generic_cube_count,
    indegree_polynomial,
    maximal_cube_polynomial,
    outdegree_polynomial,
    poset_census,
    rank_polynomial,
)
from flcubes.errors import CapacityError
from flcubes.lattice import (
    Interval,
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
    join_irreducibles,
    underlying_graph,
)
from flcubes.polynomials import IntPoly
from flcubes.poset import Poset, fence, sfence
from flcubes.verify import run_verification

CENSUS_FN = {
    "rank": rank_polynomial,
    "cube": cube_polynomial,
    "maxcube": maximal_cube_polynomial,
    "degree": degree_polynomial,
    "indegree": indegree_polynomial,
}


def phi(n):
    return filter_lattice(sfence(n))


@pytest.mark.parametrize("family", sorted(golden_tables.ALL))
def test_golden_tables(family):
    for n, coeffs in golden_tables.ALL[family].items():
        assert CENSUS_FN[family](phi(n)) == IntPoly(coeffs), (family, n)


def test_rank_polynomial_sums_to_vertex_count():
    for n in range(10):
        d = phi(n)
        assert rank_polynomial(d)(1) == len(d)


def scan_table(d):
    """The scan's table with every bottom as {top: dimension}: a bottom a
    stored as one top t, its whole cover set having passed, has the cube
    tops [a, t]."""
    ranks = d.ranks
    return [
        {j: ranks[j] - ranks[a] for j in d.interval_members(Interval(a, t))}
        if isinstance(t, int) else t
        for a, t in enumerate(census._scan(d))
    ]


def cubes_of(d):
    """The scan's cubes as (dim, bottom, top), sorted."""
    return sorted((k, a, j) for a, found in enumerate(scan_table(d)) for j, k in found.items())


def test_scan_cubes_small():
    d = phi(1)
    assert [dim for dim, _, _ in cubes_of(d)] == [0, 0, 1]
    assert cube_polynomial(phi(4)) == IntPoly([6, 6, 1])
    assert cube_polynomial(phi(7)) == IntPoly([26, 48, 28, 5])


def test_cubes_are_boolean_intervals():
    d = phi(6)
    for dim, bottom, top in cubes_of(d):
        members = [v for v in range(len(d)) if d.leq(bottom, v) and d.leq(v, top)]
        assert len(members) == 1 << dim
        assert d.ranks[top] - d.ranks[bottom] == dim


def test_cubes_unique():
    d = phi(7)
    cubes = cubes_of(d)
    assert len({(bottom, top) for _, bottom, top in cubes}) == len(cubes)


def test_maximal_cube_vertex_sets_by_exhaustive_containment():
    # definitional cross-check of the facet test; the expansion lists its
    # vertices in ascending rank, the filter lattices in descending rank
    expansion = convex_expansion(*deletion_cutting(sfence(7), 7))
    for d in [phi(n) for n in range(8)] + [M3, expansion]:
        cubes = cubes_of(d)
        sets = {
            (bottom, top): frozenset(
                v for v in range(len(d)) if d.leq(bottom, v) and d.leq(v, top)
            )
            for _, bottom, top in cubes
        }
        maximal_count = [0] * (max(dim for dim, _, _ in cubes) + 1)
        for dim, bottom, top in cubes:
            mine = sets[(bottom, top)]
            if not any(mine < other for other in sets.values()):
                maximal_count[dim] += 1
        assert maximal_cube_polynomial(d) == IntPoly(maximal_count), len(d)
    assert maximal_cube_polynomial(expansion) == IntPoly([0, 0, 2, 5])


def test_census_on_a_non_distributive_lattice():
    assert cube_polynomial(M3) == IntPoly([5, 6])
    assert maximal_cube_polynomial(M3) == IntPoly([0, 6])
    # the census counts Boolean intervals, not induced subgraphs: the three
    # squares bottom-atom-top-atom of M3's Hasse graph are no intervals
    assert generic_cube_count(underlying_graph(M3), 2) == 3


def stacked(lattice, length):
    """``lattice``, whose bottom is vertex 0, on a chain of ``length`` more
    vertices 0..length-1, its bottom becoming vertex ``length``."""
    covers = [(i + 1, i) for i in range(length)]
    covers += [(u + length, v + length) for v, ups in enumerate(lattice.up_adj) for u in ups]
    return lattice_from_covers(list(range(length)) + [r + length for r in lattice.ranks], covers)


# the atoms' non-unique join sits past bit 64 of an ascending mask
STACKED_BOWTIE = stacked(BOWTIE, 119)


def test_scan_refuses_a_graded_non_lattice():
    with pytest.raises(ValueError, match="join is not unique"):
        cube_polynomial(BOWTIE)


NOT_BOOLEAN_IDS = ["two-subsets", "fake-cube", "spare-vertex"]


@pytest.mark.parametrize("lattice, cube, maxcube, induced", [
    (TWO_SUBSETS, [8, 10, 2], [0, 2, 2], [8, 10, 2, 0]),
    (FAKE_CUBE, [8, 11, 4], [0, 0, 4], [8, 11, 4, 0]),
    (SPARE_VERTEX, [9, 14, 5], [0, 2, 5], [9, 14, 8, 1]),
    (stacked(FAKE_CUBE, 2), [10, 13, 4], [0, 2, 4], [10, 13, 4, 0]),
    (M3_ON_A_SQUARE, [7, 9, 1], [0, 5, 1], [7, 9, 4, 0]),
], ids=NOT_BOOLEAN_IDS + ["stacked-fake-cube", "m3-on-a-square"])
def test_scan_counts_only_boolean_intervals(lattice, cube, maxcube, induced):
    # lattices with an interval of rank k and 2^k or more elements that is
    # not Boolean; the induced-subgraph counts also see squares and cubes
    # that are no intervals
    assert cube_polynomial(lattice) == IntPoly(cube)
    assert maximal_cube_polynomial(lattice) == IntPoly(maxcube)
    graph = underlying_graph(lattice)
    assert [generic_cube_count(graph, k) for k in range(4)] == induced


# -- the scan against a definition-level reference ---------------------------------


def reference_scan(diagram):
    """Every Boolean interval as one (bottom, top) -> dimension dict, by the
    definition and without the scan's rank rule.

    A Boolean interval's top is the join of its atoms, which cover its
    bottom, so the candidates for bottom a are the joins j of the subsets
    of a's covers, each checked as the least upper bound by "no bit of the
    intersection outside the candidate's up-set".  [a, j] is kept, with
    dimension k, when v -> A(v) = {atoms of [a, j] below v} is an order
    isomorphism onto the subsets of its k atoms: A is injective on [a, j],
    and every v in [a, j], j included, has 2^|A(v)| elements in [a, v].
    A is monotone, so it maps [a, v] into the subsets of A(v), onto them by
    that count; so A is onto, and A(v) within A(w) puts v in [a, w].

    The masks number their bits in ascending rank, the least element being
    the lowest set bit, on purpose: the diagram's masks count down from the
    top rank, so the reference and the scan share no numbering.  Per bottom
    a, [a, j] for the join j of all of a's covers holds every candidate; it
    is renumbered locally, with a as bit 0 and a's covers as bits 1..m, so
    A(v) is bits 1..m of v's local down-set.
    """
    n = len(diagram)
    up_adj, down_adj = diagram.up_adj, diagram.down_adj
    order = sorted(range(n), key=lambda v: (diagram.ranks[v], v))
    pos = {v: i for i, v in enumerate(order)}
    upm = [0] * n
    for v in reversed(order):
        m = 1 << pos[v]
        for u in up_adj[v]:
            m |= upm[u]
        upm[v] = m
    dnm = [0] * n
    for v in order:
        m = 1 << pos[v]
        for w in down_adj[v]:
            m |= dnm[w]
        dnm[v] = m

    cubes = {}
    for a in range(n):
        ups = up_adj[a]
        joins = [a] * (1 << len(ups))
        for smask in range(1, len(joins)):
            low = smask & -smask
            common = upm[joins[smask ^ low]] & upm[ups[low.bit_length() - 1]]
            j = order[(common & -common).bit_length() - 1]
            if common & ~upm[j]:
                raise ValueError("join is not unique; diagram is not a lattice")
            joins[smask] = j
        local, below = {}, []  # local index and local down-set of each v in the span
        span = upm[a] & dnm[joins[-1]]
        while span:
            low = span & -span
            span ^= low
            v = order[low.bit_length() - 1]
            mask = 1 << len(below)
            for w in down_adj[v]:
                if w in local:
                    mask |= below[local[w]]
            local[v] = len(below)
            below.append(mask)
        atoms = [d >> 1 & (1 << len(ups)) - 1 for d in below]
        miscounted = sum(1 << i for i, d in enumerate(below)
                         if d.bit_count() != 1 << atoms[i].bit_count())
        sharing = {}  # local vertices per atom set
        for i, s in enumerate(atoms):
            sharing[s] = sharing.get(s, 0) | 1 << i
        clashes = [g for g in sharing.values() if g & g - 1]
        for j in set(joins):
            members = below[local[j]]
            if not members & miscounted and all((g & members).bit_count() < 2 for g in clashes):
                cubes[(a, j)] = atoms[local[j]].bit_count()
    return cubes


def reference_maxcubes(diagram, cubes):
    """Dimensions of the cubes with no facet one dimension up in ``cubes``."""
    up_adj, down_adj = diagram.up_adj, diagram.down_adj
    return [
        k
        for (a, j), k in cubes.items()
        if not any((a, u) in cubes for u in up_adj[j])
        and not any((b, j) in cubes for b in down_adj[a])
    ]


def histogram(values):
    values = list(values)
    return IntPoly([values.count(k) for k in range(max(values, default=-1) + 1)])


def assert_scan_matches_reference(d):
    cubes = reference_scan(d)
    flat = {(a, j): k for a, found in enumerate(scan_table(d)) for j, k in found.items()}
    assert flat == cubes
    assert cube_polynomial(d) == histogram(cubes.values())
    assert maximal_cube_polynomial(d) == histogram(reference_maxcubes(d, cubes))


def assert_scan_matches_or_refuses_like_reference(d):
    try:
        reference_scan(d)
    except ValueError as want:
        with pytest.raises(ValueError) as got:
            census._scan(d)
        assert str(got.value) == str(want)
        return
    assert_scan_matches_reference(d)


# The cover index from which _scan reads a cover's join table: from the
# second cover on, where table reads and their fallback run on the smallest
# lattices; the default; and past every cover count, where every join is a
# mask AND.  Each setting scans with a fresh memo.
TABLE_COVERS = {
    "tables-from-cover-1": 1,
    "tables-by-default": census._TABLE_COVER,
    "no-tables": census.CENSUS_VERTEX_BOUND,
}


@pytest.fixture(params=TABLE_COVERS.values(), ids=TABLE_COVERS)
def table_cover(request, monkeypatch):
    monkeypatch.setattr(census, "_TABLE_COVER", request.param)
    monkeypatch.setattr(census, "_TABLES", weakref.WeakKeyDictionary())


@pytest.mark.parametrize("build", [fence, lambda n: fence(n).dual()], ids=["fence", "dual-fence"])
def test_scan_matches_reference_on_fences(build, table_cover):
    for n in range(11):
        assert_scan_matches_reference(filter_lattice(build(n)))


def test_scan_matches_reference_on_an_expansion_and_m3(table_cover):
    assert_scan_matches_reference(convex_expansion(*deletion_cutting(sfence(7), 7)))
    assert_scan_matches_reference(M3)


@given(posets(max_size=7))
@settings(max_examples=80, deadline=None)
def test_scan_matches_reference_on_random_posets(p):
    assert_scan_matches_reference(filter_lattice(p))


@given(graded_diagrams())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scan_matches_reference_on_random_graded_diagrams(table_cover, d):
    assert_scan_matches_or_refuses_like_reference(d)


@given(graded_diagrams(max_width=6))
@settings(max_examples=200, deadline=None)
def test_scan_matches_reference_on_wide_random_graded_diagrams(d):
    # up to six covers per bottom, so at the default cover index random
    # non-lattices and non-semimodular lattices reach the table reads
    assert_scan_matches_or_refuses_like_reference(d)


def test_scan_falls_back_where_a_join_of_covers_skips_a_rank():
    # the fifth atom s5 joins each other atom at the top, which does not
    # cover s5, so the bottom joins s5 by mask ANDs, not from s5's table
    bottom, s5 = 0, 5
    assert len(FAR_FIFTH_ATOM.up_adj[bottom]) == 5 and FAR_FIFTH_ATOM.up_adj[bottom][4] == s5
    assert FAR_FIFTH_ATOM.top not in FAR_FIFTH_ATOM.up_adj[s5]
    assert_scan_matches_reference(FAR_FIFTH_ATOM)
    assert cube_polynomial(FAR_FIFTH_ATOM) == IntPoly([14, 25, 6])


# -- the scan's block-by-block injectivity certificate -------------------------------


def brute_joins(d):
    """The reflexive up-set of each vertex, as a frozenset, and join(vs), the
    least common upper bound of the vertices vs or None, by closing the covers."""
    above = [frozenset()] * len(d)
    for v in sorted(range(len(d)), key=lambda v: -d.ranks[v]):
        above[v] = frozenset({v}).union(*(above[u] for u in d.up_adj[v]))

    def join(vs):
        common = frozenset(range(len(d))).intersection(*(above[v] for v in vs))
        least = [j for j in common if common <= above[j]]
        return least[0] if least else None

    return above, join


@given(graded_diagrams(max_width=5))
@example(M3)
@settings(max_examples=300, deadline=None)
def test_scan_pair_joins_meeting_over_a_cover_leave_the_top_unchanged(d):
    # lemma (c) of _scan: where the pair joins w_i = u_i v u_k and
    # w_i' = u_i' v u_k of a bottom's covers coincide and cover u_k, and
    # u_i v u_i' exists, as it does wherever the scan reads the block, it is
    # w_i; so u_k lies below the join of u_0, ..., u_(k-1), and the block
    # with u_k leaves the running top unchanged (M3: 1 v 3 = 2 v 3 = 1 v 2)
    above, join = brute_joins(d)
    for ups in d.up_adj:
        for k, u in enumerate(ups):
            w = [join((v, u)) for v in ups[:k]]
            for i, i2 in combinations(range(k), 2):
                if w[i] is None or w[i] != w[i2] or w[i] not in d.up_adj[u]:
                    continue
                pair = join((ups[i], ups[i2]))
                if pair is None:
                    continue
                assert pair == w[i]
                top = join(ups[:k])
                assert top is None or top in above[u]


def test_scan_set_tests_a_bottom_whose_block_leaves_the_top_unchanged(table_cover):
    # read from cover 1 on, M3's bottom reads atom 3's block from 3's table,
    # as 1 v 3 = 2 v 3 = 4 covers 3; but 3 <= 1 v 2 = 4, so the block adds no
    # new top and certifies nothing: the bottom's joins are set-tested
    above, join = brute_joins(M3)
    s1, s2, s3 = M3.up_adj[0]
    assert join((s1, s3)) == join((s2, s3)) == join((s1, s2)) == 4
    assert M3.up_adj[s3] == (4,)
    assert_scan_matches_reference(M3)
    assert isinstance(census._scan(M3)[0], dict)


def test_scan_set_test_alone_refuses_the_fake_cube_read_from_cover_2(monkeypatch):
    # read from cover 2 on, FAKE_CUBE's bottom joins s1 and s2 by mask ANDs
    # and reads s3's block from s3's table, which passed: s1 v s3 and
    # s2 v s3 cover s3.  The block leaves the top s1 v s2 in place, and
    # [bottom, top] has 2^3 elements, so only the set of all the joins
    # tells that the 3-cube is fake (from cover 1 on, s2's block is joined
    # by mask ANDs and sends the bottom to the set test first)
    monkeypatch.setattr(census, "_TABLE_COVER", 2)
    monkeypatch.setattr(census, "_TABLES", weakref.WeakKeyDictionary())
    above, join = brute_joins(FAKE_CUBE)
    s1, s2, s3 = FAKE_CUBE.up_adj[0]
    assert join((s1, s3)) in FAKE_CUBE.up_adj[s3] and join((s2, s3)) in FAKE_CUBE.up_adj[s3]
    assert join((s1, s2)) == FAKE_CUBE.top and len(above[0]) == 8
    assert isinstance(census._scan(FAKE_CUBE)[s3], int)
    assert_scan_matches_reference(FAKE_CUBE)
    assert cube_polynomial(FAKE_CUBE) == IntPoly([8, 11, 4])


def test_scan_set_tests_a_bottom_read_from_a_failed_cover_or_joined_by_masks(table_cover):
    # read from cover 1 on, FAR_FIFTH_ATOM's bottom reads atom s2's block
    # from s2's table, as s1 v s2 covers s2, but s2 fails the whole-set test
    # (three covers, only 5 elements up to the top), so the block certifies
    # nothing; and its block with s5, whose pair joins are the top, is
    # joined by mask ANDs
    above, join = brute_joins(FAR_FIFTH_ATOM)
    s1, s2, s3, s4, s5 = FAR_FIFTH_ATOM.up_adj[0]
    assert join((s1, s2)) in FAR_FIFTH_ATOM.up_adj[s2]
    assert len(FAR_FIFTH_ATOM.up_adj[s2]) == 3 and len(above[s2]) == 5
    assert all(join((s, s5)) == FAR_FIFTH_ATOM.top for s in (s1, s2, s3, s4))
    assert FAR_FIFTH_ATOM.top not in FAR_FIFTH_ATOM.up_adj[s5]
    assert_scan_matches_reference(FAR_FIFTH_ATOM)
    table = census._scan(FAR_FIFTH_ATOM)
    assert isinstance(table[s2], dict) and isinstance(table[0], dict)


# atoms s1, s2 under x alone and s3 under y and z, all under the top, as
# vertices 0..7 in the order bottom, s1, s2, s3, x, y, z, top: [bottom, top]
# has 2^3 elements, but s1 v s3 = s2 v s3 = top, so it is no 3-cube
SHARED_ATOM_PAIR = lattice_from_covers(
    (0, 1, 1, 1, 2, 2, 2, 3),
    [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (5, 3), (6, 3), (7, 4), (7, 5), (7, 6)],
)


def test_scan_set_test_alone_refuses_a_fake_cube_joined_by_masks(table_cover):
    # read from cover 1 on, the bottom reads s2's block from s2's table,
    # which passed, and it moves the top; s3's pair joins are the top, which
    # does not cover s3, so s3's block is joined by mask ANDs, and only the
    # set of all the joins tells that the 3-cube is fake
    above, join = brute_joins(SHARED_ATOM_PAIR)
    s1, s2, s3 = SHARED_ATOM_PAIR.up_adj[0]
    assert join((s1, s2)) in SHARED_ATOM_PAIR.up_adj[s2]
    assert join((s1, s3)) == join((s2, s3)) == SHARED_ATOM_PAIR.top
    assert SHARED_ATOM_PAIR.top not in SHARED_ATOM_PAIR.up_adj[s3] and len(above[0]) == 8
    assert isinstance(census._scan(SHARED_ATOM_PAIR)[s2], int)
    assert_scan_matches_reference(SHARED_ATOM_PAIR)
    assert cube_polynomial(SHARED_ATOM_PAIR) == IntPoly([8, 10, 2])


def random_poset_with_many_filters():
    rng = random.Random(2)
    relations = {(a, b) for a in range(2, 15) for b in range(1, a) if rng.random() < 0.1}
    return reduced_poset(14, relations)


@pytest.mark.parametrize("build, size", [
    (lambda: sfence(16), 1974),
    (lambda: fence(15).dual(), 1597),
    (random_poset_with_many_filters, 2880),
], ids=["sfence-16", "dual-fence-15", "random-14"])
def test_scan_matches_reference_on_large_diagrams(build, size):
    # masks of thousands of bits, where the two numberings differ most
    d = filter_lattice(build())
    assert len(d) == size
    assert_scan_matches_reference(d)


@pytest.mark.parametrize("build, size", [
    (lambda: sfence(18), 5168),
    (lambda: sfence(20), 13530),
    (lambda: fence(19), 10946),
], ids=["sfence-18", "sfence-20", "fence-19"])
def test_per_bottom_counts_match_per_cube_counts_and_the_native_census_on_large_diagrams(
    build, size
):
    # too large for reference_scan: the per-bottom cube and maxcube counts
    # are checked against the scan's table read cube by cube, and against
    # the native census, which never builds the diagram
    poset = build()
    d = filter_lattice(poset)
    assert len(d) == size
    native = poset_census(poset)
    cubes = {(a, j): k for a, found in enumerate(scan_table(d)) for j, k in found.items()}
    assert cube_polynomial(d) == histogram(cubes.values()) == native["cube"]
    assert maximal_cube_polynomial(d) == histogram(reference_maxcubes(d, cubes)) == native["maxcube"]


@pytest.mark.parametrize("lattice", [TWO_SUBSETS, FAKE_CUBE, SPARE_VERTEX, M3_ON_A_SQUARE],
                         ids=NOT_BOOLEAN_IDS + ["m3-on-a-square"])
def test_scan_counts_what_the_reference_counts(lattice, table_cover):
    # the scan and the reference keep the same intervals of these lattices,
    # and neither refuses them
    assert_scan_matches_reference(lattice)


@pytest.mark.parametrize("lattice, passed, failed", [
    (stacked(TWO_SUBSETS, 2), 1, 2),
    (stacked(FAKE_CUBE, 2), 1, 2),
    (stacked(SPARE_VERTEX, 2), 1, 2),
    # the edge [1, 3] lies in no square over 1; only the one top 3 stored
    # for vertex 0 shows that it is no maximal cube
    (M3_ON_A_SQUARE, 0, 1),
], ids=[f"stacked-{i}" for i in NOT_BOOLEAN_IDS] + ["m3-on-a-square"])
def test_a_failed_bottom_reads_the_one_top_of_a_passed_bottom_below_it(lattice, passed, failed):
    # the failed bottom's facet test reads the int entry of a vertex it covers
    table = census._scan(lattice)
    assert passed in lattice.down_adj[failed]
    assert isinstance(table[passed], int) and isinstance(table[failed], dict)
    assert_scan_matches_reference(lattice)


@pytest.mark.parametrize("lattice", [BOWTIE, STACKED_BOWTIE], ids=["bowtie", "stacked-bowtie"])
def test_scan_refuses_what_the_reference_refuses(lattice, table_cover):
    with pytest.raises(ValueError) as want:
        reference_scan(lattice)
    with pytest.raises(ValueError) as got:
        census._scan(lattice)
    assert str(got.value) == str(want.value)


def test_scan_vertex_bound():
    # a 20 001-vertex chain: 40 001 joins, but too many vertices for the masks
    n = census.CENSUS_VERTEX_BOUND + 1
    chain = lattice_from_covers(range(n), [(i + 1, i) for i in range(n - 1)])
    with pytest.raises(CapacityError, match="at most 20000 vertices"):
        cube_polynomial(chain)


def test_scan_reads_tables_through_every_rank_of_the_12_antichain():
    # 2^12 = 4 096 filters and 3^12 = 531 441 joins, under the join bound;
    # a filter of rank r has 12 - r covers, so the bottoms of ranks 0..7
    # read their blocks from tables that were themselves read from tables
    lattice = filter_lattice(Poset(tuple(range(1, 13)), frozenset()))
    assert len(lattice) == 4096
    assert sum(1 << len(ups) for ups in lattice.up_adj) == 3 ** 12 < census.CENSUS_JOIN_BOUND
    # the join of a filter's covers is the empty filter, the top
    assert census._scan(lattice) == [lattice.top] * len(lattice)
    assert cube_polynomial(lattice) == IntPoly([comb(12, k) * 2 ** (12 - k) for k in range(13)])
    assert maximal_cube_polynomial(lattice) == IntPoly([0] * 12 + [1])


def test_scan_join_bound():
    # the 14-element antichain: 2^14 = 16 384 filters but 3^14 = 4 782 969 joins
    lattice = filter_lattice(Poset(tuple(range(1, 15)), frozenset()))
    assert len(lattice) <= census.CENSUS_VERTEX_BOUND
    with pytest.raises(CapacityError, match="at most 1000000 joins"):
        maximal_cube_polynomial(lattice)


# -- the scan's table, keyed by diagram identity -----------------------------------


@pytest.mark.parametrize("d", [phi(12), filter_lattice(fence(12))], ids=["sfence-12", "fence-12"])
def test_a_filter_lattice_table_holds_one_top_per_bottom(d):
    # every bottom of a filter lattice passes the whole-set test, so no
    # bottom keeps a dict of its joins
    assert all(isinstance(t, int) for t in census._scan(d))


@given(posets())
@settings(max_examples=40, deadline=None)
def test_a_random_filter_lattice_table_holds_one_top_per_bottom(p):
    assert all(isinstance(t, int) for t in census._scan(filter_lattice(p)))


@pytest.mark.parametrize("lattice", [TWO_SUBSETS, FAKE_CUBE, SPARE_VERTEX], ids=NOT_BOOLEAN_IDS)
def test_a_failed_bottom_keeps_its_tops_as_a_dict(lattice):
    assert isinstance(census._scan(lattice)[lattice.ranks.index(0)], dict)


def test_scan_table_is_shared_per_diagram_and_built_per_twin():
    d = filter_lattice(sfence(7))
    assert census._scan(d) is census._scan(d)
    twin = filter_lattice(sfence(7))
    assert census._scan(twin) is not census._scan(d)
    assert census._scan(twin) == census._scan(d)


def test_scan_table_goes_with_its_diagram():
    d = filter_lattice(sfence(7))
    table = census._scan(d)
    gone = weakref.ref(d)
    del d
    gc.collect()
    assert gone() is None
    assert not any(t is table for t in census._TABLES.values())


@pytest.mark.parametrize("build, error, message", [
    (lambda: lattice_from_covers(range(20_001), [(i + 1, i) for i in range(20_000)]),
     CapacityError, "at most 20000 vertices"),
    (lambda: filter_lattice(Poset(tuple(range(1, 15)), frozenset())),
     CapacityError, "at most 1000000 joins"),
    (lambda: BOWTIE, ValueError, "join is not unique"),
    (lambda: STACKED_BOWTIE, ValueError, "join is not unique"),
], ids=["vertex-bound", "join-bound", "non-lattice", "stacked-non-lattice"])
def test_scan_refusals_store_no_table(build, error, message):
    lattice = build()
    for _ in range(2):
        with pytest.raises(error, match=message):
            census._scan(lattice)
    assert lattice not in census._TABLES


def test_degree_handshake():
    for n in range(9):
        d = phi(n)
        poly = degree_polynomial(d)
        assert poly(1) == len(d)
        edges = sum(k * c for k, c in enumerate(poly.coeffs))
        assert edges == 2 * len(d.arcs)


def test_indegree_outdegree_examples():
    assert indegree_polynomial(phi(1)) == IntPoly([1, 1])
    assert outdegree_polynomial(phi(1)) == IntPoly([1, 1])
    assert indegree_polynomial(phi(6)) == IntPoly([1, 6, 8, 1])
    for n in range(9):
        assert outdegree_polynomial(phi(n))(1) == len(phi(n))


def test_outdegree_equals_indegree_of_reversed_diagram():
    for n in range(8):
        d = phi(n)
        height = d.height
        reversed_d = lattice_from_covers(
            tuple(height - r for r in d.ranks), [(v, u) for u, v in d.arcs]
        )
        assert outdegree_polynomial(d) == indegree_polynomial(reversed_d)


def test_cube_identity_on_expansions():
    one_plus_x = IntPoly([1, 1])
    for n in (6, 7, 8):
        host, interval = deletion_cutting(sfence(n), n)
        part = interval_diagram(host, interval)
        expanded = convex_expansion(host, interval)
        assert cube_polynomial(expanded) == cube_polynomial(host) + one_plus_x * cube_polynomial(part)


def test_indegree_compose_equals_cube():
    one_plus_x = IntPoly([1, 1])
    for n in range(11):
        d = phi(n)
        assert indegree_polynomial(d).compose(one_plus_x) == cube_polynomial(d)


# -- generic subgraph oracle ---------------------------------------------------


def test_generic_counts_tiny():
    single_edge = (frozenset({1}), frozenset({0}))
    assert generic_cube_count(single_edge, 0) == 2
    assert generic_cube_count(single_edge, 1) == 1
    assert generic_cube_count(single_edge, 2) == 0


def test_generic_counts_match_known_values():
    assert generic_cube_count(underlying_graph(phi(4)), 2) == 1
    assert generic_cube_count(underlying_graph(phi(5)), 2) == 4


def test_generic_agrees_with_interval_census():
    for n in range(7):
        d = phi(n)
        graph = underlying_graph(d)
        poly = cube_polynomial(d)
        for k in range(4):
            assert generic_cube_count(graph, k) == poly.coeff(k), (n, k)


def test_generic_rejects_non_cube_regular_graphs():
    # two disjoint edges are 1-regular on 4 vertices but are not a square
    g = (frozenset({1}), frozenset({0}), frozenset({3}), frozenset({2}))
    assert generic_cube_count(g, 2) == 0
    # the complete graph on 4 vertices contains no induced square either
    k4 = tuple(frozenset({0, 1, 2, 3}) - {i} for i in range(4))
    assert generic_cube_count(k4, 2) == 0


def test_generic_capacity():
    g = tuple(frozenset() for _ in range(31))
    with pytest.raises(CapacityError):
        generic_cube_count(g, 1)
    with pytest.raises(CapacityError):
        generic_cube_count((frozenset(),), 4)


def reference_cube_count(graph, k):
    """Induced k-cubes by plain subset search: every set of 2^k vertices in
    which each vertex has k neighbours, tried against every labelling by the
    cube's 2^k labels with backtracking."""
    n, size = len(graph), 1 << k
    order = sorted(range(size), key=lambda t: (t.bit_count(), t))
    count = 0
    for sub in combinations(range(n), size):
        if any(len(graph[v] & set(sub)) != k for v in sub):
            continue
        mapping = {}

        def place(i):
            if i == size:
                return True
            t = order[i]
            for v in sub:
                if v not in mapping.values() and all(
                    ((t ^ s).bit_count() == 1) == (w in graph[v]) for s, w in mapping.items()
                ):
                    mapping[t] = v
                    if place(i + 1):
                        return True
                    del mapping[t]
            return False

        count += place(0)
    return count


def graph_of(n, edges):
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return tuple(map(frozenset, neighbours))


@st.composite
def graphs(draw, max_size=10):
    n = draw(st.integers(0, max_size))
    pairs = list(combinations(range(n), 2))
    return graph_of(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


def assert_generic_matches_reference(graph):
    for k in range(4):
        assert generic_cube_count(graph, k) == reference_cube_count(graph, k), k


@given(graphs())
@example(graph_of(0, []))
@example(graph_of(10, []))
@example(graph_of(8, combinations(range(8), 2)))
@example(graph_of(10, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (8, 9)]))
@settings(max_examples=150, deadline=None)
def test_generic_matches_subset_search_on_random_graphs(graph):
    # empty, complete and disconnected graphs among them: two squares and an edge
    assert_generic_matches_reference(graph)


@pytest.mark.parametrize(
    "lattice",
    [M3, TWO_SUBSETS, FAKE_CUBE, SPARE_VERTEX, M3_ON_A_SQUARE],
    ids=["m3"] + NOT_BOOLEAN_IDS + ["m3-on-a-square"],
)
def test_generic_matches_subset_search_on_non_boolean_lattices(lattice):
    assert_generic_matches_reference(underlying_graph(lattice))


def cube_graph(k, offset=0):
    return [frozenset(offset + (v ^ 1 << i) for i in range(k)) for v in range(1 << k)]


@pytest.mark.parametrize("graph, counts", [
    (tuple(cube_graph(4) + cube_graph(3, 16) + [frozenset()] * 6), [30, 44, 30, 9]),
    (tuple([frozenset(range(15, 30))] * 15 + [frozenset(range(15))] * 15), [30, 225, 11025, 0]),
], ids=["q4-q3-isolated", "k15-15"])
def test_generic_runs_within_its_bound(graph, counts):
    # 30 vertices, the oracle's bound: Q4 has 16 + 32 + 24 + 8 induced cubes
    # and Q3 8 + 12 + 6 + 1; K_{15,15} has C(15, 2)^2 induced squares and no cube
    assert len(graph) == census.GENERIC_GRAPH_BOUND
    start = time.perf_counter()
    assert [generic_cube_count(graph, k) for k in range(4)] == counts
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"the subgraph search took {elapsed:.2f} s"


def test_census_works_on_diamond():
    diamond = filter_lattice(Poset((1, 2), frozenset()))
    assert cube_polynomial(diamond) == IntPoly([4, 4, 1])
    assert maximal_cube_polynomial(diamond) == IntPoly([0, 0, 1])


# -- poset-native census against the diagram scan --------------------------------


def assert_native_matches_diagram(poset):
    """Compare the native census with the diagram scan; returns the diagram."""
    native = poset_census(poset)
    diagram = filter_lattice(poset)
    assert set(native) == set(tables.FAMILIES)
    for family in tables.FAMILIES:
        assert native[family] == tables.diagram_poly(family, diagram), family
    return diagram


@pytest.mark.parametrize("build", [sfence, fence, lambda n: fence(n).dual()],
                         ids=["sfence", "fence", "dual-fence"])
def test_native_census_matches_diagram_census(build):
    for n in range(13):
        assert_native_matches_diagram(build(n))


@given(posets(max_size=7))
@settings(max_examples=80, deadline=None)
def test_native_census_matches_diagram_census_on_random_posets(p):
    assert_native_matches_diagram(p)


@pytest.mark.parametrize("n, count", enumerate([1, 1, 2, 7, 40, 357, 4824]))
def test_native_census_matches_diagram_census_on_every_small_poset(n, count):
    # OEIS A006455 counts the naturally labelled posets; n <= 4 has the
    # native census's narrowest chunks, of 0, 1 and 2 elements, some empty
    corpus = list(naturally_labelled_posets(n))
    assert len(corpus) == count
    for poset in corpus:
        assert_native_matches_diagram(poset)


def chain_beside_antichain(length, width):
    chain = [(i + 1, i) for i in range(1, length)]
    return Poset(tuple(range(1, length + width + 1)), frozenset(chain))


@pytest.mark.parametrize("length, width, filters", [(32, 0, 33), (28, 4, 464)],
                         ids=["chain-32", "chain-28-antichain-4"])
def test_native_census_matches_diagram_census_at_the_element_bound(length, width, filters):
    # 32 elements, the enumeration bound: three chunks of 11, 11 and 10
    poset = chain_beside_antichain(length, width)
    assert len(poset) == 32 and poset.count_filters() == filters
    assert_native_matches_diagram(poset)


@pytest.mark.slow
def test_native_census_matches_diagram_census_on_every_seven_element_poset():
    # the 96 428 naturally labelled 7-element posets (OEIS A006455); about a
    # minute, so it runs as its own CI step rather than in tier-1.  Each
    # diagram is also certified distributive, with join-irreducibles
    # isomorphic to the poset (Birkhoff's round trip)
    count = 0
    for poset in naturally_labelled_posets(7):
        diagram = assert_native_matches_diagram(poset)
        assert join_irreducibles(diagram).is_isomorphic(poset)
        count += 1
    assert count == 96428


def reference_census(poset):
    """Every family from the definitions, one filter at a time.

    e is minimal in f when f holds nothing strictly below it, a is addable
    when f holds everything strictly above a but not a, and f's cube
    [f, f minus min(f)] is maximal unless an addable element lies strictly
    below no minimal one."""
    n, up, down = len(poset), poset._strict_up, poset._strict_down
    counts = {family: Counter() for family in tables.FAMILIES}
    for f in poset.filter_masks():
        mins = [e for e in range(n) if f >> e & 1 and not down[e] & f]
        adds = [a for a in range(n) if not f >> a & 1 and not up[a] & ~f]
        counts["rank"][n - f.bit_count()] += 1
        counts["indegree"][len(mins)] += 1
        counts["outdegree"][len(adds)] += 1
        counts["degree"][len(mins) + len(adds)] += 1
        for k in range(len(mins) + 1):
            counts["cube"][k] += comb(len(mins), k)
        if not any(all(not up[a] >> m & 1 for m in mins) for a in adds):
            counts["maxcube"][len(mins)] += 1
    return {
        family: IntPoly(c[k] for k in range(max(c, default=-1) + 1))
        for family, c in counts.items()
    }


def chain(n):
    return chain_beside_antichain(n, 0)


def antichain(n):
    return chain_beside_antichain(0, n)


CHAIN_SIZES = (8, 9, 16, 17, 24, 25, 32)


@pytest.mark.parametrize("poset", [
    sfence(19), sfence(20), fence(19), *map(chain, CHAIN_SIZES),
    Poset((), frozenset()), Poset((1,), frozenset()),
], ids=["sfence-19", "sfence-20", "fence-19", *(f"chain-{n}" for n in CHAIN_SIZES),
        "empty", "one-element"])
def test_native_census_matches_the_per_filter_reference_across_byte_boundaries(poset):
    # elements are transposed eight at a time, one byte per filter, so
    # these posets end on, just past and well past a byte's last element
    assert poset_census(poset) == reference_census(poset)


@st.composite
def dense_posets(draw):
    n = draw(st.integers(9, 24))
    pairs = st.tuples(st.integers(2, n), st.integers(1, n - 1)).filter(lambda p: p[0] > p[1])
    return reduced_poset(n, draw(st.sets(pairs, min_size=n, max_size=4 * n)))


@given(dense_posets())
@settings(max_examples=40, deadline=None)
def test_native_census_matches_the_references_on_dense_posets_past_one_byte(p):
    try:
        count = p.count_filters()
    except CapacityError:  # more than FILTER_COUNT_BOUND filters
        assume(False)
    assert poset_census(p) == reference_census(p)
    if count <= 5000:  # the diagram scan's masks grow as the square of the count
        assert_native_matches_diagram(p)


# ways to hand the census the filter masks in another order than the enumeration's
REORDERINGS = {
    "reversed": lambda masks: masks[::-1],
    "shuffled": lambda masks: random.Random(0).sample(masks, len(masks)),
}


def reordered(reorder):
    """``Poset.filter_masks`` with its list put through ``reorder``."""
    enumerate_masks = Poset.filter_masks
    return lambda poset: reorder(enumerate_masks(poset))


@pytest.mark.parametrize("reorder", REORDERINGS.values(), ids=REORDERINGS)
def test_native_census_does_not_depend_on_the_mask_order_on_sfences(monkeypatch, reorder):
    expected = [poset_census(sfence(n)) for n in range(19)]
    monkeypatch.setattr(Poset, "filter_masks", reordered(reorder))
    assert [poset_census(sfence(n)) for n in range(19)] == expected


@given(dense_posets())
@settings(max_examples=20, deadline=None)
def test_native_census_does_not_depend_on_the_mask_order_on_dense_posets(p):
    try:
        expected = poset_census(p)
    except CapacityError:  # more than FILTER_COUNT_BOUND filters
        assume(False)
    for reorder in REORDERINGS.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Poset, "filter_masks", reordered(reorder))
            assert poset_census(p) == expected


def power(poly, k):
    out = IntPoly([1])
    for _ in range(k):
        out = out * poly
    return out


def test_native_census_of_an_antichain_is_closed_form():
    # 2^17 = 131 072 filters, the subsets of 17 incomparable elements
    k = 17
    got = poset_census(antichain(k))
    assert got["rank"] == got["indegree"] == got["outdegree"] == power(IntPoly([1, 1]), k)
    assert got["degree"] == IntPoly([0] * k + [2**k])
    assert got["cube"] == power(IntPoly([2, 1]), k)
    assert got["maxcube"] == IntPoly([0] * k + [1])


def test_native_census_of_a_chain_is_closed_form():
    got = poset_census(chain(32))
    assert got["rank"] == IntPoly([1] * 33)
    assert got["indegree"] == got["outdegree"] == IntPoly([1, 32])
    assert got["degree"] == IntPoly([0, 2, 31])
    assert got["cube"] == IntPoly([33, 32])
    assert got["maxcube"] == IntPoly([0, 32])


def test_sfence_census_refuses_past_the_lattice_bound():
    # 2 * fib(26) = 242 786 filters, more than the 200 000-vertex bound
    with pytest.raises(CapacityError, match="filter count exceeds 200000"):
        tables.census_poly("cube", 26)


def test_verify_takes_the_identity_cube_side_from_the_diagram_scan(monkeypatch):
    real = census.cube_polynomial
    monkeypatch.setitem(census.DIAGRAM_CENSUS, "cube", lambda d: real(d) + IntPoly([1]))
    report = run_verification(14)
    record = next(
        r for r in report.records
        if r.name == "indegree(1+x) equals cube polynomial (census route)"
    )
    assert record.status == "fail"
    assert record.detail.startswith("n=0:")


# -- median-graph identities ----------------------------------------------------
# A filter lattice diagram is a median graph whose Theta-classes are the
# elements of P, the class of p in bijection with the filters of
# P.star_remove(p).  Its cube polynomial then satisfies cube(-1) = 1 and
# cube'(-1) = |P| (Skrekovski, Discrete Math. 226, 2001) and
# cube' = sum over p of the cube polynomial of P.star_remove(p)
# (Bresar, Klavzar and Skrekovski, Electron. J. Combin. 10, 2003, R3).
# The native census derives cube from indegree, so on its side the first two
# read in_0 = 1 and in_1 = |P|, and the derivative is the real test.

CUBE_ROUTES = {
    "native": lambda p: poset_census(p)["cube"],
    "scan": lambda p: cube_polynomial(filter_lattice(p)),
}


def assert_median_graph_identities(cube, p):
    poly = cube(p)
    slope = IntPoly([k * c for k, c in enumerate(poly.coeffs)][1:])
    assert poly(-1) == 1, p
    assert slope(-1) == len(p), p
    assert slope == sum((cube(p.star_remove(x)) for x in p.elements), IntPoly.zero()), p


@pytest.mark.parametrize("route", sorted(CUBE_ROUTES))
def test_median_graph_identities_on_every_small_poset(route):
    for n in range(6):
        for poset in naturally_labelled_posets(n):
            assert_median_graph_identities(CUBE_ROUTES[route], poset)


@pytest.mark.parametrize("route", sorted(CUBE_ROUTES))
@given(p=posets())
@settings(max_examples=40, deadline=None)
def test_median_graph_identities_on_random_posets(route, p):
    assert_median_graph_identities(CUBE_ROUTES[route], p)


@pytest.mark.parametrize("route, hi", [("native", 20), ("scan", 12)])
@pytest.mark.parametrize("build", [sfence, fence], ids=["sfence", "fence"])
def test_median_graph_identities_on_fences(route, hi, build):
    for n in range(hi + 1):
        assert_median_graph_identities(CUBE_ROUTES[route], build(n))
