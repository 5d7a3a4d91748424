import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_tables
from conftest import BOWTIE, M3, lattice_from_covers, posets, reduced_poset
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
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
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


def cubes_of(d):
    """The scan's cubes as (dim, bottom, top), sorted."""
    return sorted((k, a, j) for a, found in enumerate(census._scan(d)) for j, k in found.items())


def test_enumerate_cubes_small():
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


# a < s1, s2 < x < j and a < s3, s4 < y < j, as vertices 0..7 in that order:
# {s1, s2, s3} and {s1, s2, s4} both join to j, and [a, j] has 2^3 elements
# but is no Boolean interval
TWO_SUBSETS = lattice_from_covers(
    (0, 1, 1, 1, 1, 2, 2, 3),
    [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (5, 2), (6, 3), (6, 4), (7, 5), (7, 6)],
)

# three atoms s1, s2, s3 under x = s1 v s3, y = s2 v s3 and z over s1 alone,
# all under the top: [bottom, top] has rank 3 and 2^3 elements, but s1 v s2
# is the top, so it is no 3-cube
FAKE_CUBE = lattice_from_covers(
    (0, 1, 1, 1, 2, 2, 2, 3),
    [(1, 0), (2, 0), (3, 0), (4, 1), (4, 3), (5, 2), (5, 3), (6, 1), (7, 4), (7, 5), (7, 6)],
)


def stacked_bowtie(length):
    """BOWTIE with its bottom on the top of a chain of ``length`` vertices."""
    shift = length - 1
    covers = [(i + 1, i) for i in range(shift)]
    covers += [(u + shift, v + shift) for v, ups in enumerate(BOWTIE.up_adj) for u in ups]
    return lattice_from_covers(list(range(shift)) + [r + shift for r in BOWTIE.ranks], covers)


# the atoms' non-unique join sits past bit 64 of an ascending mask
STACKED_BOWTIE = stacked_bowtie(120)


def test_scan_refuses_a_graded_non_lattice():
    with pytest.raises(ValueError, match="join is not unique"):
        cube_polynomial(BOWTIE)


# atoms s1, s2, s3 under s1 v s3, s2 v s3, s1 v s2 and a fourth vertex over s1
# alone, all under the top: every join of atoms has the rank of a 3-cube, but
# [bottom, top] has 9 elements
SPARE_VERTEX = lattice_from_covers(
    (0, 1, 1, 1, 2, 2, 2, 2, 3),
    [(1, 0), (2, 0), (3, 0), (4, 1), (4, 3), (5, 2), (5, 3), (6, 1), (7, 1), (7, 2),
     (8, 4), (8, 5), (8, 6), (8, 7)],
)


NOT_BOOLEAN_IDS = ["two-subsets", "fake-cube", "spare-vertex"]


@pytest.mark.parametrize("lattice, cube, maxcube, induced", [
    (TWO_SUBSETS, [8, 10, 2], [0, 2, 2], [8, 10, 2, 0]),
    (FAKE_CUBE, [8, 11, 4], [0, 0, 4], [8, 11, 4, 0]),
    (SPARE_VERTEX, [9, 14, 5], [0, 2, 5], [9, 14, 8, 1]),
], ids=NOT_BOOLEAN_IDS)
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
    flat = {(a, j): k for a, found in enumerate(census._scan(d)) for j, k in found.items()}
    assert flat == cubes
    assert cube_polynomial(d) == histogram(cubes.values())
    assert maximal_cube_polynomial(d) == histogram(reference_maxcubes(d, cubes))


@pytest.mark.parametrize("build", [fence, lambda n: fence(n).dual()], ids=["fence", "dual-fence"])
def test_scan_matches_reference_on_fences(build):
    for n in range(11):
        assert_scan_matches_reference(filter_lattice(build(n)))


def test_scan_matches_reference_on_an_expansion_and_m3():
    assert_scan_matches_reference(convex_expansion(*deletion_cutting(sfence(7), 7)))
    assert_scan_matches_reference(M3)


@given(posets(max_size=7))
@settings(max_examples=80, deadline=None)
def test_scan_matches_reference_on_random_posets(p):
    assert_scan_matches_reference(filter_lattice(p))


@st.composite
def graded_diagrams(draw):
    """A random graded diagram: one bottom, one top, one to four vertices on
    each of up to three ranks between, random covers between adjacent ranks,
    and each vertex covering and covered by something.  Many are not
    lattices, and most lattices among them are not distributive, so they
    reach the scan's per-subset rule, which filter lattices never do."""
    widths = [1, *draw(st.lists(st.integers(1, 4), max_size=3)), 1]
    ranks = [r for r, w in enumerate(widths) for _ in range(w)]
    levels = [[v for v, r in enumerate(ranks) if r == rank] for rank in range(len(widths))]
    covers = set()
    for lower, upper in zip(levels, levels[1:]):
        covers |= draw(st.sets(st.sampled_from([(u, v) for u in upper for v in lower])))
        for v in lower:
            if not any((u, v) in covers for u in upper):
                covers.add((draw(st.sampled_from(upper)), v))
        for u in upper:
            if not any((u, v) in covers for v in lower):
                covers.add((u, draw(st.sampled_from(lower))))
    return lattice_from_covers(ranks, sorted(covers))


@given(graded_diagrams())
@settings(max_examples=300, deadline=None)
def test_scan_matches_reference_on_random_graded_diagrams(d):
    try:
        reference_scan(d)
    except ValueError as want:
        with pytest.raises(ValueError) as got:
            census._scan(d)
        assert str(got.value) == str(want)
        return
    assert_scan_matches_reference(d)


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
    cubes = {(a, j): k for a, found in enumerate(census._scan(d)) for j, k in found.items()}
    assert cube_polynomial(d) == histogram(cubes.values()) == native["cube"]
    assert maximal_cube_polynomial(d) == histogram(reference_maxcubes(d, cubes)) == native["maxcube"]


@pytest.mark.parametrize("lattice", [TWO_SUBSETS, FAKE_CUBE, SPARE_VERTEX], ids=NOT_BOOLEAN_IDS)
def test_scan_counts_what_the_reference_counts(lattice):
    # the scan and the reference keep the same intervals of these lattices,
    # and neither refuses them
    assert_scan_matches_reference(lattice)


@pytest.mark.parametrize("lattice", [BOWTIE, STACKED_BOWTIE], ids=["bowtie", "stacked-bowtie"])
def test_scan_refuses_what_the_reference_refuses(lattice):
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


def test_scan_join_bound():
    # the 14-element antichain: 2^14 = 16 384 filters but 3^14 = 4 782 969 joins
    lattice = filter_lattice(Poset(tuple(range(1, 15)), frozenset()))
    assert len(lattice) <= census.CENSUS_VERTEX_BOUND
    with pytest.raises(CapacityError, match="at most 1000000 joins"):
        maximal_cube_polynomial(lattice)


# -- the scan's table, keyed by diagram identity -----------------------------------


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


def test_census_works_on_diamond():
    diamond = filter_lattice(Poset((1, 2), frozenset()))
    assert cube_polynomial(diamond) == IntPoly([4, 4, 1])
    assert maximal_cube_polynomial(diamond) == IntPoly([0, 0, 1])


# -- poset-native census against the diagram scan --------------------------------


def assert_native_matches_diagram(poset):
    native = poset_census(poset)
    diagram = filter_lattice(poset)
    assert set(native) == set(tables.FAMILIES)
    for family in tables.FAMILIES:
        assert native[family] == tables.diagram_poly(family, diagram), family


@pytest.mark.parametrize("build", [sfence, fence, lambda n: fence(n).dual()],
                         ids=["sfence", "fence", "dual-fence"])
def test_native_census_matches_diagram_census(build):
    for n in range(13):
        assert_native_matches_diagram(build(n))


@given(posets(max_size=7))
@settings(max_examples=80, deadline=None)
def test_native_census_matches_diagram_census_on_random_posets(p):
    assert_native_matches_diagram(p)


def naturally_labelled_posets(n):
    """Every poset on 1..n in which i below j implies i < j, each once.

    Element j's strict down-set is any down-closed subset of 1..j-1, so the
    posets are built one element at a time from bitmasks of those subsets."""
    downs_of = [()]
    for j in range(n):
        downs_of = [
            downs + (d,)
            for downs in downs_of
            for d in range(1 << j)
            if all(not d >> i & 1 or downs[i] & ~d == 0 for i in range(j))
        ]
    for downs in downs_of:
        covers = {
            (j + 1, i + 1)
            for j, d in enumerate(downs)
            for i in range(j)
            if d >> i & 1 and not any(downs[k] >> i & 1 for k in range(j) if d >> k & 1)
        }
        yield Poset(tuple(range(1, n + 1)), frozenset(covers))


@pytest.mark.parametrize("n, count", enumerate([1, 1, 2, 7, 40, 357, 4824]))
def test_native_census_matches_diagram_census_on_every_small_poset(n, count):
    # OEIS A006455 counts the naturally labelled posets
    corpus = list(naturally_labelled_posets(n))
    assert len(corpus) == count
    for poset in corpus:
        assert_native_matches_diagram(poset)


@pytest.mark.slow
def test_native_census_matches_diagram_census_on_every_seven_element_poset():
    # the 96 428 naturally labelled 7-element posets (OEIS A006455); about a
    # minute, so it runs as its own CI step rather than in tier-1
    count = 0
    for poset in naturally_labelled_posets(7):
        assert_native_matches_diagram(poset)
        count += 1
    assert count == 96428


def test_sfence_census_refuses_past_the_lattice_bound():
    # 2 * fib(26) = 242 786 filters, more than the 200 000-vertex bound
    with pytest.raises(CapacityError, match="filter count exceeds 200000"):
        tables.census_poly("cube", 26)


def test_verify_takes_the_identity_cube_side_from_the_diagram_scan(monkeypatch):
    real = census.cube_polynomial
    monkeypatch.setattr(census, "cube_polynomial", lambda d: real(d) + IntPoly([1]))
    report = run_verification(14)
    record = next(
        r for r in report.records
        if r.name == "indegree(1+x) equals cube polynomial (census route)"
    )
    assert record.status == "fail"
    assert record.detail.startswith("n=0:")
