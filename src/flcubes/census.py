"""Censuses of filter lattices: on a Hasse diagram, and native on a poset.

The diagram censuses are definition-level: everything is counted directly
from the diagram, vertices per rank, hypercubes as Boolean intervals, and
vertices per degree, indegree and outdegree.  A k-cube is an interval
[a, j] isomorphic to the lattice of subsets of a k-set; on a distributive
lattice these are the induced k-cubes of the Hasse graph, but not in
general: M3 has cube polynomial 5 + 6x, and its Hasse graph has three
induced squares.  One cached scan tables the Boolean intervals per bottom
with an exact rule: for a set S of covers of a, [a, j] with j the join of S
is Boolean iff every subset T of S joins to rank rank(a) + |T| and [a, j]
has 2^|S| elements; for S all of a's covers the scan tests the equivalent,
rank-free rule that [a, j] has 2^|S| elements and distinct T join to
distinct vertices, which it certifies block by block where the joins are
read from the tables of covers that passed, hashing only the first sixteen
of them there.  A bottom a whose whole set S of covers passes keeps
only j_S, the join of S, since its cube tops are then exactly [a, j_S];
any other bottom keeps {top: dimension}.  The cube and maximal-cube
censuses read that table once per bottom: a bottom that passed adds the
row C(|S|, k) to the cube count, and only [a, j_S] can be maximal, which
one table test per vertex covered by a decides.  The other bottoms are
counted cube by cube, a cube being maximal when no cube one dimension up
in the table extends it by a cover of its top or below its bottom.
Neither census needs a join of its own; a table test against a passed
bottom's one top is one AND of the diagram's order masks.  The scan visits
the bottoms top rank first, so from a bottom's fifth cover on it reads the
joins with that cover from the cover's own join table, after one join per
earlier cover, instead of joining every subset again (where those pair
joins cover it).  The scan refuses diagrams whose masks (about 2·V² bits)
or join tables (one entry per subset of each vertex's covers) exceed its
bounds.  The poset-native census counts
the same six families from the filters' minimal and addable elements without
building the diagram.  It is bit-sliced: from one set of filters per
element, a big int with one bit per filter, a few ANDs and ORs per cover
give the filters in which each element is minimal or addable, and vertical
counters over those sets give every histogram; the diagram scan is the
oracle it is tested against.  No closed form or recurrence is consulted, so
these results can arbitrate them.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import reduce
from itertools import chain, compress, repeat
from math import comb
from operator import add, itemgetter, not_, or_
from typing import Iterable
from weakref import WeakKeyDictionary

from .errors import CapacityError
from .lattice import LatticeDiagram
from .polynomials import IntPoly
from .poset import Poset

CENSUS_VERTEX_BOUND = 20_000
CENSUS_JOIN_BOUND = 1_000_000
GENERIC_GRAPH_BOUND = 30
GENERIC_DIM_BOUND = 3

# The cover index k from which _scan reads the joins of a bottom's cover k
# with the subsets of its earlier covers from cover k's own join table,
# after k pair joins, instead of making 2^k - 1 joins; the 2^k joins before
# it are the ones hashed when every later block is certified.  In-process
# scans of the seed-1 poset-census lattices and of the S-fence lattices
# 0-18 (best of 7, alternated) read from index 5 on 13-22 % slower than from
# index 4 on, from index 2 on 0-19 % slower, and from index 3 on level (each
# of 3 and 4 ahead in four of eight alternations on the poset-census set).
# At least 1: a block is read as a tuple of 2^k entries.
_TABLE_COVER = 4

# _scan's table per diagram, dropped with the diagram; diagrams hash by identity
_TABLES: WeakKeyDictionary[LatticeDiagram, list[int | dict[int, int]]] = WeakKeyDictionary()


def _scan(diagram: LatticeDiagram) -> list[int | dict[int, int]]:
    """Every Boolean interval of the diagram: per bottom a, j_S or {top: dimension}.

    For a set S of covers of a, write j_T for the join of each subset T of
    S.  Then [a, j_S] is Boolean if and only if rank(j_T) = rank(a) + |T|
    for every T and [a, j_S] has 2^|S| elements: the ranks make T -> j_T
    injective (j_T = j_T' would give j_(T u T') = j_T), and the size makes
    it a bijection onto [a, j_S] and an order isomorphism.  Every Boolean
    interval [a, j] is [a, j_S] for S its atoms, and every sub-interval of
    a Boolean interval is Boolean.  So the scan tables the joins of all
    subsets of a's covers and tests S = all of them once.

    That whole-cover-set test reads no rank: [a, j_S] is Boolean iff it has
    2^|S| elements and T -> j_T is injective, one interval popcount and a
    test that the joins are distinct (block by block; see the table reads
    below).  Each join is checked to be the least upper bound, so
    j_(T u T') = j_T v j_T'.  An injective T -> j_T into [a, j_S], which has
    2^|S| elements, is a bijection onto it, and j_T <= j_T' iff
    j_(T u T') = j_T' iff T u T' = T' iff T is a subset of T', so it is an
    order isomorphism from the subsets of S.  Conversely, a Boolean
    [a, j_S] has the covers S of a as its atoms, 2^|S| elements and
    distinct j_T.  The ranks follow from the diagram's grading.  When the
    test passes, as it always does on filter lattices, ``tops[a]`` is the
    int j_S: [a, j_S] is Boolean and every element of it is a join j_T, so
    j is a cube top over a iff a <= j <= j_S, of dimension
    rank(j) - rank(a).  Otherwise the ranked rule above runs per subset T,
    over the subsets of T, and ``tops[a]`` is {j_T: |T|} over the T that
    pass.

    The diagram's order masks number vertices from the top rank down, so
    the least element of any up-set intersection is its highest set bit,
    read by ``bit_length()``; a join then costs one mask AND, and it is the
    least upper bound exactly when the intersection equals that element's
    own up-set, which is checked at every join.

    Many joins are read, not made.  The bottoms are visited top rank
    first, and a's join table grows one cover u_k at a time by the block
    j_(T u {u_k}), T a subset of u_0, ..., u_(k-1).  Its first entry,
    a v u_k = u_k, needs no join.  Below cover index ``_TABLE_COVER`` the
    others are one mask AND each.  From it on, the scan joins u_k with each
    earlier cover, w_i = u_i v u_k, by mask AND; if every w_i covers u_k,
    it reads the whole block from u_k's table, already built one rank up:
    j_(T u {u_k}) is u_k's entry for the set {w_i : i in T} of its covers.
    That is exact in any lattice, because T u {u_k} and
    {w_i : i in T} u {u_k} have the same upper bounds, an upper bound of
    u_i and u_k being one of w_i.  The entry's index is the bits i of T
    spread onto the positions p_i of the w_i in u_k's cover list, ORed, as
    two w_i may coincide; one ``itemgetter`` of that remap is cached per
    tuple of positions, so a block of 2^k joins costs k pair joins and one
    C call.  Where some w_i does not cover u_k, as in lattices that are not
    upper semimodular, that cover is joined by mask ANDs instead.  No join
    goes unchecked: were some T u {u_k} without a least upper bound, then
    so would be the set {w_i : i in T} of u_k's covers, and u_k's own scan
    refused the diagram before a's began.  A rank's tables are dropped once
    the rank below it is scanned, so two ranks of tables are held at most,
    one 8-byte pointer per entry, each entry being a vertex number the
    diagram already holds.  By tracemalloc the scan's peak is 0.4-1.5 MB on
    the poset-census lattices, up from 0.06-0.14 MB without tables, and
    2.4 MB on the 12-element antichain's.

    The table reads also tell most bottoms' joins apart without hashing
    them all.  Write S_k for u_0, ..., u_(k-1) and j_(S_k) for their join,
    the last entry of the table before block k.  The first
    min(m, ``_TABLE_COVER``) covers' sub-table, at most 16 entries, is
    hashed.  A later block k is certified new and injective when it was
    read whole from the table of a cover u_k that passed (``tops[u_k]`` is
    an int) and the read moved the last entry, j_(S_k u {u_k}) != j_(S_k):

    (a) every entry of block k lies above u_k and every earlier entry at or
        below j_(S_k), so the two sets are disjoint iff u_k is not below
        j_(S_k), which is iff j_(S_k) v u_k, the block's last entry, is not
        j_(S_k);
    (b) u_k's table is injective, as u_k passed, so the block is injective
        iff the pair joins w_i are distinct, the remap then being injective;
    (c) in a graded diagram, w_i = w_i' for i != i', both covering u_k,
        forces u_i v u_i' = w_i, as w_i is an upper bound of u_i and u_i'
        of rank rank(a) + 2, the least rank their join, a checked entry
        before block k, can have; then u_k <= j_(S_k), and (a) fails.

    So where every block from ``_TABLE_COVER`` on is certified, the joins
    are distinct iff the first sub-table's are.  A block joined by mask
    ANDs, read from a failed cover's table, or leaving the last entry in
    place sends the bottom back to one set of all 2^m joins.  No verdict
    changes, and every join is still checked as above.

    Both bounds are checked before the masks are read.  The memo is
    ``_TABLES``, keyed on the diagram, which hashes by identity, and kept
    for as long as the diagram lives, so the cube and maximal-cube censuses
    scan it once.
    """
    if diagram in _TABLES:
        return _TABLES[diagram]
    n = len(diagram)
    if n > CENSUS_VERTEX_BOUND:
        raise CapacityError(f"cube census supports at most {CENSUS_VERTEX_BOUND} vertices")
    ranks, up_adj = diagram.ranks, diagram.up_adj
    if sum(1 << len(ups) for ups in up_adj) > CENSUS_JOIN_BOUND:
        raise CapacityError(f"cube census supports at most {CENSUS_JOIN_BOUND} joins")
    order, upm, dnm = diagram.rank_order[::-1], diagram.up_masks, diagram.down_masks
    first_read = _TABLE_COVER

    tops: list[int | dict[int, int]] = [0] * n
    blocks: dict[tuple[int, ...], itemgetter] = {}  # one remap per tuple of positions
    above: dict[int, list[int]] = {}  # the join tables of the rank above a's
    here: dict[int, list[int]] = {}
    rank = None
    for a in order:  # top rank first, so a's covers have their tables
        if ranks[a] != rank:
            rank, above, here = ranks[a], here, {}
        ups = up_adj[a]
        up_a = upm[a]
        joins = [a]  # joins[t] joins the covers ups[i] for the bits i of t
        fresh = True  # every block from first_read on is certified injective and new
        for k, u in enumerate(ups):
            up_u = upm[u]
            if k >= first_read:
                w = []  # w[i] = ups[i] v u
                for v in ups[:k]:
                    common = upm[v] & up_u
                    j = order[common.bit_length() - 1]
                    if common != upm[j]:
                        raise ValueError("join is not unique; diagram is not a lattice")
                    w.append(j)
                try:
                    key = tuple(map(up_adj[u].index, w))  # w[i] is cover key[i] of u
                except ValueError:  # some w[i] does not cover u: join as below
                    fresh = False
                else:
                    block = blocks.get(key)
                    if block is None:  # the remap t -> OR of 1 << key[i] over the bits i of t
                        remap = [0]
                        for p in key:
                            remap += [r | 1 << p for r in remap]
                        block = blocks[key] = itemgetter(*remap)
                    top = joins[-1]
                    joins += block(above[u])
                    fresh = fresh and joins[-1] != top and isinstance(tops[u], int)
                    continue
            filled = len(joins)
            joins.append(u)  # a v u = u
            for t in joins[1:filled]:
                common = upm[t] & up_u
                j = order[common.bit_length() - 1]
                if common != upm[j]:  # upm[j] <= common, as common is an up-set
                    raise ValueError("join is not unique; diagram is not a lattice")
                joins.append(j)
        here[a] = joins
        unsure = joins[:1 << first_read] if fresh else joins  # the entries left to tell apart
        if (up_a & dnm[joins[-1]]).bit_count() == len(joins) and len(set(unsure)) == len(unsure):
            tops[a] = joins[-1]
            continue
        m, rank_a = len(ups), ranks[a]
        size = [t.bit_count() for t in range(len(joins))]  # |T|
        found = {}
        graded = [False] * len(joins)  # rank(j_U) = rank(a) + |U| for all U <= T
        for t, j in enumerate(joins):
            graded[t] = ranks[j] == rank_a + size[t] and all(
                graded[t ^ 1 << i] for i in range(m) if t >> i & 1
            )
            if graded[t] and (up_a & dnm[j]).bit_count() == 1 << size[t]:
                found[j] = size[t]
        tops[a] = found
    _TABLES[diagram] = tops
    return tops


# -- polynomial censuses ----------------------------------------------------


def _histogram(values: Iterable[int]) -> IntPoly:
    """Coefficient k counts the occurrences of k among ``values``."""
    return _poly_of(Counter(values))


def _poly_of(counts: Counter[int]) -> IntPoly:
    return IntPoly(counts[k] for k in range(max(counts, default=-1) + 1))


def rank_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts the vertices of rank k."""
    return _histogram(diagram.ranks)


def cube_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts the Boolean intervals [a, j] of dimension k.

    An interval is Boolean when it is isomorphic to the subsets of a k-set;
    see ``_scan`` for the exact rule.  On distributive lattices these are
    the induced k-cubes of the Hasse graph; M3 has 5 + 6x here but three
    induced squares.  A bottom with m covers whose whole cover set passed
    the scan's test, which is exactly when its table entry is one top, adds
    the row C(m, k); only the other bottoms' tables are counted top by top.
    """
    tops = _scan(diagram)
    passed = list(map(isinstance, tops, repeat(int)))
    whole = Counter(map(len, compress(diagram.up_adj, passed)))  # bottoms that passed, per m
    counts: Counter[int] = Counter()
    for found in compress(tops, map(not_, passed)):
        counts.update(found.values())
    for m, c in whole.items():
        for k in range(m + 1):
            counts[k] += c * comb(m, k)
    return _poly_of(counts)


def maximal_cube_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts cubes contained in no other cube's vertex set.

    A cube inside a larger one is a face of it, since both are intervals,
    and a face lies in a facet one dimension up that keeps its bottom or
    its top.  So [a, j] is maximal iff neither [a, u] for a cover u of j
    nor [b, j] for a vertex b covered by a is a cube; in a graded diagram
    either would have dimension one more.  Where the whole set S of a's
    covers passed the scan's test, write j_T for the join of T within S:
    every [a, j_T] with T a proper subset of S is a face of [a, j_T'] for
    T' one cover larger, and no cube with bottom a lies above j_S, so j_S,
    the one top ``_scan`` stores for a, is the one candidate and only its
    bottom side is tested.  That is one table test per vertex covered by a,
    once per bottom.  Every other bottom tests each cube in its table: the
    top side is one disjointness test against the table, and the bottom
    side runs only when it passes.  For b covered by a <= j, b <= j already
    holds, so [b, j] is a cube iff j lies below the one top t stored for b,
    or below an entry of b's table when b keeps a dict, an interval inside
    a Boolean one being Boolean.  So the down-sets of those tops are ORed
    into one mask per vertex before the pass, and every test, of either
    kind of bottom, is one inline AND of that mask with j's up-set.
    """
    tops = _scan(diagram)
    up_adj, down_adj = diagram.up_adj, diagram.down_adj
    upm, dnm = diagram.up_masks, diagram.down_masks
    # per vertex b, the down-sets of its cube tops, ORed: for b <= j, [b, j]
    # is a cube iff j lies below one of them, iff upm[j] meets reach[b]
    reach = [
        dnm[t] if isinstance(t, int) else reduce(or_, map(dnm.__getitem__, t), 0) for t in tops
    ]
    counts: Counter[int] = Counter()
    for ups, downs, found in zip(up_adj, down_adj, tops):
        if isinstance(found, int):
            up_j = upm[found]
            for b in downs:
                if up_j & reach[b]:
                    break
            else:
                counts[len(ups)] += 1
            continue
        counts.update(
            k
            for j, k in found.items()
            if found.keys().isdisjoint(up_adj[j]) and not any(upm[j] & reach[b] for b in downs)
        )
    return _poly_of(counts)


def degree_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts vertices of undirected degree k."""
    return _histogram(map(add, map(len, diagram.up_adj), map(len, diagram.down_adj)))


def indegree_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts vertices covered by exactly k elements."""
    return _histogram(map(len, diagram.up_adj))


def outdegree_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts vertices covering exactly k elements."""
    return _histogram(map(len, diagram.down_adj))


# Each family's definition-level census of a diagram; ``poset_census`` counts the same families
DIAGRAM_CENSUS = {
    "rank": rank_polynomial, "cube": cube_polynomial, "maxcube": maximal_cube_polynomial,
    "degree": degree_polynomial, "indegree": indegree_polynomial,
    "outdegree": outdegree_polynomial,
}


# -- poset-native census ------------------------------------------------------

# _DIGITS[b] maps a byte to the base-2 digit of its bit b, which runs through
# 2^b zeros and then 2^b ones as the byte counts up
_DIGITS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


def poset_census(poset: Poset) -> dict[str, IntPoly]:
    """Every family of ``DIAGRAM_CENSUS`` on the filter lattice of ``poset``, without building it.

    Filter f has rank |P| - |f|; it is covered by f minus one of its minimal
    elements and covers f plus one addable element (one outside f with
    everything above it inside f).  The Boolean intervals with bottom f are
    [f, f minus S] for S a subset of min(f), so f is the bottom of
    C(#min f, k) cubes of dimension k.  Only S = min(f) can be maximal, and
    it is unless an addable element a lies below no element of min(f), in
    which case [f plus a, f minus min(f)] contains it.

    The census is bit-sliced: the filters are numbered 0..V-1 in the order
    ``filter_masks`` lists them, and every quantity is a V-bit set of
    filters, so each step below is a few big-int operations for all V
    filters at once.  F[e] (``held[e]``) holds the filters that hold e.  It
    is transposed in C: the masks go into one array of 4-byte words, stored
    little-endian, so byte column g, one byte per filter for elements
    8g..8g+7, is a strided slice of the array's bytes, byte g of every
    word, and each element's bit of those bytes is spelled out as base-2
    digits (a power-of-two base, so no int-string digit limit applies).  No
    Python object is made per filter.  Because filters are up-sets, covers
    decide the rest exactly:

    - e is minimal in f iff e is in f and no lower cover c of e is: an
      element of f strictly below e would lie above some lower cover of e,
      which f would then hold.  So M[e] (``mins``) = F[e] minus the union
      of F[c].
    - e is addable to f iff e is not in f and every upper cover of e is:
      everything strictly above e lies above an upper cover, so f holds it.
      So A[e] (``adds``) = the intersection of F[c] over the upper covers
      c, minus F[e]; a maximal element has no upper cover, and A[e] is
      every filter without e.
    - f is no maximal cube's bottom iff some a addable to f lies strictly
      below no minimal element of f, that is iff f is in A[a] and in no M[m]
      for m strictly above a; NotMax (``not_max``) is the union of those
      sets over a.

    Per-filter counts are summed into a vertical counter, one V-bit plane
    per binary digit, with a ripple carry per added set; splitting the
    filters on each plane in turn leaves one set per count value, whose
    popcount is that value's coefficient.  The F sets count |f|, the M sets
    the indegree, the A sets the outdegree and both together the degree;
    the maximal cubes are the indegree histogram of the filters outside
    NotMax, and the cube polynomial is the indegree polynomial at 1 + x.
    """
    words = array("I", poset.filter_masks())  # FILTER_ENUM_BOUND = 32 bits fit
    if sys.byteorder == "big":
        words.byteswap()  # so byte g of each word holds elements 8g..8g+7
    n, raw = len(poset), words.tobytes()
    every = (1 << len(words)) - 1
    held: list[int] = []
    for lo in range(0, n, 8):
        column = raw[lo // 8::words.itemsize]
        held += (int(column.translate(_DIGITS[b])[::-1], 2) for b in range(min(8, n - lo)))
    below_held, covers_held = [0] * n, [every] * n
    for a, b in poset._cover_pos:  # a covers b
        below_held[a] |= held[b]
        covers_held[b] &= held[a]
    mins = [f & ~c for f, c in zip(held, below_held)]
    adds = [c & ~f for f, c in zip(held, covers_held)]
    not_max = 0
    for up, addable in zip(poset._strict_up, adds):
        under_a_min = 0
        for m in range(n):
            if up >> m & 1:
                under_a_min |= mins[m]
        not_max |= addable & ~under_a_min

    sizes = _split(_counter(held), every)
    ins = _counter(mins)
    indegree = _split(ins, every)
    polys = {
        "rank": IntPoly(sizes.coeff(n - k) for k in range(n + 1)),
        "cube": indegree.compose(IntPoly((1, 1))),
        "maxcube": _split(ins, every & ~not_max),
        "degree": _split(_counter(chain(mins, adds)), every),
        "indegree": indegree,
        "outdegree": _split(_counter(adds), every),
    }
    return {family: polys[family] for family in DIAGRAM_CENSUS}


def _counter(sets: Iterable[int]) -> list[int]:
    """Vertical counter of ``sets``: bit i of plane b is binary digit b of
    the number of the sets that hold i."""
    planes: list[int] = []
    for carry in sets:
        b = 0
        while carry:
            if b == len(planes):
                planes.append(carry)
                break
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
            b += 1
    return planes


def _split(planes: list[int], within: int) -> IntPoly:
    """Coefficient k counts the members of ``within`` whose counter reads k."""
    leaves = [within]
    for plane in planes:  # leaves[k] holds the members whose lower digits read k
        leaves = [s & ~plane for s in leaves] + [s & plane for s in leaves]
    return IntPoly(s.bit_count() for s in leaves)


# -- independent oracle -------------------------------------------------------


def generic_cube_count(graph, k: int) -> int:
    """Count induced subgraphs isomorphic to the k-dimensional hypercube.

    A search over an undirected graph given as neighbour sets, grown from a
    root and deliberately ignorant of lattice structure so it can arbitrate
    the interval-based enumeration.  For each root v it maps the cube labels
    0..2^k - 1, in popcount order, onto vertices above v, label 0 onto v: a
    label's candidates are the unused vertices adjacent to every placed
    label at Hamming distance 1 and to no other placed label, one AND of
    neighbour bitmasks per placed label.  It counts the distinct vertex
    sets of the complete maps.  Every complete map has exactly the cube's
    adjacency on its image, and every induced Q_k is found from its least
    vertex under a true labelling, so the count is exact.  Bounded to 30
    vertices and k <= 3; at that bound Q4 + Q3 + 6 isolated vertices takes
    milliseconds for k = 3 and K_{15,15} a fraction of a second for k = 2.
    """
    n = len(graph)
    if n > GENERIC_GRAPH_BOUND:
        raise CapacityError(f"generic cube count supports at most {GENERIC_GRAPH_BOUND} vertices")
    if k < 0 or k > GENERIC_DIM_BOUND:
        raise CapacityError(f"generic cube count supports dimensions 0..{GENERIC_DIM_BOUND}")
    rows = [sum(1 << u for u in neighbours) for neighbours in graph]
    labels = sorted(range(1 << k), key=int.bit_count)
    # per label after the first: the earlier labels' positions at Hamming
    # distance 1, which it must be adjacent to, and the others, which it must not
    near, far = [], []
    for i, t in enumerate(labels):
        earlier = range(i)
        near.append([j for j in earlier if (labels[j] ^ t).bit_count() == 1])
        far.append([j for j in earlier if (labels[j] ^ t).bit_count() != 1])
    placed = [0] * len(labels)
    images: set[int] = set()

    def grow(i: int, free: int, used: int) -> None:
        if i == len(labels):
            images.add(used)
            return
        candidates = free
        for j in near[i]:
            candidates &= rows[placed[j]]
        for j in far[i]:
            candidates &= ~rows[placed[j]]
        while candidates:
            bit = candidates & -candidates
            placed[i] = bit.bit_length() - 1
            grow(i + 1, free ^ bit, used | bit)
            candidates ^= bit

    count = 0
    for v in range(n):
        placed[0] = v
        grow(1, ((1 << n) - 1) & -(2 << v), 1 << v)
        count += len(images)
        images.clear()
    return count
