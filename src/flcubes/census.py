"""Censuses of filter lattices: on a Hasse diagram, and native on a poset.

The diagram censuses are definition-level: everything is counted directly
from the diagram, vertices per rank, hypercubes as Boolean intervals, and
vertices per degree, indegree and outdegree.  A k-cube is an interval
[a, j] isomorphic to the lattice of subsets of a k-set; on a distributive
lattice these are the induced k-cubes of the Hasse graph, but not in
general: M3 has cube polynomial 5 + 6x, and its Hasse graph has three
induced squares.  One cached scan tables the Boolean intervals per bottom,
as {top: dimension}, with an exact rule: for a set S of covers of a, [a, j]
with j the join of S is Boolean iff every subset T of S joins to rank
rank(a) + |T| and [a, j] has 2^|S| elements.  The cube and maximal-cube
censuses read that table once per bottom: a bottom a whose whole set S
of covers passed adds the row C(|S|, k) to the cube count, and only
[a, j] for j the join of S can be maximal, which one table lookup per
vertex covered by a decides.  The other bottoms are counted cube by cube,
a cube being maximal when no cube one dimension up in the table extends
it by a cover of its top or below its bottom.  Neither census needs a
join or an order test of its own.  The scan refuses
diagrams whose masks (about 2·V² bits) or joins (one per subset of each
vertex's covers) exceed its bounds.  The poset-native census counts
the same six families from the filters' minimal and addable elements, in one
linear pass and without building the diagram; the diagram scan is the oracle
it is tested against.  No closed form or recurrence is consulted, so these
results can arbitrate them.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb
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

# _scan's table per diagram, dropped with the diagram; diagrams hash by identity
_TABLES: WeakKeyDictionary[LatticeDiagram, list[dict[int, int]]] = WeakKeyDictionary()


def _scan(diagram: LatticeDiagram) -> list[dict[int, int]]:
    """Every Boolean interval of the diagram: per bottom a, {top: dimension}.

    For a set S of covers of a, write j_T for the join of each subset T of
    S.  Then [a, j_S] is Boolean if and only if rank(j_T) = rank(a) + |T|
    for every T and [a, j_S] has 2^|S| elements: the ranks make T -> j_T
    injective (j_T = j_T' would give j_(T u T') = j_T), and the size makes
    it a bijection onto [a, j_S] and an order isomorphism.  Every Boolean
    interval [a, j] is [a, j_S] for S its atoms, and every sub-interval of
    a Boolean interval is Boolean.  So the scan joins all subsets of a's
    covers and tests S = all of them once, one comparison of the joins'
    ranks and one interval popcount; when that passes, as it always does
    on filter lattices, ``tops[a]`` is {j_T: |T|} over all T.  Otherwise
    the same rule runs per subset T, over the subsets of T.

    The diagram's order masks number vertices from the top rank down, so
    the least element of any up-set intersection is its highest set bit,
    read by ``bit_length()``; a join then costs one mask AND, and it is the
    least upper bound exactly when the intersection equals that element's
    own up-set, which is checked at every join.  Both bounds are checked
    before the masks are read.  The table is kept for as long as the
    diagram lives, so the cube and maximal-cube censuses scan it once.
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
    sizes: dict[int, list[int]] = {}  # |T| for each subset T of m covers
    targets: dict[tuple[int, int], list[int]] = {}  # rank(a) + |T|, per (rank(a), m)

    tops: list[dict[int, int]] = []
    for a in range(n):
        ups = up_adj[a]
        rank_a, up_a = ranks[a], upm[a]
        joins = [a]  # joins[t] joins the covers ups[i] for the bits i of t
        for u in ups:
            up_u = upm[u]
            for t in joins[:]:
                common = upm[t] & up_u
                j = order[common.bit_length() - 1]
                if common != upm[j]:  # upm[j] <= common, as common is an up-set
                    raise ValueError("join is not unique; diagram is not a lattice")
                joins.append(j)
        m = len(ups)
        if m not in sizes:
            sizes[m] = [t.bit_count() for t in range(1 << m)]
        size = sizes[m]
        if (rank_a, m) not in targets:
            targets[rank_a, m] = [rank_a + k for k in size]
        target = targets[rank_a, m]
        if (list(map(ranks.__getitem__, joins)) == target
                and (up_a & dnm[joins[-1]]).bit_count() == len(joins)):
            tops.append(dict(zip(joins, size)))
            continue
        found = {}
        graded = [False] * len(joins)  # rank(j_U) = rank(a) + |U| for all U <= T
        for t, j in enumerate(joins):
            graded[t] = ranks[j] == target[t] and all(
                graded[t ^ 1 << i] for i in range(m) if t >> i & 1
            )
            if graded[t] and (up_a & dnm[j]).bit_count() == 1 << size[t]:
                found[j] = size[t]
        tops.append(found)
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
    the scan's test, which is exactly when its table has 2^m tops, adds the
    row C(m, k) without reading its table; only the other bottoms' tables
    are counted top by top.
    """
    tops = _scan(diagram)
    whole: Counter[int] = Counter()  # bottoms whose whole cover set passed, per m
    counts: Counter[int] = Counter()
    for ups, found in zip(diagram.up_adj, tops):
        m = len(ups)
        if len(found) == 1 << m:
            whole[m] += 1
        else:
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
    covers passed the scan's test (a's table has 2^|S| tops), write j_T
    for the join of T within S: every [a, j_T] with T a proper subset of S
    is a face of [a, j_T'] for T' one cover larger, and no cube with bottom
    a lies above j_S, so j_S, which ``_scan`` stores last, is the one
    candidate and only its bottom side is tested.  That is one lookup per
    vertex covered by a, once per bottom.  Every other bottom tests each
    cube in its table: the top side
    is one disjointness test against the table, and the bottom side runs
    only when it passes.
    """
    tops = _scan(diagram)
    up_adj, down_adj = diagram.up_adj, diagram.down_adj
    counts: Counter[int] = Counter()
    for ups, downs, found in zip(up_adj, down_adj, tops):
        m = len(ups)
        if len(found) == 1 << m:
            top = next(reversed(found))
            for b in downs:
                if top in tops[b]:
                    break
            else:
                counts[m] += 1
            continue
        counts.update(
            k
            for j, k in found.items()
            if found.keys().isdisjoint(up_adj[j])
            and not any(j in tops[b] for b in downs)
        )
    return _poly_of(counts)


def degree_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts vertices of undirected degree k."""
    return _histogram(len(up) + len(down) for up, down in zip(diagram.up_adj, diagram.down_adj))


def indegree_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts vertices covered by exactly k elements."""
    return _histogram(map(len, diagram.up_adj))


def outdegree_polynomial(diagram: LatticeDiagram) -> IntPoly:
    """Coefficient k counts vertices covering exactly k elements."""
    return _histogram(map(len, diagram.down_adj))


# -- poset-native census ------------------------------------------------------


def poset_census(poset: Poset) -> dict[str, IntPoly]:
    """All six families of the filter lattice of ``poset``, without building it.

    Filter f has rank |P| - |f|; it is covered by f minus one of its minimal
    elements and covers f plus one addable element (one outside f with
    everything above it inside f).  The Boolean intervals with bottom f are
    [f, f minus S] for S a subset of min(f), so f is the bottom of
    C(#min f, k) cubes of dimension k.  Only S = min(f) can be maximal, and
    it is unless an addable element a lies below no element of min(f), in
    which case [f plus a, f minus min(f)] contains it.  One pass over the
    filter masks with a few table lookups per filter counts everything.
    """
    n = len(poset)
    full = (1 << n) - 1
    above = _union_table(poset._strict_up)
    below = _union_table(poset._strict_down)
    kinds: Counter[tuple[int, int, int, bool]] = Counter()
    for f in poset.filter_masks():
        rest = full & ~f
        mins = f & ~_union(above, f)
        addable = rest & ~_union(below, rest)
        maximal = not addable & ~_union(below, mins)
        kinds[n - f.bit_count(), mins.bit_count(), addable.bit_count(), maximal] += 1

    counts: dict[str, Counter[int]] = {
        family: Counter()
        for family in ("rank", "cube", "maxcube", "degree", "indegree", "outdegree")
    }
    for (rank, ins, outs, maximal), c in kinds.items():
        counts["rank"][rank] += c
        counts["indegree"][ins] += c
        counts["outdegree"][outs] += c
        counts["degree"][ins + outs] += c
        for k in range(ins + 1):
            counts["cube"][k] += c * comb(ins, k)
        if maximal:
            counts["maxcube"][ins] += c
    return {family: _poly_of(counter) for family, counter in counts.items()}


def _union_table(masks: tuple[int, ...]) -> list[list[int]]:
    """Per 8-bit chunk of an element set, the union of ``masks`` over it."""
    tables = []
    for lo in range(0, len(masks), 8):
        part = masks[lo : lo + 8]
        table = [0] * (1 << len(part))
        for s in range(1, len(table)):
            low = s & -s
            table[s] = table[s ^ low] | part[low.bit_length() - 1]
        tables.append(table)
    return tables


def _union(tables: list[list[int]], subset: int) -> int:
    out = 0
    for table in tables:
        out |= table[subset & 0xFF]
        subset >>= 8
    return out


# -- independent oracle -------------------------------------------------------


def generic_cube_count(graph, k: int) -> int:
    """Count induced subgraphs isomorphic to the k-dimensional hypercube.

    Plain subset search over an undirected graph given as neighbour sets.
    Deliberately ignorant of lattice structure so it can arbitrate the
    interval-based enumeration; bounded to 30 vertices and k <= 3.
    """
    n = len(graph)
    if n > GENERIC_GRAPH_BOUND:
        raise CapacityError(f"generic cube count supports at most {GENERIC_GRAPH_BOUND} vertices")
    if k < 0 or k > GENERIC_DIM_BOUND:
        raise CapacityError(f"generic cube count supports dimensions 0..{GENERIC_DIM_BOUND}")
    if k == 0:
        return n
    size = 1 << k
    if n < size:
        return 0
    rows = [0] * n
    for i in range(n):
        for j in graph[i]:
            rows[i] |= 1 << j
    target = [
        [j for j in range(size) if ((i ^ j).bit_count()) == 1] for i in range(size)
    ]
    count = 0
    for sub in combinations(range(n), size):
        smask = 0
        for v in sub:
            smask |= 1 << v
        if any((rows[v] & smask).bit_count() != k for v in sub):
            continue
        if _embeds_cube(sub, rows, target):
            count += 1
    return count


def _embeds_cube(sub, rows, target) -> bool:
    size = len(target)
    order = sorted(range(size), key=lambda t: (t.bit_count(), t))
    mapping = [-1] * size
    used = [False] * len(sub)

    def ok(t: int, v: int) -> bool:
        for t2 in range(size):
            w = mapping[t2]
            if w == -1:
                continue
            adjacent = t2 in target[t]
            if adjacent != bool(rows[v] >> w & 1):
                return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == size:
            return True
        t = order[idx]
        for i, v in enumerate(sub):
            if not used[i] and ok(t, v):
                mapping[t] = v
                used[i] = True
                if backtrack(idx + 1):
                    return True
                mapping[t] = -1
                used[i] = False
        return False

    return backtrack(0)
