import sys
from pathlib import Path

from hypothesis import strategies as st

from flcubes.lattice import LatticeDiagram
from flcubes.poset import Poset

sys.path.insert(0, str(Path(__file__).parent))


def lattice_from_covers(ranks, covers) -> LatticeDiagram:
    """A diagram on vertices 0..len(ranks)-1 from (upper, lower) cover pairs."""
    up_adj = [[] for _ in ranks]
    for u, v in covers:
        up_adj[v].append(u)
    return LatticeDiagram(tuple(range(len(ranks))), up_adj, tuple(ranks))


# M3: a bottom, three atoms and a top; a lattice, but not distributive
M3 = lattice_from_covers((0, 1, 1, 1, 2), [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3)])

# bowtie: both atoms lie below both coatoms, so the atoms have no join
BOWTIE = lattice_from_covers(
    (0, 1, 1, 2, 2, 3),
    [(1, 0), (2, 0), (3, 1), (3, 2), (4, 1), (4, 2), (5, 3), (5, 4)],
)

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

# atoms s1, s2, s3 under s1 v s3, s2 v s3, s1 v s2 and a fourth vertex over s1
# alone, all under the top: every join of atoms has the rank of a 3-cube, but
# [bottom, top] has 9 elements
SPARE_VERTEX = lattice_from_covers(
    (0, 1, 1, 1, 2, 2, 2, 2, 3),
    [(1, 0), (2, 0), (3, 0), (4, 1), (4, 3), (5, 2), (5, 3), (6, 1), (7, 1), (7, 2),
     (8, 4), (8, 5), (8, 6), (8, 7)],
)

# the square 0 < 1, 2 < 3 with M3 on its atom 1: 1 < 3, 4, 5 < 6 and 2 < 3 < 6
M3_ON_A_SQUARE = lattice_from_covers(
    (0, 1, 1, 2, 2, 2, 3),
    [(1, 0), (2, 0), (3, 1), (3, 2), (4, 1), (5, 1), (6, 3), (6, 4), (6, 5)],
)


# five atoms s1..s5 (vertices 1..5) over the bottom 0: s1..s4 pairwise join
# to their own rank-2 vertices 6..11, s5 lies alone under 12, and all lie
# under the top 13, so s5 joins each other atom two ranks up, at the top
FAR_FIFTH_ATOM = lattice_from_covers(
    (0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3),
    [(s, 0) for s in range(1, 6)]
    + [(p, s) for p, pair in enumerate([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 6)
       for s in pair]
    + [(12, 5)] + [(13, r) for r in range(6, 13)],
)


def members(elements, mask: int) -> frozenset[int]:
    """The elements a filter bitmask holds, bit i standing for elements[i]."""
    return frozenset(e for i, e in enumerate(elements) if mask >> i & 1)


def mask_of(elements, subset) -> int:
    """The bitmask of a subset of ``elements``, bit i standing for elements[i]."""
    return sum(1 << i for i, e in enumerate(elements) if e in subset)


def reduced_poset(n: int, relations: set[tuple[int, int]]) -> Poset:
    """Build a poset from arbitrary (a, b) pairs read as a > b with a > b
    numerically, so the digraph is acyclic by construction."""
    labels = tuple(range(1, n + 1))
    above = {e: set() for e in labels}  # strictly greater elements
    for a, b in sorted(relations, key=lambda p: p[0]):
        if a > b:
            above[b].add(a)
            above[b] |= above[a]
    changed = True
    while changed:
        changed = False
        for e in labels:
            extra = set()
            for f in above[e]:
                extra |= above[f]
            if not extra <= above[e]:
                above[e] |= extra
                changed = True
    covers = set()
    for b in labels:
        for a in above[b]:
            if not any(a in above[c] for c in above[b] if c != a):
                covers.add((a, b))
    return Poset(labels, frozenset(covers))


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


@st.composite
def posets(draw, max_size: int = 6):
    n = draw(st.integers(min_value=0, max_value=max_size))
    if n < 2:
        return reduced_poset(n, set())
    pairs = draw(
        st.sets(
            st.tuples(st.integers(2, n), st.integers(1, n - 1)).filter(lambda p: p[0] > p[1]),
            max_size=2 * n,
        )
    )
    return reduced_poset(n, pairs)


@st.composite
def graded_diagrams(draw, max_width: int = 4):
    """A random graded diagram: one bottom, one top, one to ``max_width``
    vertices on each of up to three ranks between, random covers between
    adjacent ranks, and each vertex covering and covered by something.  Many
    are not lattices, and most lattices among them are not distributive, so
    they reach the scan's per-subset rule, which filter lattices never do."""
    widths = [1, *draw(st.lists(st.integers(1, max_width), max_size=3)), 1]
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
