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
