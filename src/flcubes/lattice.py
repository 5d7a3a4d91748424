"""Hasse diagrams of finite graded posets with a least and a greatest element.

Filter lattices of posets, their intervals and their convex expansions are
distributive lattices; a diagram may also hold any other bounded graded
order, such as the lattice M3.  A diagram is a digraph on ranked vertices:
arc (u, v) means u covers v, so arcs point from covering element down to
covered element.  A diagram stores one adjacency, the vertices covering
each vertex; the reverse lists, the arc set and the order masks are derived
from it.  Filter lattices are built from posets; convex expansion
duplicates a cutting interval.  ``join_irreducibles`` certifies a distributive
lattice and returns the poset that determines it (Birkhoff's theorem).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .poset import FILTER_ENUM_BOUND, Poset, _too_many_elements


@dataclass(frozen=True)
class Interval:
    """Pair of vertex indices with bottom <= top in some host diagram."""

    bottom: int
    top: int


@dataclass(frozen=True, eq=False)
class LatticeDiagram:
    """Hasse diagram of a graded lattice with unique minimum and maximum.

    ``up_adj[v]`` lists the vertices covering v; construction stores each
    list in ascending order.  ``vertices`` holds one payload per vertex: a
    filter's bitmask over ``elements``, the source poset's element tuple,
    for filter-built diagrams; an opaque string id, with ``elements`` None,
    for expansion-built ones.  Construction validates that each cover is in
    range, listed once and drops rank by exactly one, that the rank-0
    vertex and the top-rank vertex are unique, and that every other vertex
    covers and is covered by something, which together make every maximal
    chain run from the maximum to the minimum with the same length.
    Diagrams compare and hash by identity, so per-diagram tables can be
    keyed on them.
    """

    vertices: tuple
    up_adj: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]
    elements: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "up_adj", tuple(tuple(sorted(ups)) for ups in self.up_adj))
        object.__setattr__(self, "ranks", tuple(self.ranks))
        n = len(self.vertices)
        if n == 0:
            raise ValueError("a lattice diagram needs at least one vertex")
        if len(self.ranks) != n or len(self.up_adj) != n:
            raise ValueError("ranks, covers and vertices disagree in length")
        height = max(self.ranks)
        has_out = [False] * n
        for v, ups in enumerate(self.up_adj):
            for u in ups:
                if not 0 <= u < n:
                    raise ValueError(f"arc ({u}, {v}) out of range")
                if self.ranks[u] != self.ranks[v] + 1:
                    raise ValueError(f"arc ({u}, {v}) does not drop rank by one")
                has_out[u] = True
            if len(set(ups)) != len(ups):
                raise ValueError(f"vertex {v} lists a cover more than once")
        if sum(1 for r in self.ranks if r == 0) != 1:
            raise ValueError("minimum is not unique")
        if sum(1 for r in self.ranks if r == height) != 1:
            raise ValueError("maximum is not unique")
        for v in range(n):
            if self.ranks[v] > 0 and not has_out[v]:
                raise ValueError(f"vertex {v} has positive rank but covers nothing")
            if self.ranks[v] < height and not self.up_adj[v]:
                raise ValueError(f"vertex {v} below the top is covered by nothing")

    # -- derived structure --------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def height(self) -> int:
        return max(self.ranks)

    @cached_property
    def bottom(self) -> int:
        return self.ranks.index(0)

    @cached_property
    def top(self) -> int:
        return self.ranks.index(self.height)

    @cached_property
    def down_adj(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the vertices it covers, ascending."""
        out: list[list[int]] = [[] for _ in self.up_adj]
        for v, ups in enumerate(self.up_adj):
            for u in ups:
                out[u].append(v)
        return tuple(map(tuple, out))

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Every cover pair (u, v), u covering v."""
        return frozenset((u, v) for v, ups in enumerate(self.up_adj) for u in ups)

    @cached_property
    def rank_order(self) -> tuple[int, ...]:
        """The vertices sorted by (rank, index); bit p of an order mask is entry -1 - p."""
        # the sort is stable, so ascending index order is kept within a rank
        return tuple(sorted(range(len(self.vertices)), key=self.ranks.__getitem__))

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """Bitmask of the up-set (reflexive) of each vertex, bit p = ``rank_order[-1 - p]``.

        Bits count down from the top rank, so the least element of an
        intersection of up-sets is its highest set bit, and a vertex's
        up-set spans only the bits at or below its own.
        """
        masks = [0] * len(self.vertices)
        for p, v in enumerate(reversed(self.rank_order)):
            m = 1 << p
            for u in self.up_adj[v]:
                m |= masks[u]
            masks[v] = m
        return tuple(masks)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Bitmask of the down-set (reflexive) of each vertex, numbered as ``up_masks``."""
        masks = [0] * len(self.vertices)
        for p, v in zip(reversed(range(len(masks))), self.rank_order):
            m = 1 << p
            for w in self.down_adj[v]:
                m |= masks[w]
            masks[v] = m
        return tuple(masks)

    def leq(self, u: int, v: int) -> bool:
        """True iff u <= v in the lattice order."""
        return not self.up_masks[v] & ~self.up_masks[u]

    def find_filter(self, members) -> int:
        """Vertex index of the filter with the given members (filter-built only)."""
        if self.elements is None:
            raise ValueError("diagram has no filter payloads")
        key = frozenset(members)
        mask = sum(1 << i for i, e in enumerate(self.elements) if e in key)
        if mask.bit_count() == len(key) and mask in self.vertices:
            return self.vertices.index(mask)
        raise KeyError(key)

    def interval_members(self, interval: Interval) -> list[int]:
        """The vertices between the interval's bottom and top, in ``rank_order``."""
        if not self.leq(interval.bottom, interval.top):
            raise ValueError("interval bottom is not below its top")
        mask = self.up_masks[interval.bottom] & self.down_masks[interval.top]
        order, members = self.rank_order, []
        while mask:  # set bits only, highest first, which is rank_order's order
            p = mask.bit_length() - 1
            members.append(order[-1 - p])
            mask ^= 1 << p
        return members


# -- construction ------------------------------------------------------------


def filter_lattice(poset: Poset) -> LatticeDiagram:
    """Hasse diagram of all filters of ``poset`` ordered by reverse inclusion.

    Vertices keep the canonical filter order.  rank(Y) = |P| - |Y|, so the
    full ground set is the minimum and the empty filter the maximum; u covers
    v exactly when v's filter is u's filter plus one element.  Each vertex
    is its filter's bitmask over ``poset.elements``.
    """
    fs = poset.filters()
    index = {f: i for i, f in enumerate(fs)}
    strict_down = poset._strict_down
    up_adj = []
    for f in fs:
        ups = []
        m = f
        while m:
            low = m & -m
            m ^= low
            # removing a minimal element of the filter yields a covering filter
            if not strict_down[low.bit_length() - 1] & f:
                ups.append(index[f ^ low])
        up_adj.append(ups)
    ranks = tuple(len(poset) - f.bit_count() for f in fs)
    return LatticeDiagram(tuple(fs), up_adj, ranks, poset.elements)


def interval_diagram(host: LatticeDiagram, interval: Interval) -> LatticeDiagram:
    """The interval as a standalone diagram, re-ranked from its own bottom."""
    members = host.interval_members(interval)
    pos = {v: i for i, v in enumerate(members)}
    base = host.ranks[interval.bottom]
    return LatticeDiagram(
        tuple(host.vertices[v] for v in members),
        tuple(tuple(pos[u] for u in host.up_adj[v] if u in pos) for v in members),
        tuple(host.ranks[v] - base for v in members),
        host.elements,
    )


def is_cutting(host: LatticeDiagram, interval: Interval) -> bool:
    """True iff every maximal chain of the host meets the interval.

    Maximal chains run from the unique maximum to the unique minimum, so the
    interval is a cutting exactly when no top-to-bottom path avoids it.  One
    pass down the ranks marks a vertex outside the interval reached when it
    is the top or one of its upper covers is reached.
    """
    inside = set(host.interval_members(interval))
    reached = [False] * len(host)
    for v in reversed(host.rank_order):
        reached[v] = v not in inside and (v == host.top or any(reached[u] for u in host.up_adj[v]))
    return not reached[host.bottom]


def convex_expansion(host: LatticeDiagram, interval: Interval) -> LatticeDiagram:
    """Duplicate a cutting interval and interleave the copy below it.

    With K = [b, t] the interval and w' the copy of w in K, the expanded
    order is: the host order within the host; the K order within K'; w' <= v
    whenever w <= v in the host; and u < w' whenever u < w in the host and
    not b <= u.  The last proviso keeps originals inside the up-region
    of the interval incomparable to copies above them, which matches
    splitting a filter lattice at one poset element (copies play the filters
    containing that element).

    The covers are read from the host's.  w covers w', and w2' covers w1'
    when w2 covers w1 in K.  A host cover of v by u, with u in K and not
    b <= v, becomes a cover of v by u'; every other host cover stays.  A
    host vertex v with b <= v rises one rank, the others keep theirs,
    and w' takes rank(w).  This follows from the four order rules given one
    fact about cuttings: no host vertex outside the up-set of b is covered
    by a vertex of that up-set outside K.  Nothing above such a cover lies
    in K, as K is convex, and nothing below it does, so a maximal chain
    through it would miss K.  The ranks therefore stay consistent, and
    ``LatticeDiagram``'s validation refuses any cover that breaks them.

    Vertices are ``L{i}`` for host vertex i, then ``K{k}`` for the copy of
    the k-th vertex of K in ascending host index, stably sorted by rank.
    """
    if not is_cutting(host, interval):
        raise ValueError("interval is not a cutting; expansion would not be graded")
    members = sorted(host.interval_members(interval))
    n = len(host)
    copy = {w: n + k for k, w in enumerate(members)}
    raised = [host.leq(interval.bottom, v) for v in range(n)]
    ups = [
        [copy[u] if u in copy and not raised[v] else u for u in host.up_adj[v]]
        for v in range(n)
    ] + [[w] + [copy[u] for u in host.up_adj[w] if u in copy] for w in members]
    rank = [r + up for r, up in zip(host.ranks, raised)] + [host.ranks[w] for w in members]
    order = sorted(range(len(rank)), key=lambda v: (rank[v], v))
    newpos = {v: p for p, v in enumerate(order)}
    payloads = [f"L{i}" for i in range(n)] + [f"K{k}" for k in range(len(members))]
    return LatticeDiagram(
        tuple(payloads[v] for v in order),
        tuple(tuple(newpos[u] for u in ups[v]) for v in order),
        tuple(rank[v] for v in order),
    )


def deletion_cutting(poset: Poset, x: int) -> tuple[LatticeDiagram, Interval]:
    """Filter lattice of P - x with the cutting whose duplication rebuilds F(P).

    The interval collects the filters W of P - x with strict-up(x) <= W <=
    P minus down(x); exactly those W give a filter of P both with and
    without x, so expanding along it reproduces the filter lattice of P.
    """
    rest = poset.remove(x)
    diagram = filter_lattice(rest)
    bottom_members = set(rest.elements) - poset.down_set(x)
    top_members = poset.up_set(x)
    return diagram, Interval(
        diagram.find_filter(bottom_members), diagram.find_filter(top_members)
    )


# -- views --------------------------------------------------------------------


def underlying_graph(diagram: LatticeDiagram) -> tuple[frozenset[int], ...]:
    """Forget arc orientation; neighbour sets indexed by vertex."""
    return tuple(frozenset(up + down) for up, down in zip(diagram.up_adj, diagram.down_adj))


def to_dot(diagram: LatticeDiagram) -> str:
    """DOT text for the Hasse digraph; node labels are filter bit-strings,
    one character per poset element with '1' where present, for
    filter-built diagrams and payload ids otherwise."""
    lines = ["digraph lattice {"]
    width = None if diagram.elements is None else len(diagram.elements)
    for i, payload in enumerate(diagram.vertices):
        label = str(payload) if width is None else "".join(
            "1" if payload >> k & 1 else "0" for k in range(width)
        )
        lines.append(f'  n{i} [label="{label}", rank={diagram.ranks[i]}];')
    for u, downs in enumerate(diagram.down_adj):
        lines.extend(f"  n{u} -> n{v};" for v in downs)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- distributivity certificate --------------------------------------------------


def join_irreducibles(diagram: LatticeDiagram) -> Poset | None:
    """The poset J of join-irreducibles if the diagram is a distributive lattice, else None.

    J is the vertices with one lower cover, ordered as in the diagram.  With
    phi(x) the elements of J at or below x, J is returned only when phi is
    injective, every cover adds one element to phi, and each vertex x has one
    upper cover per element of J addable to phi(x), one outside phi(x) with
    every element of J below it inside.  Then every down-set of J is reached
    from phi(bottom), the empty one, one addable element at a time, so phi is
    an isomorphism onto the Hasse diagram of J's down-set lattice; no lattice
    property is assumed.  By Birkhoff's theorem two such diagrams are
    isomorphic exactly when their J are, and the filter lattice of a poset P
    gives J ≅ P.  Each cover of x adds a different addable element, so only
    the totals are compared: the arcs, and per j the vertices above every
    element of J below j but not above j, read from the up-set masks.  A J
    past ``FILTER_ENUM_BOUND`` elements raises CapacityError.
    """
    down, lower = diagram.down_masks, diagram.down_adj
    own = {v: down[v] ^ down[c[0]] for v, c in enumerate(lower) if len(c) == 1}
    if len(own) > FILTER_ENUM_BOUND:
        raise _too_many_elements(len(own))
    j_mask = sum(own.values())
    phi = [m & j_mask for m in down]
    if len(set(phi)) < len(diagram) or any(
        (phi[u] ^ phi[v]).bit_count() != 1 for v, ups in enumerate(diagram.up_adj) for u in ups
    ):
        return None
    up, everything, addable = diagram.up_masks, (1 << len(diagram)) - 1, 0
    for j in own:
        above = everything & ~up[j]
        for i, other in own.items():
            if other & phi[j] and i != j:
                above &= up[i]
        addable += above.bit_count()
    if addable != len(diagram.arcs):
        return None
    # j's covers in J are the elements that the lower covers of its one lower cover drop
    vertex = {b: v for v, b in own.items()}
    covers = {(j, vertex[phi[lower[j][0]] ^ phi[w]]) for j in own for w in lower[lower[j][0]]}
    return Poset(tuple(own), frozenset(covers))
