"""Finite posets presented by their cover relations.

The ground set is a tuple of integer labels.  A pair ``(a, b)`` in ``covers``
means a covers b, i.e. b < a with nothing strictly between.  Subsets of the
ground set are handled internally as bitmasks, bit i standing for
``elements[i]``; that makes upward-closure tests and filter enumeration a
handful of word operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError

# Filter enumeration is exhaustive; refuse ground sets above this size, and
# stop once the filters found outnumber the count bound.
FILTER_ENUM_BOUND = 32
FILTER_COUNT_BOUND = 200_000


def _too_many_elements(n: int) -> CapacityError:
    """The refusal of an n-element ground set, from enumeration or parsing alike."""
    return CapacityError(f"filter enumeration supports at most {FILTER_ENUM_BOUND} elements, got {n}")


def _strict_up(
    n: int, cover_pos: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitmask of strictly greater positions, per position, and the positions
    in a top-down linear extension; raises on cycles."""
    parents: list[list[int]] = [[] for _ in range(n)]  # positions covering b
    children: list[list[int]] = [[] for _ in range(n)]
    for a, b in cover_pos:
        parents[b].append(a)
        children[a].append(b)
    # Kahn's pass from the maximal elements downward, depth first; the stack
    # pops the lowest maximal position first
    indeg = [len(parents[i]) for i in range(n)]
    stack = [i for i in reversed(range(n)) if indeg[i] == 0]
    up = [0] * n
    order = []
    while stack:
        a = stack.pop()
        order.append(a)
        for b in children[a]:
            up[b] |= up[a] | (1 << a)
            indeg[b] -= 1
            if indeg[b] == 0:
                stack.append(b)
    if len(order) != n:
        raise ValueError("cover relation contains a cycle")
    return tuple(up), tuple(order)


def _transpose(up: tuple[int, ...]) -> tuple[int, ...]:
    """The strictly smaller positions, per position, from the strictly greater ones."""
    down = [0] * len(up)
    for i, m in enumerate(up):
        while m:
            low = m & -m
            down[low.bit_length() - 1] |= 1 << i
            m ^= low
    return tuple(down)


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset given by the transitive reduction of its order.

    The constructor validates that the cover digraph is acyclic, that every
    cover pair is irredundant (no chain of two or more covers implies it),
    and that all endpoints belong to the ground set.  The order masks it
    validates with, per position the strictly greater and strictly smaller
    elements, are kept as plain attributes, and so is the top-down linear
    extension that filter enumeration follows.
    """

    elements: tuple[int, ...]
    covers: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        object.__setattr__(self, "covers", frozenset(self.covers))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element labels")
        names = set(self.elements)
        for a, b in self.covers:
            if a == b or a not in names or b not in names:
                raise ValueError(f"bad cover pair ({a}, {b})")
        pos = {e: i for i, e in enumerate(self.elements)}
        cover_pos = tuple(sorted((pos[a], pos[b]) for a, b in self.covers))
        up, top_down = _strict_up(len(self.elements), cover_pos)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_cover_pos", cover_pos)
        object.__setattr__(self, "_strict_up", up)
        object.__setattr__(self, "_top_down", top_down)
        object.__setattr__(self, "_strict_down", _transpose(up))
        object.__setattr__(self, "_filter_count", None)  # recorded by filter_masks
        self._check_reduced()

    # -- derived structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def _check_reduced(self) -> None:
        up = self._strict_up
        down = self._strict_down
        for a, b in self._cover_pos:
            if not (up[b] >> a) & 1:
                raise ValueError("internal order inconsistency")
            if up[b] & down[a]:
                raise ValueError(
                    f"cover pair ({self.elements[a]}, {self.elements[b]}) is implied "
                    "by a longer chain; covers must be a transitive reduction"
                )

    # -- basic queries ------------------------------------------------------

    def up_set(self, x: int) -> frozenset[int]:
        """Elements strictly above x."""
        p = self._pos[x]
        return self._labels(self._strict_up[p])

    def down_set(self, x: int) -> frozenset[int]:
        """Elements strictly below x."""
        p = self._pos[x]
        return self._labels(self._strict_down[p])

    def _labels(self, mask: int) -> frozenset[int]:
        return frozenset(self.elements[i] for i in range(len(self.elements)) if mask >> i & 1)

    # -- constructions -------------------------------------------------------

    def dual(self) -> "Poset":
        """Same ground set with every cover pair reversed."""
        return Poset(self.elements, frozenset((b, a) for a, b in self.covers))

    def remove(self, x: int) -> "Poset":
        """Induced subposet on the ground set minus x.

        New cover pairs can appear where x was an intermediate element; the
        induced order is recomputed and reduced.
        """
        if x not in self._pos:
            raise KeyError(x)
        keep = ((1 << len(self.elements)) - 1) & ~(1 << self._pos[x])
        return self._induced(keep)

    def star_remove(self, x: int) -> "Poset":
        """Induced subposet on the elements incomparable to x."""
        if x not in self._pos:
            raise KeyError(x)
        p = self._pos[x]
        drop = self._strict_up[p] | self._strict_down[p] | (1 << p)
        keep = ((1 << len(self.elements)) - 1) & ~drop
        return self._induced(keep)

    def _induced(self, keep: int) -> "Poset":
        up = self._strict_up
        down = self._strict_down
        kept = [i for i in range(len(self.elements)) if keep >> i & 1]
        covers = []
        for b in kept:
            above = up[b] & keep
            while above:
                low = above & -above
                a = low.bit_length() - 1
                above ^= low
                # cover in the induced order iff nothing kept lies strictly between
                if not (up[b] & down[a] & keep):
                    covers.append((self.elements[a], self.elements[b]))
        return Poset(tuple(self.elements[i] for i in kept), frozenset(covers))

    # -- filters ---------------------------------------------------------------

    def filters(self) -> list[int]:
        """The bitmask of every filter, exactly once, in canonical order.

        The canonical order is by cardinality, then ascending bitmask.
        """
        masks = self.filter_masks()
        masks.sort()
        masks.sort(key=int.bit_count)  # stable, so ascending within a cardinality
        return masks

    def filter_masks(self) -> list[int]:
        """The bitmask of every filter, exactly once, in enumeration order.

        Elements are decided in ``_top_down``, the order in which Kahn's
        pass visited them: a linear extension that lists every element after
        everything strictly above it, depth first.  Each element is added to
        every filter found so far that holds all elements above it, a mask
        ``m`` with ``m & above == above``.  Depth first, an element tends to
        follow the elements above it closely, so fewer masks fail the test:
        on the S-fences about 1.85 tests per filter, against 3.2 when
        elements are decided by the number of elements above them.  The
        list only grows, so a count past ``FILTER_COUNT_BOUND`` stops the
        enumeration with :class:`CapacityError` after at most twice that
        many masks.  A completed enumeration records its count on the poset
        for :meth:`count_filters`.
        """
        if len(self.elements) > FILTER_ENUM_BOUND:
            raise _too_many_elements(len(self.elements))
        up = self._strict_up
        masks = [0]
        for e in self._top_down:
            above, bit = up[e], 1 << e
            masks += [m | bit for m in masks if m & above == above]
            if len(masks) > FILTER_COUNT_BOUND:
                raise CapacityError(f"filter count exceeds {FILTER_COUNT_BOUND}")
        object.__setattr__(self, "_filter_count", len(masks))
        return masks

    def count_filters(self) -> int:
        """Number of filters, by :meth:`filter_masks` with the same bounds.

        The memo is ``_filter_count``, the count the last completed
        enumeration of this poset recorded, kept as long as the poset lives,
        so counting a poset whose filters were already listed, as ``verify``
        does after the census, costs nothing; the masks themselves are not
        kept.  Until an enumeration completes, each call enumerates, so a
        poset past a bound raises on every call.
        """
        if self._filter_count is None:
            self.filter_masks()
        return self._filter_count

    # -- isomorphism -------------------------------------------------------------

    def is_isomorphic(self, other: "Poset") -> bool:
        """True iff some bijection of the ground sets carries this order onto ``other``'s.

        Elements are coloured by their numbers of strictly greater and smaller
        elements, refined once by the colours above and below them.  A
        backtracking search maps one element at a time, next the one related
        to most of those mapped, onto a partner of its colour whose relations
        to the mapped partners match.  It recurses once per element, so it
        refuses more than ``FILTER_ENUM_BOUND`` elements.
        """
        n = len(self.elements)
        if max(n, len(other)) > FILTER_ENUM_BOUND:
            raise CapacityError(f"poset isomorphism supports at most {FILTER_ENUM_BOUND} elements")
        mine, theirs = self._colours(), other._colours()
        if sorted(mine) != sorted(theirs):
            return False
        up, down = self._strict_up, self._strict_down
        up2, down2 = other._strict_up, other._strict_down
        order, placed = [], 0
        for _ in range(n):
            free = (v for v in range(n) if not placed >> v & 1)
            order.append(max(free, key=lambda v: ((up[v] | down[v]) & placed).bit_count()))
            placed |= 1 << order[-1]
        image = [0] * n

        def extend(i: int, used: int) -> bool:
            if i == n:
                return True
            v = order[i]
            for w in range(n):
                if not used >> w & 1 and theirs[w] == mine[v] and all(
                    up[v] >> u & 1 == up2[w] >> image[u] & 1
                    and down[v] >> u & 1 == down2[w] >> image[u] & 1
                    for u in order[:i]
                ):
                    image[v] = w
                    if extend(i + 1, used | 1 << w):
                        return True
            return False

        return extend(0, 0)

    def _colours(self) -> list[tuple]:
        pairs = list(zip(self._strict_up, self._strict_down))
        counts = [(u.bit_count(), d.bit_count()) for u, d in pairs]

        def around(mask: int) -> tuple:
            return tuple(sorted(c for i, c in enumerate(counts) if mask >> i & 1))

        return [(c, around(u), around(d)) for c, (u, d) in zip(counts, pairs)]


# -- standard posets -------------------------------------------------------


def _zigzag(n: int, head: tuple[tuple[int, int], ...]) -> Poset:
    """Poset on 1..n: the cover pairs ``head`` for the first two teeth, then
    2i > 2i-1 and 2i > 2i+1 from the third tooth on; only the pairs with
    both indices <= n are kept."""
    if n < 0:
        raise ValueError("n must be non-negative")
    teeth = ((a, a + d) for a in range(6, n + 1, 2) for d in (-1, 1))
    return Poset(tuple(range(1, n + 1)), frozenset(p for p in (*head, *teeth) if max(p) <= n))


def fence(n: int) -> Poset:
    """Zigzag poset on 1..n: even-indexed elements cover their odd neighbours."""
    return _zigzag(n, ((2, 1), (2, 3), (4, 3), (4, 5)))


def sfence(n: int) -> Poset:
    """S-fence on 1..n: a fence whose first tooth carries the 3-chain 1 > 2 > 3.

    The defining cover list is 1>2, 2>3, 4>2, 4>5 and, from the third tooth
    on, 2i > 2i-1 and 2i > 2i+1.  For small n only the pairs with both
    indices <= n are kept, which reproduces the counting polynomials of the
    family at every index.
    """
    return _zigzag(n, ((1, 2), (2, 3), (4, 2), (4, 5)))


# -- text format -------------------------------------------------------------


def _is_decimal(word: str) -> bool:
    return word.isascii() and word.isdigit()


def poset_from_text(text: str) -> Poset:
    """Parse the poset text format: first line n, then lines "a b" for a > b.

    Malformed text raises ValueError.  Text that parses but declares more
    than ``FILTER_ENUM_BOUND`` elements raises CapacityError before any
    element is built, since nothing downstream can enumerate its filters.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty poset file")
    # int() alone would also take signs, underscores and non-ASCII digits
    if not _is_decimal(lines[0]):
        raise ValueError(f"first line must be the element count, got {lines[0]!r}")
    n = int(lines[0])
    covers = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(map(_is_decimal, parts)):
            raise ValueError(f"malformed cover line {ln!r}")
        a, b = int(parts[0]), int(parts[1])
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"cover line {ln!r} out of range 1..{n}")
        covers.append((a, b))
    if n > FILTER_ENUM_BOUND:  # refused before n elements are built
        raise _too_many_elements(n)
    return Poset(tuple(range(1, n + 1)), frozenset(covers))

