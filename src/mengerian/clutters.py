"""Clutters (simple hypergraphs) and their combinatorial optimization.

A clutter stores an antichain of nonempty hyperedges over the vertices
0..n-1. Contracting a whole edge away gives the unit clutter (an empty
edge, the unit ideal); it is no Clutter value, and the packing walk skips
it. The walk visits the minors with the most edges first, leaves out
those that trivially pack (at most two edges, or pairwise disjoint
ones), and contracts a vertex in one pass over an antichain.

All solvers here are exact, and each runs on an explicit stack, so no
recursion depth grows with the input. tau is a branch and bound on the
uncovered edges. One packing search finds the most edges, with
repetition, whose product divides a capacity: nu is that search at unit
capacity, and ideals.member_of_power runs it at a monomial's exponents.
One transversal kernel finds the minimal exponent vectors of degree at
least k on every one of a list of sets: minimal_covers is that kernel at
k = 1 over the edges, and ideals.symbolic_power runs it over the minimal
covers. Brute subset scans survive in the test suite as independent
oracles.
"""

from __future__ import annotations

import functools
import heapq
from typing import Iterable, Iterator, Sequence


class _Edges:
    """An immutable value given by ``n`` and ``edges``, as Graph and Clutter are.

    It compares, hashes, prints and pickles by those two fields alone, and
    its constructor sets them once with ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        return type(self), (self.n, self.edges)


class Clutter(_Edges):
    """Antichain of nonempty hyperedges on vertices 0..n-1.

    ``masks[i]`` is the vertex bitmask of ``edges[i]``, and every layer
    reads it; equality and hashing ignore it. The edges are normalised
    as masks, once: a constructor call turns its edge tuples into masks,
    and ``from_masks`` takes masks as they are, with the same errors.
    """

    __slots__ = ("n", "edges", "masks")
    n: int
    edges: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        object.__setattr__(self, "n", n)
        edges = tuple(edges)
        if n >= 0 and any(v < 0 for e in edges for v in e):
            # no mask holds a negative vertex, and an empty edge sorts before it
            if all(edges):
                bad = min(tuple(sorted(set(e))) for e in edges if min(e) < 0)
                raise ValueError(f"edge {bad} out of range for n={n}")
            edges = ((),)
        self._normalise(map(_mask, edges))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> Clutter:
        """The clutter on n vertices whose edges have these bitmasks."""
        c = cls.__new__(cls)
        object.__setattr__(c, "n", n)
        c._normalise(masks)
        return c

    def _normalise(self, masks: Iterable[int]) -> None:
        """Set the edges and masks: distinct, in sorted edge order, checked."""
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        distinct = set(masks)
        if min(distinct, default=0) < 0:
            raise ValueError("an edge mask must be nonnegative")
        norm = sorted(distinct, key=_vertices)
        if norm and not norm[0]:
            raise ValueError("empty edge: the unit clutter is not a hypergraph")
        for me in norm:
            if me >> self.n:
                raise ValueError(f"edge {_vertices(me)} out of range for n={self.n}")
        # distinct edges of one size already form an antichain
        if len({m.bit_count() for m in norm}) > 1:
            for me in norm:
                for mf in norm:
                    if mf != me and mf & me == mf:
                        raise ValueError(f"not an antichain: {_vertices(mf)} "
                                         f"is contained in {_vertices(me)}")
        object.__setattr__(self, "edges", tuple(map(_vertices, norm)))
        object.__setattr__(self, "masks", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges


@functools.lru_cache(maxsize=1 << 12)
def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask in increasing order: the edge it stands for.

    Sorting masks by it puts them in the edges' order. Memoised, since
    clutters on one vertex set share their masks.
    """
    return tuple(_bits(mask))


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _row(mask: int, cols: Iterable[int]) -> list[int]:
    """The 0/1 row of a vertex bitmask over the given columns."""
    return [mask >> j & 1 for j in cols]


def incidence_matrix(c: Clutter) -> list[list[int]]:
    """0/1 edge-vertex incidence rows, in the sorted edge order."""
    return [_row(e, range(c.n)) for e in c.masks]


# ---------------------------------------------------------------------------
# covers and packings

def tau(c: Clutter) -> int:
    """Minimum vertex cover size, by branch and bound on uncovered edges.

    The first bound is a greedy cover: it takes the vertex of the smallest
    uncovered edge that covers the most edges, until all are covered.
    Then depth-first on an explicit stack: a node branches on the vertices
    of its smallest uncovered edge, lowest first, and is cut when its depth
    plus a greedy matching of the uncovered edges reaches the best cover.
    """
    remaining, best = c.masks, 0
    while remaining:
        e = min(remaining, key=_popcount)
        remaining = min(([r for r in remaining if not r >> v & 1] for v in _bits(e)), key=len)
        best += 1
    stack = [(c.masks, 0)]  # uncovered edges, vertices chosen
    while stack:
        remaining, depth = stack.pop()
        if not remaining:
            best = min(best, depth)
        elif depth + _greedy_matching_size(remaining) < best:
            e = min(remaining, key=_popcount)
            for v in reversed(list(_bits(e))):
                stack.append(([r for r in remaining if not r >> v & 1], depth + 1))
    return best


def nu(c: Clutter) -> int:
    """Maximum number of pairwise disjoint edges: the packing at unit capacity."""
    return _pack(c.masks, c.n, [(1 << c.n) - 1], c.m)


def _pack(masks: Sequence[int], n: int, layers: Sequence[int], goal: int) -> int:
    """The most edges, with repetition, whose product divides the capacity.

    ``layers[i]`` is the set of vertices with more than i units of
    capacity; the search stacks them n bits apart in one integer, so taking
    j copies of edge e keeps e's vertices of layer i + j in layer i. Branch
    and bound on an explicit stack, over the edges in index order: each
    edge is taken as often as it fits, then fewer times. A state is cut
    when its count plus min(free units on the vertices of the edges left
    // least edge size, layers * edges left) cannot beat the best count.
    The search stops as soon as the best count reaches goal, and returns it.
    """
    reps = sum(1 << i * n for i in range(len(layers)))  # bit 0 of every layer
    word = sum(layer << i * n for i, layer in enumerate(layers))
    spreads = [e * reps for e in masks]  # each edge in every layer
    tails = [0] * (len(masks) + 1)  # tails[i]: the vertices of masks[i:], in every layer
    for i in reversed(range(len(masks))):
        tails[i] = tails[i + 1] | spreads[i]
    least = min(map(_popcount, masks), default=1)
    best = 0
    # a frame: edge, capacity before it, count, copies of it to take; the root is edge -1
    stack = [(-1, word, 0, 0)]
    while stack:
        idx, word, count, j = stack.pop()
        if j:
            stack.append((idx, word, count, j - 1))
            word = word & ~spreads[idx] | word >> j * n & spreads[idx]
            count += j
            best = max(best, count)
            if best >= goal:
                break
        idx += 1
        free = (word & tails[idx]).bit_count()
        if count + min(free // least, len(layers) * (len(masks) - idx)) > best:
            e, j = masks[idx], 0
            while word >> j * n & e == e:
                j += 1
            stack.append((idx, word, count, j))
    return best


_popcount = int.bit_count


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal distinct masks, in increasing popcount."""
    kept: list[int] = []
    for t in sorted(set(masks), key=_popcount):
        if not any(k & t == k for k in kept):
            kept.append(t)
    return kept


def _greedy_matching_size(masks: Sequence[int]) -> int:
    used = 0
    count = 0
    for e in masks:
        if not e & used:
            used |= e
            count += 1
    return count


def minimal_covers(c: Clutter) -> tuple[tuple[int, ...], ...]:
    """All inclusion-minimal vertex covers, in (size, vertices) order.

    A cover is a 0/1 vector with sum at least 1 on every edge, so these
    are the transversal kernel's minimal vectors at k = 1 over the edges.
    """
    vectors = _minimal_cover_vectors(c.edges, 1, c.n)
    return tuple(sorted((tuple(v for v, a in enumerate(x) if a) for x in vectors),
                        key=lambda t: (len(t), t)))


def _minimal_cover_vectors(covers: Sequence[tuple[int, ...]], k: int,
                           n: int) -> list[tuple[int, ...]]:
    """Minimal exponent vectors with degree sum >= k on every cover.

    The transversal kernel: symbolic_power passes the minimal covers, and
    minimal_covers passes the edges at k = 1, whose minimal transversals
    are the minimal covers.

    Depth-first completion: repair the first deficient cover by single
    increments. A state is two packed integers: the exponent vector, with
    k.bit_length() bits per coordinate, and the cover sums, one field of
    (n*k).bit_length() + 1 bits per cover whose top bit is a flag. Raising
    coordinate v adds its precomputed word to each. A field's flag in
    S + (top - k)*ones is set when that cover reaches k, so the first
    deficient cover is the lowest clear flag; in S + (top - k - 1)*ones it
    is set when the cover exceeds k. A coordinate on a deficient cover is
    below k, so no exponent passes k and no field overflows.

    One monotone prune: a state with a positive coordinate whose covers
    all exceed k has no minimal extension, since sums only grow, and is
    dropped. The raised coordinate always keeps its repaired cover at or
    below k, so the test runs only when a raise lifts some cover past k.
    At a solution it is the minimality test, so every solution is minimal.
    """
    b = k.bit_length()
    w = (n * k).bit_length() + 1
    top = 1 << (w - 1)
    ones = sum(1 << i * w for i in range(len(covers)))
    flags = top * ones
    reach = (top - k) * ones
    exceed = reach - ones
    step = [0] * n
    for i, cov in enumerate(covers):
        for v in cov:
            step[v] |= 1 << i * w
    through = [word * top for word in step]
    # the lowest clear flag of cover i has bit_length (i + 1) * w
    raises = [()] + [tuple((1 << v * b, step[v], 1 << v) for v in cov) for cov in covers]
    seen = {0}
    sols = []
    stack = [(0, 0, 0)]  # exponent word, cover-sum word, mask of positive coordinates
    while stack:
        e, s, pos = stack.pop()
        short = ~(s + reach) & flags
        if not short:
            sols.append(e)
            continue
        loose = ~(s + exceed) & flags  # covers at or below k
        for unit, add, bit in raises[(short & -short).bit_length() // w]:
            child = e + unit
            if child in seen:
                continue
            seen.add(child)
            cs = s + add
            child_loose = ~(cs + exceed) & flags
            if child_loose != loose:
                q = pos
                while q:
                    u = q & -q
                    if not through[u.bit_length() - 1] & child_loose:
                        break
                    q ^= u
                if q:
                    continue
            stack.append((child, cs, pos | bit))
    mask = (1 << b) - 1
    return [tuple(e >> v * b & mask for v in range(n)) for e in sols]


def has_konig(c: Clutter) -> bool:
    """tau == nu."""
    return tau(c) == nu(c)


def _contract(masks: tuple[int, ...], bit: int) -> tuple[int, ...] | None:
    """The sorted contraction of one vertex, or None for the unit clutter.

    ``masks`` is an antichain, so the edges through the vertex still form
    one once shrunk, and no edge without the vertex can sit inside or
    equal a shrunk one: only shrunk edges can dominate. The result is exactly
    ``_minimal_masks(e & ~bit for e in masks)``.
    """
    shrunk = [e ^ bit for e in masks if e & bit]
    if 0 in shrunk:
        return None
    kept = [e for e in masks if not e & bit and not any(s & e == s for s in shrunk)]
    return tuple(sorted(shrunk + kept))


def has_packing(c: Clutter) -> bool:
    """Konig for the clutter and every non-unit deletion/contraction minor.

    Walk that deletes or contracts one vertex per step. A minor is its
    edge set, a sorted tuple of bitmasks over the original vertex ids, and
    each distinct one is checked once. Minors come off a heap with the
    most edges first, so contractions (which keep every edge) are explored
    before deletions and a failing minor is met early. A minor with at
    most two edges, or with pairwise disjoint edges, is marked seen but
    not checked: its minors are of the same kind or unit, and each such
    clutter has tau == nu (1 = 1 for two meeting edges, m = m for
    disjoint ones). Unit minors are skipped, since every minor of a unit
    clutter is unit again.

    A clutter that packs is ideal (Lehman 1990; Cornuéjols, Guenin &
    Margot 2000, *The packing property*). So the decision, which ``check
    packing`` prints, walks a non-ideal clutter only on the face C/Z of
    its fractional vertex, Z the vertex's zero set, where a failing minor
    must exist, and walks a whole clutter only when it is ideal but not
    Mengerian (none through n=8). Konig is checked through the module
    global ``has_konig`` on a built Clutter, which ``perfbench/spans.py``
    counts.
    """
    start = tuple(sorted(c.masks))
    seen = {start}
    heap = [(-len(start), start)]
    while heap:
        _, masks = heapq.heappop(heap)
        if not has_konig(Clutter.from_masks(c.n, masks)):
            return False
        support = 0
        for e in masks:
            support |= e
        for v in _bits(support):
            bit = 1 << v
            deleted = tuple(e for e in masks if not e & bit)
            for child in (_contract(masks, bit), deleted):
                if child is None or child in seen:
                    continue
                seen.add(child)
                if len(child) > 2 and _greedy_matching_size(child) < len(child):
                    heapq.heappush(heap, (-len(child), child))
    return True


# ---------------------------------------------------------------------------
# serialization

def to_text(c: Clutter) -> str:
    """Line format: header "n m", then one sorted 1-based edge per line."""
    lines = [f"{c.n} {c.m}"]
    lines += [" ".join(str(v + 1) for v in e) for e in c.edges]
    return "\n".join(lines) + "\n"


def to_json_dict(c: Clutter) -> dict:
    # "labels" and "unit" keep the published report layout
    return {
        "n": c.n,
        "labels": [f"x{v + 1}" for v in range(c.n)],
        "unit": False,
        "edges": [[v + 1 for v in e] for e in c.edges],
    }


def from_json_dict(d: dict) -> Clutter:
    """Read a clutter written by to_json_dict; "labels" is ignored.

    n and every edge vertex must be exact ints: a float or a bool that
    compares equal to an int is refused with TypeError. The 1..n range is
    checked on the labels as written, so an error names those labels.
    """
    if d.get("unit"):
        raise ValueError("the unit clutter has no hypergraph to check")
    n, edges = d["n"], [tuple(e) for e in d["edges"]]
    if type(n) is not int or not all(type(v) is int for e in edges for v in e):
        raise TypeError("n and edge vertices must be integers")
    for e in edges:
        if not all(1 <= v <= n for v in e):
            raise ValueError(f"hypergraph edge {list(e)} has a vertex outside 1..{n}")
    return Clutter(n, tuple(tuple(v - 1 for v in e) for e in edges))
