"""Clutters (simple hypergraphs) and their combinatorial optimization.

A clutter stores an antichain of nonempty hyperedges over the vertices
0..n-1. Contracting a whole edge away gives the unit clutter (an empty
edge, the unit ideal); it is no Clutter value, and the packing walk skips
it. The walk visits the minors with the most edges first, leaves out
those that trivially pack (at most two edges, or pairwise disjoint
ones), and contracts a vertex in one pass over an antichain.

All solvers here are exact. Branch and bound is used for tau and nu; the
weighted sides of the min-max equation live with the monomial ideals.
Brute subset scans survive in the test suite as independent oracles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Clutter:
    """Antichain of nonempty hyperedges on vertices 0..n-1.

    ``masks[i]`` is the vertex bitmask of ``edges[i]``, built once here and
    read by every layer; equality and hashing ignore it.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = tuple(sorted(set(tuple(sorted(set(e))) for e in self.edges)))
        object.__setattr__(self, "edges", norm)
        for e in norm:
            if not e:
                raise ValueError("empty edge: the unit clutter is not a hypergraph")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} out of range for n={self.n}")
        masks = tuple(_mask(e) for e in norm)
        # distinct edges of one size already form an antichain
        if len({len(e) for e in norm}) > 1:
            for e, me in zip(norm, masks):
                for f, mf in zip(norm, masks):
                    if mf != me and mf & me == mf:
                        raise ValueError(f"not an antichain: {f} is contained in {e}")
        object.__setattr__(self, "masks", masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges


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
# covers and matchings

def tau(c: Clutter) -> int:
    """Minimum vertex cover size, by branch and bound on uncovered edges."""
    masks = c.masks
    best = min(c.n, len(masks))  # every vertex, or one vertex from each edge, is a cover

    def search(remaining: list[int], depth: int):
        nonlocal best
        if not remaining:
            best = min(best, depth)
            return
        if depth + _greedy_matching_size(remaining) >= best:
            return
        e = min(remaining, key=_popcount)
        for v in _bits(e):
            bit = 1 << v
            search([r for r in remaining if not r & bit], depth + 1)

    search(masks, 0)
    return best


def nu(c: Clutter) -> int:
    """Maximum number of pairwise disjoint edges, exact branch and bound."""
    masks = c.masks
    best = 0

    def search(idx: int, used: int, count: int):
        nonlocal best
        if count + len(masks) - idx <= best:
            return
        if idx == len(masks):
            best = max(best, count)
            return
        if not masks[idx] & used:
            search(idx + 1, used | masks[idx], count + 1)
        search(idx + 1, used, count)

    search(0, 0, 0)
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


def _greedy_matching_size(masks: list[int]) -> int:
    used = 0
    count = 0
    for e in masks:
        if not e & used:
            used |= e
            count += 1
    return count


def minimal_covers(c: Clutter) -> tuple[tuple[int, ...], ...]:
    """All inclusion-minimal vertex covers via sequential transversal growth."""
    partial: list[int] = [0]
    for e in c.masks:
        nxt: list[int] = []
        for t in partial:
            if t & e:
                nxt.append(t)
            else:
                nxt.extend(t | (1 << v) for v in _bits(e))
        partial = _minimal_masks(nxt)
    covers = sorted(tuple(sorted(_bits(t))) for t in partial)
    return tuple(sorted(covers, key=lambda t: (len(t), t)))


def has_konig(c: Clutter) -> bool:
    """tau == nu."""
    return tau(c) == nu(c)


def _disjoint(masks: Iterable[int]) -> bool:
    """Whether the edges are pairwise disjoint."""
    used = 0
    for e in masks:
        if e & used:
            return False
        used |= e
    return True


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
    """
    start = tuple(sorted(c.masks))
    seen = {start}
    heap = [(-len(start), start)]
    while heap:
        _, masks = heapq.heappop(heap)
        edges = tuple(tuple(_bits(e)) for e in masks)
        if not has_konig(Clutter(c.n, edges)):
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
                if len(child) > 2 and not _disjoint(child):
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
    compares equal to an int is refused with TypeError.
    """
    if d.get("unit"):
        raise ValueError("the unit clutter has no hypergraph to check")
    n, edges = d["n"], [tuple(e) for e in d["edges"]]
    if type(n) is not int or not all(type(v) is int for e in edges for v in e):
        raise TypeError("n and edge vertices must be integers")
    return Clutter(n, tuple(tuple(v - 1 for v in e) for e in edges))
