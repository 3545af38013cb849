"""Finite simple graphs: parsing, standard families, path hypergraphs.

Vertices are 0-based internally; every external text format (edge lists,
reports, labels) is 1-based, matching the usual x_1 ... x_n naming.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .clutters import Clutter, _bits


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u + 1}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u + 1}, {v + 1}) out of range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


def graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from any iterable of vertex pairs."""
    norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return Graph(n, norm)


def adjacency(g: Graph) -> list[int]:
    """Neighbour bitmasks: bit w of adj[v] is the edge vw."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply the vertex permutation v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex set")
    return graph(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component (one vertex counts)."""
    return masks_connected(adjacency(g))


def masks_connected(adj: list[int]) -> bool:
    """The same test on the neighbour bitmasks of ``adjacency``."""
    seen = frontier = 1
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


# ---------------------------------------------------------------------------
# parsing and serialization

def parse_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list with 1-based labels.

    Lines hold two labels "u v"; '#' starts a comment; an optional header
    "n <count>" fixes the vertex count. Duplicate edges are dropped with a
    warning, loops and out-of-range labels are errors.
    """
    declared: Optional[int] = None
    edges: set[tuple[int, int]] = set()
    max_label = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared is not None or edges:
                raise ValueError(f"line {lineno}: header must come first")
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            declared = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two labels, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer label in {line!r}") from None
        if u < 1 or v < 1:
            raise ValueError(f"line {lineno}: labels are 1-based positive integers")
        if u == v:
            raise ValueError(f"line {lineno}: loop edge {u} {v}")
        if declared is not None and max(u, v) > declared:
            raise ValueError(f"line {lineno}: label {max(u, v)} exceeds declared n={declared}")
        e = (min(u, v) - 1, max(u, v) - 1)
        if e in edges:
            warnings.warn(f"line {lineno}: duplicate edge {u} {v} ignored", stacklevel=2)
        edges.add(e)
        max_label = max(max_label, u, v)
    n = declared if declared is not None else max_label
    if n == 0:
        raise ValueError("empty edge list and no header")
    return Graph(n, frozenset(edges))


def to_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def _g6_pairs(n: int) -> list[tuple[int, int]]:
    # graph6 bit order: (0,1), (0,2), (1,2), (0,3), ... column by column
    return [(i, j) for j in range(1, n) for i in range(j)]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(ch) - 63 for ch in s]
    for ch, v in zip(s, data):
        if not 0 <= v <= 63:
            raise ValueError(f"invalid graph6 byte {ord(ch)}")
    if data[0] <= 62:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[0] == 63 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise ValueError("unsupported or truncated graph6 size prefix")
    if n < 1:
        raise ValueError("graph6 graph must have at least one vertex")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body length does not match vertex count")
    bits = []
    for v in body:
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    edges = {pair for pair, bit in zip(_g6_pairs(n), bits) if bit}
    return Graph(n, frozenset(edges))


def to_graph6(g: Graph) -> str:
    """Encode as graph6; round-trips with parse_graph6 bit for bit."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for the supported graph6 sizes")
    bits = [1 if pair in g.edges else 0 for pair in _g6_pairs(n)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
                       | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]))
             for i in range(0, len(bits), 6)]
    return prefix + "".join(chars)


def to_dot(g: Graph, values: Optional[Sequence] = None) -> str:
    """DOT rendering; optional per-vertex values become label annotations."""
    lines = ["graph G {"]
    for v in range(g.n):
        label = f"x{v + 1}"
        if values is not None:
            label += f" = {values[v]}"
        lines.append(f'  {v + 1} [label="{label}"];')
    for u, v in sorted(g.edges):
        lines.append(f"  {u + 1} -- {v + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# standard families

# name: (parameter count, None for any; least parameter; its range error; vertex count)
_FAMILIES = {
    "path": (1, 1, "path needs k >= 1", lambda k: k),
    "cycle": (1, 3, "cycle needs k >= 3", lambda k: k),
    "star": (1, 1, "star needs at least one leaf", lambda k: k + 1),
    "double_star": (2, 1, "double_star needs positive leaf counts", lambda p, q: p + q + 2),
    "spider": (None, 1, "spider needs positive leg lengths", lambda *legs: 1 + sum(legs)),
    "star_plus_edge": (1, 2, "star_plus_edge needs at least two leaves", lambda k: k + 1),
    "complete": (1, 1, "complete needs k >= 1", lambda k: k),
}


def family_order(name: str, params: Sequence[int]) -> int:
    """The vertex count of a family member, after checking its parameters.

    Raises the same ValueError as make_family, so a caller can apply a
    vertex cap before any graph is built.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    arity, least, error, order = _FAMILIES[name]
    if arity is not None and len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter{'s' * (arity > 1)}, "
                         f"got {len(params)}")
    if not params or min(params) < least:
        raise ValueError(error)
    return order(*params)


def make_family(name: str, params: Sequence[int]) -> Graph:
    """Construct a named family member with its documented numbering.

    path k       vertices 1..k in order
    cycle k      k >= 3, ring 1..k
    star k       center 1, leaves 2..k+1
    double_star p q   adjacent centers 1, 2; p leaves on 1, q leaves on 2
    spider l1 l2 ...  center 1, legs appended one after another
    star_plus_edge k  star with k >= 2 leaves plus the edge {2, 3}
    complete k   all pairs
    """
    params = list(params)
    n = family_order(name, params)
    if name == "path":
        return graph(n, ((i, i + 1) for i in range(n - 1)))
    if name == "cycle":
        return graph(n, ((i, (i + 1) % n) for i in range(n)))
    if name == "star":
        return graph(n, ((0, i) for i in range(1, n)))
    if name == "double_star":
        p, q = params
        edges = [(0, 1)]
        edges += [(0, 2 + i) for i in range(p)]
        edges += [(1, 2 + p + i) for i in range(q)]
        return graph(n, edges)
    if name == "spider":
        edges = []
        nxt = 1
        for leg in params:
            prev = 0
            for _ in range(leg):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return graph(n, edges)
    if name == "star_plus_edge":
        return graph(n, [(0, i) for i in range(1, n)] + [(1, 2)])
    return graph(n, combinations(range(n), 2))


# ---------------------------------------------------------------------------
# path hypergraphs

def path_vertex_sets(g: Graph, t: int) -> set[int]:
    """Vertex bitmasks of all simple paths with exactly t edges.

    Depth-first on an explicit stack of (used vertices, end vertex, edges
    left) states, extending each path at its end by an unused neighbour.
    The last edge is closed in place: a state with one edge left adds its
    completed paths to the result rather than pushing them.
    """
    if t < 1:
        raise ValueError("path length t must be >= 1")
    adj = adjacency(g)
    found: set[int] = set()
    stack = [(1 << v, v, t) for v in range(g.n)]
    while stack:
        used, v, left = stack.pop()
        nbrs = adj[v] & ~used
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            if left == 1:
                found.add(used | low)
            else:
                stack.append((used | low, low.bit_length() - 1, left - 1))
    return found


def build_path_hypergraph(g: Graph, t: int = 3) -> Clutter:
    """The (t+1)-uniform hypergraph whose edges span a t-edge path in g.

    The vertex set is all of V(g); graphs with no t-edge path give the
    empty clutter, which downstream checks treat as vacuously Mengerian.
    """
    return Clutter(g.n, tuple(tuple(_bits(s)) for s in path_vertex_sets(g, t)))
