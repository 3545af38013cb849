"""Exact linear algebra for covering polyhedra of clutters.

Every matrix here is the 0/1 edge-vertex incidence matrix A of a
``Clutter``, whose rows are distinct, so the functions take the clutter
and read its edges and edge bitmasks. Points of a polyhedron are
``fractions.Fraction`` vectors; nothing here ever rounds. Every
determinant, rank and solve goes through one fraction-free (Bareiss)
row-echelon kernel over integer rows, total unimodularity is decided by
an exhaustive subdeterminant scan with an explicit witness on failure,
and a fractional vertex of a covering polyhedron Q(A) = {x >= 0, Ax >= 1}
is searched for exactly among its tight full-rank subsystems. That search
runs per zero set Z over the rows of the contraction minor C/Z, since the
face x_Z = 0 of Q(A) is Q(C/Z) (Cornuejols 2001, *Combinatorial
Optimization: Packing and Covering*, ch. 1). Its first hit is positive on
the live columns, where a row of C that is not an edge of C/Z is never
tight or only repeats an earlier basis, so it is the first hit of the
search over every basis.

The two questions share their work, and ``is_ideal`` settles both. A
totally unimodular matrix has an integral Q(A) (Hoffman-Kruskal), so
``is_ideal`` searches the bases of Q(A) only when the TU scan refutes TU,
and a positive answer is backed by the scan or by that search. Conversely a
fractional vertex refutes TU: both searches return it with its basis, the
tight covering rows that certify it, and those rows on its support form a
square submatrix with |det| >= 2. So every ``IdealityResult`` carries the
TU verdict too, and a caller that asks for idealness needs no second scan.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterator, NamedTuple, Optional, Sequence

from .clutters import Clutter, _bits, _mask, _minimal_masks, _popcount, _row


def _echelon(a: list[list[int]], ncols: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Eliminates the first ncols columns; any further columns (a right-hand
    side) are carried along. Returns the rank and the sign of the row
    permutation. Every division in the recurrence must be exact; a nonzero
    remainder would mean lost precision and raises immediately.
    """
    m = len(a)
    sign = 1
    prev = 1
    r = 0
    for col in range(ncols):
        if r == m:
            break
        for p in range(r, m):
            if a[p][col]:
                break
        else:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        rowk = a[r]
        pk = rowk[col]
        width = len(rowk)
        for i in range(r + 1, m):
            rowi = a[i]
            aik = rowi[col]
            if not aik and pk == prev:
                continue  # the update is the identity on this row
            for j in range(col + 1, width):
                q, rem = divmod(rowi[j] * pk - aik * rowk[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination produced a non-integer")
                rowi[j] = q
            rowi[col] = 0
        prev = pk
        r += 1
    return r, sign


def _back_substitute(a: list[list[int]], n: int) -> list[Fraction]:
    """Solve the upper triangular system left by ``_echelon`` at full rank n."""
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        s = Fraction(row[n])
        for j in range(i + 1, n):
            if row[j]:
                s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix; mutates its argument."""
    n = len(a)
    rank, sign = _echelon(a, n)
    if rank < n:
        return 0
    return sign * a[-1][-1] if n else 1


# ---------------------------------------------------------------------------
# total unimodularity

class TUWitness(NamedTuple):
    """A square submatrix whose determinant falls outside {0, +-1}."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    det: int


class TUResult(NamedTuple):
    totally_unimodular: bool
    witness: Optional[TUWitness]


def is_totally_unimodular(c: Clutter) -> TUResult:
    """Exhaustive subdeterminant scan in increasing size with early exit.

    Sizes are scanned from 2 upward, since the 1x1 minors of a 0/1 matrix
    are its entries. At the minimal violating size no row or column of the
    violating submatrix can have fewer than two nonzeros, because a
    Laplace expansion along such a line would exhibit a smaller violation.
    So for each row set the columns are drawn only from ``twice``, those
    that at least two chosen rows contain, and a column set is skipped
    when a chosen row meets it fewer than twice. Row and column sets are
    visited in lexicographic order. ``bareiss_det`` is called through the
    module global, so ``perfbench/spans.py`` can count subdeterminants by
    wrapping it.
    """
    masks = c.masks
    for k in range(2, min(c.m, c.n) + 1):
        for rset in combinations(range(c.m), k):
            chosen = [masks[i] for i in rset]
            once = twice = 0
            for e in chosen:
                twice |= once & e
                once |= e
            if any(_popcount(e & twice) < 2 for e in chosen):
                continue
            for cset in combinations(_bits(twice), k):
                cmask = _mask(cset)
                if any(_popcount(e & cmask) < 2 for e in chosen):
                    continue
                d = bareiss_det([_row(e, cset) for e in chosen])
                if d not in (-1, 0, 1):
                    return TUResult(False, TUWitness(rset, cset, d))
    return TUResult(True, None)


# ---------------------------------------------------------------------------
# covering polyhedron Q(A) = {x >= 0, Ax >= 1}

class PolyhedronVertex(NamedTuple):
    """A vertex of Q(A) with its full set of tight constraints.

    Constraint indices 0..m-1 are the covering rows <A_i, x> >= 1 and
    m..m+n-1 the nonnegativity rows x_j >= 0. The tight submatrix always
    has column rank n; that is what makes the point a vertex.
    """

    coords: tuple[Fraction, ...]
    tight_rows: tuple[int, ...]


class IdealityResult(NamedTuple):
    """Idealness with the fractional vertex that refutes it, and the TU verdict it settled."""

    ideal: bool
    certificate: Optional[PolyhedronVertex]
    tu: TUResult


def _row_sums(c: Clutter, coords: Sequence[Fraction]) -> Iterator[Fraction]:
    """<A_i, x> for every edge i, lazily, so feasibility checks stop early."""
    return (sum(coords[v] for v in e) for e in c.edges)


def tight_constraints(c: Clutter, coords: Sequence[Fraction]) -> tuple[int, ...]:
    """The covering rows with <A_i, x> = 1, then m + j for each x_j = 0.

    The sums are taken in integers, over the common denominator d of x.
    """
    d = lcm(*(x.denominator for x in coords))
    scaled = [x.numerator * (d // x.denominator) for x in coords]
    tight = [i for i, e in enumerate(c.edges) if sum(scaled[v] for v in e) == d]
    tight += [c.m + j for j, x in enumerate(scaled) if x == 0]
    return tuple(tight)


def _fractional_vertex(c: Clutter) -> Optional[tuple[PolyhedronVertex, tuple[int, ...]]]:
    """The first fractional vertex of Q(A) in basis order with its basis, or None.

    A basis is n of the m + n constraints: a set Z of zero coordinates and
    as many covering rows as there are live ones. Bases with more zeros
    come first, then the zero set and the row set each in ``combinations``
    order. The face x_Z = 0 of Q(A) is Q(C/Z), the covering polyhedron of
    the contraction minor, and two prunes follow from it. A Z that contains
    an edge is skipped, since that face is empty. The rows are drawn only
    from the edges of C/Z: the restricted rows ``e & ~Z`` that are
    inclusion-minimal, each at the index of its first edge. Neither prune
    loses the first hit. It is positive on every live column, since a
    vertex with a further zero is met at a larger zero set, which comes
    earlier. So a restricted row that strictly contains another sums to
    more than 1 there and is not tight, and a repeated row either makes the
    block singular or, with its first copy in its place, solves to the same
    point at an earlier row set.

    The rows restricted to the live columns form a square block,
    eliminated once with the unit right-hand side carried along. Its last
    pivot is +-det, and by Cramer's rule a block with |det| = 1 has an
    integral solution, so only the other nonsingular blocks are solved.
    The first solution that is fractional, nonnegative and feasible is the
    vertex; tight rows are computed for it alone. Its basis is the row set
    solved. That is the first basis of its tight rows in ``combinations``
    order, which is the greedy one: the tight rows in index order, each
    kept while independent on the support.
    """
    n = c.n
    for zeros in range(n - 1, -1, -1):
        size = n - zeros
        for zset in combinations(range(n), zeros):
            keep = ~_mask(zset)
            restricted = [e & keep for e in c.masks]
            if not all(restricted):
                continue
            minor = sorted(restricted.index(r) for r in _minimal_masks(restricted))
            if len(minor) < size:
                continue
            live = [j for j in range(n) if j not in zset]
            reduced = {i: _row(restricted[i], live) + [1] for i in minor}
            for tset in combinations(minor, size):
                block = [reduced[i][:] for i in tset]
                if _echelon(block, size)[0] < size or abs(block[-1][size - 1]) == 1:
                    continue
                sol = _back_substitute(block, size)
                if all(v.denominator == 1 for v in sol) or any(v < 0 for v in sol):
                    continue
                coords = [Fraction(0)] * n
                for j, v in zip(live, sol):
                    coords[j] = v
                if any(s < 1 for s in _row_sums(c, coords)):
                    continue
                return PolyhedronVertex(tuple(coords), tight_constraints(c, coords)), tset
    return None


class VertexCheck(NamedTuple):
    feasible: bool
    tight_rows: tuple[int, ...]
    tight_rank: int
    is_vertex: bool
    is_integral: bool


def verify_vertex(c: Clutter, coords: Sequence) -> VertexCheck:
    """Re-validate a claimed vertex of Q(A) from scratch.

    Checks feasibility exactly, recomputes the full tight set and asserts
    that the tight subsystem has column rank n.
    """
    pt = [Fraction(x) for x in coords]
    if len(pt) != c.n:
        raise ValueError("coordinate count does not match column count")
    feasible = all(x >= 0 for x in pt) and all(s >= 1 for s in _row_sums(c, pt))
    tight = tight_constraints(c, pt) if feasible else ()
    tight_mat = [_row(c.masks[i] if i < c.m else 1 << (i - c.m), range(c.n)) for i in tight]
    rk = _echelon(tight_mat, c.n)[0]
    return VertexCheck(
        feasible=feasible,
        tight_rows=tight,
        tight_rank=rk,
        is_vertex=feasible and rk == c.n,
        is_integral=all(x.denominator == 1 for x in pt),
    )


def _supports_met_twice(cols: list[int], s: int, ever: list[int],
                         twice_after: list[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each S of size s that every edge meets twice, in ``combinations`` order.

    Yields S with ``thrice``, its set of edges met three times. The walk is
    depth-first over vertices in ascending order, folding each chosen
    column into the prefix's ``once``, ``twice`` and ``thrice``. A prefix
    takes vertex j only while ``twice | once & ever[j] | twice_after[j]``
    is every edge: that is the ``twice`` of the prefix with all of j..n-1,
    a superset of the ``twice`` of any completion from j on, and it only
    shrinks as j grows, so the first j that fails ends the prefix. The
    last vertex is chosen in one ascending loop, which ends once no single
    vertex from j on can complete ``twice``.
    """
    n = len(cols)
    full = ever[0]  # every edge has a vertex
    stack = [(0, (), 0, 0, 0)]  # next vertex, prefix, once, twice, thrice
    while stack:
        j, S, once, twice, thrice = stack.pop()
        if len(S) == s - 1:
            for j in range(j, n):
                if twice | once & ever[j] != full:
                    break
                col = cols[j]
                if twice | once & col == full:
                    yield S + (j,), thrice | twice & col
            continue
        if j > n + len(S) - s or twice | once & ever[j] | twice_after[j] != full:
            continue
        col = cols[j]
        # the prefix with j is popped first, then the same prefix from j + 1
        stack.append((j + 1, S, once, twice, thrice))
        stack.append((j + 1, S + (j,), once | col, twice | once & col, thrice | twice & col))


def _pattern_vertices(c: Clutter) -> Optional[tuple[PolyhedronVertex, tuple[int, ...]]]:
    """Fast search for fractional vertices that are uniform on their support.

    Points of the form (1/q on S, 0 elsewhere) cover every fractional
    certificate arising from odd cover structures. Purely an accelerator:
    hits are verified exactly and misses fall back to the basis search.

    The vertex returned is the first in the order: support size s from 2,
    then q from 2 to s, then S in ``combinations`` order. One walk over
    the supports of each size finds it, because S can certify only at
    q = min over edges of |e & S|, its weight. For a smaller q no row is
    tight, so the tight rank is 0 < s; for a larger q some row falls below
    q. So the walk returns at the first q=2 hit, and otherwise keeps the
    first hit of least q and returns it once the supports of size s run
    out. A 2-set is never a hit: at weight 2 every edge contains it, and
    every row on it reads (1, 1), of rank 1. So the walk starts at size 3.

    The weights are read bit-parallel. ``cols[j]`` is the set of edges
    containing vertex j, as an edge-index bitmask, and folding the columns
    of S keeps ``once``, ``twice`` and ``thrice`` as the sets of edges
    meeting S at least once, twice and three times. An S with ``twice``
    short of every edge has weight below 2, so ``_supports_met_twice``
    visits only the others, in the same order. Its prune reads ``ever[j]``
    and ``twice_after[j]``, the edges met at least once and twice by the
    vertices j..n-1, built once per clutter. When ``twice_after[0]`` is
    short, some edge has fewer than two vertices and there is no hit. An S
    with ``thrice`` short has weight 2 and tight rows ``twice & ~thrice``.
    Only an S that every edge meets three times needs its weights counted
    row by row, and that is skipped once a hit with q <= 3 is kept.

    The rank test runs on the transpose, one row per vertex of S and one
    column per tight row, since the pivot columns of its echelon form are
    the first tight rows in index order that are independent on S. So a
    hit comes with its basis, as in the basis search. Its tight rows are
    the ones the weights gave, the edges met exactly q times, then m + j
    for each j off S, as ``tight_constraints`` would list them.
    """
    masks = c.masks
    n, m = c.n, c.m
    if not m:
        return None
    cols = [0] * n
    for i, e in enumerate(c.edges):
        for j in e:
            cols[j] |= 1 << i
    ever = [0] * (n + 1)
    twice_after = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        twice_after[j] = twice_after[j + 1] | ever[j + 1] & cols[j]
        ever[j] = ever[j + 1] | cols[j]
    full = (1 << m) - 1
    if twice_after[0] != full:
        return None
    for s in range(3, n + 1):
        best = None
        for S, thrice in _supports_met_twice(cols, s, ever, twice_after):
            if thrice != full:
                q, tight = 2, list(_bits(full & ~thrice))
            elif best is not None and best[0] <= 3:
                continue
            else:
                smask = _mask(S)
                weights = [_popcount(e & smask) for e in masks]
                q = min(weights)
                if best is not None and q >= best[0]:
                    continue
                tight = [i for i, w in enumerate(weights) if w == q]
            if len(tight) < s:
                continue
            block = [_row(cols[j], tight) for j in S]
            if _echelon(block, len(tight))[0] != s:
                continue
            basis = tuple(next(i for i, x in zip(tight, row) if x) for row in block)
            best = q, S, tight, basis
            if q == 2:
                break
        if best is not None:
            q, S, tight, basis = best
            coords = tuple(Fraction(1, q) if j in S else Fraction(0) for j in range(n))
            tight += [m + j for j in range(n) if j not in S]
            return PolyhedronVertex(coords, tuple(tight)), basis
    return None


def is_ideal(c: Clutter) -> IdealityResult:
    """Decide whether every vertex of Q(A) is integral, and settle TU on the way.

    A fractional vertex is returned as the certificate. Its TU refutation
    is the square submatrix B on its basis and its support S: B x_S = 1,
    so by Cramer's rule |det B| = 1 would make the vertex integral. That
    witness need not be the first one the exhaustive scan would find. The
    pattern pre-pass only accelerates refutations. A positive answer is
    backed either by the TU scan (a totally unimodular matrix has an
    integral Q(A), by Hoffman-Kruskal), whose result is returned as the TU
    verdict, or by a basis search that finds no fractional vertex, which
    runs only when the scan refutes TU. That search visits, per zero set Z,
    only the bases over the edges of the contraction minor C/Z; no other
    basis can hold its first hit, so it refutes exactly when a search of
    every basis would, with the same vertex. The scan is called through the
    module global, so ``perfbench/spans.py`` sees it.
    """
    if c.is_empty:
        return IdealityResult(True, None, TUResult(True, None))
    hit = _pattern_vertices(c)
    if hit is None:
        tu = is_totally_unimodular(c)
        if not tu.totally_unimodular:
            hit = _fractional_vertex(c)
        if hit is None:
            return IdealityResult(True, None, tu)
    vertex, rows = hit
    cols = tuple(j for j, x in enumerate(vertex.coords) if x)
    det = bareiss_det([_row(c.masks[i], cols) for i in rows])
    if abs(det) < 2:
        raise ArithmeticError("the basis of a fractional vertex gave no |det| >= 2 block")
    return IdealityResult(False, vertex, TUResult(False, TUWitness(rows, cols, det)))
