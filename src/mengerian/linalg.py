"""Exact linear algebra for covering polyhedra of clutters.

Every matrix here is the 0/1 edge-vertex incidence matrix A of a
``Clutter``, whose rows are distinct, so the functions take the clutter
and read its edges and edge bitmasks. Points of a polyhedron are
``fractions.Fraction`` vectors; nothing here ever rounds. Every
determinant, rank and solve goes through one fraction-free (Bareiss)
row-echelon kernel over integer rows, total unimodularity is decided by
an exhaustive subdeterminant scan with an explicit witness on failure,
and the vertices of a covering polyhedron Q(A) = {x >= 0, Ax >= 1} are
enumerated exactly from tight full-rank subsystems.

The two questions share their work, and ``is_ideal`` settles both. A
totally unimodular matrix has an integral Q(A) (Hoffman-Kruskal), so
``is_ideal`` enumerates vertices only when the TU scan refutes TU, and a
positive answer is backed by the scan or by the enumeration. Conversely a
fractional vertex refutes TU: ``vertex_tu_witness`` reads a square
submatrix with |det| >= 2 off its tight rows. So every ``IdealityResult``
carries the TU verdict too, and a caller that asks for idealness needs no
second scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .clutters import Clutter, _bits, _mask, _popcount, _row


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

@dataclass(frozen=True)
class TUWitness:
    """A square submatrix whose determinant falls outside {0, +-1}."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    det: int


@dataclass(frozen=True)
class TUResult:
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

@dataclass(frozen=True)
class PolyhedronVertex:
    """A vertex of Q(A) with its full set of tight constraints.

    Constraint indices 0..m-1 are the covering rows <A_i, x> >= 1 and
    m..m+n-1 the nonnegativity rows x_j >= 0. The tight submatrix always
    has column rank n; that is what makes the point a vertex.
    """

    coords: tuple[Fraction, ...]
    tight_rows: tuple[int, ...]

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.coords)


@dataclass(frozen=True)
class IdealityResult:
    """Idealness with the fractional vertex that refutes it, and the TU verdict it settled."""

    ideal: bool
    certificate: Optional[PolyhedronVertex]
    tu: TUResult


def _solve_unit_rhs(mat: list[list[int]]) -> Optional[list[Fraction]]:
    """Solve the square integer system mat * y = 1, or None if singular."""
    size = len(mat)
    aug = [row + [1] for row in mat]
    if _echelon(aug, size)[0] < size:
        return None
    return _back_substitute(aug, size)


def _row_sums(c: Clutter, coords: Sequence[Fraction]) -> Iterator[Fraction]:
    """<A_i, x> for every edge i, lazily, so feasibility checks stop early."""
    return (sum(coords[v] for v in e) for e in c.edges)


def tight_constraints(c: Clutter, coords: Sequence[Fraction]) -> tuple[int, ...]:
    tight = [i for i, s in enumerate(_row_sums(c, coords)) if s == 1]
    tight += [c.m + j for j, x in enumerate(coords) if x == 0]
    return tuple(tight)


def enumerate_covering_vertices(c: Clutter) -> Iterator[PolyhedronVertex]:
    """Yield every vertex of Q(A) exactly once, deterministically.

    Bases are all n-subsets of the m + n constraints; each nonsingular
    tight subsystem is solved exactly and kept when feasible. Bases that
    pin more coordinates to zero are visited first, so sparse vertices
    surface early.
    """
    m, n = c.m, c.n
    seen: set[tuple[Fraction, ...]] = set()
    for zeros in range(n, -1, -1):
        size = n - zeros
        if size > m:
            continue
        for zset in combinations(range(n), zeros):
            zs = set(zset)
            live = [j for j in range(n) if j not in zs]
            reduced = [_row(e, live) for e in c.masks]
            for tset in combinations(range(m), size):
                sol = _solve_unit_rhs([reduced[i] for i in tset]) if size else []
                if sol is None:
                    continue
                coords = [Fraction(0)] * n
                for j, v in zip(live, sol):
                    coords[j] = v
                key = tuple(coords)
                if key in seen:
                    continue
                if any(v < 0 for v in sol):
                    continue
                if any(s < 1 for s in _row_sums(c, coords)):
                    continue
                seen.add(key)
                yield PolyhedronVertex(key, tight_constraints(c, coords))


@dataclass(frozen=True)
class VertexCheck:
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


def _pattern_vertices(c: Clutter) -> Optional[PolyhedronVertex]:
    """Fast search for fractional vertices that are uniform on their support.

    Points of the form (1/q on S, 0 elsewhere) cover every fractional
    certificate arising from odd cover structures. Purely an accelerator:
    hits are verified exactly and misses fall back to full enumeration.

    The vertex returned is the first in the order: support size s from 2,
    then q from 2 to s, then S in ``combinations`` order. One pass over
    the supports of each size finds it, because S can certify only at
    q = min over edges of |e & S|, its weight. For a smaller q no row is
    tight, so the tight rank is 0 < s; for a larger q some row falls below
    q. So the pass returns at the first q=2 hit, and otherwise keeps the
    first hit of least q and returns it once the supports of size s run
    out.

    The weights are read bit-parallel. ``cols[j]`` is the set of edges
    containing vertex j, as an edge-index bitmask, and folding the columns
    of S keeps ``once``, ``twice`` and ``thrice`` as the sets of edges
    meeting S at least once, twice and three times. An S with ``twice``
    short of every edge has weight below 2; with ``thrice`` short it has
    weight 2 and tight rows ``twice & ~thrice``. Only an S that every edge
    meets three times needs its weights counted row by row, and that is
    skipped once a hit with q <= 3 is kept. The tight rows are the covering
    rows of weight q ascending, then the zero coordinates off S.
    """
    masks = c.masks
    n, m = c.n, c.m
    if not m:
        return None
    cols = [0] * n
    for i, e in enumerate(c.edges):
        for j in e:
            cols[j] |= 1 << i
    full = (1 << m) - 1
    for s in range(2, n + 1):
        best = None
        for S in combinations(range(n), s):
            once = twice = thrice = 0
            for j in S:
                col = cols[j]
                thrice |= twice & col
                twice |= once & col
                once |= col
            if twice != full:
                continue
            if thrice != full:
                q, tight = 2, list(_bits(twice & ~thrice))
            elif best is not None and best[0] <= 3:
                continue
            else:
                smask = _mask(S)
                weights = [_popcount(e & smask) for e in masks]
                q = min(weights)
                if best is not None and q >= best[0]:
                    continue
                tight = [i for i, w in enumerate(weights) if w == q]
            if len(tight) < s or _echelon([_row(masks[i], S) for i in tight], s)[0] != s:
                continue
            best = q, S, tight
            if q == 2:
                break
        if best is not None:
            q, S, tight = best
            coords = tuple(Fraction(1, q) if j in S else Fraction(0) for j in range(n))
            tight += [m + j for j in range(n) if j not in S]
            return PolyhedronVertex(coords, tuple(tight))
    return None


def is_ideal(c: Clutter) -> IdealityResult:
    """Decide whether every vertex of Q(A) is integral, and settle TU on the way.

    A fractional vertex is returned as the certificate, and the TU verdict
    is then the witness ``vertex_tu_witness`` reads off it. The pattern
    pre-pass only accelerates refutations. A positive answer is backed
    either by the TU scan (a totally unimodular matrix has an integral
    Q(A), by Hoffman-Kruskal), whose result is returned as the TU verdict,
    or by the full exhaustive enumeration, which runs only when the scan
    refutes TU. The scan is called through the module global, so
    ``perfbench/spans.py`` sees it.
    """
    if c.is_empty:
        return IdealityResult(True, None, TUResult(True, None))
    vertex = _pattern_vertices(c)
    if vertex is None:
        tu = is_totally_unimodular(c)
        if not tu.totally_unimodular:
            vertex = next((v for v in enumerate_covering_vertices(c) if not v.is_integral), None)
        if vertex is None:
            return IdealityResult(True, None, tu)
    return IdealityResult(False, vertex, vertex_tu_witness(c, vertex))


def vertex_tu_witness(c: Clutter, vertex: PolyhedronVertex) -> TUResult:
    """The TU refutation that a fractional vertex of Q(A) implies.

    The columns are the support S of the vertex. The rows are its tight
    covering rows, taken in index order while each stays linearly
    independent on S, until there are |S| of them; a vertex has that many,
    since its tight system has rank n and its zero coordinates account for
    the rest. The square submatrix B then solves B x_S = 1, so by Cramer's
    rule |det B| = 1 would make the vertex integral. The witness need not
    be the first one the exhaustive scan would find.
    """
    cols = tuple(j for j, x in enumerate(vertex.coords) if x)
    rows: list[int] = []
    block: list[list[int]] = []
    for i in vertex.tight_rows:
        if i >= c.m or len(rows) == len(cols):
            break
        trial = block + [_row(c.masks[i], cols)]
        if _echelon([r[:] for r in trial], len(cols))[0] == len(trial):
            rows.append(i)
            block = trial
    det = bareiss_det(block) if len(rows) == len(cols) else 0
    if abs(det) < 2:
        raise ArithmeticError("the tight rows of a fractional vertex gave no |det| >= 2 block")
    return TUResult(False, TUWitness(tuple(rows), cols, det))
