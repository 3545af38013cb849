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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .clutters import Clutter, _bits, _mask, _popcount


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

    def __bool__(self):
        return self.totally_unimodular


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
    masks = c.edge_masks()
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
                d = bareiss_det([[e >> j & 1 for j in cset] for e in chosen])
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
    ideal: bool
    certificate: Optional[PolyhedronVertex]

    def __bool__(self):
        return self.ideal


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
    masks = c.edge_masks()
    m, n = c.m, c.n
    seen: set[tuple[Fraction, ...]] = set()
    for zeros in range(n, -1, -1):
        size = n - zeros
        if size > m:
            continue
        for zset in combinations(range(n), zeros):
            zs = set(zset)
            live = [j for j in range(n) if j not in zs]
            reduced = [[e >> j & 1 for j in live] for e in masks]
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
    masks = c.edge_masks()
    tight_mat = []
    for idx in tight:
        row = masks[idx] if idx < c.m else 1 << (idx - c.m)
        tight_mat.append([row >> j & 1 for j in range(c.n)])
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
    """
    masks = c.edge_masks()
    n = c.n
    for s in range(2, n + 1):
        for q in range(2, s + 1):
            for S in combinations(range(n), s):
                smask = _mask(S)
                weights = [_popcount(e & smask) for e in masks]
                if any(w < q for w in weights):
                    continue
                reduced = [[e >> j & 1 for j in S] for e, w in zip(masks, weights) if w == q]
                if _echelon(reduced, s)[0] != s:
                    continue
                coords = tuple(Fraction(1, q) if smask >> j & 1 else Fraction(0)
                               for j in range(n))
                return PolyhedronVertex(coords, tight_constraints(c, coords))
    return None


def is_ideal(c: Clutter) -> IdealityResult:
    """Decide whether every vertex of Q(A) is integral.

    A fractional vertex is returned as the certificate. The pattern
    pre-pass only accelerates refutations; a positive answer is always
    backed by the full exhaustive enumeration.
    """
    if c.is_empty:
        return IdealityResult(True, None)
    hit = _pattern_vertices(c)
    if hit is not None:
        return IdealityResult(False, hit)
    for vertex in enumerate_covering_vertices(c):
        if not vertex.is_integral:
            return IdealityResult(False, vertex)
    return IdealityResult(True, None)
