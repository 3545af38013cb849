"""Exact linear algebra for covering polyhedra.

Matrices hold Python ints, and points of a polyhedron are
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
from typing import Iterable, Iterator, Optional, Sequence


def _entry(x) -> int:
    if isinstance(x, int):
        return int(x)  # bool becomes 0 or 1
    raise TypeError(f"matrix entries must be integers, got {type(x).__name__}")


class Matrix:
    """Immutable dense integer matrix.

    Rows are tuples of ints. A matrix with zero rows still carries a
    column count, so incidence matrices of empty hypergraphs stay well
    defined.
    """

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows: Iterable[Iterable], n: Optional[int] = None):
        rs = tuple(tuple(_entry(x) for x in row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("rows have unequal lengths")
            if n is not None and n != width:
                raise ValueError(f"declared {n} columns but rows have {width}")
            n = width
        elif n is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self.rows = rs
        self.m = len(rs)
        self.n = n

    def __repr__(self):
        return f"Matrix({self.m}x{self.n})"

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix([[self.rows[i][j] for j in col_idx] for i in row_idx], n=len(col_idx))

    def det(self) -> int:
        if self.m != self.n:
            raise ValueError("determinant requires a square matrix")
        return bareiss_det([list(r) for r in self.rows])


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


def is_totally_unimodular(M: Matrix) -> TUResult:
    """Exhaustive subdeterminant scan in increasing size with early exit.

    Sizes are scanned from 2 upward (1x1 minors equal the entries, which
    are validated to lie in {0, +-1} up front). At the minimal violating
    size no row or column of the violating submatrix can have fewer than
    two nonzeros, because a Laplace expansion along such a line would
    exhibit a smaller violation; submatrices with a thin line or a
    repeated row are therefore skipped safely.
    """
    for row in M.rows:
        for x in row:
            if x not in (0, 1, -1):
                raise ValueError(f"entry {x!r} outside {{0, 1, -1}}")
    rows = M.rows
    for k in range(2, min(M.m, M.n) + 1):
        for rset in combinations(range(M.m), k):
            chosen = [rows[i] for i in rset]
            if len(set(chosen)) < k:
                continue
            for cset in combinations(range(M.n), k):
                sub = [[row[j] for j in cset] for row in chosen]
                if any(sum(1 for x in r if x) < 2 for r in sub):
                    continue
                if any(sum(1 for r in sub if r[j]) < 2 for j in range(k)):
                    continue
                d = bareiss_det(sub)
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


def _validate_zero_one(M: Matrix) -> tuple[tuple[int, ...], ...]:
    if any(x not in (0, 1) for row in M.rows for x in row):
        raise ValueError("covering systems need a 0/1 matrix")
    return M.rows


def _solve_unit_rhs(mat: list[list[int]]) -> Optional[list[Fraction]]:
    """Solve the square integer system mat * y = 1, or None if singular."""
    size = len(mat)
    aug = [row + [1] for row in mat]
    if _echelon(aug, size)[0] < size:
        return None
    return _back_substitute(aug, size)


def tight_constraints(rows: Sequence[tuple[int, ...]], coords: Sequence[Fraction]) -> tuple[int, ...]:
    m = len(rows)
    tight = [i for i, row in enumerate(rows) if sum(c for c, a in zip(coords, row) if a) == 1]
    tight += [m + j for j, c in enumerate(coords) if c == 0]
    return tuple(tight)


def enumerate_covering_vertices(A: Matrix) -> Iterator[PolyhedronVertex]:
    """Yield every vertex of Q(A) exactly once, deterministically.

    Bases are all n-subsets of the m + n constraints; each nonsingular
    tight subsystem is solved exactly and kept when feasible. Bases that
    pin more coordinates to zero are visited first, so sparse vertices
    surface early.
    """
    rows = _validate_zero_one(A)
    m, n = A.m, A.n
    seen: set[tuple[Fraction, ...]] = set()
    for zeros in range(n, -1, -1):
        size = n - zeros
        if size > m:
            continue
        for zset in combinations(range(n), zeros):
            zs = set(zset)
            live = [j for j in range(n) if j not in zs]
            reduced = [tuple(row[j] for j in live) for row in rows]
            for tset in combinations(range(m), size):
                sol = _solve_unit_rhs([list(reduced[i]) for i in tset]) if size else []
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
                if any(sum(c for c, a in zip(coords, row) if a) < 1 for row in rows):
                    continue
                seen.add(key)
                yield PolyhedronVertex(key, tight_constraints(rows, coords))


@dataclass(frozen=True)
class VertexCheck:
    feasible: bool
    tight_rows: tuple[int, ...]
    tight_rank: int
    is_vertex: bool
    is_integral: bool


def verify_vertex(A: Matrix, coords: Sequence) -> VertexCheck:
    """Re-validate a claimed vertex of Q(A) from scratch.

    Checks feasibility exactly, recomputes the full tight set and asserts
    that the tight subsystem has column rank n.
    """
    rows = _validate_zero_one(A)
    pt = [Fraction(c) for c in coords]
    if len(pt) != A.n:
        raise ValueError("coordinate count does not match column count")
    feasible = all(c >= 0 for c in pt) and all(
        sum(c for c, a in zip(pt, row) if a) >= 1 for row in rows
    )
    tight = tight_constraints(rows, pt) if feasible else ()
    tight_mat = []
    for idx in tight:
        if idx < A.m:
            tight_mat.append(list(rows[idx]))
        else:
            r = [0] * A.n
            r[idx - A.m] = 1
            tight_mat.append(r)
    rk = _echelon(tight_mat, A.n)[0]
    return VertexCheck(
        feasible=feasible,
        tight_rows=tight,
        tight_rank=rk,
        is_vertex=feasible and rk == A.n,
        is_integral=all(c.denominator == 1 for c in pt),
    )


def _pattern_vertices(supports: list[frozenset[int]], n: int) -> Optional[PolyhedronVertex]:
    """Fast search for fractional vertices that are uniform on their support.

    Points of the form (1/q on S, 0 elsewhere) cover every fractional
    certificate arising from odd cover structures. Purely an accelerator:
    hits are verified exactly and misses fall back to full enumeration.
    """
    for s in range(2, n + 1):
        for q in range(2, s + 1):
            for S in combinations(range(n), s):
                ss = set(S)
                weights = [len(sup & ss) for sup in supports]
                if any(w < q for w in weights):
                    continue
                tight = [i for i, w in enumerate(weights) if w == q]
                reduced = [[1 if j in supports[i] else 0 for j in S] for i in tight]
                if _echelon(reduced, s)[0] != s:
                    continue
                coords = tuple(Fraction(1, q) if j in ss else Fraction(0) for j in range(n))
                full_rows = [tuple(1 if j in sup else 0 for j in range(n)) for sup in supports]
                return PolyhedronVertex(coords, tight_constraints(full_rows, coords))
    return None


def is_ideal(A: Matrix) -> IdealityResult:
    """Decide whether every vertex of Q(A) is integral.

    A fractional vertex is returned as the certificate. The pattern
    pre-pass only accelerates refutations; a positive answer is always
    backed by the full exhaustive enumeration.
    """
    rows = _validate_zero_one(A)
    if A.m == 0:
        return IdealityResult(True, None)
    supports = [frozenset(j for j, a in enumerate(row) if a) for row in rows]
    hit = _pattern_vertices(supports, A.n)
    if hit is not None:
        return IdealityResult(False, hit)
    for vertex in enumerate_covering_vertices(A):
        if not vertex.is_integral:
            return IdealityResult(False, vertex)
    return IdealityResult(True, None)
