import random
from fractions import Fraction

import pytest

from mengerian.clutters import incidence_matrix
from mengerian.graphs import build_path_hypergraph, make_family
from mengerian.linalg import (
    Matrix,
    _echelon,
    _solve_unit_rhs,
    enumerate_covering_vertices,
    is_ideal,
    is_totally_unimodular,
    verify_vertex,
)

from oracles import cofactor_det, ghouila_houri_check, rank_scan

H = Fraction(1, 2)
Q = Fraction(1, 4)


def incidence_of(name, *params):
    return incidence_matrix(build_path_hypergraph(make_family(name, list(params))))


def covering_vertices(A):
    return sorted(enumerate_covering_vertices(A), key=lambda v: v.coords)


def rank(M):
    return _echelon([list(r) for r in M.rows], M.n)[0]


# --- matrix basics -----------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    assert Matrix([], n=3).m == 0


def test_det_identity():
    assert Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).det() == 1


def test_det_requires_square():
    with pytest.raises(ValueError, match="square"):
        Matrix([[1, 0, 1]]).det()


def test_det_window_circulants():
    assert incidence_of("cycle", 5).det() == 4
    assert incidence_of("cycle", 7).det() == 4
    assert incidence_of("cycle", 9).det() == 4
    assert incidence_of("cycle", 8).det() == 0


def test_det_c8_against_cofactor_oracle():
    A = incidence_of("cycle", 8)
    assert cofactor_det([list(r) for r in A.rows]) == 0
    A5 = incidence_of("cycle", 5)
    assert cofactor_det([list(r) for r in A5.rows]) == 4


def test_det_random_int_matrices_against_cofactor():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert Matrix(rows).det() == cofactor_det(rows)


def test_det_rational_entries():
    # matrices hold integers only; rationals appear only as vertex coordinates
    with pytest.raises(TypeError, match="integers"):
        Matrix([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])


def test_det_row_swap_changes_sign():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        swapped = [rows[1], rows[0]] + rows[2:]
        assert Matrix(rows).det() == -Matrix(swapped).det()


def test_rank():
    assert rank(Matrix([], n=4)) == 0
    assert rank(incidence_of("cycle", 5)) == 5
    assert rank(incidence_of("cycle", 8)) == 5
    assert rank(Matrix([[1, 1], [2, 2]])) == 1


def test_rank_permutation_invariant():
    rng = random.Random(53)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        M = Matrix(rows)
        rperm = list(range(m)); rng.shuffle(rperm)
        cperm = list(range(n)); rng.shuffle(cperm)
        P = Matrix([[rows[i][j] for j in cperm] for i in rperm])
        assert rank(P) == rank(M)


def test_solve_identity():
    assert _solve_unit_rhs([[1, 0], [0, 2]]) == [1, H]


def test_solve_five_vertex_tight_system():
    # x4 = x5 = 0 pinned and dropped, as the vertex enumeration does;
    # left: x1+x2 = 1, x1+x3 = 1, x2+x3 = 1
    assert _solve_unit_rhs([[1, 1, 0], [1, 0, 1], [0, 1, 1]]) == [H, H, H]


def test_solve_inconsistent_is_none():
    assert _solve_unit_rhs([[1, 1], [2, 2]]) is None


def random_entries(rng, m, n):
    """Small integer rows; about one in three is a combination of earlier
    rows, so rank-deficient matrices come up often."""
    rows = []
    for _ in range(m):
        if len(rows) >= 2 and rng.random() < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(n)])
    return rows


def test_rank_and_solve_against_oracles():
    rng = random.Random(71)
    deficient = singular = unique = 0
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_entries(rng, m, n)
        r = rank_scan(rows)
        assert _echelon([list(row) for row in rows], n)[0] == r
        deficient += r < min(m, n)
        # the leading square block against the unit right-hand side
        k = min(m, n)
        square = [row[:k] for row in rows[:k]]
        y = _solve_unit_rhs(square)
        if cofactor_det(square) == 0:
            assert y is None
            singular += 1
        else:
            assert [sum(a * v for a, v in zip(row, y)) for row in square] == [1] * k
            unique += 1
    assert deficient > 0 and singular > 0 and unique > 0


# --- total unimodularity ---------------------------------------------------------

def test_tu_path_and_single_row():
    assert is_totally_unimodular(incidence_of("path", 6)).totally_unimodular
    assert is_totally_unimodular(Matrix([[1, 1, 1, 1]])).totally_unimodular


def test_tu_c8_fails_with_witness():
    A = incidence_of("cycle", 8)
    res = is_totally_unimodular(A)
    assert not res.totally_unimodular
    w = res.witness
    sub = A.submatrix(w.rows, w.cols)
    assert sub.det() == w.det and w.det not in (-1, 0, 1)


def test_tu_entry_validation():
    with pytest.raises(ValueError):
        is_totally_unimodular(Matrix([[2, 0], [0, 1]]))


def test_tu_interval_matrix():
    rows = [[1 if a <= j < b else 0 for j in range(6)]
            for a in range(6) for b in range(a + 1, 7)]
    assert is_totally_unimodular(Matrix(rows)).totally_unimodular


def test_tu_against_ghouila_houri():
    rng = random.Random(47)
    agree = {True: 0, False: 0}
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = Matrix([[rng.choice((0, 1, -1)) for _ in range(n)] for _ in range(m)])
        verdict = is_totally_unimodular(M).totally_unimodular
        assert verdict == ghouila_houri_check(M.rows)
        agree[verdict] += 1
    assert agree[True] and agree[False]


# --- covering polyhedron -----------------------------------------------------------

def test_vertices_single_all_ones_row():
    verts = covering_vertices(Matrix([[1, 1, 1, 1]]))
    coords = {v.coords for v in verts}
    unit = lambda i: tuple(Fraction(int(i == j)) for j in range(4))
    assert coords == {unit(i) for i in range(4)}


def test_vertices_c5_contains_quarter_vector():
    A = incidence_of("cycle", 5)
    verts = covering_vertices(A)
    assert (Q, Q, Q, Q, Q) in {v.coords for v in verts}


def test_vertices_c6_contains_alternating_halves():
    A = incidence_of("cycle", 6)
    target = (H, 0, H, 0, H, 0)
    coords = {v.coords for v in covering_vertices(A)}
    assert tuple(Fraction(x) for x in target) in coords


def test_every_vertex_is_certified():
    for name, params in [("cycle", [5]), ("cycle", [6]), ("path", [6])]:
        A = incidence_of(name, params[0])
        for v in enumerate_covering_vertices(A):
            chk = verify_vertex(A, v.coords)
            assert chk.is_vertex
            assert chk.tight_rows == v.tight_rows
            assert chk.tight_rank >= A.n


def test_vertex_dedupe():
    A = incidence_of("cycle", 6)
    verts = covering_vertices(A)
    assert len({v.coords for v in verts}) == len(verts)


def test_verify_vertex_rejects_interior_point():
    A = incidence_of("cycle", 5)
    chk = verify_vertex(A, (H, H, H, H, H))
    assert chk.feasible and not chk.is_vertex


# --- idealness -------------------------------------------------------------------------

def test_ideal_c8_true():
    assert is_ideal(incidence_of("cycle", 8)).ideal


def test_ideal_c5_false_with_fractional_certificate():
    res = is_ideal(incidence_of("cycle", 5))
    assert not res.ideal
    cert = res.certificate
    assert any(x.denominator > 1 for x in cert.coords)
    chk = verify_vertex(incidence_of("cycle", 5), cert.coords)
    assert chk.is_vertex


def test_ideal_p5_true():
    assert is_ideal(incidence_of("path", 5)).ideal


def test_ideal_empty_matrix_true():
    assert is_ideal(Matrix([], n=4)).ideal


def test_ideal_pattern_prepass_agrees_with_enumeration():
    for name, k in [("cycle", 5), ("cycle", 6), ("cycle", 7), ("path", 6), ("cycle", 8)]:
        A = incidence_of(name, k)
        res = is_ideal(A)
        fractional = [v for v in enumerate_covering_vertices(A) if not v.is_integral]
        assert res.ideal == (not fractional)
        if res.certificate is not None:
            assert verify_vertex(A, res.certificate.coords).is_vertex
