import random
from fractions import Fraction

import pytest

from mengerian import linalg
from mengerian.clutters import Clutter, incidence_matrix
from mengerian.graphs import build_path_hypergraph, make_family
from mengerian.linalg import (
    _echelon,
    _solve_unit_rhs,
    bareiss_det,
    enumerate_covering_vertices,
    is_ideal,
    is_totally_unimodular,
    verify_vertex,
)
from mengerian.survey import enumerate_connected

from oracles import (
    cofactor_det,
    ghouila_houri_check,
    random_clutter,
    rank_scan,
    tu_witness_scan,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)


def h3(name, *params):
    return build_path_hypergraph(make_family(name, list(params)))


def det(rows):
    return bareiss_det([list(r) for r in rows])


def covering_vertices(c):
    return sorted(enumerate_covering_vertices(c), key=lambda v: v.coords)


def rank(rows, n):
    return _echelon([list(r) for r in rows], n)[0]


# --- determinants and rank -------------------------------------------------------

def test_det_identity():
    assert det([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 1


def test_det_window_circulants():
    assert det(incidence_matrix(h3("cycle", 5))) == 4
    assert det(incidence_matrix(h3("cycle", 7))) == 4
    assert det(incidence_matrix(h3("cycle", 9))) == 4
    assert det(incidence_matrix(h3("cycle", 8))) == 0


def test_det_c8_against_cofactor_oracle():
    assert cofactor_det(incidence_matrix(h3("cycle", 8))) == 0
    assert cofactor_det(incidence_matrix(h3("cycle", 5))) == 4


def test_det_random_int_matrices_against_cofactor():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det(rows) == cofactor_det(rows)


def test_det_row_swap_changes_sign():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        swapped = [rows[1], rows[0]] + rows[2:]
        assert det(rows) == -det(swapped)


def test_rank():
    assert rank([], 4) == 0
    assert rank(incidence_matrix(h3("cycle", 5)), 5) == 5
    assert rank(incidence_matrix(h3("cycle", 8)), 8) == 5
    assert rank([[1, 1], [2, 2]], 2) == 1


def test_rank_permutation_invariant():
    rng = random.Random(53)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rperm = list(range(m)); rng.shuffle(rperm)
        cperm = list(range(n)); rng.shuffle(cperm)
        permuted = [[rows[i][j] for j in cperm] for i in rperm]
        assert rank(permuted, n) == rank(rows, n)


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
    assert is_totally_unimodular(h3("path", 6)).totally_unimodular
    assert is_totally_unimodular(Clutter(4, ((0, 1, 2, 3),))).totally_unimodular


def test_tu_c8_fails_with_witness():
    c = h3("cycle", 8)
    res = is_totally_unimodular(c)
    assert not res.totally_unimodular
    w = res.witness
    A = incidence_matrix(c)
    assert det([[A[i][j] for j in w.cols] for i in w.rows]) == w.det
    assert w.det not in (-1, 0, 1)


def test_tu_scan_calls_module_bareiss_det(monkeypatch):
    # the benchmark counts subdeterminants by wrapping this module attribute
    calls = []

    def counting(a):
        calls.append(len(a))
        return bareiss_det(a)

    monkeypatch.setattr(linalg, "bareiss_det", counting)
    res = is_totally_unimodular(h3("cycle", 8))
    assert not res.totally_unimodular
    assert calls and calls[-1] == len(res.witness.rows)


def test_tu_interval_matrix():
    # windows of one length form an antichain; interval matrices are TU
    for width in range(1, 7):
        windows = tuple(tuple(range(a, a + width)) for a in range(7 - width))
        assert is_totally_unimodular(Clutter(6, windows)).totally_unimodular


def test_tu_against_ghouila_houri():
    rng = random.Random(47)
    agree = {True: 0, False: 0}
    for _ in range(120):
        n = rng.randint(2, 5)
        c = Clutter(n, random_clutter(rng, n))
        if c.is_empty:
            continue
        verdict = is_totally_unimodular(c).totally_unimodular
        assert verdict == ghouila_houri_check(incidence_matrix(c))
        agree[verdict] += 1
    assert agree[True] and agree[False]


def test_tu_witness_matches_unpruned_scan():
    # the pruned scan must return the first violating submatrix in
    # (size, rows, cols) order, exactly as the unpruned scan finds it; the
    # n = 6 classes are the cases where a violating row set has several
    # violating column sets, so a change of column order shows
    rng = random.Random(61)
    cases = [Clutter(n, random_clutter(rng, n)) for n in (rng.randint(2, 5) for _ in range(300))]
    cases += [build_path_hypergraph(g) for n in range(1, 7) for g in enumerate_connected(n)]
    refuted = 0
    for c in cases:
        res = is_totally_unimodular(c)
        expected = tu_witness_scan(incidence_matrix(c))
        w = res.witness
        assert (None if w is None else (w.rows, w.cols, w.det)) == expected
        assert res.totally_unimodular == (expected is None)
        refuted += expected is not None
    assert refuted >= 20


# --- covering polyhedron -----------------------------------------------------------

def test_vertices_single_all_ones_row():
    verts = covering_vertices(Clutter(4, ((0, 1, 2, 3),)))
    coords = {v.coords for v in verts}
    unit = lambda i: tuple(Fraction(int(i == j)) for j in range(4))
    assert coords == {unit(i) for i in range(4)}


def test_vertices_c5_contains_quarter_vector():
    verts = covering_vertices(h3("cycle", 5))
    assert (Q, Q, Q, Q, Q) in {v.coords for v in verts}


def test_vertices_c6_contains_alternating_halves():
    target = (H, 0, H, 0, H, 0)
    coords = {v.coords for v in covering_vertices(h3("cycle", 6))}
    assert tuple(Fraction(x) for x in target) in coords


def test_every_vertex_is_certified():
    for name, k in [("cycle", 5), ("cycle", 6), ("path", 6)]:
        c = h3(name, k)
        for v in enumerate_covering_vertices(c):
            chk = verify_vertex(c, v.coords)
            assert chk.is_vertex
            assert chk.tight_rows == v.tight_rows
            assert chk.tight_rank >= c.n


def test_vertex_dedupe():
    verts = covering_vertices(h3("cycle", 6))
    assert len({v.coords for v in verts}) == len(verts)


def test_verify_vertex_rejects_interior_point():
    chk = verify_vertex(h3("cycle", 5), (H, H, H, H, H))
    assert chk.feasible and not chk.is_vertex


# --- idealness -------------------------------------------------------------------------

def test_ideal_c8_true():
    assert is_ideal(h3("cycle", 8)).ideal


def test_ideal_c5_false_with_fractional_certificate():
    res = is_ideal(h3("cycle", 5))
    assert not res.ideal
    cert = res.certificate
    assert any(x.denominator > 1 for x in cert.coords)
    assert verify_vertex(h3("cycle", 5), cert.coords).is_vertex


def test_ideal_p5_true():
    assert is_ideal(h3("path", 5)).ideal


def test_ideal_empty_matrix_true():
    assert is_ideal(Clutter(4, ())).ideal


def test_ideal_pattern_prepass_agrees_with_enumeration():
    for name, k in [("cycle", 5), ("cycle", 6), ("cycle", 7), ("path", 6), ("cycle", 8)]:
        c = h3(name, k)
        res = is_ideal(c)
        fractional = [v for v in enumerate_covering_vertices(c) if not v.is_integral]
        assert res.ideal == (not fractional)
        if res.certificate is not None:
            assert verify_vertex(c, res.certificate.coords).is_vertex
