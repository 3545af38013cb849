import os
import random
from collections import Counter
from fractions import Fraction
from itertools import takewhile

import pytest

from mengerian import linalg
from mengerian.clutters import Clutter, incidence_matrix
from mengerian.graphs import build_path_hypergraph, make_family
from mengerian.linalg import (
    PolyhedronVertex,
    _back_substitute,
    _echelon,
    _fractional_vertex,
    _pattern_vertices,
    bareiss_det,
    is_ideal,
    is_totally_unimodular,
    verify_vertex,
)
from mengerian.classify import decide_mengerian_exact, verify_report_dict
from mengerian.survey import enumerate_connected

from oracles import (
    cofactor_det,
    covering_vertices_scan,
    ghouila_houri_check,
    pattern_vertex_hits,
    pattern_vertex_scan,
    random_clutter,
    rank_scan,
    tu_witness_scan,
    vertex_witness_scan,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)

extended = pytest.mark.skipif(not os.environ.get("MENGERIAN_EXTENDED"),
                              reason="extended run; set MENGERIAN_EXTENDED=1")


def h3(name, *params):
    return build_path_hypergraph(make_family(name, list(params)))


def det(rows):
    return bareiss_det([list(r) for r in rows])


def vertices(c):
    """Every vertex of Q(A), lazily, in the oracle's basis order."""
    return (PolyhedronVertex(*v) for v in covering_vertices_scan(c.n, c.edges))


def covering_vertices(c):
    return sorted(vertices(c), key=lambda v: v.coords)


def integral(v):
    return all(x.denominator == 1 for x in v.coords)


def first_fractional(c):
    return next((u for u in vertices(c) if not integral(u)), None)


def vertex_of(hit):
    """The vertex of a search's (vertex, basis) hit, or None on a miss."""
    return None if hit is None else hit[0]


def solve_unit_rhs(rows):
    """Solve rows * y = 1 the way the basis search does, or None if singular."""
    size = len(rows)
    aug = [list(r) + [1] for r in rows]
    if _echelon(aug, size)[0] < size:
        return None
    return _back_substitute(aug, size)


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
    assert solve_unit_rhs([[1, 0], [0, 2]]) == [1, H]


def test_solve_five_vertex_tight_system():
    # x4 = x5 = 0 pinned and dropped, as the basis search does;
    # left: x1+x2 = 1, x1+x3 = 1, x2+x3 = 1
    assert solve_unit_rhs([[1, 1, 0], [1, 0, 1], [0, 1, 1]]) == [H, H, H]


def test_solve_inconsistent_is_none():
    assert solve_unit_rhs([[1, 1], [2, 2]]) is None


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
        y = solve_unit_rhs(square)
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
        for v in vertices(c):
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
    res = is_ideal(h3("cycle", 8))
    assert res.ideal and res.certificate is None


def test_ideal_c5_false_with_fractional_certificate():
    res = is_ideal(h3("cycle", 5))
    assert not res.ideal
    cert = res.certificate
    assert any(x.denominator > 1 for x in cert.coords)
    assert verify_vertex(h3("cycle", 5), cert.coords).is_vertex


def test_ideal_p5_true():
    assert is_ideal(h3("path", 5)).ideal


def test_ideal_empty_matrix_true():
    res = is_ideal(Clutter(4, ()))
    assert res.ideal and res.tu == linalg.TUResult(True, None)


def test_ideal_pattern_prepass_agrees_with_enumeration():
    for name, k in [("cycle", 5), ("cycle", 6), ("cycle", 7), ("path", 6), ("cycle", 8)]:
        c = h3(name, k)
        res = is_ideal(c)
        fractional = [v for v in vertices(c) if not integral(v)]
        assert res.ideal == (not fractional)
        if res.certificate is not None:
            assert verify_vertex(c, res.certificate.coords).is_vertex


def test_fractional_vertex_matches_scan():
    # The basis search returns the oracle's first fractional vertex, tight
    # rows included, with the greedy basis of its tight rows. The random
    # draws are kept where is_ideal reaches the search: the pattern
    # pre-pass misses them and the TU scan refutes them.
    rng = random.Random(7)
    drawn = [Clutter(n, random_clutter(rng, n)) for n in (rng.randint(3, 7) for _ in range(3000))]
    cases = [c for c in drawn if not c.is_empty and _pattern_vertices(c) is None
             and not is_totally_unimodular(c).totally_unimodular]
    cases += [h3("cycle", k) for k in (5, 6, 7)]
    fractional = 0
    # H_3(C8) is ideal and not TU: the search runs to the end and finds none
    for c in cases + [h3("cycle", 8)]:
        hit = _fractional_vertex(c)
        assert vertex_of(hit) == first_fractional(c), c.edges
        if hit is not None:
            assert hit[1] == vertex_witness_scan(c.n, c.edges, hit[0].coords)[0], c.edges
        fractional += hit is not None
    assert (sum(not c.is_empty for c in drawn), len(cases), fractional) == (2683, 89, 85)


def test_fractional_vertex_matches_scan_at_n8():
    # The search runs per zero set over the rows of the contraction minor;
    # on eight vertices with at most ten edges its first hit, or None, is
    # still the first fractional vertex in the oracle's basis order.
    rng = random.Random(61)
    cases = [Clutter(8, random_clutter(rng, 8)[:10]) for _ in range(130)]
    cases = [c for c in cases if not c.is_empty]
    fractional = 0
    for c in cases:
        v = vertex_of(_fractional_vertex(c))
        assert v == first_fractional(c), c.edges
        fractional += v is not None
    assert (len(cases), fractional) == (123, 32)


def test_fractional_vertex_work_bound_on_c8(monkeypatch):
    # H_3(C8) is ideal and not TU, so its basis search runs to the end. Over
    # the contraction minors it eliminates 23 blocks; trying every basis took 12,869.
    calls = []

    def counting(a, ncols):
        calls.append(ncols)
        return _echelon(a, ncols)

    monkeypatch.setattr(linalg, "_echelon", counting)
    assert _fractional_vertex(h3("cycle", 8)) is None
    assert 0 < len(calls) <= 50, len(calls)


def prepass(c):
    v = vertex_of(_pattern_vertices(c))
    return None if v is None else (v.coords, v.tight_rows)


@pytest.mark.parametrize("ns", [range(2, 8), pytest.param(range(8, 9), marks=extended)],
                         ids=["n<=7", "n=8"])
def test_pattern_prepass_matches_scan_on_every_class(ns):
    checked = 0
    for n in ns:
        for g in enumerate_connected(n):
            c = build_path_hypergraph(g)
            if not c.is_empty:
                assert prepass(c) == pattern_vertex_scan(c.n, c.edges), g.edges
                checked += 1
    assert checked == {7: 988, 8: 11116}[ns[-1]]


def test_pattern_prepass_matches_scan_on_random_clutters():
    # The default draws give misses and ties (a later support of the same
    # size and q is a hit too); 3-uniform clutters on six vertices give the
    # hits at q >= 3 that the one-pass search keeps until the size runs out.
    rng = random.Random(97)
    cases = [Clutter(n, random_clutter(rng, n)) for n in (rng.randint(2, 7) for _ in range(300))]
    cases += [Clutter(6, random_clutter(rng, 6, sizes=(3,))) for _ in range(400)]
    seen = Counter()
    for c in cases:
        assert prepass(c) == pattern_vertex_scan(c.n, c.edges), c.edges
        hits = pattern_vertex_hits(c.n, c.edges)
        first = next(hits, None)
        if first is None:
            seen["miss"] += 1
            continue
        q, S = first
        seen["q>=3"] += q >= 3
        seen["tie"] += any(h[0] == q for h in takewhile(lambda h: len(h[1]) == len(S), hits))
    assert min(seen[k] for k in ("miss", "tie", "q>=3")) >= 1, seen


def test_pattern_prepass_c7_counts_weights_row_by_row():
    # every edge of H_3(C7) meets the whole vertex set four times, so
    # thrice == full and the all-1/4 vertex comes from the per-row count
    assert _pattern_vertices(h3("cycle", 7)) == (PolyhedronVertex((Q,) * 7, tuple(range(7))),
                                                 tuple(range(7)))


def test_ideal_tu_branch_agrees_with_enumeration():
    # is_ideal answers TU clutters from the scan alone; plain enumeration
    # must give the same verdict on every class with n <= 6, on C8 (ideal,
    # not TU) and on random clutters. A refutation's certificate is checked
    # to be a fractional vertex, which the enumeration yields, so plain
    # enumeration runs in full only where is_ideal answers ideal. The TU
    # verdict is_ideal carries must be the scan's.
    rng = random.Random(83)
    cases = [build_path_hypergraph(g) for n in range(1, 7) for g in enumerate_connected(n)]
    cases += [h3("cycle", 8)]
    cases += [Clutter(n, random_clutter(rng, n)) for n in (rng.randint(2, 7) for _ in range(600))]
    seen = {(True, True): 0, (True, False): 0, (False, False): 0}
    for c in cases:
        res = is_ideal(c)
        if res.ideal:
            assert all(integral(v) for v in vertices(c))
        else:
            assert verify_vertex(c, res.certificate.coords).is_vertex
            assert not integral(res.certificate)
            w = res.tu.witness
            assert (w.rows, w.cols, w.det) == vertex_witness_scan(c.n, c.edges,
                                                                  res.certificate.coords)
        tu = is_totally_unimodular(c).totally_unimodular
        assert res.tu.totally_unimodular == tu
        seen[res.ideal, tu] += 1
    assert all(seen.values()), seen


# --- TU witnesses read off the basis of a fractional vertex -----------------------

def witness_cases(kind):
    if kind == "H_3 n<=7":
        return [build_path_hypergraph(g) for n in range(1, 8) for g in enumerate_connected(n)]
    if kind == "H_2 and H_4 n=7":
        return [build_path_hypergraph(g, t) for g in enumerate_connected(7) for t in (2, 4)]
    rng = random.Random(5)
    return [Clutter(n, random_clutter(rng, n)) for n in (rng.randint(2, 8) for _ in range(3000))]


@pytest.mark.parametrize("kind,counts", [("H_3 n<=7", (968, 0)), ("H_2 and H_4 n=7", (1683, 0)),
                                         ("random", (239, 97))], ids=["H_3", "H_2 H_4", "random"])
def test_ideal_witness_is_the_greedy_basis(kind, counts):
    # The TU witness of a non-ideal clutter is read off the basis that its
    # vertex search returns; it must be the square block that the
    # row-by-row greedy over the vertex's tight rows gives. No graph input
    # reaches the basis search, so the random draws carry those hits.
    refuted = searched = 0
    for c in witness_cases(kind):
        res = is_ideal(c)
        if res.ideal:
            continue
        w = res.tu.witness
        assert (w.rows, w.cols, w.det) == vertex_witness_scan(c.n, c.edges,
                                                              res.certificate.coords), c.edges
        refuted += 1
        searched += _pattern_vertices(c) is None
    assert (refuted, searched) == counts


def test_vertex_witness_on_every_fractional_vertex():
    # The greedy reference the witness is compared with: on every
    # fractional vertex, uniform or not, its block is square on the support,
    # drawn from the tight covering rows, and has |det| >= 2 (Cramer's rule).
    rng = random.Random(89)
    fractional = non_uniform = 0
    for _ in range(1000):
        n = rng.randint(3, 7)
        c = Clutter(n, random_clutter(rng, n))
        A = incidence_matrix(c)
        for v in vertices(c):
            if integral(v):
                continue
            rows, cols, d = vertex_witness_scan(c.n, c.edges, v.coords)
            assert len(rows) == len(cols)
            assert cols == tuple(j for j, x in enumerate(v.coords) if x)
            assert set(rows) <= {i for i in v.tight_rows if i < c.m}
            assert det([[A[i][j] for j in cols] for i in rows]) == d and abs(d) >= 2
            fractional += 1
            non_uniform += len({x for x in v.coords if x}) > 1
    assert fractional >= 100 and non_uniform >= 30, (fractional, non_uniform)


def test_vertex_witness_refuses_integral_vertex(monkeypatch):
    # a basis whose block has |det| = 1 solves to an integral point, so it
    # certifies no fractional vertex, and is_ideal raises instead of
    # returning a witness
    c = h3("cycle", 5)
    first = next(v for v in vertices(c) if integral(v))
    basis = vertex_witness_scan(c.n, c.edges, first.coords)[0]
    monkeypatch.setattr(linalg, "_pattern_vertices", lambda c: (first, basis))
    with pytest.raises(ArithmeticError):
        is_ideal(c)


def test_decide_witnesses_of_non_ideal_classes_verify():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            rep = decide_mengerian_exact(g)
            if rep.trace != "NON_IDEAL":
                continue
            assert rep.tu.witness is not None and abs(rep.tu.witness.det) >= 2
            results = verify_report_dict(rep.to_json_dict())
            assert {name for name, ok, _ in results if ok} >= {"tu_witness", "fractional_vertex"}
            assert all(ok for _, ok, _ in results)
            checked += 1
    assert checked == 123
