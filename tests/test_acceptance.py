"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` reports the same outcomes by test name.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from mengerian import clutters
from mengerian.classify import classify_mengerian, decide_mengerian_exact
from mengerian.clutters import Clutter, incidence_matrix, minimal_covers
from mengerian.graphs import build_path_hypergraph, make_family, parse_edge_list, relabel
from mengerian.ideals import (
    cover_degree,
    edge_ideal,
    is_normally_torsion_free,
    member_of_power,
    powers_equal,
    symbolic_power,
)
from mengerian.linalg import (
    bareiss_det,
    is_ideal,
    is_totally_unimodular,
    verify_vertex,
)
from mengerian.survey import cross_check

import oracles
from test_survey import extended

H = Fraction(1, 2)
Q = Fraction(1, 4)


def H3(name, *params):
    return build_path_hypergraph(make_family(name, list(params)))


def covering_vertices(c):
    return sorted(coords for coords, _ in oracles.covering_vertices_scan(c.n, c.edges))


def alternating_halves(k):
    return tuple(H if i % 2 == 0 else Fraction(0) for i in range(k))


@pytest.fixture(scope="module")
def survey6():
    return cross_check(6)


def test_criterion_1_c8_fixture():
    start = time.time()
    c = H3("cycle", 8)
    J = edge_ideal(c)
    assert len(J.gens) == 8

    published_covers = sorted(
        [tuple(sorted(x - 1 for x in t)) for t in
         [(5, 1), (6, 2), (7, 3), (8, 4),
          (6, 3, 1), (6, 4, 1), (7, 4, 1), (7, 4, 2),
          (7, 5, 2), (8, 5, 2), (8, 5, 3), (8, 6, 3)]],
        key=lambda t: (len(t), t))
    assert list(minimal_covers(c)) == published_covers

    for k in (2, 3, 4):
        assert powers_equal(c, k) is None

    ntf = is_normally_torsion_free(c)
    assert ntf.normally_torsion_free
    assert ntf.bound == 4 and ntf.checked_k == (2, 3, 4)

    elapsed = time.time() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 1 PASS: C8 fixture (mu=8, 12 covers, powers equal k<=4, "
          f"NTF bound 4) in {elapsed:.1f}s")


def test_criterion_2_tu_suite():
    start = time.time()
    cases = []
    cases += [("path", [k]) for k in range(4, 10)]
    cases += [("star", [k]) for k in range(3, 7)]
    cases += [("double_star", [p, q]) for p in range(1, 6) for q in range(p, 6)
              if p + q + 2 <= 8]
    cases += [("star_plus_edge", [k]) for k in range(4, 8)]
    for name, params in cases:
        res = is_totally_unimodular(H3(name, *params))
        assert res.totally_unimodular, (name, params)
    print(f"ACCEPTANCE 2 PASS: {len(cases)} tree/star matrices totally unimodular "
          f"in {time.time() - start:.1f}s")


def test_criterion_3_negative_certificates():
    start = time.time()
    # odd cycles: the uniform quarter vector is a vertex
    for k in (5, 7):
        c = H3("cycle", k)
        res = is_ideal(c)
        assert not res.ideal
        assert verify_vertex(c, res.certificate.coords).is_vertex
        quarter = (Q,) * k
        assert verify_vertex(c, quarter).is_vertex
        assert quarter in covering_vertices(c)

    # k = 2 mod 4: alternating halves; verify_vertex certifies them exactly,
    # and C6's vertex list is checked to contain them (C10's, which takes
    # about 9 s to enumerate, in the extended test below)
    for k in (6, 10):
        c = H3("cycle", k)
        res = is_ideal(c)
        assert not res.ideal
        assert verify_vertex(c, res.certificate.coords).is_vertex
        chk = verify_vertex(c, alternating_halves(k))
        assert chk.is_vertex and chk.tight_rank == k
    assert alternating_halves(6) in covering_vertices(H3("cycle", 6))

    # k = 0 mod 4, k >= 12: the sparser half pattern, at least 12 tight rows
    c12 = H3("cycle", 12)
    pattern12 = tuple(H * x for x in (1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0))
    chk12 = verify_vertex(c12, pattern12)
    assert chk12.is_vertex
    assert len(chk12.tight_rows) >= 12 and chk12.tight_rank == 12
    assert not chk12.is_integral
    res12 = is_ideal(c12)
    assert not res12.ideal
    assert verify_vertex(c12, res12.certificate.coords).is_vertex

    # the six-vertex tree (five-path with a middle pendant)
    tree = parse_edge_list("1 2\n2 3\n3 4\n4 5\n3 6")
    c = build_path_hypergraph(tree)
    res = is_ideal(c)
    assert not res.ideal
    # The half/zero certificate lives on the parity class {x2, x4, x6}: the
    # two leaf-adjacent path vertices plus the pendant. The mirrored
    # assignment with halves on {x1, x3, x5} is feasible but its tight
    # system only reaches rank 5, so it is no vertex; the published figure
    # swaps the two classes.
    vertex = (Fraction(0), H, Fraction(0), H, Fraction(0), H)
    chk = verify_vertex(c, vertex)
    assert chk.is_vertex and not chk.is_integral
    assert res.certificate.coords == vertex
    mirrored = (H, Fraction(0), H, Fraction(0), H, Fraction(0))
    mchk = verify_vertex(c, mirrored)
    assert mchk.feasible and not mchk.is_vertex and mchk.tight_rank == 5
    assert vertex in covering_vertices(c)

    print(f"ACCEPTANCE 3 PASS: fractional certificates for C5 C7 C6 C10 C12 and "
          f"the pendant tree verified exactly in {time.time() - start:.1f}s "
          f"(tree certificate on the leaf-adjacent parity class)")


@extended
def test_criterion_3_c10_alternating_halves_enumerated():
    c10 = H3("cycle", 10)
    assert alternating_halves(10) in covering_vertices(c10)


def test_criterion_4_determinants():
    start = time.time()
    for k in (5, 7, 9):
        A = incidence_matrix(H3("cycle", k))
        assert len(A) == k and all(len(row) == k for row in A)
        assert oracles.cofactor_det(A) == 4
        assert bareiss_det(A) == 4
    A8 = incidence_matrix(H3("cycle", 8))
    assert oracles.cofactor_det(A8) == 0
    assert bareiss_det(A8) == 0
    print(f"ACCEPTANCE 4 PASS: window circulant determinants 4,4,4,0 for "
          f"k=5,7,9,8 (cofactor oracle agrees) in {time.time() - start:.1f}s")


def test_criterion_5_classifier_cross_check(survey6):
    assert survey6.counters["total"] == 139
    assert survey6.mismatches == []
    assert survey6.incomplete == []
    assert survey6.counters["mengerian_per_n"] == {"4": 6, "5": 4, "6": 6}
    again = cross_check(6)
    assert json.dumps(survey6.to_json_dict(), sort_keys=True) == \
        json.dumps(again.to_json_dict(), sort_keys=True)
    print("ACCEPTANCE 5 PASS: 139 connected classes (n=4..6), zero classifier/"
          "pipeline mismatches, Mengerian counts 6/4/6 stable across runs")


def test_criterion_5_extended_n7():
    start = time.time()
    rep = cross_check(7, n_min=7)
    assert rep.counters["total"] == 853
    assert rep.mismatches == [] and rep.incomplete == []
    assert rep.dichotomy_exceptions == []
    elapsed = time.time() - start
    assert elapsed < 1800
    print(f"ACCEPTANCE 5 (extended) PASS: 853 classes at n=7, zero mismatches, "
          f"no dichotomy exception, {elapsed:.1f}s")


def test_criterion_6_dichotomy_audit(survey6):
    assert survey6.dichotomy_exceptions == []
    rep = decide_mengerian_exact(make_family("cycle", [8]))
    assert not rep.tu.totally_unimodular
    assert rep.ideal.ideal
    assert rep.mengerian
    print("ACCEPTANCE 6 PASS: every surveyed instance is TU or non-ideal; the "
          "single exception over the corpus plus C8 is C8 itself (ideal, "
          "non-TU, Mengerian)")


def test_criterion_7_conjecture_consistency(survey6):
    assert survey6.conjecture_violations == []
    computed = [row for row in survey6.rows
                if row.report is not None and row.report.packing is not None]
    assert len(computed) == 139  # packing computed everywhere at n <= 6
    for row in computed:
        assert row.report.packing == row.report.mengerian
    print(f"ACCEPTANCE 7 PASS: packing equals the Mengerian verdict on all "
          f"{len(computed)} instances with packing computed")


def test_criterion_8_property_suites(survey6):
    start = time.time()
    rng = random.Random(20260808)

    # weak duality on 500 random (clutter, cost) pairs: the oracle's packing
    # maximum, and no k above the weighted cover minimum with x^cost in I^k
    pairs = 0
    while pairs < 500:
        n = rng.randint(2, 7)
        c = Clutter(n, oracles.random_clutter(rng, n))
        cost = tuple(rng.randint(0, 3) for _ in range(n))
        mp = oracles.packing_scan(c.edges, cost)
        wc = cover_degree(cost, minimal_covers(c))
        assert mp <= wc
        if wc:
            assert not member_of_power(cost, edge_ideal(c), wc + 1)
        if c.edges:
            assert clutters.nu(c) <= clutters.tau(c)
        pairs += 1

    # ordinary power inside symbolic power on all computed pairs
    corpus = [H3("cycle", 5), H3("cycle", 6), H3("cycle", 7), H3("cycle", 8),
              H3("path", 5), H3("path", 6), H3("star_plus_edge", 4),
              H3("spider", 2, 2, 1),
              build_path_hypergraph(parse_edge_list("1 2\n2 3\n3 4\n4 5\n3 6"))]
    for c in corpus:
        J = edge_ideal(c)
        covers = minimal_covers(c)
        for k in (2, 3):
            for g in oracles.minimal_gens(oracles.power_products(J.gens, k)):
                assert oracles.symbolic_member_scan(g, covers, k)

    # the symbolic power agrees with the prime-intersection oracle on every
    # corpus clutter (n <= 8)
    for c in corpus:
        for k in (1, 2, 3):
            assert symbolic_power(c, k).gens == oracles.symbolic_power_scan(c.n, c.edges, k)

    # TU implies ideal across the survey corpus and the family fixtures;
    # is_ideal itself answers TU clutters from the scan, so the vertices
    # are enumerated here
    tu_instances = 0
    for row in survey6.rows:
        rep = row.report
        if rep.tu.totally_unimodular and not rep.hypergraph.is_empty:
            c = rep.hypergraph
            for coords, _ in oracles.covering_vertices_scan(c.n, c.edges):
                assert all(x.denominator == 1 for x in coords), coords
            tu_instances += 1
    assert tu_instances > 0

    # classifier invariance under 100 random relabelings
    base_graphs = [make_family("cycle", [8]), make_family("cycle", [6]),
                   make_family("spider", [2, 2, 1]), make_family("star_plus_edge", [4]),
                   make_family("double_star", [2, 2])]
    done = 0
    while done < 100:
        g = base_graphs[done % len(base_graphs)]
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert classify_mengerian(relabel(g, perm)) == classify_mengerian(g)
        done += 1

    print(f"ACCEPTANCE 8 PASS: weak duality x500, power containment, symbolic "
          f"route agreement, TU=>ideal on {tu_instances} TU instances, classifier "
          f"invariance x100 in {time.time() - start:.1f}s")
