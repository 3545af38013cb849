import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from mengerian import clutters, graphs, ideals, linalg
from mengerian.classify import (
    Caps,
    CapExceeded,
    capped_hypergraph,
    check_caps,
    classify_mengerian,
    decide_mengerian_exact,
    is_path_with_double_stars,
    is_star_plus_edge,
    ntf_json,
    verify_report_dict,
)
from mengerian.graphs import build_path_hypergraph, make_family, parse_edge_list, relabel
from mengerian.survey import enumerate_connected

import oracles


PRO3_TREE = "1 2\n2 3\n3 4\n4 5\n3 6"


# --- predicates -----------------------------------------------------------------

def test_path_with_double_stars_positive():
    assert is_path_with_double_stars(make_family("path", [7]))
    assert is_path_with_double_stars(make_family("star", [5]))
    assert is_path_with_double_stars(make_family("double_star", [2, 3]))
    assert is_path_with_double_stars(make_family("path", [1]))
    assert is_path_with_double_stars(make_family("path", [2]))
    # broom: one long leg keeps only two leaf-adjacent vertices
    assert is_path_with_double_stars(make_family("spider", [3, 1, 1]))


def test_path_with_double_stars_negative():
    # three legs of length >= 1 anchored at three distinct leaf-adjacent vertices
    assert not is_path_with_double_stars(parse_edge_list(PRO3_TREE))
    assert not is_path_with_double_stars(make_family("spider", [2, 2, 2]))
    assert not is_path_with_double_stars(make_family("cycle", [5]))  # not a tree


def test_star_plus_edge_predicate():
    assert is_star_plus_edge(make_family("star_plus_edge", [4]))
    assert is_star_plus_edge(make_family("star_plus_edge", [2]))  # K3
    assert is_star_plus_edge(make_family("complete", [3]))
    assert not is_star_plus_edge(make_family("cycle", [4]))
    assert not is_star_plus_edge(make_family("complete", [4]))
    assert not is_star_plus_edge(make_family("star", [4]))
    # every labelled graph with n <= 5 and every connected class with n <= 7
    corpus = []
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        corpus += [graphs.graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                   for mask in range(1 << len(pairs))]
    corpus += [g for n in range(1, 8) for g in enumerate_connected(n)]
    got = [is_star_plus_edge(g) for g in corpus]
    assert got == [oracles.star_plus_edge_scan(g.n, g.edges) for g in corpus]
    assert sum(got) > 20


# --- classifier -------------------------------------------------------------------

def test_classify_fixtures():
    assert classify_mengerian(make_family("complete", [4])).clause == "FOUR_VERTICES"
    assert classify_mengerian(make_family("cycle", [8])).clause == "C8"
    v = classify_mengerian(make_family("cycle", [5]))
    assert v.clause == "NOT_MENGERIAN" and not v.mengerian
    assert classify_mengerian(make_family("path", [7])).clause == "PATH_WITH_DOUBLE_STARS"
    assert classify_mengerian(make_family("star_plus_edge", [5])).clause == "STAR_PLUS_EDGE"


def test_classify_clause_order():
    # P4 is also a path with double stars; the earlier clause wins
    assert classify_mengerian(make_family("path", [4])).clause == "FOUR_VERTICES"


def test_classify_small_graphs_vacuous():
    assert classify_mengerian(make_family("path", [1])).mengerian
    assert classify_mengerian(make_family("complete", [3])).mengerian


def test_classify_requires_connected():
    with pytest.raises(ValueError):
        classify_mengerian(graphs.graph(4, [(0, 1), (2, 3)]))


def test_classify_isomorphism_invariant():
    rng = random.Random(67)
    for g in (make_family("cycle", [8]), make_family("spider", [2, 2, 1]),
              make_family("star_plus_edge", [4]), make_family("cycle", [6])):
        base = classify_mengerian(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert classify_mengerian(relabel(g, perm)).clause == base.clause


# --- exact pipeline ------------------------------------------------------------------

def test_decide_c8_power_equality():
    rep = decide_mengerian_exact(make_family("cycle", [8]))
    assert rep.trace == "POWER_EQUALITY"
    assert rep.mengerian
    assert not rep.tu.totally_unimodular
    assert rep.ideal.ideal
    assert rep.ntf.normally_torsion_free
    assert rep.agreement is True


def test_decide_pro3_tree_non_ideal():
    rep = decide_mengerian_exact(parse_edge_list(PRO3_TREE))
    assert rep.trace == "NON_IDEAL" and not rep.mengerian
    cert = rep.ideal.certificate
    h = Fraction(1, 2)
    assert cert.coords == (0, h, 0, h, 0, h)
    assert rep.agreement is True


def test_decide_star_empty():
    rep = decide_mengerian_exact(make_family("star", [6]))
    assert rep.trace == "EMPTY" and rep.mengerian
    assert rep.tau == 0 and rep.nu == 0


def test_decide_tu_shortcut_for_trees():
    for fam, params in [("path", [6]), ("double_star", [2, 2]), ("star_plus_edge", [4]),
                        ("spider", [3, 1, 1])]:
        rep = decide_mengerian_exact(make_family(fam, params))
        assert rep.trace == "TU_SHORTCUT", (fam, params)
        assert rep.mengerian and rep.agreement is True


@pytest.mark.parametrize("family, params, scans", [
    ("path", [9], 1),     # TU: the scan inside is_ideal settles both verdicts
    ("cycle", [8], 1),    # ideal, not TU: the refuting scan is reported as is
    ("cycle", [5], 0),    # the pattern pre-pass finds a fractional vertex first
    ("star", [3], 0),     # empty hypergraph
])
def test_decide_scans_for_tu_at_most_once(monkeypatch, family, params, scans):
    calls = []
    scan = linalg.is_totally_unimodular

    def counting(c):
        calls.append(c)
        return scan(c)

    monkeypatch.setattr(linalg, "is_totally_unimodular", counting)
    rep = decide_mengerian_exact(make_family(family, params))
    assert len(calls) == scans
    if calls:
        assert rep.tu == scan(rep.hypergraph)


def test_decide_disconnected_allowed():
    g = graphs.graph(5, [(0, 1), (1, 2), (2, 3)])  # K4-path plus isolated vertex
    rep = decide_mengerian_exact(g)
    assert rep.classifier is None and rep.agreement is None
    assert rep.trace == "TU_SHORTCUT"


def test_caps_helper():
    check_caps(Caps(max_vertices=5, max_edges=4), 5, 4)
    with pytest.raises(CapExceeded, match="vertex cap 5"):
        check_caps(Caps(max_vertices=5), 6)
    with pytest.raises(CapExceeded, match="edge cap 4"):
        check_caps(Caps(max_edges=4), 5, 5)
    # the vertex cap is applied before H_t is built
    with pytest.raises(CapExceeded, match="n=13"):
        capped_hypergraph(make_family("complete", [13]), 3, Caps())
    assert capped_hypergraph(make_family("cycle", [8]), 3, Caps(max_edges=8)).m == 8


def test_decide_caps():
    with pytest.raises(CapExceeded):
        decide_mengerian_exact(make_family("cycle", [8]), caps=Caps(max_vertices=5))
    with pytest.raises(CapExceeded):
        decide_mengerian_exact(make_family("cycle", [8]), caps=Caps(max_edges=4))
    with pytest.raises(CapExceeded):
        decide_mengerian_exact(make_family("cycle", [8]), caps=Caps(max_power_k=2))


def test_decide_packing_flag():
    rep = decide_mengerian_exact(make_family("cycle", [5]))
    assert rep.packing is False
    rep2 = decide_mengerian_exact(make_family("path", [5]))
    assert rep2.packing is True


def test_packing_read_off_agrees_with_the_walk():
    # decide reads packing off tau != nu and the Mengerian verdict where it
    # can; on every nonempty H_3 with n <= 7 that is the walk's answer
    checked = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            rep = decide_mengerian_exact(g)
            if not rep.hypergraph.is_empty:
                assert rep.packing == clutters.has_packing(rep.hypergraph), graphs.to_graph6(g)
                checked += 1
    assert checked == 988


def test_decide_packing_without_the_walk(monkeypatch):
    def refuse(c):
        raise AssertionError("the packing walk ran")

    monkeypatch.setattr(clutters, "has_packing", refuse)
    c5 = decide_mengerian_exact(make_family("cycle", [5]))
    assert (c5.tau, c5.nu, c5.mengerian, c5.packing) == (2, 1, False, False)
    for name, k in (("path", 9), ("cycle", 8)):
        rep = decide_mengerian_exact(make_family(name, [k]))
        assert rep.mengerian and rep.packing


def face_cases(kind):
    if kind == "H_3 n<=7":
        return [build_path_hypergraph(g) for n in range(1, 8) for g in enumerate_connected(n)]
    if kind == "H_2 and H_4 n=7":
        return [build_path_hypergraph(g, t) for g in enumerate_connected(7) for t in (2, 4)]
    rng = random.Random(23)
    return [clutters.Clutter(n, oracles.random_clutter(rng, n))
            for n in (rng.randint(3, 9) for _ in range(3000))]


@pytest.mark.parametrize("kind,walked", [("H_3 n<=7", 119), ("H_2 and H_4 n=7", 368),
                                         ("random", 189)], ids=["H_3", "H_2 H_4", "random"])
def test_face_of_a_fractional_vertex_fails_the_walk(kind, walked):
    # A clutter that packs is ideal (Lehman 1990; Cornuéjols, Guenin &
    # Margot 2000). The fractional vertex stays one of Q(C/Z) on its zero
    # set Z, so the walk on that face, whose minors are minors of C, must
    # refute packing wherever tau == nu leaves it open.
    count = 0
    for c in face_cases(kind):
        res = linalg.is_ideal(c)
        if res.ideal or clutters.tau(c) != clutters.nu(c):
            continue
        zeros = {j for j, x in enumerate(res.certificate.coords) if not x}
        face = clutters.Clutter(c.n, oracles.antichain(set(e) - zeros for e in c.edges))
        assert not linalg.is_ideal(face).ideal, c.edges
        assert clutters.has_packing(face) is False, c.edges
        assert clutters.has_packing(c) is False, c.edges
        count += 1
    assert count == walked


def test_face_walk_that_packs_raises(monkeypatch):
    # a non-ideal clutter must never be reported as packing
    monkeypatch.setattr(clutters, "has_packing", lambda c: True)
    with pytest.raises(ArithmeticError):
        decide_mengerian_exact(make_family("cycle", [12]))


@pytest.mark.parametrize("source", ["cycle:12", PRO3_TREE], ids=["C12", "pendant tree"])
def test_face_walk_makes_one_konig_check(source, monkeypatch):
    # Konig fails on the face C/Z itself, so the walk checks one minor
    # under every labelling (the whole of H_3(C12) takes 133-150)
    calls = []
    konig = clutters.has_konig
    monkeypatch.setattr(clutters, "has_konig", lambda c: calls.append(c) or konig(c))
    if ":" in source:
        name, k = source.split(":")
        g = make_family(name, [int(k)])
    else:
        g = parse_edge_list(source)
    for seed in range(8):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        calls.clear()
        rep = decide_mengerian_exact(relabel(g, perm))
        assert (rep.trace, rep.tau == rep.nu, rep.packing) == ("NON_IDEAL", True, False)
        assert len(calls) == 1


def test_shortcuts_agree_with_forced_power_equality():
    # TU and non-ideal traces must agree with the torsion-free decision
    # recomputed from scratch on a spread of survey instances
    from mengerian.ideals import is_normally_torsion_free
    from mengerian.survey import enumerate_connected

    rng = random.Random(71)
    pool = [g for n in (5, 6) for g in enumerate_connected(n)]
    sample = [g for g in rng.sample(pool, 40)
              if build_path_hypergraph(g).m <= 8][:20]
    assert len(sample) == 20
    for g in sample:
        rep = decide_mengerian_exact(g)
        forced = is_normally_torsion_free(rep.hypergraph)
        assert forced.normally_torsion_free == rep.mengerian, graphs.to_graph6(g)


# --- reports and certificate verification ----------------------------------------------

def test_report_json_schema():
    rep = decide_mengerian_exact(make_family("cycle", [5]))
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert d["trace"] == "NON_IDEAL"
    assert d["checks"]["ideal"]["value"] is False
    coords = d["checks"]["ideal"]["fractional_vertex"]["coords"]
    assert all(isinstance(s, str) for s in coords)
    assert d["classifier"]["clause"] == "NOT_MENGERIAN"
    assert d["agreement"] is True
    trimmed = rep.to_json_dict(certificates=False)
    assert "fractional_vertex" not in trimmed["checks"]["ideal"]


def test_report_round_trips_through_json():
    rep = decide_mengerian_exact(make_family("cycle", [6]))
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    results = verify_report_dict(json.loads(blob))
    assert results and all(ok for _, ok, _ in results)


def test_verify_report_catches_tampering():
    rep = decide_mengerian_exact(make_family("cycle", [6]))
    d = rep.to_json_dict()
    d["checks"]["ideal"]["fractional_vertex"]["coords"][0] = "1/3"
    results = verify_report_dict(d)
    assert any(name == "fractional_vertex" and not ok for name, ok, _ in results)


def test_verify_report_ntf_certificate():
    rep = decide_mengerian_exact(make_family("cycle", [5]))
    # force the power-equality route to produce an ntf violation report
    c = rep.hypergraph
    res = ideals.is_normally_torsion_free(c)
    d = rep.to_json_dict()
    d["checks"]["ntf"] = {
        "value": False,
        "mu": res.mu,
        "bound": res.bound,
        "checked_k": list(res.checked_k),
        "violation": {
            "k": res.checked_k[-1],
            "monomial": ideals.format_monomial(res.violation),
            "exponents": list(res.violation),
        },
    }
    results = verify_report_dict(d)
    assert any(name == "power_violation" and ok for name, ok, _ in results)


def c5_report():
    return decide_mengerian_exact(make_family("cycle", [5])).to_json_dict()


def failed(results):
    return {name for name, ok, _ in results if not ok}


def c5_ntf_dict():
    c = build_path_hypergraph(make_family("cycle", [5]))
    return {"hypergraph": clutters.to_json_dict(c),
            "ntf": ntf_json(ideals.is_normally_torsion_free(c), certificates=True)}


def test_verify_report_checks_graph():
    d = c5_report()
    assert verify_report_dict(d)[0] == ("hypergraph", True, "equals H_3 of the report's graph")
    # the graph swapped for P5 and the verdict flipped
    d["graph"] = {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}
    d["mengerian"] = True
    assert failed(verify_report_dict(d)) == {"hypergraph", "fractional_vertex", "konig_values"}
    d = c5_report()
    d["graph"]["n"] = 6
    assert failed(verify_report_dict(d)) == {"hypergraph"}


@pytest.mark.parametrize("graph", [
    None, 5, {"n": 5}, {"n": "5", "edges": []}, {"n": 5, "edges": [[1, 2, 3]]},
    {"n": 5, "edges": [["a", 2]]}, {"n": 5, "edges": [[1, 1]]}, {"n": 5, "edges": [[1, 9]]},
])
def test_verify_report_malformed_graph(graph):
    d = c5_report()
    d["graph"] = graph
    with pytest.raises(ValueError):
        verify_report_dict(d)


@pytest.mark.parametrize("flip, refuted", [
    (lambda d: d["checks"]["tu"].update(value=True), "tu_witness"),
    (lambda d: d["checks"]["ideal"].update(value=True), "fractional_vertex"),
    (lambda d: d.update(mengerian=True), "fractional_vertex"),
    (lambda d: d["checks"].update(packing=True), "konig_values"),
])
def test_verify_report_flipped_verdict(flip, refuted):
    d = c5_report()
    flip(d)
    results = verify_report_dict(d)
    # tau=2 > nu=1 refutes a true Mengerian verdict, too, and the fractional
    # vertex a true packing verdict, since a clutter that packs is ideal
    assert failed(results) == ({refuted} | ({"konig_values"} if d["mengerian"] else set())
                               | ({"fractional_vertex"} if d["checks"]["packing"] else set()))
    assert any("does not set" in msg for _, _, msg in results)


@pytest.mark.parametrize("flip", [
    lambda d: d["ntf"].update(value=True),
    lambda d: d.update(mengerian=True),
])
def test_verify_report_flipped_ntf_verdict(flip):
    d = c5_ntf_dict()
    assert failed(verify_report_dict(d)) == set()
    flip(d)
    assert failed(verify_report_dict(d)) == {"power_violation"}


@pytest.mark.parametrize("rows, cols", [
    ([1, 2], [1, 9]),      # column out of range
    ([0, 1], [1, 2]),      # 0 would select the last row
    ([1, 1], [1, 2]),      # repeated row
    ([1, 2, 3], [3, 4]),   # not square
    ([], []),
    ("12", [1, 2]),
    ([1.0, 2], [1, 2]),
])
def test_verify_report_bad_witness_indices(rows, cols):
    d = c5_report()
    d["checks"]["tu"]["witness"].update(rows=rows, cols=cols)
    assert failed(verify_report_dict(d)) == {"tu_witness"}


def test_verify_report_tight_rows_compared():
    d = c5_report()
    vertex = d["checks"]["ideal"]["fractional_vertex"]
    for tight in ([99], [3, 4, 5, 9], [3, 4, 5, 9, 10, 10], "3"):
        vertex["tight_rows"] = tight
        results = verify_report_dict(d)
        assert failed(results) == {"fractional_vertex"}
        assert any("tight_rows differ" in msg for _, _, msg in results)
    vertex["tight_rows"] = [10, 9, 5, 4, 3]  # the set, in any order
    assert not failed(verify_report_dict(d))


def det_text(d):
    return d["checks"]["tu"]["witness"]["det"]


@pytest.mark.parametrize("edit, refuted", [
    # True == 1 and 2.0 == 2 in Python, so each claimed number must be checked for its type
    (lambda d: d["checks"]["konig"].update(tau=2.0), "konig_values"),
    (lambda d: d["checks"]["konig"].update(nu=True), "konig_values"),
    (lambda d: d["checks"]["konig"].update(tau=2.0, nu=True), "konig_values"),
    (lambda d: d["checks"]["konig"].update(value=0), "konig_values"),
    (lambda d: d["checks"]["tu"]["witness"].update(det=det_text(d) + ".0"), "tu_witness"),
    (lambda d: d["checks"]["tu"]["witness"].update(det=f"{2 * int(det_text(d))}/2"),
     "tu_witness"),
    (lambda d: d["checks"]["tu"]["witness"].update(det=f" {det_text(d)} "), "tu_witness"),
    (lambda d: d["checks"]["tu"]["witness"].update(det=int(det_text(d))), "tu_witness"),
    (lambda d: d["ntf"]["violation"].update(k=2.0), "power_violation"),
    (lambda d: d["ntf"]["violation"].update(k=True), "power_violation"),
])
def test_verify_report_loose_number_types(edit, refuted):
    d = c5_ntf_dict() if refuted == "power_violation" else c5_report()
    assert failed(verify_report_dict(d)) == set()
    edit(d)
    assert failed(verify_report_dict(d)) == {refuted}


@pytest.mark.parametrize("edit", [
    lambda d: d["checks"]["tu"]["witness"].update(det=[2]),
    lambda d: d["checks"]["tu"]["witness"].update(det="1/0"),
    lambda d: d["checks"]["tu"].update(witness=3),
    lambda d: d["checks"]["ideal"]["fractional_vertex"].update(coords=5),
    lambda d: d["checks"]["ideal"]["fractional_vertex"].update(coords=["x"] * 5),
    lambda d: d["checks"]["ideal"]["fractional_vertex"].update(coords=["1/2"]),
    lambda d: d.update(checks=[]),
    lambda d: d["hypergraph"].update(unit=True),
])
def test_verify_report_malformed_certificate(edit):
    d = c5_report()
    edit(d)
    with pytest.raises(ValueError):
        verify_report_dict(d)
