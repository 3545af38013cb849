import json
import os
import random
import time
from itertools import combinations, permutations

import pytest

from mengerian import classify, graphs, survey
from mengerian.classify import Caps
from mengerian.graphs import is_connected, masks_connected
from mengerian.survey import cross_check, enumerate_connected

import oracles


KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

extended = pytest.mark.skipif(not os.environ.get("MENGERIAN_EXTENDED"),
                              reason="extended run; set MENGERIAN_EXTENDED=1")


def test_enumerate_connected_counts():
    for n, expected in KNOWN_CONNECTED_COUNTS.items():
        assert len(enumerate_connected(n)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=extended)])
def test_enumerate_matches_orbit_scan(n):
    # same representatives, same labelling, same order as the orbit scan
    got = [tuple(sorted(g.edges)) for g in enumerate_connected(n)]
    assert got == oracles.connected_classes_scan(n)


@extended
def test_enumerate_n8_count():
    gs = enumerate_connected(8)
    assert len(gs) == 11117  # OEIS A001349
    index = {p: i for i, p in enumerate(combinations(range(8), 2))}
    masks = {sum(1 << index[e] for e in g.edges) for g in gs}
    assert len(masks) == len(gs)
    assert all(is_connected(g) for g in gs)


def mask_adjacency(n, mask):
    """Neighbour bitmasks of the graph whose bit i is combinations(range(n), 2)[i]."""
    adj = [0] * n
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=extended)])
def test_is_least_matches_scan_on_enumeration_checks(monkeypatch, n):
    # every canonicity test the orderly generation makes, against the
    # unpruned backtrack
    checks = []
    is_least = survey._is_least

    def record(mask, adj):
        checks.append((mask, adj[:]))
        return is_least(mask, adj)

    monkeypatch.setattr(survey, "_is_least", record)
    enumerate_connected(n)
    if n >= 7:
        assert len(checks) == {7: 1965, 8: 19835}[n]
    for mask, adj in checks:
        assert is_least(mask, adj) == oracles.is_least_scan(mask, adj), (n, mask)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_least_matches_scan_on_every_labelled_graph(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        adj = mask_adjacency(n, mask)
        assert survey._is_least(mask, adj) == oracles.is_least_scan(mask, adj), mask


def least_code_of(adj, free):
    """survey._least_code on the graph induced on the vertex set free, read in place."""
    sub = tuple(a & free if free >> w & 1 else 0 for w, a in enumerate(adj))
    return survey._least_code(free, sub)


def scan_code(adj, free):
    """oracles.least_rows_scan on the graph induced on free, packed as _least_code packs:
    each row under a 0 bit, widths 1, 2, 3, ..."""
    verts = [w for w in range(len(adj)) if free >> w & 1]
    sub = [sum(1 << r for r, u in enumerate(verts) if adj[w] >> u & 1) for w in verts]
    code = 0
    for width, row in enumerate(oracles.least_rows_scan(sub), 1):
        code = code << width | row
    return code


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_least_rows_match_scan_on_every_labelled_graph(n):
    # least rows are an isomorphism invariant, so the permutation scan runs
    # once per orbit and every labelled graph of the orbit is checked
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    maps = [[index[(min(perm[u], perm[v]), max(perm[u], perm[v]))] for u, v in pairs]
            for perm in permutations(range(n))]
    full = (1 << n) - 1
    expected = {}
    for mask in range(1 << len(pairs)):
        adj = mask_adjacency(n, mask)
        if mask not in expected:
            code = scan_code(adj, full)
            bits = [i for i in range(len(pairs)) if mask >> i & 1]
            for pmap in maps:
                expected[sum(1 << pmap[i] for i in bits)] = code
        assert least_code_of(adj, full) == expected[mask], mask


@pytest.mark.parametrize("n, draws", [(7, 30), pytest.param(8, 6, marks=extended)])
def test_least_rows_match_scan_on_random_graphs(n, draws):
    # seeded labelled graphs of every density, disconnected ones included,
    # and the graphs they induce on a random vertex set, as a root's
    # non-neighbours are read
    rng = random.Random(n)
    full = (1 << n) - 1
    connected = []
    for _ in range(draws):
        density = rng.random()
        mask = sum(1 << i for i in range(n * (n - 1) // 2) if rng.random() < density)
        adj = mask_adjacency(n, mask)
        connected.append(masks_connected(adj))
        assert least_code_of(adj, full) == scan_code(adj, full), mask
        free = rng.randrange(1, full)
        assert least_code_of(adj, free) == scan_code(adj, free), (mask, free)
    assert any(connected) and not all(connected)


def test_is_least_polynomial_on_stars_and_cliques():
    # star:10 has 10! automorphisms and K9 has 9!; the unpruned backtrack,
    # oracles.is_least_scan, walks them all (tens of seconds on star:10);
    # twin pruning answers each in milliseconds
    start = time.process_time()
    n = 11
    star = (1 << (n - 1)) - 1  # centre 0: pairs (0, 1) .. (0, 10)
    assert survey._is_least(star, mask_adjacency(n, star))
    pairs = list(combinations(range(n), 2))
    top = sum(1 << i for i, p in enumerate(pairs) if p[1] == n - 1)  # centre 10
    assert not survey._is_least(top, mask_adjacency(n, top))
    n = 9
    full = (1 << (n * (n - 1) // 2)) - 1
    assert survey._is_least(full, mask_adjacency(n, full))
    # K9 has one labelling, so the refutation is on K9 minus the pair (0, 1)
    assert not survey._is_least(full ^ 1, mask_adjacency(n, full ^ 1))
    assert time.process_time() - start < 1.0


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_connected(9)
    with pytest.raises(ValueError):
        enumerate_connected(0)


def test_cross_check_refuses_range_before_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance was decided")

    monkeypatch.setattr(classify, "decide_mengerian_exact", refuse)
    for n_min, n_max in ((4, 9), (0, 4), (9, 9)):
        with pytest.raises(ValueError, match="enumeration supports 1 <= n <= 8"):
            cross_check(n_max, n_min=n_min)
    with pytest.raises(ValueError, match="empty survey range: min-n 5 > max-n 4"):
        cross_check(4, n_min=5)


def test_enumerate_one_per_isomorphism_class():
    gs = enumerate_connected(5)
    for a, b in combinations(gs, 2):
        assert not oracles.isomorphic_scan(a, b)


def test_cross_check_n5_fixture():
    rep = cross_check(5)
    assert rep.counters["total"] == 27
    assert rep.counters["mengerian_per_n"] == {"4": 6, "5": 4}
    assert rep.mismatches == []
    assert rep.dichotomy_exceptions == []
    assert rep.conjecture_violations == []
    clauses = sorted(r["clause"] for r in rep.instances if r["n"] == 5 and r["mengerian"])
    assert clauses == ["PATH_WITH_DOUBLE_STARS", "PATH_WITH_DOUBLE_STARS",
                       "PATH_WITH_DOUBLE_STARS", "STAR_PLUS_EDGE"]


def test_cross_check_dichotomy_exception():
    # H_2(C6) is ideal and not TU, and settled by power equality
    rep = cross_check(6, t=2, n_min=6)
    assert rep.dichotomy_exceptions == [
        {"n": 6, "index": 57, "graph6": "EBj?", "trace": "POWER_EQUALITY", "mengerian": True}]
    assert rep.mismatches == [] and rep.conjecture_violations == []


def test_cross_check_records_flipped_verdicts(monkeypatch):
    # one flipped classifier verdict is a mismatch, one flipped packing
    # verdict a conjecture finding; each record names its instance
    def flip_on_dk(fn, flip):
        def wrapped(g, *args, **kwargs):
            out = fn(g, *args, **kwargs)
            return flip(out) if graphs.to_graph6(g) == "Dk_" else out
        return wrapped

    monkeypatch.setattr(classify, "classify_mengerian", flip_on_dk(
        classify.classify_mengerian,
        lambda v: classify.ClassVerdict(False, classify.CLAUSE_NOT_MENGERIAN)))
    monkeypatch.setattr(classify, "decide_mengerian_exact", flip_on_dk(
        classify.decide_mengerian_exact, lambda r: r._replace(packing=not r.packing)))
    rep = cross_check(5, n_min=5)
    key = {"n": 5, "index": 1, "graph6": "Dk_"}
    assert rep.mismatches == [{**key, "classifier": "NOT_MENGERIAN",
                               "pipeline": "TU_SHORTCUT", "classifier_mengerian": False,
                               "pipeline_mengerian": True}]
    assert rep.conjecture_violations == [{**key, "packing": False, "mengerian": True}]
    assert rep.dichotomy_exceptions == []


def test_cross_check_deterministic():
    a = cross_check(5).to_json_dict()
    b = cross_check(5).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_non_ideal_instances_record_tu_false():
    # a non-ideal clutter is not TU, and both the JSON and the CSV say so
    rep = cross_check(5)
    instances = rep.to_json_dict()["instances"]
    header, *lines = rep.to_csv().splitlines()
    tu_col = header.split(",").index("tu")
    non_ideal = [i for i, inst in enumerate(instances) if inst["trace"] == "NON_IDEAL"]
    assert len(non_ideal) == rep.counters["non_ideal"] == 17
    for i in non_ideal:
        assert instances[i]["tu"] is False
        assert lines[i].split(",")[tu_col] == "False"


def test_cross_check_t4_small():
    rep = cross_check(5, t=4)
    # 5-uniform hypergraphs on at most 5 vertices: empty or one edge, all TU
    assert rep.mismatches == []  # classifier comparison only runs at t=3
    assert rep.dichotomy_exceptions == []
    for r in rep.instances:
        assert r["tu"]


def test_cross_check_incomplete_on_tiny_caps():
    rep = cross_check(5, caps=Caps(max_edges=2))
    assert rep.incomplete
    assert any(r["incomplete"] for r in rep.instances)
    # incomplete rows never count as decided
    assert rep.counters["decided"] < rep.counters["total"]


def test_incomplete_rows_name_their_graph():
    # the graph of an INCOMPLETE instance is known; its record and CSV row
    # carry its graph6, the same string the incomplete list gives
    rep = cross_check(5, n_min=5, caps=Caps(max_edges=3))
    listed = {(e["n"], e["index"]): e["graph6"] for e in rep.incomplete}
    assert listed[(5, 10)] == "Dz_" and len(listed) == 11
    records = rep.to_json_dict()["instances"]
    assert {(r["n"], r["index"]): r["graph6"]
            for r in records if r["trace"] == "INCOMPLETE"} == listed
    lines = rep.to_csv().splitlines()
    g6_col = lines[0].split(",").index("graph6")
    assert [line.split(",")[g6_col] for line in lines[1:]] == [r["graph6"] for r in records]
    assert all(r["graph6"] for r in records)


def test_csv_output():
    rep = cross_check(4)
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("n,index,graph6,clause,trace")
    assert len(lines) == 1 + rep.counters["total"]


@pytest.mark.parametrize("kwargs", [{}, {"caps": Caps(max_edges=3)}, {"t": 2}],
                         ids=["t3", "max_edges3", "t2"])
def test_report_is_a_fold_of_its_records(kwargs):
    # the records of two runs over adjoining ranges, in order, make the
    # report of one run over both, finding lists and counters included
    whole = cross_check(6, **kwargs)
    assert vars(whole).keys() == {"t", "n_min", "n_max", "instances"}
    assert whole.incomplete or whole.dichotomy_exceptions or not kwargs
    merged = survey.SurveyReport(kwargs.get("t", 3), 4, 6)
    for part in (cross_check(5, **kwargs), cross_check(6, n_min=6, **kwargs)):
        merged.instances += part.instances
    assert merged.to_json_dict() == whole.to_json_dict()
    assert merged.to_csv() == whole.to_csv()


def test_clause_gives_the_classifier_verdict():
    # the mismatch view reads the classifier's verdict off its clause
    classes = [g for n in range(1, 8) for g in enumerate_connected(n)]
    assert len(classes) == 996
    for g in classes:
        v = classify.classify_mengerian(g)
        assert v.mengerian == (v.clause != classify.CLAUSE_NOT_MENGERIAN)
