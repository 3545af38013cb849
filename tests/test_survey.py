import json
import os
import time
from itertools import combinations

import pytest

from mengerian import classify, survey
from mengerian.classify import Caps
from mengerian.graphs import is_connected
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
    clauses = sorted(row.report.classifier.clause
                     for row in rep.rows
                     if row.n == 5 and row.report.mengerian)
    assert clauses == ["PATH_WITH_DOUBLE_STARS", "PATH_WITH_DOUBLE_STARS",
                       "PATH_WITH_DOUBLE_STARS", "STAR_PLUS_EDGE"]


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
    for row in rep.rows:
        assert row.report.tu.totally_unimodular


def test_cross_check_incomplete_on_tiny_caps():
    rep = cross_check(5, caps=Caps(max_edges=2))
    assert rep.incomplete
    assert any(r.incomplete for r in rep.rows)
    # incomplete rows never count as decided
    assert rep.counters["decided"] < rep.counters["total"]


def test_csv_output():
    rep = cross_check(4)
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("n,index,graph6,clause,trace")
    assert len(lines) == 1 + rep.counters["total"]
