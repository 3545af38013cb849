import json
from itertools import combinations

import pytest

from mengerian.classify import Caps
from mengerian.survey import cross_check, enumerate_connected

import oracles


KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_enumerate_connected_counts():
    for n, expected in KNOWN_CONNECTED_COUNTS.items():
        assert len(enumerate_connected(n)) == expected


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_connected(8)
    with pytest.raises(ValueError):
        enumerate_connected(0)


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
