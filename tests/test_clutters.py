import random
from itertools import combinations, product

import pytest

from mengerian import clutters
from mengerian.clutters import (
    Clutter,
    contract,
    delete,
    duplicate,
    has_konig,
    has_packing,
    incidence_matrix,
    max_integer_packing,
    mengerian_bounded,
    minimal_covers,
    minimalize,
    minor,
    nu,
    tau,
    unit_clutter,
    weighted_cover_min,
)
from mengerian.graphs import build_path_hypergraph, make_family

import oracles


def H3(name, *params):
    return build_path_hypergraph(make_family(name, list(params)))


@pytest.fixture(scope="module")
def h3c8():
    return H3("cycle", 8)


@pytest.fixture(scope="module")
def h3c5():
    return H3("cycle", 5)


@pytest.fixture(scope="module")
def h3p5():
    return H3("path", 5)


# --- construction and minimalization ----------------------------------------

def test_antichain_enforced():
    with pytest.raises(ValueError, match="antichain"):
        Clutter(3, ((0, 1), (0, 1, 2)))


def test_minimalize_superset_removal():
    c = minimalize([(0, 1), (0, 1, 2)], 3)
    assert c.edges == ((0, 1),)


def test_minimalize_empty_edge_gives_unit():
    c = minimalize([(), (0,)], 2)
    assert c.unit


def test_minimalize_h3c8_unchanged(h3c8):
    c = minimalize(h3c8.edges, 8)
    assert c.edges == h3c8.edges


def test_unit_clutter_rejected_by_most_ops():
    u = unit_clutter(3)
    for op in (tau, nu, minimal_covers, has_konig, has_packing, incidence_matrix):
        with pytest.raises(ValueError):
            op(u)


# --- incidence ----------------------------------------------------------------

def test_incidence_h3c8_circulant(h3c8):
    A = incidence_matrix(h3c8)
    assert (A.m, A.n) == (8, 8)
    for row in A.rows:
        assert sum(row) == 4
    # row for window starting at x1
    assert A.rows[0] == (1, 1, 1, 1, 0, 0, 0, 0)


def test_incidence_empty_clutter():
    A = incidence_matrix(Clutter(3, ()))
    assert (A.m, A.n) == (0, 3)


def test_incidence_single_edge():
    A = incidence_matrix(Clutter(4, ((0, 1, 2, 3),)))
    assert A.rows == ((1, 1, 1, 1),)


# --- deletion / contraction / minors -------------------------------------------

def test_delete_h3p5(h3p5):
    assert h3p5.edges == ((0, 1, 2, 3), (1, 2, 3, 4))
    d = delete(h3p5, 4)
    assert d.edges == ((0, 1, 2, 3),) and d.n == 4


def test_delete_h3c8_x1(h3c8):
    d = delete(h3c8, 0)
    assert d.n == 7
    label_sets = sorted(tuple(d.labels[v] for v in e) for e in d.edges)
    assert label_sets == [
        ("x2", "x3", "x4", "x5"),
        ("x3", "x4", "x5", "x6"),
        ("x4", "x5", "x6", "x7"),
        ("x5", "x6", "x7", "x8"),
    ]


def test_delete_on_empty():
    c = Clutter(3, ())
    assert delete(c, 1).is_empty


def test_contract_simple():
    c = Clutter(3, ((0, 1), (1, 2)))
    k = contract(c, 1)
    assert k.edges == ((0,), (1,)) and k.labels == ("x1", "x3")


def test_contract_to_unit():
    c = Clutter(2, ((0, 1),))
    assert contract(contract(c, 0), 0).unit


def test_contract_h3p5(h3p5):
    k = contract(h3p5, 2)
    label_sets = sorted(tuple(k.labels[v] for v in e) for e in k.edges)
    assert label_sets == [("x1", "x2", "x4"), ("x2", "x4", "x5")]


def test_minor_disjointness_required(h3p5):
    with pytest.raises(ValueError):
        minor(h3p5, deleted=(1,), contracted=(1,))


def test_minor_order_independence_exhaustive_n3():
    # every antichain over three vertices, every disjoint (D, C) pair,
    # applied one vertex at a time in both directions
    subsets = [tuple(s) for r in (1, 2, 3) for s in combinations(range(3), r)]
    families = []
    for mask in range(1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        if all(not (set(a) < set(b)) and not (set(b) < set(a))
               for a, b in combinations(fam, 2)):
            families.append(fam)
    assert len(families) == 19
    for fam in families:
        c = Clutter(3, tuple(fam))
        for assignment in product((0, 1, 2), repeat=3):
            D = tuple(v for v, a in enumerate(assignment) if a == 1)
            C = tuple(v for v, a in enumerate(assignment) if a == 2)
            combined = minor(c, D, C)
            ops = [(v, "d") for v in D] + [(v, "c") for v in C]
            for seq in (ops, ops[::-1]):
                cur = c
                for v, kind in seq:
                    local = cur.labels.index(c.labels[v])
                    cur = delete(cur, local) if kind == "d" else contract(cur, local)
                assert (cur.unit, cur.edges, cur.labels) == \
                    (combined.unit, combined.edges, combined.labels)


def test_minor_order_independence():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        c = oracles.random_clutter(rng, n)
        verts = rng.sample(range(n), rng.randint(1, n))
        ops = [(v, rng.choice(("d", "c"))) for v in verts]
        D = tuple(v for v, kind in ops if kind == "d")
        C = tuple(v for v, kind in ops if kind == "c")
        combined = minor(c, D, C)
        for shuffled in (ops, ops[::-1], sorted(ops, key=lambda x: x[1])):
            cur = c
            for v, kind in shuffled:
                local = cur.labels.index(c.labels[v])
                cur = delete(cur, local) if kind == "d" else contract(cur, local)
            assert cur.labels == combined.labels
            assert cur.unit == combined.unit
            assert cur.edges == combined.edges


# --- duplication ----------------------------------------------------------------

def test_duplicate_identity(h3p5):
    assert duplicate(h3p5, (1,) * 5) == h3p5


def test_duplicate_single_edge():
    c = Clutter(2, ((0, 1),))
    d = duplicate(c, (2, 1))
    assert d.n == 3
    assert d.labels == ("x1.1", "x1.2", "x2")
    assert d.edges == ((0, 2), (1, 2))


def test_duplicate_zero_deletes(h3p5):
    d = duplicate(h3p5, (0, 1, 1, 1, 1))
    assert d.n == 4
    assert [tuple(d.labels[v] for v in e) for e in d.edges] == [("x2", "x3", "x4", "x5")]


def test_duplicate_composition():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 4)
        c = oracles.random_clutter(rng, n)
        a = [rng.randint(0, 2) for _ in range(n)]
        b_per_orig = [rng.randint(0, 2) for _ in range(n)]
        once = duplicate(c, a)
        b = []
        for v in range(n):
            b.extend([b_per_orig[v]] * a[v])
        twice = duplicate(once, b)
        merged = duplicate(c, [x * y for x, y in zip(a, b_per_orig)])
        assert twice.n == merged.n
        assert twice.edges == merged.edges


# --- tau / nu / covers ------------------------------------------------------------

def test_tau_nu_fixtures(h3c8, h3c5):
    assert tau(h3c8) == 2 and nu(h3c8) == 2
    assert tau(h3c5) == 2 and nu(h3c5) == 1
    empty = Clutter(4, ())
    assert tau(empty) == 0 and nu(empty) == 0


def test_tau_nu_against_scan():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 7)
        c = oracles.random_clutter(rng, n)
        assert tau(c) == oracles.tau_scan(n, c.edges)
        assert nu(c) == oracles.nu_scan(c.edges)


def test_minimal_covers_c8_matches_published_list(h3c8):
    expected = sorted(
        [tuple(sorted(x - 1 for x in t)) for t in
         [(5, 1), (6, 2), (7, 3), (8, 4),
          (6, 3, 1), (6, 4, 1), (7, 4, 1), (7, 4, 2),
          (7, 5, 2), (8, 5, 2), (8, 5, 3), (8, 6, 3)]],
        key=lambda t: (len(t), t))
    assert list(minimal_covers(h3c8)) == expected


def test_minimal_covers_single_edge():
    c = Clutter(4, ((0, 1, 2, 3),))
    assert minimal_covers(c) == ((0,), (1,), (2,), (3,))


def test_minimal_covers_c5_all_pairs(h3c5):
    assert minimal_covers(h3c5) == tuple(combinations(range(5), 2))


def test_minimal_covers_against_scan():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 8)
        c = oracles.random_clutter(rng, n)
        assert list(minimal_covers(c)) == oracles.minimal_covers_scan(n, c.edges)


def test_konig_fixtures(h3c8, h3c5):
    assert has_konig(h3c8)
    assert not has_konig(h3c5)
    assert has_konig(Clutter(3, ()))


def test_packing_fixtures(h3c5, h3p5):
    assert not has_packing(h3c5)
    assert has_packing(h3p5)
    assert has_packing(Clutter(4, ((0, 1, 2, 3),)))


def test_packing_c8(h3c8):
    # Mengerian, so every one of the 3^8 minors satisfies Konig
    assert has_packing(h3c8)


def test_packing_false_when_konig_fails():
    rng = random.Random(23)
    seen = 0
    for _ in range(200):
        c = oracles.random_clutter(rng, rng.randint(2, 5))
        if not c.edges:
            continue
        if not has_konig(c):
            seen += 1
            assert not has_packing(c)
    assert seen > 0


def test_packing_against_minor_scan():
    rng = random.Random(31)
    konig_but_not_packing = 0
    for _ in range(200):
        n = rng.randint(3, 5)
        c = minimalize([rng.sample(range(n), rng.randint(2, 3)) for _ in range(rng.randint(1, 6))], n)
        expected = oracles.has_packing_scan(c.n, c.edges)
        assert has_packing(c) == expected
        if has_konig(c) and not expected:
            konig_but_not_packing += 1
    # the walk must look below the clutter itself to find these
    assert konig_but_not_packing > 0


# --- weighted covers and packings ---------------------------------------------------

def test_weighted_cover_fixtures(h3c8, h3c5):
    assert weighted_cover_min(h3c8, (1,) * 8) == 2
    assert weighted_cover_min(h3c8, (0,) * 8) == 0
    assert weighted_cover_min(h3c5, (1, 1, 1, 2, 2)) == 2


def test_packing_fixtures_weighted(h3c8, h3c5):
    assert max_integer_packing(h3c8, (1,) * 8) == 2
    assert max_integer_packing(h3c8, (0,) * 8) == 0
    assert max_integer_packing(h3c5, (1,) * 5) == 1


def test_weighted_sides_against_scan_and_duality():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 6)
        c = oracles.random_clutter(rng, n)
        cost = tuple(rng.randint(0, 2) for _ in range(n))
        wc = weighted_cover_min(c, cost)
        mp = max_integer_packing(c, cost)
        assert wc == oracles.weighted_cover_scan(n, c.edges, cost)
        assert mp == oracles.packing_scan(c.edges, cost)
        assert mp <= wc


def test_cost_validation(h3c5):
    with pytest.raises(ValueError):
        weighted_cover_min(h3c5, (1, 1, 1))
    with pytest.raises(ValueError):
        max_integer_packing(h3c5, (1, -1, 1, 1, 1))


# --- bounded min-max probe ------------------------------------------------------------

def test_probe_c5_refuted_at_all_ones(h3c5):
    probe = mengerian_bounded(h3c5, 1)
    assert probe.refuted
    assert probe.cost == (1, 1, 1, 1, 1)
    assert (probe.cover_min, probe.packing_max) == (2, 1)


def test_probe_c8_undecided(h3c8):
    assert mengerian_bounded(h3c8, 1).undecided


def test_probe_empty_undecided():
    assert mengerian_bounded(Clutter(3, ()), 2).undecided


# --- serialization ---------------------------------------------------------------------

def test_text_round_trip(h3c8):
    assert clutters.from_text(clutters.to_text(h3c8)).edges == h3c8.edges


def test_json_round_trip(h3c5):
    d = clutters.to_json_dict(h3c5)
    back = clutters.from_json_dict(d)
    assert back == h3c5
    u = unit_clutter(2)
    assert clutters.from_json_dict(clutters.to_json_dict(u)).unit
