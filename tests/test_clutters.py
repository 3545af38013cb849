import random
from itertools import combinations

import pytest

from mengerian import clutters
from mengerian.clutters import (
    Clutter,
    _contract,
    _minimal_masks,
    has_konig,
    has_packing,
    incidence_matrix,
    minimal_covers,
    nu,
    tau,
)
from mengerian.graphs import build_path_hypergraph, make_family, path_vertex_sets, relabel
from mengerian.ideals import cover_degree, is_normally_torsion_free, member_of_power
from mengerian.survey import enumerate_connected

import oracles


def H3(name, *params):
    return build_path_hypergraph(make_family(name, list(params)))


def random_clutter(rng, n):
    return Clutter(n, oracles.random_clutter(rng, n))


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
    with pytest.raises(ValueError) as err:
        Clutter(3, ((0, 1), (0, 1, 2)))
    assert str(err.value) == "not an antichain: (0, 1) is contained in (0, 1, 2)"


def test_masks_are_the_edge_bitmasks():
    rng = random.Random(7)
    for _ in range(40):
        c = random_clutter(rng, rng.randint(1, 8))
        assert len(c.masks) == c.m
        for e, mask in zip(c.edges, c.masks):
            assert mask == sum(1 << v for v in e)
    # masks is derived: equality and hashing read n and edges only
    a = Clutter(4, ((0, 1), (2, 3)))
    b = Clutter(4, ((2, 3), (1, 0)))
    object.__setattr__(b, "masks", ())
    assert a == b and hash(a) == hash(b)
    assert "masks" not in repr(a)


def test_clutter_from_masks_equals_clutter_from_edges():
    # the path search, the packing walk and its face hand over masks: the
    # clutter they build is the one the same edges as tuples give, whatever
    # the order of the masks and however often one repeats
    rng = random.Random(59)
    cases = [(g.n, list(path_vertex_sets(g, t)))
             for n in range(1, 8) for g in enumerate_connected(n) for t in range(1, 5)]
    for _ in range(300):
        n = rng.randint(1, 8)
        cases.append((n, [sum(1 << v for v in e) for e in oracles.random_clutter(rng, n)]))
    assert sum(1 for n, masks in cases if n == 7 and masks) > 1000
    for n, masks in cases:
        rng.shuffle(masks)
        a = Clutter.from_masks(n, masks + masks[:2])
        b = Clutter(n, tuple(tuple(v for v in range(n) if m >> v & 1) for m in masks))
        assert (a.n, a.edges, a.masks) == (b.n, b.edges, b.masks)
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("n, edges", [
    (3, ((0,), ())),
    (3, ((0, 3), (1, 2))),
    (3, ((1, 2), (0, 4), (0, 3))),
    (3, ((0, 1), (0, 1, 2))),
    # the first containment in edge order is named
    (4, ((0, 1, 2), (0,), (0, 1))),
    (4, ((0, 1), (1, 2, 3), (0, 1, 3), (1, 2))),
    (-1, ((0,),)),
])
def test_bad_masks_raise_the_errors_of_bad_edges(n, edges):
    with pytest.raises(ValueError) as from_edges:
        Clutter(n, edges)
    with pytest.raises(ValueError) as from_masks:
        Clutter.from_masks(n, [sum(1 << v for v in e) for e in edges])
    assert str(from_masks.value) == str(from_edges.value)


def test_negative_vertices_and_masks_are_refused():
    # no mask holds a negative vertex; the errors keep the sorted edge order
    with pytest.raises(ValueError, match=r"^edge \(-1, 2\) out of range for n=3$"):
        Clutter(3, ((0, 5), (2, -1, -1)))
    with pytest.raises(ValueError, match="^empty edge"):
        Clutter(3, ((-1, 0), ()))
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        Clutter(-1, ((-1,),))
    with pytest.raises(ValueError, match="^an edge mask must be nonnegative$"):
        Clutter.from_masks(3, [0b11, -1])


# _minimal_masks keeps the minimal sets; contraction and the basis search lean on it

def test_minimalize_superset_removal():
    assert _minimal_masks([0b011, 0b111, 0b011]) == [0b011]


def test_minimalize_empty_edge_gives_unit():
    # the empty edge dominates every other: the unit clutter, which the walk skips
    assert _minimal_masks([0b10, 0, 0b11]) == [0]


def test_minimalize_h3c8_unchanged(h3c8):
    assert sorted(_minimal_masks(h3c8.masks)) == sorted(h3c8.masks)


def test_contract_is_minimalised_contraction(h3c8):
    # the one-pass contraction of the packing walk against the generic step
    rng = random.Random(41)
    cases = [h3c8.masks] + [random_clutter(rng, rng.randint(1, 8)).masks for _ in range(300)]
    for masks in cases:
        masks = tuple(sorted(masks))
        for v in range(8):
            expected = sorted(_minimal_masks(e & ~(1 << v) for e in masks))
            got = _contract(masks, 1 << v)
            if expected == [0]:
                assert got is None
            else:
                assert got == tuple(expected)
    # an edge that is the vertex alone contracts to the unit clutter
    assert _contract((0b001, 0b110), 0b001) is None
    assert _contract((0b011, 0b110), 0b010) == (0b001, 0b100)


def test_unit_clutter_rejected_by_most_ops():
    with pytest.raises(ValueError, match="empty edge"):
        Clutter(3, ((), (0,)))
    d = {"n": 3, "labels": ["x1", "x2", "x3"], "unit": True, "edges": []}
    with pytest.raises(ValueError, match="unit"):
        clutters.from_json_dict(d)


# --- incidence ----------------------------------------------------------------

def test_incidence_h3c8_circulant(h3c8):
    A = incidence_matrix(h3c8)
    assert len(A) == 8 and all(len(row) == 8 for row in A)
    for row in A:
        assert sum(row) == 4
    # row for window starting at x1
    assert A[0] == [1, 1, 1, 1, 0, 0, 0, 0]


def test_incidence_empty_clutter():
    assert incidence_matrix(Clutter(3, ())) == []


def test_incidence_single_edge():
    assert incidence_matrix(Clutter(4, ((0, 1, 2, 3),))) == [[1, 1, 1, 1]]


# --- tau / nu / covers ------------------------------------------------------------

def test_tau_nu_fixtures(h3c8, h3c5):
    assert tau(h3c8) == 2 and nu(h3c8) == 2
    assert tau(h3c5) == 2 and nu(h3c5) == 1
    empty = Clutter(4, ())
    assert tau(empty) == 0 and nu(empty) == 0


def test_tau_nu_against_scan():
    rng = random.Random(13)
    corpus = [random_clutter(rng, rng.randint(2, 7)) for _ in range(60)]
    # the benchmark's inputs: every connected class with n <= 6 and the fixtures
    corpus += [build_path_hypergraph(g) for n in range(1, 7) for g in enumerate_connected(n)]
    corpus += [H3("cycle", k) for k in (8, 10, 12)] + [H3("path", 9), H3("complete", 6)]
    for c in corpus:
        assert tau(c) == oracles.tau_scan(c.n, c.edges)
        assert nu(c) == oracles.nu_scan(c.edges)


def test_tau_nu_deep_inputs():
    # one search level per edge or per chosen vertex would pass the recursion limit
    singletons = Clutter(1100, tuple((v,) for v in range(1100)))
    assert nu(singletons) == 1100
    path = Clutter(1500, tuple((i, i + 1) for i in range(1499)))
    assert tau(path) == 750 and nu(path) == 750


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
        c = random_clutter(rng, n)
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
        c = random_clutter(rng, rng.randint(2, 5))
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
        edges = [rng.sample(range(n), rng.randint(2, 3)) for _ in range(rng.randint(1, 6))]
        c = Clutter(n, oracles.antichain(edges))
        expected = oracles.has_packing_scan(c.n, c.edges)
        assert has_packing(c) == expected
        if has_konig(c) and not expected:
            konig_but_not_packing += 1
    # the walk must look below the clutter itself to find these
    assert konig_but_not_packing > 0


def disjoint_edges(rng, n):
    """Pairwise disjoint edges covering a random subset of range(n)."""
    vertices = rng.sample(range(n), rng.randint(1, n))
    edges, start = [], 0
    while start < len(vertices):
        size = rng.randint(1, 3)
        edges.append(vertices[start:start + size])
        start += size
    return edges


def test_packing_against_minor_scan_exhaustive():
    # every nonempty H_3 with n <= 6, and random clutters with n <= 6, some
    # of them of the kinds the walk prunes (at most two edges, or disjoint
    # edges) and some one edge away from them
    cases = [build_path_hypergraph(g) for n in range(1, 7) for g in enumerate_connected(n)]
    cases = [c for c in cases if c.edges]
    rng = random.Random(37)
    for i in range(300):
        n = rng.randint(1, 6)
        if i % 3 == 0:
            edges = oracles.random_clutter(rng, n)
        elif i % 3 == 1:
            edges = oracles.antichain(rng.sample(range(n), rng.randint(1, n))
                                      for _ in range(rng.randint(1, 2)))
        else:
            edges = disjoint_edges(rng, n)
            if rng.random() < 0.5:
                edges.append(rng.sample(range(n), rng.randint(1, n)))
            edges = oracles.antichain(edges)
        cases.append(Clutter(n, edges))
    refuted = 0
    for c in cases:
        expected = oracles.has_packing_scan(c.n, c.edges)
        assert has_packing(c) == expected, c
        refuted += not expected
    assert refuted > 0


def konig_checks(monkeypatch, c):
    """has_packing(c) and the number of Konig checks it made."""
    calls = 0

    def counting(minor):
        nonlocal calls
        calls += 1
        return has_konig(minor)

    monkeypatch.setattr(clutters, "has_konig", counting)
    return has_packing(c), calls


def test_packing_walk_work(monkeypatch):
    # the largest minors come first, so a failing one is met early, and
    # minors that trivially pack are never checked
    c12 = make_family("cycle", [12])
    rng = random.Random(5)
    perms = [list(range(12))] + [rng.sample(range(12), 12) for _ in range(7)]
    for perm in perms:
        holds, checks = konig_checks(monkeypatch, build_path_hypergraph(relabel(c12, perm)))
        assert not holds and checks <= 200, (perm, checks)
    holds, checks = konig_checks(monkeypatch, H3("cycle", 8))
    assert holds and checks <= 300
    holds, checks = konig_checks(monkeypatch, H3("path", 9))
    assert holds and checks <= 350


# --- weighted covers and packings ---------------------------------------------------
# the two sides of the min-max equation: the cover side through the package, the
# packing side from the oracle scan, and power membership between them

def cover_min(c, cost):
    return cover_degree(cost, minimal_covers(c))


def packing_max(c, cost):
    return oracles.packing_scan(c.edges, cost)


def test_weighted_cover_fixtures(h3c8, h3c5):
    assert cover_min(h3c8, (1,) * 8) == 2
    assert cover_min(h3c8, (0,) * 8) == 0
    assert cover_min(h3c5, (1, 1, 1, 2, 2)) == 2


def test_packing_fixtures_weighted(h3c8, h3c5):
    assert packing_max(h3c8, (1,) * 8) == 2
    assert packing_max(h3c8, (0,) * 8) == 0
    assert packing_max(h3c5, (1,) * 5) == 1


def test_weighted_sides_against_scan_and_duality():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 6)
        c = random_clutter(rng, n)
        cost = tuple(rng.randint(0, 2) for _ in range(n))
        wc = cover_min(c, cost)
        mp = packing_max(c, cost)
        assert wc == oracles.weighted_cover_scan(n, c.edges, cost)
        # x^cost is in I^k exactly when k edges pack under cost
        assert (mp == 0 or member_of_power(cost, c, mp)) and not member_of_power(cost, c, mp + 1)
        assert mp <= wc


# --- bounded min-max probe against the exact verdict --------------------------------
# oracles.mfmc_probe_scan holds the probe's definition: the first cost in {0..cmax}^n
# whose weighted cover minimum exceeds its packing maximum. A gap refutes NTF; a scan
# without one proves nothing, and NTF decides.

def assert_gap_replays(c, gap):
    # the cover side reaches k at the gap's cost while k edges do not pack under it
    cost, wc, _ = gap
    assert cover_min(c, cost) == wc and not member_of_power(cost, c, wc)


def test_probe_c5_refuted_at_all_ones(h3c5):
    gap = oracles.mfmc_probe_scan(h3c5.n, h3c5.edges, 1)
    assert gap == ((1,) * 5, 2, 1)
    assert_gap_replays(h3c5, gap)
    ntf = is_normally_torsion_free(h3c5)
    assert not ntf.normally_torsion_free and (ntf.checked_k[-1], ntf.violation) == (2, gap[0])


def test_probe_c8_undecided(h3c8):
    # ideal, not TU, Mengerian: no gap up to cmax 1, and NTF holds
    assert oracles.mfmc_probe_scan(h3c8.n, h3c8.edges, 1) is None
    assert is_normally_torsion_free(h3c8).normally_torsion_free


def test_probe_empty_undecided():
    assert oracles.mfmc_probe_scan(3, (), 2) is None
    assert is_normally_torsion_free(Clutter(3, ())).normally_torsion_free


def test_probe_matches_oracle_scan():
    # every connected class with n <= 6 at cmax 1, then random clutters at cmax 2
    instances = [(build_path_hypergraph(g), 1) for n in range(1, 7) for g in enumerate_connected(n)]
    rng = random.Random(47)
    instances += [(random_clutter(rng, rng.randint(2, 5)), 2) for _ in range(40)]
    gaps = [0, 0]
    for c, cmax in instances:
        gap = oracles.mfmc_probe_scan(c.n, c.edges, cmax)
        if gap is not None:
            gaps[cmax - 1] += 1
            assert_gap_replays(c, gap)
            assert not is_normally_torsion_free(c).normally_torsion_free
    # both halves see gaps and gap-free scans
    assert 0 < gaps[0] < 143 and 0 < gaps[1] < 40


# --- serialization ---------------------------------------------------------------------

def test_text_round_trip(h3c8):
    head, *lines = clutters.to_text(h3c8).splitlines()
    assert head == "8 8"
    assert tuple(tuple(int(v) - 1 for v in ln.split()) for ln in lines) == h3c8.edges


def test_json_round_trip(h3c5):
    d = clutters.to_json_dict(h3c5)
    assert d["labels"] == ["x1", "x2", "x3", "x4", "x5"] and d["unit"] is False
    assert clutters.from_json_dict(d) == h3c5
    d["labels"] = ["a", "b", "c", "d", "e"]  # ignored on reading
    assert clutters.from_json_dict(d) == h3c5
