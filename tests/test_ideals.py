import random

import pytest

from mengerian.clutters import Clutter, _minimal_cover_vectors, incidence_matrix, minimal_covers
from mengerian.graphs import build_path_hypergraph, make_family, parse_edge_list
from mengerian.ideals import (
    format_monomial,
    is_normally_torsion_free,
    member_of_power,
    power_bound,
    powers_equal,
    symbolic_power,
)
from mengerian.survey import enumerate_connected

import oracles
from test_survey import extended


def H3(name, *params):
    return build_path_hypergraph(make_family(name, list(params)))


def power_gens(gens, k):
    return oracles.minimal_gens(oracles.power_products(gens, k))


def edge_gens(c):
    # the square-free generators of the edge ideal, one incidence row per edge
    return tuple(sorted(map(tuple, incidence_matrix(c))))


@pytest.fixture(scope="module")
def h3c8():
    return H3("cycle", 8)


@pytest.fixture(scope="module")
def h3c5():
    return H3("cycle", 5)


CORPUS = None


def corpus():
    global CORPUS
    if CORPUS is None:
        CORPUS = [
            H3("cycle", 5),
            H3("cycle", 6),
            H3("path", 5),
            H3("path", 6),
            H3("star_plus_edge", 4),
            H3("spider", 2, 2, 1),
            build_path_hypergraph(parse_edge_list("1 2\n2 3\n3 4\n4 5\n3 6")),
        ]
    return CORPUS


# --- edge ideals ------------------------------------------------------------------

def test_edge_ideal_c8(h3c8):
    gens = edge_gens(h3c8)
    assert len(gens) == 8
    assert (1, 1, 1, 1, 0, 0, 0, 0) in gens
    assert all(sum(g) == 4 for g in gens)


# --- powers ------------------------------------------------------------------------

def test_power_fixtures():
    assert power_gens(oracles.minimal_gens([(1, 1)]), 3) == ((3, 3),)
    assert power_gens(oracles.minimal_gens([(1, 0), (0, 1)]), 2) == ((0, 2), (1, 1), (2, 0))


def test_power_c8_squared_matches_brute(h3c8):
    gens = edge_gens(h3c8)
    brute = oracles.power_products(gens, 2)
    # uniform generators: all 36 pairwise products, distinct ones survive
    assert set(power_gens(gens, 2)) == brute
    assert len(brute) == 33


def test_power_validation():
    with pytest.raises(ValueError, match="positive"):
        member_of_power((1, 1), Clutter(2, ((0,),)), 0)
    with pytest.raises(ValueError, match="arity"):
        member_of_power((1,), Clutter(2, ((0,),)), 1)
    assert not member_of_power((1, 1), Clutter(2, ()), 1)  # the zero ideal


def test_prime_power_fixtures():
    assert oracles.prime_power((0, 4), 1, 8) == ((0, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0))
    sq = oracles.prime_power((0, 4), 2, 8)
    assert len(sq) == 3
    tri = oracles.prime_power((0, 2, 5), 1, 8)
    assert len(tri) == 3
    with pytest.raises(ValueError):
        oracles.prime_power((), 1, 4)


def test_intersect_fixtures():
    assert oracles.intersect(((1, 0),), ((0, 1),)) == ((1, 1),)
    I = ((0, 1), (1, 0))
    assert oracles.intersect(I, I) == I
    got = oracles.intersect(((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
                            ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)))
    assert set(got) == {
        (1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0), (0, 0, 0, 0, 1, 1)}


def contains(gens, m):
    return any(all(x <= y for x, y in zip(g, m)) for g in gens)


def test_intersect_membership_oracle():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(2, 4)
        I = oracles.minimal_gens([tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(3)])
        J = oracles.minimal_gens([tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(3)])
        K = oracles.minimal_gens(oracles.intersect(I, J))
        assert K == oracles.intersect(I, J)
        for g in K:
            assert contains(I, g) and contains(J, g)
        for g in I + J:
            assert contains(K, g) == (contains(I, g) and contains(J, g))


# --- symbolic powers ----------------------------------------------------------------

def test_symbolic_k1_is_edge_ideal():
    for c in corpus():
        assert symbolic_power(c, 1).gens == edge_gens(c)
        assert oracles.symbolic_power_scan(c.n, c.edges, 1) == edge_gens(c)


def test_symbolic_methods_agree_small():
    for c in corpus():
        for k in (2, 3):
            assert symbolic_power(c, k).gens == oracles.symbolic_power_scan(c.n, c.edges, k)


def test_symbolic_methods_agree_c8(h3c8):
    for k in (2, 3):
        assert symbolic_power(h3c8, k).gens == oracles.symbolic_power_scan(8, h3c8.edges, k)


def test_symbolic_c5_contains_all_ones(h3c5):
    S = symbolic_power(h3c5, 2)
    assert (1, 1, 1, 1, 1) in S.gens


def test_symbolic_c8_equals_ordinary(h3c8):
    gens = edge_gens(h3c8)
    for k in (2, 3, 4):
        assert symbolic_power(h3c8, k).gens == power_gens(gens, k)


def test_symbolic_gens_pass_cover_degree_oracle():
    for c in corpus():
        covers = minimal_covers(c)
        for k in (1, 2, 3):
            S = symbolic_power(c, k)
            for g in S.gens:
                assert oracles.symbolic_member_scan(g, covers, k)
                # minimality: every positive coordinate sits on a tight cover
                for v, e in enumerate(g):
                    if e:
                        dec = g[:v] + (e - 1,) + g[v + 1:]
                        assert not oracles.symbolic_member_scan(dec, covers, k)


def same_vectors(c, k):
    covers = minimal_covers(c)
    return (sorted(_minimal_cover_vectors(covers, k, c.n))
            == sorted(oracles.minimal_cover_vectors_scan(covers, k, c.n)))


def test_packed_search_matches_tuple_search_h3_n6():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            c = build_path_hypergraph(g)
            if c.is_empty:
                continue
            for k in range(1, min(power_bound(c.m), 4) + 1):
                assert same_vectors(c, k), (g, k)
                checked += 1
    assert checked > 100


def test_packed_search_matches_tuple_search_random():
    rng = random.Random(67)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 8)
        c = Clutter(n, oracles.random_clutter(rng, n))
        if not c.is_empty:
            assert same_vectors(c, rng.randint(1, 4)), c
            checked += 1


def test_packed_search_matches_tuple_search_cycles(h3c8):
    for k in (1, 2, 3, 4):
        assert same_vectors(h3c8, k)
    assert same_vectors(H3("cycle", 10), 2)


@pytest.mark.parametrize("n, edges, k", [
    (12, ((0, 1, 2, 3),), 4),
    (12, ((0, 1, 2, 3),), 8),  # k = Caps().max_power_k
    (12, ((0, 1), (2, 3)), 8),  # isolated vertices on no cover
    (8, ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7)), 8),
])
def test_packed_field_widths(n, edges, k):
    # the widest exponent and cover-sum fields that the caps allow
    c = Clutter(n, edges)
    assert symbolic_power(c, k).gens == oracles.symbolic_power_scan(n, c.edges, k)


def test_symbolic_validation(h3c5):
    with pytest.raises(ValueError):
        symbolic_power(Clutter(3, ()), 2)
    with pytest.raises(ValueError):
        symbolic_power(h3c5, 0)


# --- membership and power equality -----------------------------------------------------

def test_member_of_power_fixtures(h3c8, h3c5):
    assert not member_of_power((1, 1, 1, 1, 1), h3c5, 2)  # degree 5 < 8
    w1 = tuple(1 if i < 4 else 0 for i in range(8))
    w2 = tuple(0 if i < 4 else 1 for i in range(8))
    assert member_of_power(tuple(a + b for a, b in zip(w1, w2)), h3c8, 2)
    assert member_of_power((2, 2, 2, 2, 0, 0, 0, 0), h3c8, 2)  # square of one generator


def test_powers_equal_c5(h3c5):
    violation = powers_equal(h3c5, 2)
    assert violation is not None
    assert violation == (1, 1, 1, 1, 1)
    assert format_monomial(violation) == "x1*x2*x3*x4*x5"


def test_powers_equal_c8(h3c8):
    for k in (2, 3, 4):
        assert powers_equal(h3c8, k) is None


def test_powers_equal_k1(h3c5):
    assert powers_equal(h3c5, 1) is None


def test_powers_equal_matches_oracle_on_corpus():
    # both outcomes of the membership search on mixed inputs
    outcomes = set()
    for c in corpus():
        for k in (2, 3):
            symbolic = oracles.symbolic_power_scan(c.n, c.edges, k)
            ordinary = power_gens(edge_gens(c), k)
            violation = powers_equal(c, k)
            assert (violation is None) == (symbolic == ordinary), (c, k)
            if violation is not None:
                assert violation in symbolic and not contains(ordinary, violation)
            outcomes.add(violation is None)
    assert outcomes == {True, False}


def test_ordinary_inside_symbolic():
    for c in corpus():
        covers = minimal_covers(c)
        for k in (2, 3):
            for g in power_gens(edge_gens(c), k):
                assert oracles.symbolic_member_scan(g, covers, k)


# --- normally torsion-free ----------------------------------------------------------------

def test_ntf_c8(h3c8):
    res = is_normally_torsion_free(h3c8)
    assert res.normally_torsion_free
    assert res.mu == 8 and res.bound == 4
    assert res.checked_k == (2, 3, 4)


def test_ntf_c5(h3c5):
    res = is_normally_torsion_free(h3c5)
    assert not res.normally_torsion_free
    assert res.violation is not None and res.checked_k[-1] == 2


def test_ntf_p11():
    # TU, so decide takes the shortcut; power equality still holds up to the bound
    res = is_normally_torsion_free(H3("path", 11))
    assert res.normally_torsion_free and res.checked_k == (2, 3, 4)


@extended
def test_ntf_c12_violation():
    # C12 is non-ideal, so decide never runs this search on it
    res = is_normally_torsion_free(H3("cycle", 12))
    assert not res.normally_torsion_free and res.checked_k[-1] == 4
    assert res.violation == (1, 1, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2)


def test_ntf_degenerate():
    assert is_normally_torsion_free(Clutter(4, ((0, 1, 2, 3),))).normally_torsion_free
    assert is_normally_torsion_free(Clutter(3, ())).normally_torsion_free


def test_ntf_never_contradicts_bounded_probe(h3c5):
    # the triangle as a 2-uniform clutter and the 5-cycle hypergraph are
    # classic refutable instances; random antichains join for coverage.
    # oracles.mfmc_probe_scan is the bounded probe: a gap it finds refutes NTF
    triangle = Clutter(3, ((0, 1), (0, 2), (1, 2)))
    instances = [triangle, h3c5]
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(2, 5)
        c = Clutter(n, oracles.random_clutter(rng, n))
        if c.edges and c.m <= 8:
            instances.append(c)
    refuted = 0
    for c in instances:
        if oracles.mfmc_probe_scan(c.n, c.edges, 2) is not None:
            refuted += 1
            assert not is_normally_torsion_free(c).normally_torsion_free
    assert refuted >= 2
