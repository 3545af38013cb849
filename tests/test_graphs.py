import random
from itertools import combinations

import pytest

from mengerian import graphs
from mengerian.graphs import (
    Graph,
    build_path_hypergraph,
    is_connected,
    make_family,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from mengerian.survey import enumerate_connected

from oracles import isomorphic_scan, path_hypergraph_edges


# --- parsing ---------------------------------------------------------------

def test_parse_edge_list_basic():
    g = parse_edge_list("1 2\n2 3")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_edge_list_c8():
    text = "\n".join(f"{i} {i + 1}" for i in range(1, 8)) + "\n1 8"
    g = parse_edge_list(text)
    assert isomorphic_scan(g, make_family("cycle", [8]))


def test_parse_edge_list_header_and_comments():
    g = parse_edge_list("# a square\nn 5\n1 2\n2 3  # chord later\n3 4\n4 1\n")
    assert g.n == 5  # header wins over max label
    assert g.m == 4


def test_parse_edge_list_loop_rejected():
    with pytest.raises(ValueError, match="loop"):
        parse_edge_list("1 1")


def test_parse_edge_list_duplicate_warns_and_dedupes():
    with pytest.warns(UserWarning, match="duplicate"):
        g = parse_edge_list("1 2\n2 1")
    assert g.m == 1


def test_parse_edge_list_label_beyond_header():
    with pytest.raises(ValueError, match="exceeds"):
        parse_edge_list("n 3\n1 4")


def test_parse_edge_list_malformed():
    with pytest.raises(ValueError):
        parse_edge_list("1 2 3")
    with pytest.raises(ValueError):
        parse_edge_list("a b")
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_graph6_round_trip_star():
    g = parse_graph6("D?{")
    assert to_graph6(g) == "D?{"
    assert isomorphic_scan(g, make_family("star", [4]))


def test_graph6_c5_hand_fixture():
    # hand-decoded 10-bit adjacency vector of the 5-cycle
    g = parse_graph6("Dhc")
    assert isomorphic_scan(g, make_family("cycle", [5]))
    assert to_graph6(make_family("cycle", [5])) == "Dhc"


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")


def test_graph6_invalid_byte():
    with pytest.raises(ValueError, match="invalid graph6 byte"):
        parse_graph6("D" + chr(200) + chr(63))


def test_graph6_truncated():
    with pytest.raises(ValueError, match="length"):
        parse_graph6("D?")


def test_graph6_long_size_prefix_round_trip():
    # n > 62 is written as "~" and three 6-bit bytes
    for n in (63, 100):
        g = make_family("path", [n])
        text = to_graph6(g)
        assert text[0] == "~" and parse_graph6(text) == g


@pytest.mark.parametrize("text, message", [
    ("~??", "truncated graph6 size prefix"),  # the long prefix needs three size bytes
    ("?", "at least one vertex"),  # n = 0
    ("A@", "nonzero padding bits"),  # n = 2 has one edge bit; the last of six is set
])
def test_graph6_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        parse_graph6(text)


def test_edge_list_round_trip():
    g = make_family("spider", [2, 2, 1])
    assert parse_edge_list(graphs.to_edge_list(g)) == g


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        pairs = list(combinations(range(n), 2))
        edges = [p for p in pairs if rng.random() < 0.4]
        g = graphs.Graph(n, edges)
        assert parse_graph6(to_graph6(g)) == g


def test_graph_normalises_its_edges():
    # each pair is ordered and repeats are dropped, so equal graphs hash
    # alike whatever order or container their pairs came in
    g = Graph(3, [(0, 1)])
    assert g == Graph(3, [(1, 0)]) and hash(g) == hash(Graph(3, [(1, 0)]))
    assert Graph(3, [(0, 1), (1, 0)]).m == 1
    assert repr(g) == "Graph(n=3, edges=frozenset({(0, 1)}))"
    with pytest.raises(ValueError, match=r"^loop at vertex 2$"):
        Graph(3, [(1, 1)])
    for pair in ((1, 5), (5, 1)):
        with pytest.raises(ValueError, match=r"^edge \(2, 6\) out of range 1\.\.3$"):
            Graph(3, [pair])


# --- families ---------------------------------------------------------------

def test_family_shapes():
    assert make_family("path", [1]) == Graph(1, frozenset())
    p4 = make_family("path", [4])
    assert p4.m == 3 and is_connected(p4)
    c8 = make_family("cycle", [8])
    assert c8.m == 8 and all(c8.degree(v) == 2 for v in range(8))
    star = make_family("star", [4])
    assert star.n == 5 and star.degree(0) == 4
    ds = make_family("double_star", [2, 3])
    assert ds.n == 7 and ds.degree(0) == 3 and ds.degree(1) == 4
    spider = make_family("spider", [2, 1, 1])
    assert spider.n == 5 and spider.degree(0) == 3
    spe = make_family("star_plus_edge", [4])
    assert spe.n == 5 and spe.m == 5 and (1, 2) in spe.edges
    k4 = make_family("complete", [4])
    assert k4.m == 6


def test_family_param_errors():
    for name, params in [("cycle", [2]), ("path", [0]), ("star", [0]),
                         ("star_plus_edge", [1]), ("double_star", [0, 2]),
                         ("spider", []), ("nosuch", [3])]:
        with pytest.raises(ValueError):
            make_family(name, params)


def test_is_connected():
    assert is_connected(make_family("cycle", [8]))
    assert is_connected(make_family("path", [1]))
    two_edges = graphs.Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(two_edges)


# --- path hypergraphs --------------------------------------------------------

def test_h3_c8_is_the_eight_windows():
    H = build_path_hypergraph(make_family("cycle", [8]))
    expected = sorted(tuple(sorted({i, (i + 1) % 8, (i + 2) % 8, (i + 3) % 8}))
                      for i in range(8))
    assert list(H.edges) == expected
    assert H.m == 8


def test_h3_star_is_empty():
    H = build_path_hypergraph(make_family("star", [4]))
    assert H.is_empty and H.n == 5


def test_h3_c5_every_four_subset():
    g = make_family("cycle", [5])
    H = build_path_hypergraph(g)
    oracle = path_hypergraph_edges(5, g.edges, 3)
    assert list(H.edges) == oracle
    assert H.m == 5  # each 4-subset of a 5-cycle spans a path


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_h3_matches_ordering_oracle_random(t):
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(4, 7)
        pairs = list(combinations(range(n), 2))
        g = graphs.Graph(n, [p for p in pairs if rng.random() < 0.5])
        H = build_path_hypergraph(g, t)
        assert list(H.edges) == path_hypergraph_edges(n, g.edges, t)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_h_t_matches_ordering_oracle_on_every_class(t):
    # all 143 connected classes with n <= 6; the random test above adds
    # disconnected graphs and n = 7
    classes = [g for n in range(1, 7) for g in enumerate_connected(n)]
    assert len(classes) == 143
    for g in classes:
        assert list(build_path_hypergraph(g, t).edges) == path_hypergraph_edges(g.n, g.edges, t)


def test_h_t_matches_ordering_oracle_on_complete_graphs():
    # every vertex set spans many paths, which the search visits once per set
    for n in range(1, 9):
        g = make_family("complete", [n])
        for t in range(1, n):
            assert list(build_path_hypergraph(g, t).edges) == path_hypergraph_edges(n, g.edges, t)


def test_h_t_uniformity_and_small_cases():
    for t in (1, 2, 3, 4):
        H = build_path_hypergraph(make_family("complete", [t + 1]), t)
        assert H.m == 1 and H.edges[0] == tuple(range(t + 1))
    H = build_path_hypergraph(make_family("path", [3]), 3)
    assert H.is_empty
    H2 = build_path_hypergraph(make_family("path", [6]), 2)
    assert {len(e) for e in H2.edges} == {3}


def test_h3_equivariant_under_relabeling():
    rng = random.Random(3)
    g = make_family("spider", [2, 2, 1])
    H = build_path_hypergraph(g)
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        Hp = build_path_hypergraph(graphs.relabel(g, perm))
        mapped = sorted(tuple(sorted(perm[v] for v in e)) for e in H.edges)
        assert list(Hp.edges) == mapped


def test_path_search_stops_at_the_first_empty_level():
    # no path has more than n - 1 edges, so a t past that answers at once
    assert graphs.path_vertex_sets(make_family("path", [3]), 10 ** 12) == set()
    assert graphs.path_vertex_sets(make_family("complete", [6]), 10 ** 9) == set()
    assert graphs.path_vertex_sets(make_family("path", [3]), 2) == {0b111}


def test_t_validation():
    with pytest.raises(ValueError):
        build_path_hypergraph(make_family("path", [4]), 0)
