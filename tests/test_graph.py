import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclique.graph import (
    Graph,
    GraphParseError,
    bitstring_to_subset,
    builtin_graph,
    clique_edge_target,
    find_cliques_bruteforce,
    parse_edge_list,
    subset_to_bitstring,
)
from helpers import random_graph


def test_parse_g4_example(g4):
    text = "4 4\n0 1\n0 2\n1 2\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2), (2, 3)})
    assert g == g4


def test_parse_empty_edge_set():
    g = parse_edge_list("3 0\n")
    assert g.n == 3 and not g.edges


def test_parse_comments_and_crlf():
    g = parse_edge_list("# header comment\r\n3 2\r\n0 1 # inline\r\n\r\n1 2\r\n")
    assert g.edges == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize("text,fragment", [
    ("2 1\n0 0\n", "self-loop"),
    ("2 1\n0 5\n", "out of range"),
    ("3 2\n0 1\n1 0\n", "duplicate"),
    ("3 1\nnope\n", "expected two integers"),
    ("3 2\n0 1\n", "declares 2 edges"),
    ("", "missing"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        parse_edge_list(text)


def test_parse_error_names_line_number():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("# c\n2 1\n0 0\n")


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 7)}))
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_bruteforce_g4(g4):
    assert find_cliques_bruteforce(g4, 3) == [frozenset({0, 1, 2})]
    assert find_cliques_bruteforce(g4, 1) == [frozenset({i}) for i in range(4)]
    assert find_cliques_bruteforce(g4, 4) == []


def test_bruteforce_g6_fixture_is_valid(g6):
    # the bundled 6-node graph must have exactly ten edges and the single
    # 4-clique {1,2,3,4}; this validates the fixture choice itself
    assert g6.n == 6 and len(g6.edges) == 10
    assert find_cliques_bruteforce(g6, 4) == [frozenset({1, 2, 3, 4})]


def test_bruteforce_star_has_no_triangle(star4):
    assert find_cliques_bruteforce(star4, 3) == []
    assert find_cliques_bruteforce(star4, 2) == [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})]


def test_bruteforce_k_out_of_range(g4):
    with pytest.raises(ValueError):
        find_cliques_bruteforce(g4, 0)
    with pytest.raises(ValueError):
        find_cliques_bruteforce(g4, 5)


def test_bruteforce_lexicographic_order():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    out = find_cliques_bruteforce(g, 2)
    assert out == [frozenset(e) for e in sorted(g.edges)]


def test_bruteforce_induced_edge_property():
    rng = random.Random(20240)
    for _ in range(40):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        for k in range(1, n + 1):
            hits = set(map(frozenset, find_cliques_bruteforce(g, k)))
            for combo in combinations(range(n), k):
                induced = g.induced_edge_count(combo)
                if frozenset(combo) in hits:
                    assert induced == clique_edge_target(k)
                else:
                    assert induced < clique_edge_target(k)


def test_subset_to_bitstring_examples():
    assert subset_to_bitstring({1, 2, 3, 4}, 6) == (30, "011110")
    assert subset_to_bitstring(set(), 4) == (0, "0000")
    assert subset_to_bitstring({0, 1, 2}, 4) == (7, "0111")


def test_subset_bitstring_roundtrip_and_injective():
    seen = set()
    for k in range(7):
        for combo in combinations(range(6), k):
            index, display = subset_to_bitstring(combo, 6)
            assert index not in seen
            seen.add(index)
            assert bitstring_to_subset(display) == frozenset(combo)
    assert len(seen) == 64


def test_subset_to_bitstring_rejects_out_of_range():
    with pytest.raises(ValueError):
        subset_to_bitstring({9}, 4)


def test_edge_list_roundtrip(g6):
    assert parse_edge_list(g6.to_edge_list_text()) == g6


def test_builtin_graph_unknown():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_graph("missing")


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@given(graphs())
def test_edge_list_round_trip_property(g):
    assert parse_edge_list(g.to_edge_list_text()) == g
