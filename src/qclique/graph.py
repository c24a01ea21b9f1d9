"""Undirected simple graphs: parsing, bundled fixtures, brute-force clique search.

The brute-force enumeration is the classical oracle every quantum result in
this package is cross-validated against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

#: A candidate clique: set of node indices.
NodeSubset = frozenset


class GraphParseError(ValueError):
    """Raised on malformed edge-list input; message names the offending line."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over ``n`` labeled nodes 0..n-1.

    ``edges`` holds normalized ``(u, v)`` pairs with ``u < v``; no self-loops,
    no duplicates.  Instances are immutable and safe to share.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        pairs = [(min(u, v), max(u, v)) for u, v in edges]
        normalized = frozenset(pairs)
        if len(normalized) != len(pairs):
            raise ValueError("duplicate edge")
        return cls(n, normalized)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in lexicographic (u, v) order; fixes deterministic oracle layout."""
        return sorted(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def induced_edge_count(self, members) -> int:
        return sum(1 for u, v in combinations(sorted(members), 2) if self.has_edge(u, v))

    def to_edge_list_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in self.edge_list()]
        return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: header ``n m`` then m lines ``u v``.

    ``#`` starts a comment (full-line or trailing); LF and CRLF both accepted.
    Raises :class:`GraphParseError` naming the line number on malformed input,
    out-of-range endpoints, self-loops and duplicate edges.
    """
    header: tuple[int, int] | None = None
    edges: set[tuple[int, int]] = set()
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected two integers, got {line!r}") from None
        if header is None:
            if a < 1 or b < 0:
                raise GraphParseError(f"line {lineno}: invalid header {line!r}")
            header = (a, b)
            n, m = a, b
            continue
        if a == b:
            raise GraphParseError(f"line {lineno}: self-loop on node {a}")
        u, v = min(a, b), max(a, b)
        if u < 0 or v >= n:
            raise GraphParseError(f"line {lineno}: endpoint out of range [0, {n})")
        if (u, v) in edges:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        edges.add((u, v))
    if header is None:
        raise GraphParseError("line 1: missing 'n m' header")
    if len(edges) != m:
        raise GraphParseError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, frozenset(edges))


def find_cliques_bruteforce(g: Graph, k: int) -> list[NodeSubset]:
    """All k-subsets inducing C(k,2) edges, in lexicographic order.

    The result length is the Grover solution count m.  Intended for oracle use
    at small n; enumeration is exhaustive.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range [1, {g.n}]")
    adjacency = [0] * g.n
    for u, v in g.edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    found: list[NodeSubset] = []
    for combo in combinations(range(g.n), k):
        mask = 0
        for node in combo:
            mask |= 1 << node
        if all((adjacency[node] & mask) == (mask & ~(1 << node)) for node in combo):
            found.append(frozenset(combo))
    return found


def subset_to_bitstring(members, n: int) -> tuple[int, str]:
    """Basis index with bit i set iff node i is in the subset, plus display string.

    The display string prints qubit n-1 leftmost, so {1,2,3,4} on six nodes is
    index 30 and reads ``011110``.
    """
    index = 0
    for node in members:
        if not 0 <= node < n:
            raise ValueError(f"node {node} out of range for n={n}")
        index |= 1 << node
    return index, format(index, f"0{n}b")


def bitstring_to_subset(display: str) -> NodeSubset:
    """Inverse of :func:`subset_to_bitstring`'s display form."""
    return frozenset(i for i, ch in enumerate(reversed(display)) if ch == "1")


def clique_edge_target(k: int) -> int:
    """Edges a k-clique must induce: C(k, 2)."""
    return math.comb(k, 2)


# Bundled example graphs.  G4 is the 4-node instance with a triangle on
# {0, 1, 2}; G6 the 6-node, 10-edge instance whose only 4-clique is
# {1, 2, 3, 4}; STAR4 is the triangle-free star K_{1,3}.  The non-clique
# edges are fixture choices validated by brute force in the test suite.
G4_TEXT = """\
# 4 nodes, triangle on 0-1-2, pendant edge 2-3
4 4
0 1
0 2
1 2
2 3
"""

G6_TEXT = """\
# 6 nodes, 10 edges, single 4-clique on 1-2-3-4
6 10
0 1
0 5
1 2
1 3
1 4
2 3
2 4
2 5
3 4
4 5
"""

STAR4_TEXT = """\
# star K_{1,3}: triangle-free
4 3
0 1
0 2
0 3
"""

BUILTIN_GRAPHS = {"g4": G4_TEXT, "g6": G6_TEXT, "star4": STAR4_TEXT}


def builtin_graph(name: str) -> Graph:
    try:
        return parse_edge_list(BUILTIN_GRAPHS[name.lower()])
    except KeyError:
        raise ValueError(f"unknown builtin graph {name!r}; have {sorted(BUILTIN_GRAPHS)}") from None
