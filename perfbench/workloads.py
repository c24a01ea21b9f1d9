"""Workload definitions shared by run.py and the pass runner (passes.py).

Pure data and pure-Python graph helpers: importing this module loads neither
numpy nor qclique, so a pass can time its own imports as part of set-up.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

# Criterion 7's eight profiles, in the form `qclique sweep --profile` accepts.
SWEEP_PROFILES = ["500:500", "200:200", "ibmq_melbourne", "ibmq_poughkeepsie",
                  "ibmq_singapore", "ibmq_paris", "ibmq_cambridge", "ibmq_rochester"]

# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "sweep_g4": {
        "kind": "noisy", "graph": "g4", "k": 3, "prep": "w", "oracle": "checking",
        "profiles": SWEEP_PROFILES, "trajectories": 500, "workers": 2,
    },
    "noisy_full12": {
        "kind": "noisy", "graph": "g4", "k": 3, "prep": "full", "oracle": "checking",
        "profiles": ["500:500"], "trajectories": 300, "workers": 1,
    },
    "ideal_dicke20": {
        "kind": "ideal", "graph": "criterion10", "k": 3, "prep": "dicke",
        "oracle": "checking", "shots": 4096, "workers": 1,
    },
}

G4_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3)]


def criterion10_edges(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Criterion 10's 16-node graph (triangle {0,1,2} plus 40 edges drawn with
    random.Random(11)), with node labels permuted by ``seed``.

    Relabelling keeps the graph's shape, so m, N, the iteration count and the
    gate counts are the same for every seed; only the qubits gates act on move.
    """
    rng = random.Random(11)
    edges = {(0, 1), (0, 2), (1, 2)}
    edges.update(rng.sample([(u, v) for u in range(16) for v in range(u + 1, 16)], 40))
    perm = list(range(16))
    random.Random(seed).shuffle(perm)
    relabelled = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    return 16, relabelled


def graph_edges(spec: dict, seed: int) -> tuple[int, list[tuple[int, int]]]:
    if spec["graph"] == "g4":
        return 4, list(G4_EDGES)
    return criterion10_edges(seed)


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The plain edge-list format `qclique --graph FILE` reads."""
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def reference_cliques(n: int, edges: list[tuple[int, int]], k: int) -> list[int]:
    """Node-register basis indices of every k-clique, found without qclique."""
    adjacent = set(edges)
    return [sum(1 << v for v in combo) for combo in combinations(range(n), k)
            if all((u, v) in adjacent for u, v in combinations(combo, 2))]


def search_space(prep: str, n: int, k: int) -> int:
    return 1 << n if prep == "full" else math.comb(n, k)


def analytic_success(n_space: int, m: int) -> tuple[int, float]:
    """Optimal iteration count and sin^2((2j+1) asin(sqrt(m/N))), from first principles."""
    j = math.floor(math.pi / 4.0 * math.sqrt(n_space / m))
    return j, math.sin((2 * j + 1) * math.asin(math.sqrt(m / n_space))) ** 2
