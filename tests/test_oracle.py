import math
import random

import numpy as np
import pytest

from qclique.circuit import Circuit, Gate, mc_ancilla_requirement
from qclique.graph import Graph, find_cliques_bruteforce, subset_to_bitstring
from qclique.oracle import (
    OracleMode,
    build_oracle,
    counter_width,
    equality_gates,
    increment_circuit,
    make_layout,
)
from qclique.sim import SparseState, apply_gate, run_ideal, statevector
from helpers import oracle_action, random_graph


def bruteforce_indices(g, k):
    return {subset_to_bitstring(s, g.n)[0] for s in find_cliques_bruteforce(g, k)}


def weight(i):
    return bin(i).count("1")


# -- increment circuit -------------------------------------------------------

def test_increment_width2_examples():
    inc = increment_circuit(2)
    assert int(np.argmax(np.abs(statevector(inc, initial=0b10).amplitudes))) == 0b11
    state = SparseState.basis(2, 0)
    for _ in range(3):  # three applications encode the three triangle edges
        for gate in inc.ops:
            apply_gate(state, gate)
    assert int(np.argmax(np.abs(state.dense(2).amplitudes))) == 0b11


def test_increment_wraparound():
    inc = increment_circuit(3)
    assert int(np.argmax(np.abs(statevector(inc, initial=0b111).amplitudes))) == 0


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_increment_exhaustive(width):
    inc = increment_circuit(width)
    for x in range(1 << width):
        out = statevector(inc, initial=x).amplitudes
        assert abs(out[(x + 1) % (1 << width)] - 1.0) < 1e-12


def test_increment_requires_width():
    with pytest.raises(ValueError):
        increment_circuit(0)


def test_increment_golden_dump():
    assert increment_circuit(3).dumps() == "CCX 0,1,2\nCX 0,1\nX 0\n"


# -- layout ------------------------------------------------------------------

def test_counter_widths():
    # 2-qubit edge counter counts the 3 triangle edges; +1 so the counter can
    # hold the target itself (4-clique: 6 edges -> 3 bits, 4 nodes -> 3 bits)
    assert counter_width(math.comb(3, 2)) == 2
    assert counter_width(math.comb(4, 2)) == 3
    assert counter_width(3) == 2
    assert counter_width(4) == 3


def test_layout_registers_full_space():
    layout = make_layout(4, 3, OracleMode("checking", True))
    spans = layout.registers
    assert spans["nodes"] == range(0, 4)
    assert len(spans["edge_counter"]) == 2
    # node counter tallies up to n=4 nodes without wraparound
    assert len(spans["node_counter"]) == 3
    assert layout.n_qubits == 4 + 2 + 1 + 3 + 1 + 1
    covered = sorted(q for span in spans.values() for q in span)
    assert covered == list(range(layout.n_qubits))


def test_node_counter_never_aliases():
    # all-ones on six nodes once aliased a k=2 target modulo a 2-bit counter;
    # the wrap-free width keeps the node equality exact
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 3), (2, 3), (2, 4), (0, 5), (2, 5)])
    for style in ("checking", "incremental"):
        orc = build_oracle(g, 2, OracleMode(style, True))
        flipped, leakage = oracle_action(orc, 6)
        assert leakage < 1e-20
        assert flipped == {subset_to_bitstring(s, 6)[0]
                           for s in find_cliques_bruteforce(g, 2)}


def test_layout_incremental_has_scratch():
    layout = make_layout(4, 3, OracleMode("incremental", False))
    assert "edge_scratch" in layout.registers
    assert "node_counter" not in layout.registers
    assert layout.n_qubits == 4 + 2 + 1 + 1 + 1


def test_equality_capacity_guard():
    with pytest.raises(ValueError, match="capacity"):
        equality_gates(range(2), 4, 5)


# -- oracle preconditions ----------------------------------------------------

def test_oracle_rejects_bad_inputs(g4):
    with pytest.raises(ValueError):
        build_oracle(g4, 1)
    with pytest.raises(ValueError):
        build_oracle(g4, 5)
    with pytest.raises(ValueError, match="at least one edge"):
        build_oracle(Graph(3, frozenset()), 2)
    with pytest.raises(ValueError, match="style"):
        OracleMode("fancy")


# -- phase semantics ---------------------------------------------------------

@pytest.mark.parametrize("style", ["checking", "incremental"])
@pytest.mark.parametrize("count_nodes", [False, True])
def test_oracle_g4_triangle(g4, style, count_nodes):
    orc = build_oracle(g4, 3, OracleMode(style, count_nodes))
    flipped, leakage = oracle_action(orc, 4)
    assert leakage < 1e-20
    if count_nodes:
        assert flipped == {0b0111}
    else:
        assert {i for i in flipped if weight(i) == 3} == {0b0111}


@pytest.mark.parametrize("style", ["checking", "incremental"])
def test_oracle_star_identity(star4, style):
    # no triangle anywhere: with node counting the oracle is the identity on
    # every basis state (m = 0)
    orc = build_oracle(star4, 3, OracleMode(style, True))
    flipped, leakage = oracle_action(orc, 4)
    assert flipped == set() and leakage < 1e-20


def test_oracle_g6_has_ten_edge_groups(g6):
    orc = build_oracle(g6, 4, OracleMode("checking", True))
    counter = set(orc.registers["edge_counter"])
    node_pairs = set()
    for g in orc.ops:
        if g.kind in ("CCX", "MCX") and g.target in counter:
            node_pairs.add(tuple(sorted(q for q in g.controls if q < 6)))
    assert node_pairs == set(g6.edge_list())
    assert len(node_pairs) == 10


def test_oracle_self_inverse(g4):
    orc = build_oracle(g4, 3, OracleMode("incremental", True))
    rng = np.random.default_rng(3)
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = SparseState(orc.n_qubits, np.arange(16), raw / np.linalg.norm(raw))
    before = state.dense(orc.n_qubits).amplitudes
    for _ in range(2):
        for gate in orc.ops:
            apply_gate(state, gate)
    assert np.allclose(state.dense(orc.n_qubits).amplitudes, before, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_matches_bruteforce_random(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(4, 6)
    g = random_graph(rng, n, rng.uniform(0.3, 0.8))
    k = rng.choice([kk for kk in (2, 3, 4) if kk <= n])
    solutions = bruteforce_indices(g, k)
    patterns = {}
    for style in ("checking", "incremental"):
        for count_nodes in (False, True):
            orc = build_oracle(g, k, OracleMode(style, count_nodes))
            flipped, leakage = oracle_action(orc, n)
            assert leakage < 1e-20, (style, count_nodes)
            if count_nodes:
                assert flipped == solutions, (style, g, k)
            else:
                assert {i for i in flipped if weight(i) == k} == solutions
            patterns.setdefault(count_nodes, flipped)
            # style equivalence: identical sign pattern for the same setting
            assert patterns[count_nodes] == flipped


def test_oracle_sign_is_exhaustively_the_clique_set():
    """H on every node, then the oracle, through the ideal engine: the amplitude
    at work = 0 is negative exactly on the k-cliques, over all 2**n inputs with
    node counting and over the weight-k inputs without it."""
    rng = random.Random(20261018)
    for _ in range(30):
        n = rng.randint(4, 8)
        k = rng.randint(2, min(n, 5 if n < 8 else 4))  # label states of at most 19 qubits
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        solutions = bruteforce_indices(g, k)
        for style in ("checking", "incremental"):
            for count_nodes in (False, True):
                orc = build_oracle(g, k, OracleMode(style, count_nodes))
                circ = Circuit(orc.n_qubits, ops=[*(Gate("H", (q,)) for q in range(n)), *orc.ops])
                _, state = run_ideal(circ, shots=1, seed=0, measure=list(range(n)),
                                     return_state=True)
                amp = state.amplitudes
                assert not np.any(amp[1 << n:]), (g, k, style, count_nodes)
                negative = {i for i in range(1 << n) if amp[i].real < 0}
                if not count_nodes:
                    negative = {i for i in negative if weight(i) == k}
                assert negative == solutions, (g, k, style, count_nodes)


def test_layout_reports_mc_ancilla(g6):
    orc = build_oracle(g6, 4, OracleMode("checking", True))
    # widest gate: edge increment with 2 node controls + 2 counter controls
    assert mc_ancilla_requirement(orc) == 2
