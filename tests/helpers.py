"""Shared test machinery: oracle phase extraction, random graphs, dense references,
hypothesis strategies."""
from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import strategies as st

from qclique.circuit import _ARITY, _N_PARAMS, GATE_KINDS, Circuit, Gate
from qclique.graph import Graph
from qclique.sim import StateVector, apply_gate


def oracle_action(oracle: Circuit, n_nodes: int):
    """Apply an oracle to the uniform node-basis superposition with clean work qubits.

    One simulation reveals the whole diagonal: returns (flipped, leakage) where
    ``flipped`` is the set of node-basis indices whose sign changed and
    ``leakage`` the total probability left outside the work-qubits-zero
    subspace (ancilla cleanliness).
    """
    dim_nodes = 1 << n_nodes
    state = StateVector.zero(oracle.n_qubits)
    state.amplitudes[:] = 0.0
    state.amplitudes[:dim_nodes] = 1.0 / math.sqrt(dim_nodes)
    for gate in oracle.ops:
        apply_gate(state, gate)
    amp = state.amplitudes
    ref = 1.0 / math.sqrt(dim_nodes)
    flipped = {i for i in range(dim_nodes) if amp[i].real < -0.5 * ref}
    intact = {i for i in range(dim_nodes) if amp[i].real > 0.5 * ref}
    assert len(flipped) + len(intact) == dim_nodes, "oracle is not a clean phase oracle"
    leakage = float(np.sum(np.abs(amp[dim_nodes:]) ** 2))
    return flipped, leakage


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Erdos-Renyi style instance, re-rolled until it has at least one edge."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if edges:
            return Graph.from_edges(n, edges)


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Brute-force the full matrix by running every basis state (small widths)."""
    dim = 1 << circuit.n_qubits
    cols = []
    for b in range(dim):
        state = StateVector.basis(circuit.n_qubits, b)
        for gate in circuit.ops:
            apply_gate(state, gate)
        cols.append(state.amplitudes.copy())
    return np.array(cols).T


_ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def gates_on(draw, n: int, kinds=GATE_KINDS):
    """A random gate of one of ``kinds`` on distinct qubits of an n-qubit register."""
    kind = draw(st.sampled_from(sorted(k for k in kinds if _ARITY.get(k, 2) <= n)))
    arity = _ARITY.get(kind) or draw(st.integers(2, n))  # MCX/MCZ take any width >= 2
    qubits = tuple(draw(st.permutations(range(n)))[:arity])
    return Gate(kind, qubits, tuple(draw(_ANGLES) for _ in range(_N_PARAMS.get(kind, 0))))
