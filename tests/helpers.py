"""Shared test machinery: a dense reference engine, oracle phase extraction,
random graphs, hypothesis strategies."""
from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import strategies as st

from qclique import sim
from qclique.circuit import _ARITY, _N_PARAMS, GATE_KINDS, Circuit, Gate
from qclique.graph import Graph
from qclique.sim import StateVector


def dense_apply(amp: np.ndarray, n: int, gate: Gate) -> np.ndarray:
    """Apply ``gate`` in place to C-contiguous dense amplitudes, one state
    ``(2**n,)`` or a block ``(2**n, B)``, and return them: the reference the
    sparse engine is checked against.

    The amplitudes are viewed as ``(2,)*n`` (axis ``n-1-q`` is qubit ``q``)
    plus the block axis.  Fixing each control axis to 1 and the target axis
    to 0 or 1 gives the halves the gate mixes; the trailing ``...`` keeps
    them views when every axis is fixed.
    """
    view = amp.reshape((2,) * n + amp.shape[1:])
    lo, hi = [slice(None)] * n, [slice(None)] * n
    for q in gate.controls:
        lo[n - 1 - q] = hi[n - 1 - q] = 1
    lo[n - 1 - gate.target], hi[n - 1 - gate.target] = 0, 1
    a0, a1 = view[(*lo, ...)], view[(*hi, ...)]
    if gate.kind in sim._X_KINDS:
        tmp = a0.copy()
        a0[...] = a1
        a1[...] = tmp
    elif gate.kind in sim._Z_KINDS:
        a1 *= -1.0
    else:
        sim._rotate_pairs(a0, a1, gate)
    return amp


def dense_statevector(circuit: Circuit, initial: int = 0) -> StateVector:
    """:func:`qclique.sim.statevector` on the dense reference engine."""
    state = StateVector.basis(circuit.n_qubits, initial)
    for gate in circuit.ops:
        dense_apply(state.amplitudes, circuit.n_qubits, gate)
    return state


def dense_program(amp: np.ndarray, n: int, steps: list, rng: np.random.Generator) -> None:
    """Run a compiled noisy program in place on dense amplitudes ``(2**n, B)``:
    each gate through :func:`dense_apply` and each relaxation step on a
    strided view of the amplitudes, with the numbers a sparse trajectory
    block draws from ``rng`` before its first step, and no relaxation code of
    the package.  A Kraus program draws ``(R, 2, B)`` uniforms for its R
    steps, one ``(2, B)`` row a step.  A mixture program draws ``(R, B)``
    uniforms, one row a step, then one uniform per reset (a uniform below the
    step's ``p_reset``), in step and column order, for each reset's
    measurement.  Every number drawn must be used."""
    channels = [step[2] for step in steps if step[0] == "relax"]
    columns = amp.shape[1]
    if channels[0].implementation == "kraus":
        rows, outcomes = iter(rng.random((len(channels), 2, columns))), iter(())
    else:
        u = rng.random((len(channels), columns))
        resets = np.count_nonzero(u < np.array([[ch.p_reset] for ch in channels]))
        rows, outcomes = iter(u), iter(rng.random(resets))
    for step in steps:
        if step[0] == "gate":
            dense_apply(amp, n, step[1])
            continue
        _, qubit, channel = step
        view = amp.reshape(-1, 2, 1 << qubit, columns)  # (above, qubit value, below, column)
        zero, one = view[:, 0], view[:, 1]
        squares = (one * one.conj()).real
        p1 = [math.fsum(squares[..., column].ravel().tolist()) for column in range(columns)]
        draws = next(rows)
        if channel.implementation == "kraus":
            # amplitude damping with Born-weighted jumps, then the residual dephasing
            for column in range(columns):
                if draws[0, column] < channel.gamma * p1[column]:  # a jump: |1> decays to |0>
                    zero[..., column] = one[..., column] * p1[column] ** -0.5
                    one[..., column] = 0.0
                    continue
                scale = (1.0 - channel.gamma * p1[column]) ** -0.5
                zero[..., column] *= scale
                one[..., column] *= scale * math.sqrt(channel.decay1)
                if draws[1, column] < channel.p_phi:
                    one[..., column] *= -1.0
            continue
        for column in (draws < channel.p_reset + channel.p_z).nonzero()[0]:
            if draws[column] >= channel.p_reset:  # a phase flip
                one[..., column] *= -1.0
                continue
            # a reset: measure the qubit, then set |0>
            if next(outcomes) < p1[column]:
                zero[..., column] = one[..., column] * p1[column] ** -0.5
            else:
                zero[..., column] *= (1.0 - p1[column]) ** -0.5
            one[..., column] = 0.0
    assert next(rows, None) is None and next(outcomes, None) is None


def oracle_action(oracle: Circuit, n_nodes: int):
    """Apply an oracle to the uniform node-basis superposition with clean work qubits.

    One simulation reveals the whole diagonal: returns (flipped, leakage) where
    ``flipped`` is the set of node-basis indices whose sign changed and
    ``leakage`` the total probability left outside the work-qubits-zero
    subspace (ancilla cleanliness).
    """
    dim_nodes = 1 << n_nodes
    amp = np.zeros(1 << oracle.n_qubits, dtype=np.complex128)
    amp[:dim_nodes] = 1.0 / math.sqrt(dim_nodes)
    for gate in oracle.ops:
        dense_apply(amp, oracle.n_qubits, gate)
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
    return np.array([dense_statevector(circuit, b).amplitudes
                     for b in range(1 << circuit.n_qubits)]).T


_ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def gates_on(draw, n: int, kinds=GATE_KINDS):
    """A random gate of one of ``kinds`` on distinct qubits of an n-qubit register."""
    kind = draw(st.sampled_from(sorted(k for k in kinds if _ARITY.get(k, 2) <= n)))
    arity = _ARITY.get(kind) or draw(st.integers(2, n))  # MCX/MCZ take any width >= 2
    qubits = tuple(draw(st.permutations(range(n)))[:arity])
    return Gate(kind, qubits, tuple(draw(_ANGLES) for _ in range(_N_PARAMS.get(kind, 0))))
