"""Phase oracles answering "does the selected node set form a k-clique?".

Two synthesis styles:

* checking: every edge drives a multi-controlled adder chain straight into the
  edge counter (one group of gates per edge); node counting, when enabled,
  works the same way with single-control increments.
* incremental: every edge first computes a one-qubit scratch flag, the flag
  controls the increment circuit, and the flag is uncomputed before the next
  edge.

Both styles finish with equality checks onto flag qubits, a Z on the clique
flag for the phase flip, and a full mirror uncompute, so every work qubit is
returned to |0> and the oracle is self-inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Gate
from .graph import Graph, clique_edge_target


@dataclass(frozen=True)
class OracleMode:
    """Synthesis style plus whether the node count must be checked in-circuit.

    ``count_nodes`` is required when searching the full Hilbert space; a
    weight-k state preparation makes it redundant and it can be disabled.
    """

    style: str = "checking"
    count_nodes: bool = False

    def __post_init__(self) -> None:
        if self.style not in ("checking", "incremental"):
            raise ValueError(f"unknown oracle style {self.style!r}")


def counter_width(count: int) -> int:
    """Qubits needed to hold values 0..count inclusive."""
    return max(1, math.ceil(math.log2(count + 1)))


def make_layout(n: int, k: int, mode: OracleMode) -> Circuit:
    """The empty oracle circuit: its ``registers`` are the qubit layout.

    Registers in order: ``nodes``, ``edge_counter``, ``edge_flag``, then
    ``node_counter`` and ``node_flag`` when counting nodes, ``clique_flag``,
    and ``edge_scratch`` for the incremental style.  Counter widths use
    ceil(log2(count + 1)) so each counter can represent its target value
    itself.  The edge counter is sized for the C(k,2) target, which is exact
    on every Hamming-weight-k input; the node counter is sized to tally all n
    nodes without wraparound, otherwise a state with, say, six nodes selected
    would alias a two-node target modulo the counter capacity and flip a
    non-clique.  Lowering the finished oracle adds
    ``mc_ancilla_requirement(circuit)`` qubits on top of ``n_qubits``.
    """
    widths = {"nodes": n, "edge_counter": counter_width(clique_edge_target(k)),
              "edge_flag": 1}
    if mode.count_nodes:
        widths.update(node_counter=counter_width(n), node_flag=1)
    widths["clique_flag"] = 1
    if mode.style == "incremental":
        widths["edge_scratch"] = 1
    registers: dict[str, range] = {}
    cursor = 0
    for name, width in widths.items():
        registers[name] = range(cursor, cursor + width)
        cursor += width
    return Circuit(cursor, registers, name=f"oracle({mode.style},k={k})")


def _x_gate(operands: tuple[int, ...]) -> Gate:
    """X on the last operand, controlled by the others: X, CX, CCX or MCX."""
    return Gate({1: "X", 2: "CX", 3: "CCX"}.get(len(operands), "MCX"), operands)


def increment_gates(counter, extra_controls=()) -> list[Gate]:
    """+1 (mod 2^width) on ``counter``, optionally under extra controls.

    The MCX ladder of the increment circuit: the top counter bit flips when
    all lower bits are set, down to a bare flip of bit 0.
    """
    counter, extra = tuple(counter), tuple(extra_controls)
    return [_x_gate(extra + counter[:j + 1]) for j in range(len(counter) - 1, -1, -1)]


def increment_circuit(width: int) -> Circuit:
    """Standalone increment circuit |x> -> |x + 1 mod 2^width>."""
    if width < 1:
        raise ValueError("width must be >= 1")
    circ = Circuit(width, {"counter": range(width)}, name=f"increment({width})")
    circ.extend(increment_gates(range(width)))
    return circ


def equality_gates(counter, value: int, flag: int) -> list[Gate]:
    """Flip ``flag`` iff ``counter`` holds ``value`` (X-conjugated MCX)."""
    counter = list(counter)
    if value >= 1 << len(counter):
        raise ValueError(f"target {value} exceeds {len(counter)}-bit counter capacity")
    conj = [Gate("X", (q,)) for i, q in enumerate(counter) if not (value >> i) & 1]
    return conj + [_x_gate((*counter, flag))] + conj


def _edge_count_gates(g: Graph, registers: dict[str, range], style: str) -> list[Gate]:
    gates: list[Gate] = []
    counter = registers["edge_counter"]
    if style == "checking":
        for u, v in g.edge_list():
            gates += increment_gates(counter, extra_controls=(u, v))
    else:
        scratch = registers["edge_scratch"][0]
        for u, v in g.edge_list():
            gates.append(Gate("CCX", (u, v, scratch)))
            gates += increment_gates(counter, extra_controls=(scratch,))
            gates.append(Gate("CCX", (u, v, scratch)))
    return gates


def build_oracle(g: Graph, k: int, mode: OracleMode = OracleMode()) -> Circuit:
    """Phase oracle: |s>|0...0> -> -|s>|0...0> exactly on k-clique encodings.

    With ``count_nodes`` the sign also requires Hamming weight k, making the
    oracle exact over the whole space; without it the oracle is exact on the
    weight-k subspace a restricted preparation confines the search to.  Work
    qubits are compute/uncompute mirrored and end in |0>.  The qubit layout is
    the circuit's ``registers`` (see :func:`make_layout`).
    """
    if k < 2:
        raise ValueError("clique size k must be >= 2")
    if k > g.n:
        raise ValueError(f"k={k} exceeds node count {g.n}")
    if not g.edges:
        raise ValueError("oracle requires a graph with at least one edge")
    circ = make_layout(g.n, k, mode)
    regs = circ.registers
    edge_flag, clique_flag = regs["edge_flag"][0], regs["clique_flag"][0]

    compute = _edge_count_gates(g, regs, mode.style)
    compute += equality_gates(regs["edge_counter"], clique_edge_target(k), edge_flag)
    if mode.count_nodes:
        node_counter, node_flag = regs["node_counter"], regs["node_flag"][0]
        for node in regs["nodes"]:
            compute += increment_gates(node_counter, extra_controls=(node,))
        compute += equality_gates(node_counter, k, node_flag)
        compute.append(Gate("CCX", (edge_flag, node_flag, clique_flag)))
    else:
        compute.append(Gate("CX", (edge_flag, clique_flag)))

    circ.extend(compute)
    circ.add("Z", clique_flag)
    circ.extend(gate.inverse() for gate in reversed(compute))
    return circ
