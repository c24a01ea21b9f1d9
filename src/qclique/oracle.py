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
from dataclasses import dataclass, field, replace

from .circuit import Circuit, Gate, mc_ancilla_requirement
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


@dataclass(frozen=True)
class CounterLayout:
    """Qubit assignment for one oracle instance.

    Counter widths use ceil(log2(count + 1)) so each counter can represent its
    target value itself.  The edge counter is sized for the C(k,2) target,
    which is exact on every Hamming-weight-k input; the node counter is sized
    to tally all n nodes without wraparound, otherwise a state with, say, six
    nodes selected would alias a two-node target modulo the counter capacity
    and flip a non-clique.  ``mc_ancilla_width`` is what lowering the oracle's
    multi-controlled gates will add; the oracle circuit itself does not
    include those ancillas.
    """

    n_nodes: int
    k: int
    mode: OracleMode
    registers: dict[str, range] = field(repr=False)
    total_qubits: int = 0
    mc_ancilla_width: int = 0

    @property
    def nodes(self) -> range:
        return self.registers["nodes"]

    @property
    def edge_counter(self) -> range:
        return self.registers["edge_counter"]

    @property
    def edge_flag(self) -> int:
        return self.registers["edge_flag"][0]

    @property
    def node_counter(self) -> range | None:
        span = self.registers.get("node_counter")
        return span

    @property
    def node_flag(self) -> int | None:
        span = self.registers.get("node_flag")
        return span[0] if span else None

    @property
    def clique_flag(self) -> int:
        return self.registers["clique_flag"][0]

    @property
    def edge_scratch(self) -> int | None:
        span = self.registers.get("edge_scratch")
        return span[0] if span else None


def counter_width(count: int) -> int:
    """Qubits needed to hold values 0..count inclusive."""
    return max(1, math.ceil(math.log2(count + 1)))


def make_layout(n: int, k: int, mode: OracleMode) -> CounterLayout:
    registers: dict[str, range] = {"nodes": range(n)}
    cursor = n
    ew = counter_width(clique_edge_target(k))
    registers["edge_counter"] = range(cursor, cursor + ew)
    cursor += ew
    registers["edge_flag"] = range(cursor, cursor + 1)
    cursor += 1
    if mode.count_nodes:
        nw = counter_width(n)  # wrap-free: the register can tally every node
        registers["node_counter"] = range(cursor, cursor + nw)
        cursor += nw
        registers["node_flag"] = range(cursor, cursor + 1)
        cursor += 1
    registers["clique_flag"] = range(cursor, cursor + 1)
    cursor += 1
    if mode.style == "incremental":
        registers["edge_scratch"] = range(cursor, cursor + 1)
        cursor += 1
    return CounterLayout(n, k, mode, registers, total_qubits=cursor)


def increment_gates(counter, extra_controls=()) -> list[Gate]:
    """+1 (mod 2^width) on ``counter``, optionally under extra controls.

    The MCX ladder of the increment circuit: the top counter bit flips when
    all lower bits are set, down to a bare flip of bit 0.
    """
    counter = list(counter)
    extra = tuple(extra_controls)
    gates: list[Gate] = []
    for j in range(len(counter) - 1, -1, -1):
        operands = extra + tuple(counter[:j]) + (counter[j],)
        if len(operands) == 1:
            gates.append(Gate("X", operands))
        elif len(operands) == 2:
            gates.append(Gate("CX", operands))
        elif len(operands) == 3:
            gates.append(Gate("CCX", operands))
        else:
            gates.append(Gate("MCX", operands))
    return gates


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
    operands = tuple(counter) + (flag,)
    if len(operands) == 2:
        hit = Gate("CX", operands)
    elif len(operands) == 3:
        hit = Gate("CCX", operands)
    else:
        hit = Gate("MCX", operands)
    return conj + [hit] + conj


def _edge_count_gates(g: Graph, layout: CounterLayout) -> list[Gate]:
    gates: list[Gate] = []
    counter = layout.edge_counter
    if layout.mode.style == "checking":
        for u, v in g.edge_list():
            gates += increment_gates(counter, extra_controls=(u, v))
    else:
        scratch = layout.edge_scratch
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
    qubits are compute/uncompute mirrored and end in |0>.
    """
    if k < 2:
        raise ValueError("clique size k must be >= 2")
    if k > g.n:
        raise ValueError(f"k={k} exceeds node count {g.n}")
    if not g.edges:
        raise ValueError("oracle requires a graph with at least one edge")
    layout = make_layout(g.n, k, mode)
    circ = Circuit(layout.total_qubits, layout.registers,
                   name=f"oracle({mode.style},k={k})")

    compute: list[Gate] = []
    compute += _edge_count_gates(g, layout)
    compute += equality_gates(layout.edge_counter, clique_edge_target(k), layout.edge_flag)
    if mode.count_nodes:
        for node in layout.nodes:
            compute += increment_gates(layout.node_counter, extra_controls=(node,))
        compute += equality_gates(layout.node_counter, k, layout.node_flag)
        compute.append(Gate("CCX", (layout.edge_flag, layout.node_flag, layout.clique_flag)))
    else:
        compute.append(Gate("CX", (layout.edge_flag, layout.clique_flag)))

    circ.extend(compute)
    circ.add("Z", layout.clique_flag)
    circ.extend(gate.inverse() for gate in reversed(compute))

    circ.layout = replace(layout, mc_ancilla_width=mc_ancilla_requirement(circ))
    return circ
