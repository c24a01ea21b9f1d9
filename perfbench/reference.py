"""Exact noisy success probabilities for the noisy workloads: writes reference.json.

The checks in run.py compare each run's sampled success probability against
these values, so they must not come from the run being checked.  They are
computed once by exact density-matrix simulation and committed.  vec(rho) is
held as a 2n-qubit tensor: a gate acts with its matrix on row qubit q and with
the complex-conjugate matrix on column qubit q + n; relaxation over t acts on
each (row, column) bit pair in closed form:

    rho_00 += gamma * rho_11,  rho_11 *= exp(-t/T1),  rho_01, rho_10 *= exp(-t/T2).

The schedule (which qubit relaxes for how long, between which gates) is the
one qclique.noise.compile_noisy_program produces at the commit that generated
the file.  Run from the repository root:

    python3 perfbench/reference.py          # about 2.5 minutes, ~700 MiB peak RSS
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qclique import cli, grover, noise  # noqa: E402
from qclique.graph import parse_edge_list  # noqa: E402
from workloads import WORKLOADS, graph_edges, graph_text, reference_cliques  # noqa: E402


def gate_action(gate) -> tuple[tuple[int, ...], int, np.ndarray]:
    """(controls, target, 2x2 matrix) of a qclique gate, written independently of qclique.sim."""
    kind, qubits, params = gate.kind, gate.qubits, gate.params
    if kind in ("X", "CX", "CCX", "MCX"):
        return qubits[:-1], qubits[-1], np.array([[0, 1], [1, 0]], dtype=complex)
    if kind in ("Z", "CZ", "MCZ"):
        return qubits[:-1], qubits[-1], np.diag([1, -1]).astype(complex)
    if kind == "H":
        return (), qubits[0], np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind in ("RY", "CRY", "CCRY"):
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return qubits[:-1], qubits[-1], np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"no reference action for {kind}")


class DensityTensor:
    """vec(rho) of an n-qubit register as a (2,)*2n tensor; bit b sits on axis 2n-1-b."""

    def __init__(self, n: int):
        self.n = n
        self.t = np.zeros((2,) * (2 * n), dtype=np.complex128)
        self.t[(0,) * (2 * n)] = 1.0

    def _axis(self, bit: int) -> int:
        return 2 * self.n - 1 - bit

    def _apply(self, controls, target: int, m: np.ndarray) -> None:
        index = [slice(None)] * (2 * self.n)
        for c in controls:
            index[self._axis(c)] = 1
        i0, i1 = list(index), list(index)
        i0[self._axis(target)] = 0
        i1[self._axis(target)] = 1
        a0 = self.t[tuple(i0)].copy()
        a1 = self.t[tuple(i1)]
        self.t[tuple(i0)] = m[0, 0] * a0 + m[0, 1] * a1
        self.t[tuple(i1)] = m[1, 0] * a0 + m[1, 1] * a1

    def gate(self, gate) -> None:
        controls, target, m = gate_action(gate)
        self._apply(controls, target, m)
        self._apply(tuple(c + self.n for c in controls), target + self.n, m.conj())

    def relax(self, q: int, channel) -> None:
        def at(row: int, col: int):
            index = [slice(None)] * (2 * self.n)
            index[self._axis(q)] = row
            index[self._axis(q + self.n)] = col
            return tuple(index)
        self.t[at(0, 0)] += channel.gamma * self.t[at(1, 1)]
        self.t[at(1, 1)] *= channel.decay1
        self.t[at(0, 1)] *= channel.decay2
        self.t[at(1, 0)] *= channel.decay2

    def diagonal(self) -> np.ndarray:
        dim = 1 << self.n
        return self.t.reshape(dim, dim).diagonal().real.copy()  # index = col * dim + row


def exact_success(circuit, profile, solutions: list[int], n_nodes: int) -> float:
    rho = DensityTensor(circuit.n_qubits)
    for step in noise.compile_noisy_program(circuit, profile):
        if step[0] == "gate":
            rho.gate(step[1])
        else:
            rho.relax(step[1], step[2])
    probs = rho.diagonal()
    nodes = probs.reshape(-1, 1 << n_nodes).sum(axis=0)
    return float(nodes[solutions].sum())


def main() -> int:
    out = {}
    for name, spec in WORKLOADS.items():
        if spec["kind"] != "noisy":
            continue
        n, edges = graph_edges(spec, seed=0)
        g = parse_edge_list(graph_text(n, edges))
        circ = grover.assemble(g, spec["k"], spec["prep"], spec["oracle"])
        solutions = reference_cliques(n, edges, spec["k"])
        out[name] = {}
        for spec_p in spec["profiles"]:
            p = exact_success(circ, cli.load_profile(spec_p), solutions, n)
            out[name][spec_p] = p
            print(f"{name} {spec_p}: {p:.6f}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
