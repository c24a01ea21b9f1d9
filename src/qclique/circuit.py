"""Gate-level circuit IR: typed gates, named registers, composition, lowering, metrics.

Conventions used throughout the package:

* Qubit ``i`` of a circuit corresponds to bit ``i`` of a basis-state index
  (qubit 0 is the least significant bit).
* Multi-qubit gate operands are ordered controls first, target last.
* Every circuit is built whole: ``Circuit(n, registers, name, ops)`` takes its
  gate list in the one constructor call (``compose``, ``adjoint`` and
  ``decompose_mc`` included), and nothing assigns ``ops`` or ``name`` later.
  Builders append to a circuit they have just made; finished circuits are
  treated as immutable and are safe to share between workers.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

#: Gates equal to their own inverse.
SELF_INVERSE = frozenset({"H", "X", "Z", "CX", "CZ", "CCX", "MCX", "MCZ"})
#: Y-rotations (possibly controlled); inverted by negating the angle.
ROTATION_KINDS = frozenset({"RY", "CRY", "CCRY"})
#: All supported gate kinds.
GATE_KINDS = SELF_INVERSE | ROTATION_KINDS | {"U3", "U2"}

#: Gate kinds allowed in the output of :func:`decompose_mc`.
LOWERED_KINDS = frozenset({"X", "CX", "CCX", "CZ", "H", "U3", "U2"})

_ARITY = {
    "H": 1, "X": 1, "Z": 1, "RY": 1, "U3": 1, "U2": 1,
    "CX": 2, "CZ": 2, "CRY": 2,
    "CCX": 3, "CCRY": 3,
}
_N_PARAMS = {"RY": 1, "CRY": 1, "CCRY": 1, "U3": 3, "U2": 2}

# Lowering of multi-controlled gates: the native gate for short operand lists,
# otherwise the AND ladder's mid gate and how many trailing operands it keeps.
_MC_SHORT_FORMS = {("MCX", 2): "CX", ("MCX", 3): "CCX", ("MCZ", 2): "CZ"}
_MC_LADDER_MID = {"MCX": ("CCX", 2), "MCZ": ("CZ", 1)}


@dataclass(frozen=True)
class Gate:
    """A single instruction: ``kind`` applied to ``qubits`` (controls first, target last).

    ``params`` holds rotation angles in radians: ``(theta,)`` for RY/CRY/CCRY,
    ``(theta, phi, lam)`` for U3 and ``(phi, lam)`` for U2.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in _ARITY and len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} qubits, got {len(self.qubits)}")
        if self.kind in ("MCX", "MCZ") and len(self.qubits) < 2:
            raise ValueError(f"{self.kind} needs at least one control")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate operand in {self.kind} {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        want = _N_PARAMS.get(self.kind, 0)
        if len(self.params) != want:
            raise ValueError(f"{self.kind} takes {want} parameter(s), got {len(self.params)}")
        if any(not math.isfinite(p) for p in self.params):
            raise ValueError(f"non-finite angle in {self.kind}: {self.params}")

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[:-1]

    @property
    def target(self) -> int:
        return self.qubits[-1]

    def inverse(self) -> Gate:
        if self.kind in SELF_INVERSE:
            return self
        if self.kind in ROTATION_KINDS:
            return Gate(self.kind, self.qubits, (-self.params[0],))
        if self.kind == "U3":
            theta, phi, lam = self.params
            return Gate("U3", self.qubits, (-theta, -lam, -phi))
        # U2(phi, lam)^-1 = U2(pi - lam, pi - phi), staying inside the gate set
        phi, lam = self.params
        return Gate("U2", self.qubits, (math.pi - lam, math.pi - phi))

    def __str__(self) -> str:
        text = f"{self.kind} " + ",".join(str(q) for q in self.qubits)
        if self.params:
            text += " " + ",".join(repr(p) for p in self.params)
        return text


@dataclass(frozen=True)
class CircuitMetrics:
    """Size, ASAP critical-path depth, per-kind gate counts and width."""

    size: int
    depth: int
    counts: dict[str, int]
    n_qubits: int


class Circuit:
    """An ordered gate list over ``n_qubits``, with optional named registers.

    Registers are contiguous, disjoint qubit ranges (``dict`` name -> ``range``)
    used by builders to address the node register, counters and flags.
    ``ops`` is the initial gate list, each gate checked as by :meth:`append`.
    """

    def __init__(self, n_qubits: int, registers: dict[str, range] | None = None,
                 name: str = "", ops=()) -> None:
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = n_qubits
        self.registers: dict[str, range] = dict(registers or {})
        self.name = name
        self.ops: list[Gate] = []
        seen: set[int] = set()
        for reg, span in self.registers.items():
            for q in span:
                if q in seen:
                    raise ValueError(f"register {reg!r} overlaps another register")
                if q >= n_qubits:
                    raise ValueError(f"register {reg!r} exceeds circuit width")
                seen.add(q)
        self.extend(ops)

    # -- construction -------------------------------------------------------

    def append(self, gate: Gate) -> None:
        if max(gate.qubits) >= self.n_qubits:
            raise ValueError(f"gate {gate} exceeds circuit width {self.n_qubits}")
        self.ops.append(gate)

    def add(self, kind: str, *qubits: int, params: tuple[float, ...] = ()) -> None:
        self.append(Gate(kind, tuple(qubits), tuple(params)))

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    def compose(self, other: Circuit) -> Circuit:
        """Concatenate ``other`` after this circuit; ``other`` may be narrower."""
        if other.n_qubits > self.n_qubits:
            raise ValueError(
                f"cannot compose a {other.n_qubits}-qubit circuit into {self.n_qubits} qubits")
        return Circuit(self.n_qubits, self.registers, self.name, self.ops + other.ops)

    def adjoint(self) -> Circuit:
        """Reverse gate order and invert each gate."""
        return Circuit(self.n_qubits, self.registers, self.name + "^-1" if self.name else "",
                       [g.inverse() for g in reversed(self.ops)])

    # -- inspection ---------------------------------------------------------

    def metrics(self) -> CircuitMetrics:
        """Gate count, ASAP depth (gates conflict iff they share a qubit) and counts."""
        counts = dict(Counter(g.kind for g in self.ops))
        depth = _critical_path(self.ops, lambda g: 1)
        return CircuitMetrics(len(self.ops), depth, counts, self.n_qubits)

    def dumps(self) -> str:
        """Plain-text dump, one gate per line, for golden-file comparisons."""
        return "\n".join(str(g) for g in self.ops) + ("\n" if self.ops else "")

    def __len__(self) -> int:
        return len(self.ops)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and self.n_qubits == other.n_qubits
                and self.ops == other.ops)

    def __repr__(self) -> str:
        return f"Circuit({self.n_qubits} qubits, {len(self.ops)} gates{', ' + self.name if self.name else ''})"


def _critical_path(gates, duration):
    """ASAP end time of ``gates``: each starts once every qubit it touches is free.

    ``duration(gate)`` is 1 for circuit depth and nanoseconds for wall-clock
    timing; an empty sequence takes 0.
    """
    ready: dict[int, float] = {}
    for gate in gates:
        end = max(ready.get(q, 0) for q in gate.qubits) + duration(gate)
        for q in gate.qubits:
            ready[q] = end
    return max(ready.values(), default=0)


def mc_ancilla_requirement(circuit: Circuit) -> int:
    """Clean ancillas :func:`decompose_mc` will need for ``circuit``."""
    need = 0
    for g in circuit.ops:
        if g.kind in _MC_LADDER_MID:
            need = max(need, len(g.qubits) - _MC_LADDER_MID[g.kind][1] - 1)
    return need


def _lower_gate(gate: Gate, anc: range) -> list[Gate]:
    kind = gate.kind
    if kind in LOWERED_KINDS:
        return [gate]
    if kind == "Z":
        # Z = U3(0, 0, pi) up to global phase; kept exact via the U3 matrix
        return [Gate("U3", gate.qubits, (0.0, 0.0, math.pi))]
    if kind == "RY":
        return [Gate("U3", gate.qubits, (gate.params[0], 0.0, 0.0))]
    if kind == "CRY":
        c, t = gate.qubits
        half = gate.params[0] / 2.0
        return [Gate("U3", (t,), (half, 0.0, 0.0)), Gate("CX", (c, t)),
                Gate("U3", (t,), (-half, 0.0, 0.0)), Gate("CX", (c, t))]
    if kind == "CCRY":
        c1, c2, t = gate.qubits
        half = gate.params[0] / 2.0
        return [Gate("U3", (t,), (half, 0.0, 0.0)), Gate("CCX", (c1, c2, t)),
                Gate("U3", (t,), (-half, 0.0, 0.0)), Gate("CCX", (c1, c2, t))]
    if (kind, len(gate.qubits)) in _MC_SHORT_FORMS:
        return [Gate(_MC_SHORT_FORMS[kind, len(gate.qubits)], gate.qubits)]
    if kind in _MC_LADDER_MID:
        # AND ladder over clean ancillas (Barenco et al., PRA 52, 3457, 1995):
        # chain the leading operands into the ancillas, apply the mid gate to
        # the last ancilla and the kept operands, then mirror the chain
        mid_kind, keep = _MC_LADDER_MID[kind]
        ands = gate.qubits[:-keep]
        chain = [Gate("CCX", (ands[0], ands[1], anc[0]))]
        for j in range(len(ands) - 2):
            chain.append(Gate("CCX", (anc[j], ands[j + 2], anc[j + 1])))
        mid = Gate(mid_kind, (anc[len(ands) - 2], *gate.qubits[-keep:]))
        return chain + [mid] + chain[::-1]
    raise ValueError(f"cannot lower gate kind {kind}")  # pragma: no cover


def decompose_mc(circuit: Circuit) -> Circuit:
    """Lower a circuit to the gate set {X, CX, CCX, CZ, H, U3, U2}.

    Multi-controlled gates become CCX ladders over a clean ancilla register
    (compute/uncompute mirrored, ancillas returned to zero and reused), with
    the standard costs of 2c-3 CCX per c-control MCX and 1 CZ + 2m-4 CCX per
    m-qubit MCZ.  Controlled Y-rotations are split into CX/CCX-conjugated
    half-angle rotations.  The result acts identically on the non-ancilla
    qubits for any basis input.
    """
    extra = mc_ancilla_requirement(circuit)
    registers = dict(circuit.registers)
    anc = range(circuit.n_qubits, circuit.n_qubits + extra)
    if extra:
        registers["mc_ancilla"] = anc
    return Circuit(circuit.n_qubits + extra, registers, circuit.name,
                   [low for gate in circuit.ops for low in _lower_gate(gate, anc)])
