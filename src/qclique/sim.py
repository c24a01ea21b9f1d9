"""Dense statevector execution of circuits, measurement sampling and histograms.

Basis-state index bit ``i`` is qubit ``i`` (qubit 0 least significant).
Display strings print qubit ``n-1`` leftmost, so the node set {1,2,3,4} on six
qubits reads ``011110``.  Multi-controlled gates are applied natively; no
decomposition is needed for simulation.

Every gate goes through one strided-view kernel, the amplitude-pair scheme of
QuEST (Jones et al., Sci. Rep. 9, 10736, 2019) and of Haener & Steiger (SC17,
arXiv:1704.01127).  The ``2**n`` amplitudes are viewed, without copying, as an
array of shape ``(2,)*n`` in which axis ``n-1-q`` is qubit ``q``; runs of
qubits a gate does not touch are merged into one axis.  Fixing each control
axis to 1 and splitting the target axis into its 0 and 1 halves gives two views
of the amplitude pairs the gate mixes: X-type gates swap the halves, Z-type
gates negate the 1 half, and every other kind applies its 2x2 matrix.
Marginal probabilities use the ``(2,)*n`` view and sum over the unmeasured
axes.

Amplitudes are float64 or complex128.  X/Z-type gates, H, RY, CRY and CCRY
have real matrices, so a circuit made only of them keeps a real state real:
:func:`_amplitude_dtype` picks float64 for it and complex128 for any circuit
with a U3 or U2 (every :func:`~qclique.circuit.decompose_mc` output).  On a
float64 state the kernel applies the real part of the 2x2 matrix, which gives
the real parts of the complex128 run bit for bit, in half the bytes.
:func:`run_ideal` and the trajectories of :mod:`qclique.noise` run on that
dtype; :func:`statevector` and every state handed back stay complex128.

A state's amplitudes may also be a ``(2**n, B)`` block of B states, one per
column (the trajectory blocks of :mod:`qclique.noise`).  The gate kernel's
views then keep the block as their trailing axis, so each ends in one
contiguous run of ``B * 2**q`` amplitudes (``q`` the lowest qubit the gate
touches), and the marginals have one column per state.  A 1-D state is a
block of one.

:func:`run_ideal` simulates only the kept register: the measured qubits and
every qubit that a gate other than an X/Z-type one touches.  The oracle's
counters and flags are touched only by X/Z-type gates, so they hold |0> at
every other gate and need no amplitudes of their own.  Each maximal X/Z-type
run that touches them is evaluated once, by pushing basis labels through
:func:`apply_gate` at full width, and then applied to the kept amplitudes as a
gather and a sign; a run that leaves one of them set sends the whole call
back to the full kernel.  :func:`statevector` and the noisy trajectories of
:mod:`qclique.noise` always run at full width.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .circuit import Circuit, Gate


@dataclass
class StateVector:
    """``2**n_qubits`` amplitudes, complex128 or float64; index bit i corresponds
    to qubit i."""

    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, n_qubits: int, dtype=np.complex128) -> StateVector:
        return cls.basis(n_qubits, 0, dtype)

    @classmethod
    def basis(cls, n_qubits: int, index: int, dtype=np.complex128) -> StateVector:
        try:
            amp = np.zeros(1 << n_qubits, dtype=dtype)
        except MemoryError:
            raise MemoryError(f"cannot allocate a {n_qubits}-qubit state: "
                              f"{np.dtype(dtype).itemsize << n_qubits} bytes requested") from None
        amp[index] = 1.0
        return cls(n_qubits, amp)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=np.complex128,
    )


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


def _gate_matrix_2x2(gate: Gate) -> np.ndarray:
    if gate.kind == "H":
        return _H_MATRIX
    if gate.kind in ("RY", "CRY", "CCRY"):
        return _u3_matrix(gate.params[0], 0.0, 0.0)
    if gate.kind == "U3":
        return _u3_matrix(*gate.params)
    if gate.kind == "U2":
        return _u3_matrix(math.pi / 2.0, *gate.params)
    raise ValueError(f"no 2x2 matrix for {gate.kind}")  # pragma: no cover


_X_KINDS = frozenset({"X", "CX", "CCX", "MCX"})
_Z_KINDS = frozenset({"Z", "CZ", "MCZ"})
_CLASSICAL_KINDS = _X_KINDS | _Z_KINDS
#: Kinds whose matrix is real: they keep a float64 state real.
_REAL_KINDS = _CLASSICAL_KINDS | {"H", "RY", "CRY", "CCRY"}


def _amplitude_dtype(gates) -> type:
    """float64 when every gate has a real matrix, otherwise complex128."""
    return np.float64 if all(g.kind in _REAL_KINDS for g in gates) else np.complex128


@lru_cache(maxsize=1024)
def _pair_views(n_qubits: int, controls: tuple[int, ...], target: int):
    """View shape and index tuples of a gate's target-0 and target-1 halves.

    The shape is ``(2,)*n`` (axis ``n-1-q`` is qubit ``q``) with each run of
    qubits the gate does not touch merged into one axis, so numpy iterates
    over as few and as long axes as possible.  The index tuples fix every
    control axis to 1 and the target axis to 0 or 1.  Each ends with
    ``Ellipsis``, which stands for the trailing block axis: a gate that fixes
    every qubit axis still yields a view rather than a scalar copy.
    """
    shape, lo, hi = [], [], []
    top = n_qubits
    for q in (*sorted((*controls, target), reverse=True), -1):
        if top > q + 1:  # qubits q+1 .. top-1 are untouched: one merged axis
            shape.append(1 << (top - q - 1))
            lo.append(slice(None))
            hi.append(slice(None))
        if q >= 0:
            shape.append(2)
            lo.append(0 if q == target else 1)
            hi.append(1)
        top = q
    return tuple(shape), (*lo, Ellipsis), (*hi, Ellipsis)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place (exact unitary action) and return the state.

    A float64 state takes only the kinds in ``_REAL_KINDS``; any other kind
    raises :class:`ValueError` rather than drop its imaginary part.
    """
    if max(gate.qubits) >= state.n_qubits:
        raise ValueError(f"gate {gate} exceeds state width {state.n_qubits}")
    real = state.amplitudes.dtype == np.float64
    if real and gate.kind not in _REAL_KINDS:
        raise ValueError(f"{gate.kind} has a complex matrix and cannot act on a float64 state")
    shape, lo, hi = _pair_views(state.n_qubits, gate.controls, gate.target)
    view = state.amplitudes.reshape((*shape, -1))
    a0, a1 = view[lo], view[hi]
    kind = gate.kind
    if kind in _X_KINDS:
        tmp = a0.copy()
        a0[...] = a1
        a1[...] = tmp
    elif kind in _Z_KINDS:
        a1 *= -1.0
    else:
        m = _gate_matrix_2x2(gate)
        if real:
            m = m.real  # its imaginary parts are zeros
        tmp = a0.copy()
        a0[...] = m[0, 0] * tmp + m[0, 1] * a1
        a1[...] = m[1, 0] * tmp + m[1, 1] * a1
    return state


def statevector(circuit: Circuit, initial: int = 0) -> StateVector:
    """Run ``circuit`` on basis state ``initial`` and return the final state."""
    state = StateVector.basis(circuit.n_qubits, initial)
    for gate in circuit.ops:
        apply_gate(state, gate)
    return state


def marginal_probabilities(state: StateVector, qubits: list[int]) -> np.ndarray:
    """Born probabilities over ``qubits`` (ascending order defines outcome bits).

    A ``(2**n, B)`` block of states gives one column of marginals per state.
    Each state's probabilities are laid out contiguously before the sum, so a
    state sums in the same order, to the same bits, in a block as alone.
    """
    probs = np.abs(state.amplitudes.T, order="C") ** 2  # one row per state
    n, kept = state.n_qubits, set(qubits)
    dropped = tuple(n - q for q in range(n) if q not in kept)  # axis 0 is the block
    return probs.reshape((-1,) + (2,) * n).sum(axis=dropped).reshape(probs.shape[:-1] + (-1,)).T


def bitstring(index: int, n_bits: int) -> str:
    """Display form of a basis index: qubit ``n_bits - 1`` printed leftmost."""
    return format(index, f"0{n_bits}b")


@dataclass
class MeasurementHistogram:
    """Sampled measurement outcomes: display bitstring -> count."""

    shots: int
    n_bits: int
    counts: dict[str, int]

    def success_probability(self, targets) -> float:
        """Fraction of shots landing on any of the target bitstrings."""
        wanted = {targets} if isinstance(targets, str) else set(targets)
        return sum(c for b, c in self.counts.items() if b in wanted) / self.shots

    def top(self) -> tuple[str, int]:
        return max(self.counts.items(), key=lambda kv: (kv[1], kv[0]))

    def to_json(self) -> str:
        payload = {"schema": 1, "shots": self.shots, "n_bits": self.n_bits,
                   "counts": {k: self.counts[k] for k in sorted(self.counts)}}
        return json.dumps(payload, indent=2, sort_keys=True)


def sample_histogram(probs: np.ndarray, shots: int, rng: np.random.Generator,
                     n_bits: int) -> MeasurementHistogram:
    """Multinomial sampling from a probability vector; deterministic given rng."""
    p = np.clip(probs, 0.0, None)
    total = p.sum()
    if not total > 0.0:
        raise ValueError(f"cannot sample: total probability mass is {total}")
    return _histogram(shots, n_bits, rng.multinomial(shots, p / total))


def _histogram(shots: int, n_bits: int, drawn: np.ndarray) -> MeasurementHistogram:
    """The histogram of ``drawn[i]`` shots on outcome ``i``, keyed in ascending
    outcome order; only the outcomes drawn are visited."""
    hit = np.flatnonzero(drawn)
    counts = {bitstring(i, n_bits): c for i, c in zip(hit.tolist(), drawn[hit].tolist())}
    return MeasurementHistogram(shots, n_bits, counts)


def _scatter(kept: list[int]) -> np.ndarray:
    """Full-width basis index of each basis state of the kept register, work qubits 0."""
    index = np.arange(1 << len(kept))
    full = np.zeros_like(index)
    for i, q in enumerate(kept):
        full |= ((index >> i) & 1) << q
    return full


def _signed_gather(run: tuple[Gate, ...], n_qubits: int, slice_index: np.ndarray):
    """A classical run's action on the work = 0 slice, as ``(source, sign)``.

    Label ``j + 1`` is placed at the ``j``-th index of ``slice_index`` and the run
    is applied to the labels through :func:`apply_gate` at full width, on a
    float64 state, since the labels are real.  X/Z-type gates permute basis
    states and flip signs, so slot ``i`` ends up holding
    ``sign[i] * (source[i] + 1)``.  Returns ``None`` when a label left the slice,
    that is when the run leaves some work qubit set.
    """
    labels = StateVector.zero(n_qubits, np.float64)  # its 1 at slice_index[0] = 0 is relabelled
    labels.amplitudes[slice_index] = np.arange(1, len(slice_index) + 1)
    for gate in run:
        apply_gate(labels, gate)
    landed = labels.amplitudes[slice_index]
    if np.count_nonzero(landed) < len(landed):
        return None
    return np.abs(landed).astype(np.intp) - 1, np.sign(landed)


def _kept_register_state(circuit: Circuit, kept: list[int]) -> StateVector | None:
    """Run ``circuit`` on the kept register only, or ``None`` if it cannot be.

    Gates on kept qubits only run at width ``len(kept)``, renumbered to their
    positions in ``kept``.  Each maximal run of X/Z-type gates that touches a
    work qubit is applied as one signed gather of the kept amplitudes, and each
    distinct run is evaluated once.  The kept amplitudes have the circuit's
    :func:`_amplitude_dtype`.
    """
    position = {q: i for i, q in enumerate(kept)}
    slice_index = _scatter(kept)
    state = StateVector.zero(len(kept), _amplitude_dtype(circuit.ops))
    gathers = {}
    for classical, run in groupby(circuit.ops, key=lambda g: g.kind in _CLASSICAL_KINDS):
        run = tuple(run)
        if classical and any(q not in position for g in run for q in g.qubits):
            if run not in gathers:
                gathers[run] = _signed_gather(run, circuit.n_qubits, slice_index)
            if gathers[run] is None:
                return None
            source, sign = gathers[run]
            state.amplitudes = state.amplitudes[source] * sign
            continue
        for gate in run:
            apply_gate(state, Gate(gate.kind, tuple(position[q] for q in gate.qubits),
                                   gate.params))
    return state


def _measured_qubits(measure: list[int] | None, n_qubits: int) -> list[int]:
    """``measure`` in ascending order, or every qubit when it is ``None``.

    Raises one :class:`ValueError` naming every qubit outside the circuit and
    every qubit listed more than once.
    """
    qubits = sorted(measure) if measure is not None else list(range(n_qubits))
    outside = [q for q in qubits if not 0 <= q < n_qubits]
    repeated = sorted({q for q, after in zip(qubits, qubits[1:]) if q == after})
    problems = []
    if outside:
        problems.append(f"measured qubits {outside} exceed the {n_qubits}-qubit circuit")
    if repeated:
        problems.append(f"measured qubits {repeated} are listed more than once")
    if problems:
        raise ValueError("; ".join(problems))
    return qubits


def run_ideal(circuit: Circuit, shots: int, seed: int,
              measure: list[int] | None = None,
              return_state: bool = False):
    """Noiseless execution: statevector, then Born sampling of ``measure`` qubits.

    ``measure`` defaults to all qubits; pass the node register to read out a
    Grover result.  A qubit outside the circuit or listed twice raises
    :class:`ValueError` before anything runs.  Returns a :class:`MeasurementHistogram`, or a
    ``(histogram, state)`` pair when ``return_state`` is set.

    Only the kept register is simulated: the measured qubits and every qubit
    a gate other than an X/Z-type one touches, ``m`` qubits in all.  The
    other (work) qubits are touched only by X/Z-type gates, which permute
    basis states and flip signs, so each maximal X/Z-type run that touches
    them is evaluated once, by label (see :func:`_signed_gather`), and applied
    to the ``2**m`` kept amplitudes as a gather and a sign.  If a run leaves a
    work qubit set, or no qubit is a work qubit, the whole circuit runs at
    full width through :func:`statevector`.  Either way the amplitudes at
    work = 0 are those of the full kernel, bit for bit, and so are the
    marginals and the histogram when every kept qubit is measured (each
    marginal then has one nonzero term).  The kept register is float64 when
    every gate of the circuit has a real matrix (see :func:`_amplitude_dtype`).
    The returned state is full width and complex128, with the kept amplitudes
    at work = 0 and +0.0 elsewhere, where the full kernel may leave -0.0.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = circuit.n_qubits
    qubits = _measured_qubits(measure, n)
    kept = sorted({q for g in circuit.ops if g.kind not in _CLASSICAL_KINDS for q in g.qubits}
                  | set(qubits))
    narrow = _kept_register_state(circuit, kept) if len(kept) < n else None
    if narrow is None:
        state = statevector(circuit)
        probs = marginal_probabilities(state, qubits)
    else:
        probs = marginal_probabilities(narrow, [kept.index(q) for q in qubits])
        if return_state:
            state = StateVector.zero(n)  # _scatter(kept)[0] is 0, so its 1 is overwritten
            state.amplitudes[_scatter(kept)] = narrow.amplitudes
    hist = sample_histogram(probs, shots, np.random.default_rng(seed), len(qubits))
    return (hist, state) if return_state else hist
