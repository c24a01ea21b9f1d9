import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclique import sim
from qclique.circuit import Circuit, Gate, decompose_mc
from qclique.graph import builtin_graph
from qclique.grover import assemble
from qclique.sim import (
    MeasurementHistogram,
    StateVector,
    apply_gate,
    bitstring,
    marginal_probabilities,
    run_ideal,
    sample_histogram,
    statevector,
)
from helpers import dense_unitary, gates_on
from test_circuit import random_circuit


def kron_reference(circuit: Circuit) -> np.ndarray:
    """Independent dense reference built from explicit matrices and kron."""
    n = circuit.n_qubits
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for gate in circuit.ops:
        m = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            m[:, col] = _apply_reference(gate, col, n)
        u = m @ u
    return u


def _apply_reference(gate: Gate, basis: int, n: int) -> np.ndarray:
    out = np.zeros(1 << n, dtype=complex)
    kind = gate.kind
    if kind in ("X", "CX", "CCX", "MCX"):
        controls, target = gate.qubits[:-1], gate.qubits[-1]
        if all(basis >> c & 1 for c in controls):
            out[basis ^ (1 << target)] = 1.0
        else:
            out[basis] = 1.0
        return out
    if kind in ("Z", "CZ", "MCZ"):
        sign = -1.0 if all(basis >> q & 1 for q in gate.qubits) else 1.0
        out[basis] = sign
        return out
    # single-qubit 2x2 kinds, possibly controlled rotations
    controls, target = gate.controls, gate.target
    if not all(basis >> c & 1 for c in controls):
        out[basis] = 1.0
        return out
    if kind == "H":
        m = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    elif kind in ("RY", "CRY", "CCRY"):
        t = gate.params[0]
        m = np.array([[math.cos(t / 2), -math.sin(t / 2)],
                      [math.sin(t / 2), math.cos(t / 2)]])
    elif kind == "U3" or kind == "U2":
        theta, phi, lam = (math.pi / 2, *gate.params) if kind == "U2" else gate.params
        m = np.array([[math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
                      [np.exp(1j * phi) * math.sin(theta / 2),
                       np.exp(1j * (phi + lam)) * math.cos(theta / 2)]])
    else:  # pragma: no cover
        raise AssertionError(kind)
    b = basis >> target & 1
    out[basis & ~(1 << target)] = m[0, b]
    out[basis | (1 << target)] = m[1, b]
    return out


def test_apply_gate_truth_tables():
    state = StateVector.zero(1)
    apply_gate(state, Gate("X", (0,)))
    assert abs(state.amplitudes[1] - 1.0) < 1e-15

    state = StateVector.zero(1)
    apply_gate(state, Gate("H", (0,)))
    apply_gate(state, Gate("H", (0,)))
    assert abs(state.amplitudes[0] - 1.0) < 1e-12

    state = StateVector.basis(3, 0b011)  # qubits 0,1 set
    apply_gate(state, Gate("CCX", (0, 1, 2)))
    assert abs(state.amplitudes[0b111] - 1.0) < 1e-15


def test_apply_gate_rejects_wide_operands():
    with pytest.raises(ValueError):
        apply_gate(StateVector.zero(2), Gate("CCX", (0, 1, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_kernel_matches_kron_reference(seed):
    rng = random.Random(seed)
    circ = random_circuit(rng, 3, 15)
    assert np.allclose(dense_unitary(circ), kron_reference(circ), atol=1e-10)


def test_norm_preserved_on_random_circuits():
    rng = random.Random(77)
    for _ in range(5):
        circ = random_circuit(rng, 5, 60)
        state = statevector(circ)
        assert abs(state.norm() - 1.0) < 1e-9


def test_mcx_many_controls():
    circ = Circuit(6)
    circ.add("MCX", 0, 1, 2, 3, 4, 5)
    for basis in (0b011111, 0b111111, 0b000001):
        out = statevector(circ, initial=basis).amplitudes
        expect = basis ^ (1 << 5) if basis & 0b11111 == 0b11111 else basis
        assert abs(out[expect] - 1.0) < 1e-15


def test_bitstring_display_order():
    assert bitstring(0b011110, 6) == "011110"
    assert bitstring(1, 4) == "0001"  # qubit 0 is the rightmost character


def test_marginal_probabilities_subset():
    circ = Circuit(3)
    circ.add("H", 0)
    circ.add("CX", 0, 2)
    state = statevector(circ)
    probs = marginal_probabilities(state, [0, 2])
    assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)
    assert np.allclose(marginal_probabilities(state, [1]), [1.0, 0.0], atol=1e-12)


def test_run_ideal_empty_circuit():
    hist = run_ideal(Circuit(3), shots=50, seed=1)
    assert hist.counts == {"000": 50}


def test_run_ideal_deterministic_and_seed_sensitive():
    circ = Circuit(2)
    circ.add("H", 0)
    a = run_ideal(circ, shots=500, seed=42)
    b = run_ideal(circ, shots=500, seed=42)
    c = run_ideal(circ, shots=500, seed=43)
    assert a.counts == b.counts
    assert a.to_json().encode() == b.to_json().encode()
    assert a.counts != c.counts


def test_run_ideal_measures_subset():
    circ = Circuit(3)
    circ.add("X", 1)
    hist = run_ideal(circ, shots=10, seed=0, measure=[1])
    assert hist.counts == {"1": 10}


def test_run_ideal_validates_shots():
    with pytest.raises(ValueError):
        run_ideal(Circuit(1), shots=0, seed=1)


def test_histogram_helpers():
    hist = MeasurementHistogram(10, 2, {"01": 7, "10": 3})
    assert hist.success_probability("01") == pytest.approx(0.7)
    assert hist.success_probability(["01", "10"]) == pytest.approx(1.0)
    assert hist.success_probability("11") == 0.0
    assert hist.top() == ("01", 7)
    payload = json.loads(hist.to_json())
    assert payload["schema"] == 1 and payload["counts"]["01"] == 7


def test_sample_histogram_keys_match_a_loop_over_every_outcome():
    # 16 measured bits, 560 outcomes with mass: the counts visit only the
    # outcomes drawn, in the order a loop over all 2**16 outcomes gives
    rng = np.random.default_rng(4)
    probs = np.zeros(1 << 16)
    probs[rng.choice(1 << 16, 560, replace=False)] = rng.random(560)
    hist = sample_histogram(probs, 4096, np.random.default_rng(9), 16)
    drawn = np.random.default_rng(9).multinomial(4096, probs / probs.sum())
    loop = {bitstring(i, 16): int(c) for i, c in enumerate(drawn) if c}
    assert list(hist.counts.items()) == list(loop.items())
    assert all(type(c) is int for c in hist.counts.values())


def test_sample_histogram_rejects_zero_mass():
    with pytest.raises(ValueError, match="probability mass"):
        sample_histogram(np.zeros(4), 10, np.random.default_rng(0), 2)


# -- property tests of the kernel against the independent per-basis reference --

@st.composite
def states(draw, n: int) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amp / np.linalg.norm(amp)


def _check_against_reference(gate: Gate, n: int, amp: np.ndarray) -> None:
    reference = np.array([_apply_reference(gate, b, n) for b in range(1 << n)]).T @ amp
    state = StateVector(n, amp.copy())
    apply_gate(state, gate)
    if gate.kind in ("X", "CX", "CCX", "MCX", "Z", "CZ", "MCZ"):
        # permutations and sign flips move amplitudes without arithmetic
        assert np.array_equal(state.amplitudes, reference)
    else:
        assert np.allclose(state.amplitudes, reference, rtol=0.0, atol=1e-12)


@given(st.data())
def test_apply_gate_matches_reference_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    _check_against_reference(data.draw(gates_on(n), label="gate"), n,
                             data.draw(states(n), label="state"))


@pytest.mark.parametrize("gate", [
    Gate("CX", (1, 0)), Gate("CZ", (0, 1)), Gate("CRY", (0, 1), (0.3,)),
    Gate("CCX", (2, 0, 1)), Gate("CCRY", (0, 1, 2), (1.1,)),
    Gate("MCX", (3, 1, 0, 2)), Gate("MCZ", (0, 1, 2, 3, 4)),
], ids=lambda g: f"{g.kind}{g.qubits}")
def test_apply_gate_fixing_every_axis_writes_in_place(gate):
    # every axis is a control or the target: the halves are 0-d views
    n = len(gate.qubits)
    amp = np.random.default_rng(n).normal(size=1 << n).astype(complex)
    _check_against_reference(gate, n, amp)


@given(st.data())
def test_marginal_probabilities_matches_bincount_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="qubits")
    state = StateVector(n, data.draw(states(n), label="state"))
    outcome = [sum((b >> q & 1) << j for j, q in enumerate(sorted(subset)))
               for b in range(1 << n)]
    reference = np.bincount(outcome, weights=np.abs(state.amplitudes) ** 2,
                            minlength=1 << len(subset))
    assert np.allclose(marginal_probabilities(state, subset), reference, rtol=1e-12, atol=0.0)


# -- a (2**n, B) block of states against its columns one at a time --------------

@st.composite
def blocks(draw, n: int) -> np.ndarray:
    """A ``(2**n, B)`` block of 1 to 5 random states, one per column."""
    columns = draw(st.integers(1, 5))
    return np.stack([draw(states(n)) for _ in range(columns)], axis=1)


@given(st.data())
def test_apply_gate_on_a_block_matches_each_column_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    gate = data.draw(gates_on(n), label="gate")
    amp = data.draw(blocks(n), label="block")
    block = apply_gate(StateVector(n, amp.copy()), gate)
    for column in range(amp.shape[1]):
        one = apply_gate(StateVector(n, amp[:, column].copy()), gate)
        assert np.array_equal(block.amplitudes[:, column], one.amplitudes)


@given(st.data())
def test_marginal_probabilities_on_a_block_matches_each_column_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="qubits")
    amp = data.draw(blocks(n), label="block")
    marginals = marginal_probabilities(StateVector(n, amp), subset)
    assert marginals.shape == (1 << len(subset), amp.shape[1])
    for column in range(amp.shape[1]):
        one = marginal_probabilities(StateVector(n, amp[:, column].copy()), subset)
        assert np.array_equal(marginals[:, column], one)


# -- ideal runs on the low qubit block against the full kernel ------------------

def _assert_same_as_full_kernel(circ: Circuit, measure: list[int], shots: int = 256,
                                seed: int = 7) -> tuple[StateVector, StateVector]:
    """``run_ideal`` against ``statevector``; returns both full-width states."""
    hist, state = run_ideal(circ, shots=shots, seed=seed, measure=measure, return_state=True)
    full = statevector(circ)
    probs = marginal_probabilities(full, measure)
    expected = sample_histogram(probs, shots, np.random.default_rng(seed), len(measure))
    assert hist.counts == expected.counts
    assert np.array_equal(state.amplitudes, full.amplitudes)
    assert np.array_equal(state.probabilities(), full.probabilities())
    assert np.array_equal(marginal_probabilities(state, measure), probs)
    return state, full


BUNDLED_CONFIGURATIONS = [
    (graph, k, prep, style)
    for graph, k, preps in [("g4", 3, ("full", "w", "dicke")), ("g6", 3, ("full", "dicke")),
                            ("g6", 4, ("full", "dicke"))]
    for prep in preps for style in ("checking", "incremental")
]


@pytest.mark.parametrize("graph, k, prep, style", BUNDLED_CONFIGURATIONS,
                         ids=lambda value: str(value))
def test_run_ideal_on_the_kept_register_equals_the_full_kernel(graph, k, prep, style):
    g = builtin_graph(graph)
    circ = assemble(g, k, prep, style)
    assert circ.n_qubits > g.n  # the counters and flags sit above the node block
    state, full = _assert_same_as_full_kernel(circ, list(range(g.n)))
    # byte for byte with every high qubit 0; off it both are zeros, which the
    # full kernel may leave as -0.0
    node_slice = slice(0, 1 << g.n)
    assert state.amplitudes[node_slice].tobytes() == full.amplitudes[node_slice].tobytes()


def _gate_widths(monkeypatch) -> list[int]:
    """The state width of every ``apply_gate`` call ``run_ideal`` makes from now on."""
    widths = []
    kernel = sim.apply_gate
    monkeypatch.setattr(sim, "apply_gate",
                        lambda state, gate: widths.append(state.n_qubits) or kernel(state, gate))
    return widths


def test_run_ideal_falls_back_when_a_work_qubit_is_left_set(monkeypatch):
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("CX", (0, 2)), Gate("H", (1,))])
    widths = _gate_widths(monkeypatch)
    hist = run_ideal(circ, shots=400, seed=3, measure=[0, 1])
    # H on the low pair, the CX by label (qubit 2 is left set), then all three at full width
    assert widths == [2, 3, 3, 3, 3]
    assert set(hist.counts) == {"00", "01", "10", "11"}
    _assert_same_as_full_kernel(circ, [0, 1])


def test_run_ideal_simulates_every_qubit_when_the_highest_is_measured(monkeypatch):
    # qubit 3 is touched only by X, but measured: the low block is all four
    # qubits, so every gate runs at width 4 and nothing goes by label
    circ = Circuit(4, ops=[Gate("H", (0,)), Gate("CX", (0, 2)), Gate("X", (3,)),
                           Gate("CX", (0, 2))])
    widths = _gate_widths(monkeypatch)
    hist = run_ideal(circ, shots=200, seed=11, measure=[0, 3])
    assert widths == [4, 4, 4, 4]
    assert set(hist.counts) == {"10", "11"}
    _assert_same_as_full_kernel(circ, [0, 3])


def test_run_ideal_applies_a_run_that_returns_its_work_qubit_with_a_sign(monkeypatch):
    signed = [Gate("CX", (0, 2)), Gate("Z", (2,)), Gate("CX", (0, 2))]  # Z on qubit 0
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("H", (1,)), *signed, Gate("H", (0,)), *signed])
    widths = _gate_widths(monkeypatch)
    hist, state = run_ideal(circ, shots=64, seed=5, measure=[0, 1], return_state=True)
    # two H on the low pair, the run by label once, the last H; the repeated run is
    # reused, and as a mirror its labels go through the first CX and the Z only
    assert widths == [2, 2, 3, 3, 2]
    # H Z H = X, then Z: qubit 0 reads 1 with amplitude -1/sqrt(2) on either value of qubit 1
    assert set(hist.counts) <= {"01", "11"}
    assert np.allclose(state.amplitudes, [0, -0.5 ** 0.5, 0, -0.5 ** 0.5, 0, 0, 0, 0], atol=1e-12)
    _assert_same_as_full_kernel(circ, [0, 1])


def test_run_ideal_rejects_measured_qubits_outside_the_circuit():
    with pytest.raises(ValueError, match="exceed the 2-qubit circuit"):
        run_ideal(Circuit(2), shots=1, seed=1, measure=[0, 2])


# run_ideal and run_noisy (tests/test_noise.py) check measure lists alike
BAD_MEASURE_LISTS = [
    ([], r"the measure list is empty$"),
    ([0, 99], r"measured qubits \[99\] exceed the 3-qubit circuit$"),
    ([-1, 2], r"measured qubits \[-1\] exceed the 3-qubit circuit$"),
    ([0, 0, 1], r"measured qubits \[0\] are listed more than once$"),
    ([1, 5, 1, -2], r"measured qubits \[-2, 5\] exceed the 3-qubit circuit; "
                    r"measured qubits \[1\] are listed more than once$"),
]


@pytest.mark.parametrize("measure, message", BAD_MEASURE_LISTS, ids=str)
def test_run_ideal_rejects_a_bad_measure_list_before_simulating(measure, message, monkeypatch):
    monkeypatch.setattr(sim, "apply_gate", lambda *_: pytest.fail("simulated"))
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("CX", (0, 2))])
    with pytest.raises(ValueError, match=message):
        run_ideal(circ, shots=50, seed=1, measure=measure)


# -- float64 amplitudes for circuits whose gates all have real matrices --------

REAL_KINDS = sim._REAL_KINDS


@pytest.mark.parametrize("gate", [Gate("U3", (1,), (0.3, 0.0, 0.0)), Gate("U2", (0,), (0.2, 0.1))],
                         ids=lambda g: g.kind)
def test_apply_gate_rejects_a_complex_matrix_on_a_float64_state(gate):
    # the kind decides, not the angles: U3(theta, 0, 0) has a real matrix too
    state = StateVector.zero(2, np.float64)
    with pytest.raises(ValueError, match=f"{gate.kind} has a complex matrix"):
        apply_gate(state, gate)
    assert np.array_equal(state.amplitudes, [1.0, 0.0, 0.0, 0.0])


def test_apply_gate_rejects_a_complex_matrix_on_a_float32_state():
    state = StateVector.zero(2, np.float32)
    with pytest.raises(ValueError, match="U3 has a complex matrix and cannot act on a float32"):
        apply_gate(state, Gate("U3", (1,), (0.3, 0.0, 0.0)))
    assert np.array_equal(state.amplitudes, [1.0, 0.0, 0.0, 0.0])


@given(st.data())
def test_float64_kernel_gives_the_real_part_of_the_complex_kernel_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    gate = data.draw(gates_on(n, REAL_KINDS), label="gate")
    columns = data.draw(st.none() | st.integers(1, 5), label="columns")  # None: a 1-D state
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    amp = rng.normal(size=(1 << n) if columns is None else (1 << n, columns))
    real = apply_gate(StateVector(n, amp.copy()), gate).amplitudes
    full = apply_gate(StateVector(n, amp.astype(np.complex128)), gate).amplitudes
    assert real.dtype == np.float64
    assert np.array_equal(real, full.real)
    assert not np.any(full.imag)


@given(st.data())
def test_amplitude_dtype_is_complex_exactly_when_a_gate_is_u3_or_u2_property(data):
    n = data.draw(st.integers(1, 5), label="n")
    gates = data.draw(st.lists(gates_on(n), max_size=8), label="gates")
    complex_ = any(g.kind in ("U3", "U2") for g in gates)
    assert sim._amplitude_dtype(gates) is (np.complex128 if complex_ else np.float64)


def _gate_dtypes(monkeypatch) -> list[tuple[int, type]]:
    """Width and scalar type of the state of every ``apply_gate`` call from now on."""
    calls = []
    kernel = sim.apply_gate
    monkeypatch.setattr(sim, "apply_gate", lambda state, gate: calls.append(
        (state.n_qubits, state.amplitudes.dtype.type)) or kernel(state, gate))
    return calls


@pytest.mark.parametrize("graph, k, prep, style", BUNDLED_CONFIGURATIONS,
                         ids=lambda value: str(value))
def test_ideal_runs_are_float64_until_lowering_adds_u3(graph, k, prep, style, monkeypatch):
    g = builtin_graph(graph)
    circ = assemble(g, k, prep, style)
    lowered = decompose_mc(circ)
    assert sim._amplitude_dtype(circ.ops) is np.float64
    assert sim._amplitude_dtype(lowered.ops) is np.complex128
    nodes = list(range(g.n))
    calls = _gate_dtypes(monkeypatch)
    kinds = _gate_kinds(monkeypatch)  # recorded for the same calls

    def split() -> tuple[set, set]:
        """(width, dtype) of the X/Z-type calls and of the others since the last split."""
        assert len(calls) == len(kinds)
        labels = {call for call, (_, kind) in zip(calls, kinds) if kind in CLASSICAL_KINDS}
        others = {call for call, (_, kind) in zip(calls, kinds) if kind not in CLASSICAL_KINDS}
        calls.clear()
        kinds.clear()
        return labels, others

    _, state = run_ideal(circ, shots=16, seed=1, measure=nodes, return_state=True)
    labels, others = split()
    # every X/Z-type run by label on float32, at the width it touches: the
    # diffusion's at the nodes, the oracle's at full width; every other gate
    # on the node register (the low block is exactly the nodes) on float64,
    # and none at all under a Dicke preparation, whose rotations are fused
    assert labels == {(g.n, np.float32), (circ.n_qubits, np.float32)}
    assert others == (set() if prep == "dicke" else {(g.n, np.float64)})
    assert state.amplitudes.dtype == np.complex128
    _, state = run_ideal(lowered, shots=16, seed=1, measure=nodes, return_state=True)
    labels, others = split()
    assert {dtype for _, dtype in labels} == {np.float32}
    assert {dtype for _, dtype in others} == {np.complex128}
    assert max(width for width, _ in others) < lowered.n_qubits
    assert state.amplitudes.dtype == np.complex128


@pytest.mark.parametrize("graph, k, prep, style", BUNDLED_CONFIGURATIONS,
                         ids=lambda value: str(value))
def test_no_x_z_type_gate_reaches_the_kernel_on_the_blocks_dtype(graph, k, prep, style,
                                                                 monkeypatch):
    g = builtin_graph(graph)
    circ = assemble(g, k, prep, style)
    circuits = [circ] + [lowered for lowered in [decompose_mc(circ)] if lowered.n_qubits <= 16]
    calls = _gate_dtypes(monkeypatch)
    kinds = _gate_kinds(monkeypatch)  # recorded for the same calls
    for circuit in circuits:
        calls.clear()
        kinds.clear()
        run_ideal(circuit, shots=16, seed=1, measure=list(range(g.n)))
        # an X/Z-type gate reaches the kernel only on a float32 label state,
        # never on the block's float64 or complex128 amplitudes
        assert len(calls) == len(kinds)
        dtypes = {dtype for (_, dtype), (_, kind) in zip(calls, kinds) if kind in CLASSICAL_KINDS}
        assert dtypes == {np.float32} and sim._amplitude_dtype(circuit.ops) not in dtypes


@given(st.data())
def test_ideal_states_handed_back_are_complex128_property(data):
    n = data.draw(st.integers(2, 5), label="n")
    ops = data.draw(st.lists(gates_on(n, REAL_KINDS), min_size=1, max_size=12), label="ops")
    measure = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="measure")
    state, full = _assert_same_as_full_kernel(Circuit(n, ops=ops), sorted(measure), shots=64)
    assert state.amplitudes.dtype == full.amplitudes.dtype == np.complex128


@pytest.mark.parametrize("graph, k, prep, style", BUNDLED_CONFIGURATIONS,
                         ids=lambda value: str(value))
def test_run_ideal_on_a_lowered_circuit_equals_the_full_kernel(graph, k, prep, style,
                                                               monkeypatch):
    g = builtin_graph(graph)
    lowered = decompose_mc(assemble(g, k, prep, style))
    calls = _gate_dtypes(monkeypatch)
    _assert_same_as_full_kernel(lowered, list(range(g.n)))
    # statevector's calls come last, one per gate at full width
    ideal, reference = calls[:-len(lowered.ops)], calls[-len(lowered.ops):]
    assert set(reference) == {(lowered.n_qubits, np.complex128)}
    # the lowered oracle's U3 gates widen the low block past the nodes, but no
    # run leaves a qubit above it set: the full width is reached only by labels
    assert (lowered.n_qubits, np.complex128) not in ideal
    assert {dtype for width, dtype in ideal if width == lowered.n_qubits} == {np.float32}


# -- X/Z-type gates against an index reference; short runs folded --------------

CLASSICAL_KINDS = sim._CLASSICAL_KINDS


def _random_amplitudes(seed: int, n: int, columns: int | None, dtype) -> np.ndarray:
    """Random ``2**n`` amplitudes, or a ``(2**n, columns)`` block, of ``dtype``."""
    rng = np.random.default_rng(seed)
    shape = (1 << n,) if columns is None else (1 << n, columns)
    amp = rng.normal(size=shape)
    if dtype is np.complex128:
        amp = amp + 1j * rng.normal(size=shape)
    return amp.astype(dtype)


def _integer_walk(run, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each basis index below ``2**m`` ends after ``run``, and with which
    sign, by walking the integers gate by gate."""
    index, sign = np.arange(1 << m), np.ones(1 << m)
    for gate in run:
        z_type = gate.kind in ("Z", "CZ", "MCZ")
        on = np.ones(1 << m, dtype=bool)
        for q in gate.qubits if z_type else gate.controls:
            on &= (index >> q & 1) == 1
        if z_type:
            sign[on] *= -1.0
        else:
            index = np.where(on, index ^ (1 << gate.target), index)
    return index, sign


def _index_reference(gate: Gate, n: int, amp: np.ndarray) -> np.ndarray:
    """``amp[perm] * sign``; one X/Z-type gate is its own inverse, so ``perm``
    is where the integer walk sends each index."""
    perm, sign = _integer_walk([gate], n)
    sign = sign.astype(amp.dtype)
    return amp[perm] * (sign if amp.ndim == 1 else sign[:, None])


def _pair_view_widths(monkeypatch) -> list[int]:
    """The width ``apply_gate`` passes to ``_pair_views`` on every call from now on;
    a folded gate passes ``n - low``."""
    widths = []
    views = sim._pair_views
    monkeypatch.setattr(sim, "_pair_views", lambda n, *args: widths.append(n) or views(n, *args))
    return widths


def _assert_matches_index_reference(gate: Gate, n: int, amp: np.ndarray) -> None:
    expected = _index_reference(gate, n, amp)
    out = apply_gate(StateVector(n, amp), gate).amplitudes
    assert out is amp and out.dtype == expected.dtype
    assert np.array_equal(out.view(np.uint8), expected.view(np.uint8))


@given(st.data())
def test_classical_gates_match_an_index_reference_property(data):
    n = data.draw(st.integers(1, 9), label="n")
    gate = data.draw(gates_on(n, CLASSICAL_KINDS), label="gate")
    dtype = data.draw(st.sampled_from([np.float32, np.float64, np.complex128]), label="dtype")
    columns = data.draw(st.sampled_from([None, 1, 2, 3, 8]), label="columns")  # None: 1-D
    amp = _random_amplitudes(data.draw(st.integers(0, 2**32 - 1), label="seed"), n, columns, dtype)
    _assert_matches_index_reference(gate, n, amp)


# (dtype, block columns or None for a 1-D state, gate, bytes in each run below
# the gate's lowest operand): runs of one scalar, of 64 B (the largest that
# folds) and of 128 B
RUN_CASES = [
    (np.float64, None, Gate("X", (0,)), 8),
    (np.float32, None, Gate("CX", (3, 0)), 4),
    (np.complex128, None, Gate("CCX", (0, 2, 4)), 16),
    (np.float64, 3, Gate("CX", (5, 0)), 24),
    (np.float64, None, Gate("CX", (3, 5)), 64),
    (np.float32, 8, Gate("X", (1,)), 64),
    (np.complex128, 2, Gate("MCX", (1, 3, 4, 2)), 64),
    (np.float32, 1, Gate("CCX", (5, 6, 4)), 64),
    (np.float64, None, Gate("X", (4,)), 128),
    (np.float32, 8, Gate("CCX", (2, 4, 5)), 128),
    (np.complex128, None, Gate("CX", (6, 3)), 128),
    (np.float64, None, Gate("MCZ", (3, 4, 5)), 64),
    (np.float32, 2, Gate("CZ", (0, 6)), 8),
]


@pytest.mark.parametrize("dtype, columns, gate, run", RUN_CASES,
                         ids=lambda value: getattr(value, "__name__", str(value)))
def test_classical_gates_on_short_and_long_runs_match_an_index_reference(dtype, columns, gate,
                                                                         run, monkeypatch):
    n = 7
    amp = _random_amplitudes(run, n, columns, dtype)
    assert amp.itemsize * (columns or 1) << min(gate.qubits) == run
    widths = _pair_view_widths(monkeypatch)
    _assert_matches_index_reference(gate, n, amp)
    # only X-type gates whose run is longer than one scalar and at most 64 B fold
    folded = gate.kind in sim._X_KINDS and amp.itemsize < run <= 64
    assert widths == [n - min(gate.qubits) if folded else n]


@pytest.mark.parametrize("layout", ["fortran", "column"])
def test_folded_gates_write_through_non_contiguous_amplitudes(layout, monkeypatch):
    # an F-ordered (2**n, B) block, or one strided column of a C-ordered block:
    # a contiguous copy of either folds these gates, and they must not fold
    n = 6
    block = np.random.default_rng(6).normal(size=(1 << n, 2))
    amp = np.asfortranarray(block) if layout == "fortran" else block[:, 1]
    contiguous = np.ascontiguousarray(amp)
    assert not amp.flags.c_contiguous and contiguous is not amp
    gates = [Gate("X", (1,)), Gate("CX", (2, 5)), Gate("CCX", (2, 4, 1)),
             Gate("MCX", (2, 3, 4, 5))]
    widths = _pair_view_widths(monkeypatch)
    state = StateVector(n, amp)
    for gate in gates:
        apply_gate(state, gate)
        apply_gate(StateVector(n, contiguous), gate)
    assert widths == [w for gate in gates for w in (n, n - min(gate.qubits))]
    assert state.amplitudes is amp
    assert np.array_equal(amp, contiguous)


# -- the label pass against an integer walk of basis indices --------------------

@given(st.data())
def test_signed_gather_matches_an_integer_walk_property(data):
    n = data.draw(st.integers(2, 9), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    classical = st.lists(gates_on(n, CLASSICAL_KINDS), max_size=6)
    if data.draw(st.booleans(), label="returns"):
        # the oracle's shape: low gates around a compute, phase, uncompute
        low = st.lists(gates_on(m, CLASSICAL_KINDS), max_size=3)
        compute = data.draw(classical, label="compute")
        run = (data.draw(low, label="before") + compute
               + data.draw(st.lists(gates_on(n, sim._Z_KINDS), max_size=3), label="phase")
               + compute[::-1] + data.draw(low, label="after"))
    else:
        run = data.draw(classical, label="run")
    dest, sign = _integer_walk(run, m)
    gathered = sim._signed_gather(tuple(run), n, m)
    if np.any(dest >> m):  # a label left the low block
        assert gathered is None
        return
    source, expected_sign = np.empty(1 << m, dtype=np.intp), np.empty(1 << m)
    source[dest], expected_sign[dest] = np.arange(1 << m), sign
    assert gathered is not None
    # a mirrored run gives its identity source as Ellipsis
    assert np.array_equal(np.arange(1 << m) if gathered[0] is Ellipsis else gathered[0], source)
    assert np.array_equal(gathered[1], expected_sign)


@pytest.mark.parametrize("m, dtype", [(24, np.float32), (25, np.float64)])
def test_labels_are_float32_while_it_holds_every_label(m, dtype, monkeypatch):
    # labels run 1 .. 2**m; float32 holds 2**24 but not 2**24 + 1
    assert int(np.float32(2**24)) == 2**24 and int(np.float32(2**24 + 1)) != 2**24 + 1

    class Allocated(Exception):
        pass

    def zero(n_qubits, dtype):  # stands in for the 2**(m+1)-amplitude allocation
        raise Allocated(n_qubits, dtype)

    monkeypatch.setattr(StateVector, "zero", staticmethod(zero))
    with pytest.raises(Allocated) as allocated:
        sim._signed_gather((Gate("X", (m,)),), m + 1, m)
    assert allocated.value.args == (m + 1, dtype)


# -- CX-conjugated controlled rotations, fused in run_ideal ----------------------

_ROTATION_ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


def _sandwich(c: int, t: int, other: int | None, theta: float) -> list[Gate]:
    """``CX(c -> t), G, CX(c -> t)``: G a CRY on target ``c`` controlled by ``t``,
    or a CCRY that ``other`` controls too (a Dicke preparation block)."""
    rotation = (Gate("CRY", (t, c), (theta,)) if other is None
                else Gate("CCRY", (other, t, c) if other < t else (t, other, c), (theta,)))
    return [Gate("CX", (c, t)), rotation, Gate("CX", (c, t))]


@st.composite
def sandwiches(draw, n: int) -> list[Gate]:
    """A sandwich on distinct qubits of an n-qubit register, or one of its near misses."""
    c, t, other, stray = draw(st.permutations(range(n)))[:4]
    other = draw(st.sampled_from([None, other]))
    gates = _sandwich(c, t, other, draw(_ROTATION_ANGLES))
    miss = draw(st.sampled_from(["none", "gate between", "t not a control", "reversed CX",
                                 "other target", "X/Z-type run between"]))
    if miss == "gate between":
        gates.insert(draw(st.sampled_from([1, 2])), draw(gates_on(n, REAL_KINDS)))
    elif miss == "X/Z-type run between":  # a run that may reach above the block
        gates[1:2] = [Gate("CCX", (min(c, t), max(c, t), stray))] * 2
    elif miss == "t not a control":  # the rotation's control t becomes the stray qubit
        rotation = gates[1]
        gates[1] = Gate(rotation.kind, tuple(stray if q == t else q for q in rotation.qubits),
                        rotation.params)
    elif miss == "reversed CX":
        gates[2] = Gate("CX", (t, c))
    elif miss == "other target":
        rotation = gates[1]
        gates[1] = Gate(rotation.kind, (*rotation.controls, stray), rotation.params)
    return gates


@given(st.data())
def test_fused_sandwiches_equal_the_full_kernel_bit_for_bit_property(data):
    n = data.draw(st.integers(4, 6), label="n")
    # a superposition on the lowest qubits, so a sandwich meets nonzero amplitudes
    ops = [Gate("H", (q,)) for q in range(data.draw(st.integers(2, n), label="spread"))]
    for _ in range(data.draw(st.integers(1, 4), label="pieces")):
        ops += data.draw(st.one_of(sandwiches(n), st.lists(gates_on(n, REAL_KINDS), max_size=3)),
                         label="piece")
    measure = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="measure")
    _assert_same_as_full_kernel(Circuit(n, ops=ops), sorted(measure), shots=64)


def _gate_kinds(monkeypatch) -> list[tuple[int, str]]:
    """Width and kind of every ``apply_gate`` call from now on."""
    calls = []
    kernel = sim.apply_gate
    monkeypatch.setattr(sim, "apply_gate", lambda state, gate: calls.append(
        (state.n_qubits, gate.kind)) or kernel(state, gate))
    return calls


@pytest.mark.parametrize("graph, k", [("g4", 3), ("g6", 3), ("g6", 4)])
def test_run_ideal_fuses_every_rotation_of_a_dicke_search(graph, k, monkeypatch):
    g = builtin_graph(graph)
    circ = assemble(g, k, "dicke", "checking")
    assert {"CX", "CRY", "CCRY"} <= {gate.kind for gate in circ.ops if max(gate.qubits) < g.n}
    calls = _gate_kinds(monkeypatch)
    run_ideal(circ, shots=16, seed=1, measure=list(range(g.n)))
    # the preparation, its adjoint in the diffusion, and the CXs at the oracle's
    # edges are all sandwiches: no CX, CRY or CCRY reaches the low block's kernel
    assert not {kind for width, kind in calls if width == g.n} & {"CX", "CRY", "CCRY"}
    assert (circ.n_qubits, "CCX") in calls  # the oracle still goes by label


NEAR_MISSES = {
    "sandwich": (_sandwich(0, 2, None, 0.7), []),
    "ccry sandwich": (_sandwich(3, 1, 0, 0.7), []),
    "gate between": (_sandwich(0, 2, None, 0.7)[:2] + [Gate("H", (1,))]
                     + _sandwich(0, 2, None, 0.7)[2:], ["CX", "CRY", "H"]),
    "t not a control": ([Gate("CX", (0, 2)), Gate("CRY", (1, 0), (0.7,)), Gate("CX", (0, 2))],
                        ["CX", "CRY"]),
    "reversed CX": ([Gate("CX", (0, 2)), Gate("CRY", (2, 0), (0.7,)), Gate("CX", (2, 0))],
                    ["CX", "CRY", "CX"]),
    "other target": ([Gate("CX", (0, 2)), Gate("CCRY", (0, 2, 3), (0.7,)), Gate("CX", (0, 2))],
                     ["CX", "CCRY"]),
}


@pytest.mark.parametrize("name", NEAR_MISSES)
def test_only_sandwiches_skip_the_gate_kernel(name, monkeypatch):
    planted, expected = NEAR_MISSES[name]
    circ = Circuit(4, ops=[Gate("H", (q,)) for q in range(4)] + planted)
    calls = _gate_kinds(monkeypatch)
    hist, state = run_ideal(circ, shots=64, seed=2, return_state=True)
    # an unfused CX is an X/Z-type run, evaluated by label once: a second,
    # identical CX reuses its signed gather
    assert calls[:4] == [(4, "H")] * 4 and calls[4:] == [(4, kind) for kind in expected]
    full = statevector(circ)
    assert (state.amplitudes + 0.0).tobytes() == (full.amplitudes + 0.0).tobytes()


@pytest.mark.parametrize("between", [
    [Gate("CCX", (0, 1, 2)), Gate("CCX", (0, 1, 2))],
    [Gate("X", (3,)), Gate("CZ", (0, 3)), Gate("X", (3,))],
    [Gate("CRY", (1, 0), (0.7,)), Gate("CX", (0, 2)), Gate("CX", (0, 2))],
], ids=["CCX pair", "X CZ X", "rotation then CX pair"])
def test_an_x_z_run_reaching_above_the_block_between_two_cxs_is_no_sandwich(between):
    # qubits 2 and 3 are touched only by X/Z-type gates and not measured, so the
    # block is [0, 2) and the run between the CXs is evaluated by label
    circ = Circuit(4, ops=[Gate("H", (0,)), Gate("RY", (1,), (0.3,)), Gate("CX", (0, 1)),
                           *between, Gate("CX", (0, 1))])
    _assert_same_as_full_kernel(circ, [0, 1], shots=64)


def test_a_sandwich_that_closes_right_at_a_run_reaching_above_the_block_is_fused(monkeypatch):
    # the oracle's edges: a sandwich's closing CX directly before the X/Z-type
    # run that reaches qubit 2, and another's opening CX directly after it
    run = [Gate("CCX", (0, 1, 2)), Gate("Z", (2,)), Gate("CCX", (0, 1, 2))]
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("RY", (1,), (0.3,)), *_sandwich(0, 1, None, 0.7),
                           *run, *_sandwich(0, 1, None, -0.4)])
    calls = _gate_kinds(monkeypatch)
    run_ideal(circ, shots=16, seed=1, measure=[0, 1])
    # each sandwich took one pass and the run went by label: no low CX or CRY
    assert calls == [(2, "H"), (2, "RY"), (3, "CCX"), (3, "Z")]
    _assert_same_as_full_kernel(circ, [0, 1], shots=64)


def test_pair_views_fix_the_partner_opposite_the_target():
    # qubits 3 (control), 2 (target) and 0 (partner) of four; qubit 1 untouched
    shape, lo, hi = sim._pair_views(4, (3,), 2, 0)
    assert shape == (2, 2, 2, 2)
    assert lo == (1, 0, slice(None), 1, Ellipsis) and hi == (1, 1, slice(None), 0, Ellipsis)


# -- the label pass keeps its gate temporaries on the heap ----------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_a_cold_label_pass_keeps_its_temporaries_on_the_heap():
    # a fresh process, so no earlier test has raised glibc's mmap threshold:
    # a 4 MiB label state (1,024 pages) and, the run being a mirror, its first
    # 16 gates and the MCZ with a 0.5-1 MiB temporary each, which faulted in
    # over 4,300 pages when every temporary was mapped and unmapped again
    script = (
        "import resource\n"
        "from qclique import sim\n"
        "from qclique.circuit import Gate\n"
        "compute = ([Gate('CX', (q, 16 + q % 4)) for q in range(8)]\n"
        "           + [Gate('CCX', (q, q + 1, 16 + q % 4)) for q in range(8)])\n"
        "run = tuple(compute + [Gate('MCZ', (16, 17, 18, 19))] + compute[::-1])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert sim._signed_gather(run, 20, 16) is not None\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = str(Path(sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert int(done.stdout) < 3072


# -- mirrored X/Z-type runs, evaluated from their first half ---------------------

MIRROR_CASES = ["mirror", "empty centre", "two-Z centre", "low gates before",
                "X-type centre", "halves differ"]


@given(st.data())
def test_mirrored_runs_match_the_full_kernel_and_the_gather_property(data):
    n = data.draw(st.integers(2, 7), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    case = data.draw(st.sampled_from(MIRROR_CASES), label="case")
    classical = gates_on(n, CLASSICAL_KINDS)
    # the first gate takes a label above the block
    reach = data.draw(gates_on(n, sim._X_KINDS).filter(lambda g: g.target >= m), label="reach")
    half = [reach] + data.draw(st.lists(classical, max_size=5), label="half")
    sizes = {"empty centre": (0, 0), "two-Z centre": (2, 2)}.get(case, (1, 3))
    centre = data.draw(st.lists(gates_on(n, sim._Z_KINDS), min_size=sizes[0],
                                max_size=sizes[1]), label="centre")
    if case == "X-type centre":
        centre.insert(data.draw(st.integers(0, len(centre)), label="at"),
                      data.draw(gates_on(n, sim._X_KINDS), label="x"))
    second = half[::-1]
    if case == "halves differ":
        at = data.draw(st.integers(0, len(second) - 1), label="differ at")
        second[at] = data.draw(classical.filter(lambda g: g != second[at]), label="other")
    run = half + centre + second
    if case != "halves differ":  # which can still be a mirror with a shorter half
        assert (sim._mirror_half(tuple(run)) is None) == (case == "X-type centre")
    before = data.draw(st.lists(gates_on(m, CLASSICAL_KINDS), min_size=1, max_size=3),
                       label="before") if case == "low gates before" else []
    spread = [Gate("H", (q,)) for q in range(m)]
    circ = Circuit(n, ops=spread + before + run + spread)
    measure = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True), label="measure")
    state, _ = _assert_same_as_full_kernel(circ, sorted(measure), shots=64)
    # the full kernel can leave a zero with the other sign, so the bytes are
    # compared with the general path, the run's labels pushed through every gate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_mirror_half", lambda run: None)
        _, general = run_ideal(circ, shots=64, seed=7, measure=sorted(measure), return_state=True)
    assert state.amplitudes.tobytes() == general.amplitudes.tobytes()


@pytest.mark.parametrize("graph, k", [("g4", 3), ("g6", 3)])
def test_the_label_pass_of_a_dicke_search_takes_the_oracle_to_its_phase(graph, k, monkeypatch):
    g = builtin_graph(graph)
    circ = assemble(g, k, "dicke", "checking")
    runs = []
    gather = sim._signed_gather
    monkeypatch.setattr(sim, "_signed_gather",
                        lambda run, *args: runs.append(run) or gather(run, *args))
    calls = _gate_kinds(monkeypatch)
    run_ideal(circ, shots=16, seed=1, measure=list(range(g.n)))
    # one distinct run reaches above the block, the oracle: compute, a Z on
    # its flag, uncompute
    [run] = [run for run in runs if max(q for gate in run for q in gate.qubits) >= g.n]
    h = len(run) // 2
    assert run[h].kind == "Z" and run[:h] == run[:h:-1]
    # its labels go through the first h gates and the Z only
    assert [kind for width, kind in calls if width == circ.n_qubits] == [
        gate.kind for gate in run[:h + 1]]


def test_low_gates_at_both_ends_of_a_mirror_join_its_label_run(monkeypatch):
    # the w-complement shape: the same low X gates on both sides of a compute,
    # phase flip and uncompute that reaches qubits 2 and 3 of the block [0, 2)
    compute = [Gate("CCX", (0, 1, 2)), Gate("CX", (2, 3))]
    run = (Gate("X", (0,)), Gate("X", (1,)), *compute, Gate("Z", (3,)), *compute[::-1],
           Gate("X", (1,)), Gate("X", (0,)))
    circ = Circuit(4, ops=[Gate("H", (0,)), Gate("RY", (1,), (0.3,)), *run, Gate("H", (0,))])
    runs = []
    gather = sim._signed_gather
    monkeypatch.setattr(sim, "_signed_gather",
                        lambda run, *args: runs.append(run) or gather(run, *args))
    calls = _gate_kinds(monkeypatch)
    run_ideal(circ, shots=16, seed=1, measure=[0, 1])
    # one label run, still a mirror: its labels go through the first half and the Z
    assert runs == [run] and sim._mirror_half(run) == 4
    assert calls == [(2, "H"), (2, "RY"), *((4, g.kind) for g in run[:5]), (2, "H")]
    _assert_same_as_full_kernel(circ, [0, 1], shots=64)
