import json
import math
import random

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


# -- ideal runs on the kept register against the full kernel --------------------

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
    assert circ.n_qubits > g.n  # the counters and flags are work qubits
    state, full = _assert_same_as_full_kernel(circ, list(range(g.n)))
    # byte for byte at work = 0; off it both are zeros, which the full kernel
    # may leave as -0.0
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
    # H on the kept pair, the CX by label (qubit 2 is left set), then all three at full width
    assert widths == [2, 3, 3, 3, 3]
    assert set(hist.counts) == {"00", "01", "10", "11"}
    _assert_same_as_full_kernel(circ, [0, 1])


def test_run_ideal_applies_a_run_that_returns_its_work_qubit_with_a_sign(monkeypatch):
    signed = [Gate("CX", (0, 2)), Gate("Z", (2,)), Gate("CX", (0, 2))]  # Z on qubit 0
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("H", (1,)), *signed, Gate("H", (0,)), *signed])
    widths = _gate_widths(monkeypatch)
    hist, state = run_ideal(circ, shots=64, seed=5, measure=[0, 1], return_state=True)
    # two H on the kept pair, the run by label once, the last H; the repeated run is reused
    assert widths == [2, 2, 3, 3, 3, 2]
    # H Z H = X, then Z: qubit 0 reads 1 with amplitude -1/sqrt(2) on either value of qubit 1
    assert set(hist.counts) <= {"01", "11"}
    assert np.allclose(state.amplitudes, [0, -0.5 ** 0.5, 0, -0.5 ** 0.5, 0, 0, 0, 0], atol=1e-12)
    _assert_same_as_full_kernel(circ, [0, 1])


def test_run_ideal_rejects_measured_qubits_outside_the_circuit():
    with pytest.raises(ValueError, match="exceed the 2-qubit circuit"):
        run_ideal(Circuit(2), shots=1, seed=1, measure=[0, 2])


# run_ideal and run_noisy (tests/test_noise.py) check measure lists alike
BAD_MEASURE_LISTS = [
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


@pytest.mark.parametrize("prep, style", [("full", "checking"), ("w", "checking"),
                                         ("dicke", "incremental")])
def test_ideal_runs_are_float64_until_lowering_adds_u3(g4, prep, style, monkeypatch):
    circ = assemble(g4, 3, prep, style)
    lowered = decompose_mc(circ)
    assert sim._amplitude_dtype(circ.ops) is np.float64
    assert sim._amplitude_dtype(lowered.ops) is np.complex128
    nodes = list(range(g4.n))
    calls = _gate_dtypes(monkeypatch)
    _, state = run_ideal(circ, shots=16, seed=1, measure=nodes, return_state=True)
    # the node register and the oracle's labels at full width, all float64
    assert set(calls) == {(g4.n, np.float64), (circ.n_qubits, np.float64)}
    assert state.amplitudes.dtype == np.complex128
    calls.clear()
    _, state = run_ideal(lowered, shots=16, seed=1, measure=nodes, return_state=True)
    assert {dtype for width, dtype in calls if width < lowered.n_qubits} == {np.complex128}
    assert state.amplitudes.dtype == np.complex128


@given(st.data())
def test_ideal_states_handed_back_are_complex128_property(data):
    n = data.draw(st.integers(2, 5), label="n")
    ops = data.draw(st.lists(gates_on(n, REAL_KINDS), min_size=1, max_size=12), label="ops")
    measure = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="measure")
    state, full = _assert_same_as_full_kernel(Circuit(n, ops=ops), sorted(measure), shots=64)
    assert state.amplitudes.dtype == full.amplitudes.dtype == np.complex128
