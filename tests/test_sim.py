import importlib.util
import json
import math
import os
import platform
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclique import sim
from qclique.circuit import GATE_KINDS, Circuit, Gate, decompose_mc
from qclique.graph import builtin_graph, parse_edge_list
from qclique.grover import assemble, build_oracle, make_plan
from qclique.sim import (
    MeasurementHistogram,
    SparseState,
    StateVector,
    apply_gate,
    bitstring,
    marginal_probabilities,
    run_ideal,
    sample_histogram,
    statevector,
)
from qclique.stateprep import prepare_state
from helpers import dense_apply, dense_statevector, dense_unitary, gates_on
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


def _supports(n: int, seed: int) -> list[np.ndarray]:
    """The row lists a sparse state is tested on: every index below ``2**n``
    in order, and a random nonempty subset of them in random order."""
    rng = np.random.default_rng(seed)
    return [np.arange(1 << n), rng.permutation(1 << n)[:rng.integers(1, (1 << n) + 1)]]


def _masked(amp: np.ndarray, support: np.ndarray) -> np.ndarray:
    """``amp`` with +0.0 in every row outside ``support``."""
    out = np.zeros_like(amp)
    out[support] = amp[support]
    return out


def _sparse(n: int, amp: np.ndarray, support: np.ndarray) -> SparseState:
    """The rows ``support`` of dense amplitudes ``amp`` as a sparse state."""
    return SparseState(n, support.astype(np.int64), amp[support])


def _scattered(state: SparseState) -> np.ndarray:
    """A sparse state's amplitudes at full width, +0.0 at every index not listed."""
    amp = state.amplitudes
    out = np.zeros((1 << state.n_qubits,) + amp.shape[1:], amp.dtype)
    out[state.index] = amp
    return out


def test_apply_gate_truth_tables():
    # (width, basis state, gates, the basis state they give, tolerance); each
    # start is listed among every index and among random others
    for n, hot, gates, out, tol in [
        (1, 0, [Gate("X", (0,))], 1, 1e-15),
        (1, 0, [Gate("H", (0,)), Gate("H", (0,))], 0, 1e-12),
        (3, 0b011, [Gate("CCX", (0, 1, 2))], 0b111, 1e-15),  # qubits 0,1 set
    ]:
        amp = np.zeros(1 << n, dtype=complex)
        amp[hot] = 1.0
        for support in _supports(n, hot):
            state = _sparse(n, amp, support if hot in support else np.append(support, hot))
            for gate in gates:
                apply_gate(state, gate)
            assert abs(_scattered(state)[out] - 1.0) < tol


def test_apply_gate_rejects_wide_operands():
    with pytest.raises(ValueError):
        apply_gate(SparseState.basis(2, 0), Gate("CCX", (0, 1, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_kernel_matches_kron_reference(seed):
    rng = random.Random(seed)
    circ = random_circuit(rng, 3, 15)
    reference = kron_reference(circ)
    assert np.allclose(dense_unitary(circ), reference, atol=1e-10)
    sparse = np.array([statevector(circ, b).amplitudes for b in range(8)]).T
    assert np.allclose(sparse, reference, atol=1e-10)


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


def _check_against_reference(gate: Gate, n: int, amp: np.ndarray, seed: int) -> None:
    """The dense reference engine, and the sparse one on every index and on a
    random support, against the per-basis reference."""
    matrix = np.array([_apply_reference(gate, b, n) for b in range(1 << n)]).T
    # permutations and sign flips move amplitudes without arithmetic
    same = np.array_equal if gate.kind in CLASSICAL_KINDS else partial(
        np.allclose, rtol=0.0, atol=1e-12)
    assert same(dense_apply(amp.copy(), n, gate), matrix @ amp)
    for support in _supports(n, seed):
        state = apply_gate(_sparse(n, amp, support), gate)
        assert same(_scattered(state), matrix @ _masked(amp, support))


@given(st.data())
def test_apply_gate_matches_reference_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    _check_against_reference(data.draw(gates_on(n), label="gate"), n,
                             data.draw(states(n), label="state"),
                             data.draw(st.integers(0, 2**32 - 1), label="seed"))


@pytest.mark.parametrize("gate", [
    Gate("CX", (1, 0)), Gate("CZ", (0, 1)), Gate("CRY", (0, 1), (0.3,)),
    Gate("CCX", (2, 0, 1)), Gate("CCRY", (0, 1, 2), (1.1,)),
    Gate("MCX", (3, 1, 0, 2)), Gate("MCZ", (0, 1, 2, 3, 4)),
], ids=lambda g: f"{g.kind}{g.qubits}")
def test_apply_gate_fixing_every_axis_writes_in_place(gate):
    # every qubit is a control or the target, so the gate's masks cover every
    # index bit; on every index, sorted, each kind acts in place
    n = len(gate.qubits)
    amp = np.random.default_rng(n).normal(size=1 << n).astype(complex)
    _check_against_reference(gate, n, amp, n)
    state = _sparse(n, amp, np.arange(1 << n))
    index, amplitudes = state.index, state.amplitudes
    apply_gate(state, gate)
    assert state.index is index and state.amplitudes is amplitudes


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
    for support in _supports(n, data.draw(st.integers(0, 2**32 - 1), label="seed")):
        block = _scattered(apply_gate(_sparse(n, amp, support), gate))
        for column in range(amp.shape[1]):
            one = apply_gate(_sparse(n, amp[:, column], support), gate)
            assert np.array_equal(block[:, column], _scattered(one))


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


@given(st.data())
def test_sparse_marginals_are_summed_on_the_listed_rows_property(data):
    # a sparse state's marginals match its dense twin's to rounding, and keep
    # their bytes when the rows are listed in another order, with rows of zeros
    n = data.draw(st.integers(1, 7), label="n")
    subset = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="qubits")
    amp = data.draw(st.one_of(states(n), blocks(n)), label="amplitudes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    support = rng.permutation(1 << n)[:rng.integers(1, (1 << n) + 1)]
    marginals = marginal_probabilities(_sparse(n, amp, support), subset)
    dense = marginal_probabilities(StateVector(n, _masked(amp, support)), subset)
    assert marginals.shape == dense.shape
    assert np.allclose(marginals, dense, rtol=1e-12, atol=0.0)
    every_index = _sparse(n, _masked(amp, support), rng.permutation(1 << n))
    assert marginal_probabilities(every_index, subset).tobytes() == marginals.tobytes()


# -- ideal runs on the sparse state against the full kernel --------------------

def _assert_same_as_full_kernel(circ: Circuit, measure: list[int], shots: int = 256,
                                seed: int = 7) -> tuple[StateVector, StateVector]:
    """``run_ideal``, then ``statevector``, against the dense reference engine
    (:func:`helpers.dense_statevector`); returns ``run_ideal``'s state and the
    reference's."""
    hist, state = run_ideal(circ, shots=shots, seed=seed, measure=measure, return_state=True)
    full = dense_statevector(circ)
    probs = marginal_probabilities(full, measure)
    expected = sample_histogram(probs, shots, np.random.default_rng(seed), len(measure))
    assert hist.counts == expected.counts
    assert np.array_equal(state.amplitudes, full.amplitudes)
    assert np.array_equal(statevector(circ).amplitudes, full.amplitudes)
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


def _gate_calls(monkeypatch) -> list[tuple[type, int, type, str]]:
    """State type, width, scalar type and gate kind of every ``apply_gate`` call
    from now on."""
    calls = []
    kernel = sim.apply_gate
    monkeypatch.setattr(sim, "apply_gate", lambda state, gate: calls.append(
        (type(state), state.n_qubits, state.amplitudes.dtype.type, gate.kind))
        or kernel(state, gate))
    return calls


def _marginal_blocks(monkeypatch) -> list[tuple[int, type]]:
    """Width and scalar type of the state of every ``marginal_probabilities`` call
    ``run_ideal`` makes from now on."""
    blocks = []
    marginal = sim.marginal_probabilities
    monkeypatch.setattr(sim, "marginal_probabilities", lambda state, qubits: blocks.append(
        (state.n_qubits, state.amplitudes.dtype.type)) or marginal(state, qubits))
    return blocks


def _rotation_paths(monkeypatch) -> list[tuple[str, bool]]:
    """Kind of every 2x2 gate applied to a sparse state from now on, and whether
    it rotated the entries in place (the same index array, no entry added)."""
    paths = []
    kernel = sim.apply_gate

    def traced(state, gate):
        index = state.index
        kernel(state, gate)
        if gate.kind not in CLASSICAL_KINDS:
            paths.append((gate.kind, state.index is index))
        return state

    monkeypatch.setattr(sim, "apply_gate", traced)
    return paths


def test_run_ideal_falls_back_when_a_work_qubit_is_left_set(monkeypatch):
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("CX", (0, 2)), Gate("H", (1,))])
    calls, blocks = _gate_calls(monkeypatch), _marginal_blocks(monkeypatch)
    hist = run_ideal(circ, shots=400, seed=3, measure=[0, 1])
    # each gate once on the sparse state; the CX leaves qubit 2 set, so the
    # marginals are summed over a block of all three qubits, not of [0, 2)
    assert calls == [(SparseState, 3, np.float64, gate.kind) for gate in circ.ops]
    assert blocks == [(3, np.float64)]
    assert set(hist.counts) == {"00", "01", "10", "11"}
    _assert_same_as_full_kernel(circ, [0, 1])


def test_run_ideal_simulates_every_qubit_when_the_highest_is_measured(monkeypatch):
    # qubit 3 is touched only by X, but measured: the marginal block is all four
    # qubits
    circ = Circuit(4, ops=[Gate("H", (0,)), Gate("CX", (0, 2)), Gate("X", (3,)),
                           Gate("CX", (0, 2))])
    calls, blocks = _gate_calls(monkeypatch), _marginal_blocks(monkeypatch)
    hist = run_ideal(circ, shots=200, seed=11, measure=[0, 3])
    assert calls == [(SparseState, 4, np.float64, gate.kind) for gate in circ.ops]
    assert blocks == [(4, np.float64)]
    assert set(hist.counts) == {"10", "11"}
    _assert_same_as_full_kernel(circ, [0, 3])


def test_run_ideal_applies_a_run_that_returns_its_work_qubit_with_a_sign(monkeypatch):
    signed = [Gate("CX", (0, 2)), Gate("Z", (2,)), Gate("CX", (0, 2))]  # Z on qubit 0
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("H", (1,)), *signed, Gate("H", (0,)), *signed])
    calls, blocks = _gate_calls(monkeypatch), _marginal_blocks(monkeypatch)
    hist, state = run_ideal(circ, shots=64, seed=5, measure=[0, 1], return_state=True)
    # every gate once, both runs included; the work qubit ends at 0, so the
    # marginal block is the measured pair
    assert calls == [(SparseState, 3, np.float64, gate.kind) for gate in circ.ops]
    assert blocks == [(2, np.float64)]
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
    for support in _supports(2, 1):
        state = _sparse(2, np.array([1.0, 0.0, 0.0, 0.0]), support)
        before = _scattered(state)
        with pytest.raises(ValueError, match=f"{gate.kind} has a complex matrix"):
            apply_gate(state, gate)
        assert _scattered(state).tobytes() == before.tobytes()


def test_apply_gate_rejects_a_complex_matrix_on_a_float32_state():
    for support in _supports(2, 1):
        state = _sparse(2, np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32), support)
        before = _scattered(state)
        with pytest.raises(ValueError, match="U3 has a complex matrix and cannot act on a float32"):
            apply_gate(state, Gate("U3", (1,), (0.3, 0.0, 0.0)))
        assert _scattered(state).tobytes() == before.tobytes()


@given(st.data())
def test_float64_kernel_gives_the_real_part_of_the_complex_kernel_property(data):
    n = data.draw(st.integers(1, 7), label="n")
    gate = data.draw(gates_on(n, REAL_KINDS), label="gate")
    columns = data.draw(st.none() | st.integers(1, 5), label="columns")  # None: a 1-D state
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    amp = np.random.default_rng(seed).normal(size=(1 << n) if columns is None else (1 << n, columns))
    for support in _supports(n, seed):
        real = apply_gate(_sparse(n, amp, support), gate)
        full = apply_gate(_sparse(n, amp.astype(np.complex128), support), gate)
        # the same rows, and the real parts of the complex run's amplitudes
        assert np.array_equal(real.index, full.index)
        assert real.amplitudes.dtype == np.float64
        assert np.array_equal(real.amplitudes, full.amplitudes.real)
        assert not np.any(full.amplitudes.imag)


@given(st.data())
def test_amplitude_dtype_is_complex_exactly_when_a_gate_is_u3_or_u2_property(data):
    n = data.draw(st.integers(1, 5), label="n")
    gates = data.draw(st.lists(gates_on(n), max_size=8), label="gates")
    complex_ = any(g.kind in ("U3", "U2") for g in gates)
    assert sim._amplitude_dtype(gates) is (np.complex128 if complex_ else np.float64)


@pytest.mark.parametrize("graph, k, prep, style", BUNDLED_CONFIGURATIONS,
                         ids=lambda value: str(value))
def test_ideal_runs_are_float64_until_lowering_adds_u3(graph, k, prep, style, monkeypatch):
    g = builtin_graph(graph)
    circ = assemble(g, k, prep, style)
    lowered = decompose_mc(circ)
    assert sim._amplitude_dtype(circ.ops) is np.float64
    assert sim._amplitude_dtype(lowered.ops) is np.complex128
    nodes = list(range(g.n))
    calls, blocks = _gate_calls(monkeypatch), _marginal_blocks(monkeypatch)
    _, state = run_ideal(circ, shots=16, seed=1, measure=nodes, return_state=True)
    # every gate once, on a float64 sparse state of the full width; the
    # marginals are summed over the node register, on float64
    assert calls == [(SparseState, circ.n_qubits, np.float64, gate.kind) for gate in circ.ops]
    assert blocks == [(g.n, np.float64)]
    assert state.amplitudes.dtype == np.complex128
    calls.clear()
    blocks.clear()
    _, state = run_ideal(lowered, shots=16, seed=1, measure=nodes, return_state=True)
    # the lowered oracle's U3 gates make the amplitudes complex and widen the
    # marginal block past the nodes
    assert calls == [(SparseState, lowered.n_qubits, np.complex128, gate.kind)
                     for gate in lowered.ops]
    [(width, dtype)] = blocks
    assert g.n < width < lowered.n_qubits and dtype is np.complex128
    assert state.amplitudes.dtype == np.complex128


@pytest.mark.parametrize("graph, k, prep, style", BUNDLED_CONFIGURATIONS,
                         ids=lambda value: str(value))
def test_no_x_z_type_gate_reaches_the_kernel_on_the_blocks_dtype(graph, k, prep, style,
                                                                 monkeypatch):
    g = builtin_graph(graph)
    circ = assemble(g, k, prep, style)
    circuits = [circ] + [lowered for lowered in [decompose_mc(circ)] if lowered.n_qubits <= 16]
    kernel = sim.apply_gate
    seen = []

    def checked(state, gate):
        # no gate of an ideal run reaches the dense kernel; an X/Z-type gate is a
        # signed permutation of the sparse entries: X-type gates move indices
        # only and Z-type gates flip signs only, both in place
        assert isinstance(state, SparseState)
        index, amp = state.index, state.amplitudes
        before = index.copy(), amp.copy()
        kernel(state, gate)
        if gate.kind in CLASSICAL_KINDS:
            assert state.index is index and state.amplitudes is amp
            if gate.kind in sim._Z_KINDS:
                assert np.array_equal(index, before[0])
                assert np.array_equal(np.abs(amp), np.abs(before[1]))
            else:
                assert amp.tobytes() == before[1].tobytes()
            seen.append(gate.kind)
        return state

    monkeypatch.setattr(sim, "apply_gate", checked)
    for circuit in circuits:
        seen.clear()
        run_ideal(circuit, shots=16, seed=1, measure=list(range(g.n)))
        assert seen == [gate.kind for gate in circuit.ops if gate.kind in CLASSICAL_KINDS]


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
    calls = _gate_calls(monkeypatch)
    _assert_same_as_full_kernel(lowered, list(range(g.n)))
    # run_ideal and then statevector each apply every gate once to a
    # complex128 sparse state; the dense reference makes no apply_gate call
    assert calls == 2 * [(SparseState, lowered.n_qubits, np.complex128, gate.kind)
                         for gate in lowered.ops]


# -- X/Z-type gates against an index reference ---------------------------------

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


def _assert_matches_index_reference(gate: Gate, n: int, amp: np.ndarray, seed: int) -> None:
    """On every index and on a random support, the gate acts in place and
    leaves every listed row with its reference amplitude, bit for bit."""
    for support in _supports(n, seed):
        expected = _index_reference(gate, n, _masked(amp, support))
        state = _sparse(n, amp, support)
        amplitudes = state.amplitudes
        apply_gate(state, gate)
        assert state.amplitudes is amplitudes and amplitudes.dtype == expected.dtype
        assert expected[state.index].tobytes() == amplitudes.tobytes()
        assert np.array_equal(_scattered(state), expected)


@given(st.data())
def test_classical_gates_match_an_index_reference_property(data):
    n = data.draw(st.integers(1, 9), label="n")
    gate = data.draw(gates_on(n, CLASSICAL_KINDS), label="gate")
    dtype = data.draw(st.sampled_from([np.float32, np.float64, np.complex128]), label="dtype")
    columns = data.draw(st.sampled_from([None, 1, 2, 3, 8]), label="columns")  # None: 1-D
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _assert_matches_index_reference(gate, n, _random_amplitudes(seed, n, columns, dtype), seed)


# (dtype, block columns or None for a 1-D state, gate, bytes in each run below
# the gate's lowest operand): runs of one scalar, of 64 B and of 128 B, each
# dtype, 1-D states and blocks, operands low and high
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
                                                                         run):
    n = 7
    amp = _random_amplitudes(run, n, columns, dtype)
    assert amp.itemsize * (columns or 1) << min(gate.qubits) == run
    _assert_matches_index_reference(gate, n, amp, run)


# -- X/Z-type runs on the sparse state against an integer walk ------------------

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
    # labels 1 .. 2**m on the indices below 2**m, as a sparse state of every qubit
    labels = np.arange(1.0, (1 << m) + 1)
    state = SparseState(n, np.arange(1 << m, dtype=np.int64), labels.copy())
    for gate in run:
        apply_gate(state, gate)
    # entry i still holds label i + 1, now at the index the walk sends i to and
    # with its sign, also where the run leaves a qubit from m up set
    assert np.array_equal(state.index, dest)
    assert np.array_equal(state.amplitudes, sign * labels)


@pytest.mark.parametrize("m, dtype", [(24, np.float32), (25, np.float64)])
def test_labels_are_float32_while_it_holds_every_label(m, dtype, monkeypatch):
    # a run that takes qubit m to 1 and back: every basis index is an int64, so
    # no (m+1)-qubit state is allocated, float32 or float64; the one dense
    # allocation is the marginal block of the measured qubit 0
    allocated = []
    zero = StateVector.zero
    monkeypatch.setattr(StateVector, "zero", staticmethod(
        lambda n_qubits, dtype=np.complex128: allocated.append((n_qubits, dtype))
        or zero(n_qubits, dtype)))
    circ = Circuit(m + 1, ops=[Gate("H", (0,)), Gate("CX", (0, m)), Gate("CX", (0, m))])
    hist = run_ideal(circ, shots=64, seed=1, measure=[0])
    assert (m + 1, dtype) not in allocated
    assert allocated == [(1, np.float64)]
    assert set(hist.counts) == {"0", "1"}


# -- CX-conjugated controlled rotations (Dicke blocks) on the sparse state -------

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


@pytest.mark.parametrize("graph, k", [("g4", 3), ("g6", 3), ("g6", 4)])
def test_run_ideal_fuses_every_rotation_of_a_dicke_search(graph, k, monkeypatch):
    g = builtin_graph(graph)
    circ = assemble(g, k, "dicke", "checking")
    prep = prepare_state("dicke", g.n, k)
    assert {"CX", "CRY", "CCRY"} <= {gate.kind for gate in prep.ops}
    paths = _rotation_paths(monkeypatch)
    run_ideal(circ, shots=16, seed=1, measure=list(range(g.n)))
    # the preparation grows the support to C(n, k) entries, sorted by index;
    # from there on every rotation, in each diffusion's adjoint preparation and
    # preparation, finds its pairs complete and in order, and rotates in place
    grown = sum(gate.kind not in CLASSICAL_KINDS for gate in prep.ops)
    assert len(paths) > grown and not all(in_place for _, in_place in paths[:grown])
    assert all(in_place for _, in_place in paths[grown:])


# planted gates, and whether each of their rotations rotates in place after an
# H layer on all four qubits: a CX(c -> t) before a rotation on target c that t
# does not control leaves its pairs out of order
NEAR_MISSES = {
    "sandwich": (_sandwich(0, 2, None, 0.7), [True]),
    "ccry sandwich": (_sandwich(3, 1, 0, 0.7), [True]),
    "gate between": (_sandwich(0, 2, None, 0.7)[:2] + [Gate("H", (1,))]
                     + _sandwich(0, 2, None, 0.7)[2:], [True, True]),
    "t not a control": ([Gate("CX", (0, 2)), Gate("CRY", (1, 0), (0.7,)), Gate("CX", (0, 2))],
                        [False]),
    "reversed CX": ([Gate("CX", (0, 2)), Gate("CRY", (2, 0), (0.7,)), Gate("CX", (2, 0))],
                    [True]),
    "other target": ([Gate("CX", (0, 2)), Gate("CCRY", (0, 2, 3), (0.7,)), Gate("CX", (0, 2))],
                     [True]),
}


@pytest.mark.parametrize("name", NEAR_MISSES)
def test_only_sandwiches_skip_the_gate_kernel(name, monkeypatch):
    planted, in_place = NEAR_MISSES[name]
    circ = Circuit(4, ops=[Gate("H", (q,)) for q in range(4)] + planted)
    calls, paths = _gate_calls(monkeypatch), _rotation_paths(monkeypatch)
    hist, state = run_ideal(circ, shots=64, seed=2, return_state=True)
    # no gate skips the kernel, sandwich or near miss: each is applied once to
    # the sparse state; the H layer grows the support to all 16 indices, sorted
    assert calls == [(SparseState, 4, np.float64, gate.kind) for gate in circ.ops]
    rotations = [gate.kind for gate in planted if gate.kind not in CLASSICAL_KINDS]
    assert paths == [("H", False)] * 4 + list(zip(rotations, in_place))
    full = dense_statevector(circ)
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
    calls, paths = _gate_calls(monkeypatch), _rotation_paths(monkeypatch)
    run_ideal(circ, shots=16, seed=1, measure=[0, 1])
    # every gate once; the run takes qubit 2 to 1 and back, so the second
    # sandwich's rotation, like the first, rotates in place
    assert calls == [(SparseState, 3, np.float64, gate.kind) for gate in circ.ops]
    assert paths == [("H", False), ("RY", False), ("CRY", True), ("CRY", True)]
    _assert_same_as_full_kernel(circ, [0, 1], shots=64)


# -- a cold ideal run keeps its temporaries on the heap --------------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_a_cold_label_pass_keeps_its_temporaries_on_the_heap():
    # a fresh process, so no earlier test has raised glibc's mmap threshold:
    # 65,536 sparse entries (512 KiB of int64 indices, above glibc's default
    # 128 KiB threshold) through an oracle-shaped run of 33 gates, each with
    # temporaries as large; mapped and unmapped per gate, they fault in over
    # 8,000 pages (with MALLOC_MMAP_THRESHOLD_=131072, which fixes the threshold)
    script = (
        "import resource\n"
        "from qclique import sim\n"
        "from qclique.circuit import Circuit, Gate\n"
        "compute = ([Gate('CX', (q, 16 + q % 4)) for q in range(8)]\n"
        "           + [Gate('CCX', (q, q + 1, 16 + q % 4)) for q in range(8)])\n"
        "run = compute + [Gate('MCZ', (16, 17, 18, 19))] + compute[::-1]\n"
        "state = sim.SparseState.basis(20, 0, float)\n"
        "for q in range(16):\n"
        "    sim.apply_gate(state, Gate('H', (q,)))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for gate in run:\n"
        "    sim.apply_gate(state, gate)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = str(Path(sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert int(done.stdout) < 3072


# -- mirrored X/Z-type runs take every index back to its entry ------------------

MIRROR_CASES = ["mirror", "empty centre", "two-Z centre", "low gates before",
                "X-type centre", "halves differ"]


def _assert_run_is_a_phase(prefix: list[Gate], run, n: int) -> None:
    """After ``prefix`` on a sparse state, ``run`` leaves every index where it
    was, in place, and changes amplitudes by their sign only."""
    state = SparseState.basis(n, 0, np.float64)
    for gate in prefix:
        apply_gate(state, gate)
    index, amp = state.index.copy(), state.amplitudes.copy()
    for gate in run:
        apply_gate(state, gate)
    assert np.array_equal(state.index, index)
    assert np.array_equal(np.abs(state.amplitudes), np.abs(amp))


@given(st.data())
def test_mirrored_runs_match_the_full_kernel_and_the_gather_property(data):
    n = data.draw(st.integers(2, 7), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    case = data.draw(st.sampled_from(MIRROR_CASES), label="case")
    classical = gates_on(n, CLASSICAL_KINDS)
    # the first gate takes an index above qubit m
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
    before = data.draw(st.lists(gates_on(m, CLASSICAL_KINDS), min_size=1, max_size=3),
                       label="before") if case == "low gates before" else []
    spread = [Gate("H", (q,)) for q in range(m)]
    circ = Circuit(n, ops=spread + before + run + spread)
    measure = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True), label="measure")
    _assert_same_as_full_kernel(circ, sorted(measure), shots=64)
    # a mirror A, M, A reversed is A^-1 M A, diagonal: every X/Z-type gate is
    # its own inverse and M holds Z-type gates only
    if case not in ("X-type centre", "halves differ"):
        _assert_run_is_a_phase(spread + before, run, n)


@pytest.mark.parametrize("graph, k", [("g4", 3), ("g6", 3)])
def test_the_label_pass_of_a_dicke_search_takes_the_oracle_to_its_phase(graph, k):
    g = builtin_graph(graph)
    plan = make_plan(g, k, "dicke", "checking")
    prep, oracle = prepare_state("dicke", g.n, k), build_oracle(g, k, plan.oracle)
    assert oracle.n_qubits > g.n
    state = SparseState.basis(oracle.n_qubits, 0, np.float64)
    for gate in prep.ops:
        apply_gate(state, gate)
    index, amp = state.index.copy(), state.amplitudes.copy()
    for gate in oracle.ops:
        apply_gate(state, gate)
    # the oracle computes its counters and flags above the nodes, flips the
    # phase and uncomputes: every index is back at its entry, and exactly the
    # cliques changed sign
    cliques = [sum(1 << v for v in clique) for clique in plan.solutions]
    assert np.array_equal(state.index, index)
    assert np.array_equal(state.amplitudes, np.where(np.isin(index, cliques), -amp, amp))


def test_low_gates_at_both_ends_of_a_mirror_join_its_label_run(monkeypatch):
    # the w-complement shape: the same low X gates on both sides of a compute,
    # phase flip and uncompute that reaches qubits 2 and 3 above the measured [0, 2)
    compute = [Gate("CCX", (0, 1, 2)), Gate("CX", (2, 3))]
    run = (Gate("X", (0,)), Gate("X", (1,)), *compute, Gate("Z", (3,)), *compute[::-1],
           Gate("X", (1,)), Gate("X", (0,)))
    prefix = [Gate("H", (0,)), Gate("RY", (1,), (0.3,))]
    circ = Circuit(4, ops=[*prefix, *run, Gate("H", (0,))])
    calls = _gate_calls(monkeypatch)
    run_ideal(circ, shots=16, seed=1, measure=[0, 1])
    # every gate once, the whole run on the sparse state, which it takes back
    # to every index it started from
    assert calls == [(SparseState, 4, np.float64, gate.kind) for gate in circ.ops]
    _assert_run_is_a_phase(prefix, run, 4)
    _assert_same_as_full_kernel(circ, [0, 1], shots=64)


# -- the sparse engine ------------------------------------------------------------

_REAL_2X2_KINDS = REAL_KINDS - CLASSICAL_KINDS


@st.composite
def sparse_circuits(draw) -> Circuit:
    """Rotations on the low qubits, planted Dicke preparations and sandwiches, and
    X/Z-type runs over every qubit that may leave a high qubit set."""
    n = draw(st.integers(4, 8), label="n")
    low = draw(st.integers(2, n), label="low")
    ops = [Gate("H", (q,)) for q in range(draw(st.integers(0, low), label="spread"))]
    pieces = [st.lists(gates_on(low, _REAL_2X2_KINDS), min_size=1, max_size=3),
              st.lists(gates_on(n, CLASSICAL_KINDS), min_size=1, max_size=4)]
    if low >= 4:
        pieces.append(sandwiches(low))
    for _ in range(draw(st.integers(1, 5), label="pieces")):
        ops += draw(st.one_of(pieces), label="piece")
        if draw(st.booleans(), label="dicke"):
            k = draw(st.integers(1, low - 1), label="k")
            ops += prepare_state("dicke", low, k).ops
    return Circuit(n, ops=ops)


@given(st.data())
def test_sparse_runs_equal_the_full_kernel_property(data):
    circ = data.draw(sparse_circuits(), label="circuit")
    if data.draw(st.booleans(), label="complex"):
        circ = Circuit(circ.n_qubits, ops=circ.ops + [Gate("U3", (0,), (0.4, 0.3, -0.2))])
    measure = data.draw(st.lists(st.integers(0, circ.n_qubits - 1), min_size=1, unique=True),
                        label="measure")
    _assert_same_as_full_kernel(circ, sorted(measure), shots=64)


# (gates after an H on each of five qubits, the measured qubit, the counts of 64
# shots at seed 7): in both, the outcomes sit at probabilities within rounding
# of 1/2, where the order in which the marginal sums its 16 nonzero terms
# decides which way the sampler's binomial draw goes; summed in another order,
# as by a bincount over the sparse entries, the counts can come out swapped
# (the second case's do under a bincount in index order)
SUMMATION_ORDER_CASES = [
    ([Gate("CX", (0, 1)), Gate("CRY", (1, 0), (2.0,)), Gate("CX", (1, 0)),
      Gate("CCRY", (0, 1, 2), (0.0,)), Gate("H", (0,))], 1, {"0": 37, "1": 27}),
    ([Gate("CCRY", (3, 1, 4), (0.0,)), Gate("CRY", (4, 3), (2.0,)), Gate("H", (3,))], 4,
     {"0": 37, "1": 27}),
]


@pytest.mark.parametrize("gates, qubit, counts", SUMMATION_ORDER_CASES, ids=["q1", "q4"])
def test_run_ideal_sums_each_marginal_in_the_full_kernels_order(gates, qubit, counts):
    circ = Circuit(5, ops=[Gate("H", (q,)) for q in range(5)] + gates)
    _assert_same_as_full_kernel(circ, [qubit], shots=64, seed=7)
    assert run_ideal(circ, shots=64, seed=7, measure=[qubit]).counts == counts


def _ideal_dicke20_circuit() -> Circuit:
    """The ``ideal_dicke20`` benchmark circuit: criterion 10's 16-node graph at
    workload seed 12, k = 3, Dicke preparation, checking oracle."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    n, edges = workloads.criterion10_edges(12)
    return assemble(parse_edge_list(workloads.graph_text(n, edges)), 3, "dicke", "checking")


@pytest.mark.parametrize("graph", ["g6", "ideal_dicke20"])
def test_a_dicke_search_holds_at_most_n_choose_k_entries(graph, monkeypatch):
    circ = _ideal_dicke20_circuit() if graph == "ideal_dicke20" else assemble(
        builtin_graph(graph), 3, "dicke", "checking")
    n = 16 if graph == "ideal_dicke20" else 6
    sizes = []
    kernel = sim.apply_gate
    monkeypatch.setattr(sim, "apply_gate", lambda state, gate: sizes.append(
        len(kernel(state, gate).index)))
    run_ideal(circ, shots=16, seed=1, measure=list(range(n)))
    # the preparation keeps the Hamming weight and the oracle's work qubits are
    # functions of the nodes, so no gate holds more than C(n, 3) entries
    assert len(sizes) == len(circ.ops)
    assert max(sizes) == math.comb(n, 3)


def test_a_rotation_drops_the_exact_zeros_it_makes():
    state = SparseState.basis(2, 0b01, np.float64)
    # RY(0) on qubit 1 where qubit 0 is set: the partner 0b11 comes out exactly 0
    apply_gate(state, Gate("CRY", (0, 1), (0.0,)))
    assert state.index.tolist() == [0b01] and state.amplitudes.tolist() == [1.0]
    # H on qubit 0 takes (1/2, 1/2) to (1/sqrt 2, 0) and (1/2, -1/2) to (0, 1/sqrt 2);
    # the entries are out of order, so they are paired by key and the zeros dropped
    state = SparseState(2, np.array([0, 3, 1, 2], dtype=np.int64), np.array([0.5, -0.5, 0.5, 0.5]))
    apply_gate(state, Gate("H", (0,)))
    assert state.index.tolist() == [0b00, 0b11]
    assert np.allclose(state.amplitudes, [0.5 ** 0.5, 0.5 ** 0.5], atol=1e-15)


def test_a_rotation_without_partner_rows_skips_the_search(monkeypatch):
    # no row with the control (qubit 1) set has the target (qubit 0) set, so
    # no row has a partner to look up; the rows still come out sorted, with the
    # row that stays zero in both columns dropped
    index = np.array([0b1010, 0b0101, 0b0010, 0b0001, 0b0110], dtype=np.int64)
    amp = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.0], [0.5, 1.0], [0.5, 0.0]])
    gate = Gate("CRY", (1, 0), (0.7,))
    state = SparseState(4, index.copy(), amp.copy())
    monkeypatch.setattr(sim, "_find", lambda *_: pytest.fail("searched"))
    apply_gate(state, gate)
    dense = np.zeros((16, 2))
    dense[index] = amp
    dense_apply(dense, 4, gate)
    assert state.index.tolist() == np.flatnonzero(dense.any(axis=1)).tolist()
    assert np.array_equal(state.amplitudes, dense[state.index])


@given(st.data())
def test_in_place_and_paired_rotations_give_the_same_entries_property(data):
    n = data.draw(st.integers(3, 7), label="n")
    gate = data.draw(gates_on(n, GATE_KINDS - CLASSICAL_KINDS).filter(
        lambda g: len(g.controls) <= n - 2), label="gate")  # at least two pairs
    dtype = sim._amplitude_dtype([gate])
    amp = _random_amplitudes(data.draw(st.integers(0, 2**32 - 1), label="seed"), n, None, dtype)
    # every index, sorted: the gate's pairs are complete and in order
    in_place = SparseState(n, np.arange(1 << n, dtype=np.int64), amp.copy())
    index = in_place.index
    apply_gate(in_place, gate)
    assert in_place.index is index
    # the same entries with the first two target-0 entries the gate acts on
    # swapped: the pairs are out of order, so they are paired by key
    c, t = sim._mask(gate.controls), 1 << gate.target
    first, second = np.flatnonzero((index & (c | t)) == c)[:2]
    order = np.arange(1 << n)
    order[[first, second]] = order[[second, first]]
    paired = SparseState(n, index[order], amp[order])
    apply_gate(paired, gate)
    assert paired.index is not index
    # the same entries, bit for bit; the in-place path keeps any zero it makes
    kept = in_place.amplitudes != 0
    assert np.array_equal(paired.index, in_place.index[kept])
    assert paired.amplitudes.tobytes() == in_place.amplitudes[kept].tobytes()


def test_run_ideal_rejects_a_circuit_wider_than_an_int64_index(monkeypatch):
    monkeypatch.setattr(sim, "apply_gate", lambda *_: pytest.fail("simulated"))
    circ = Circuit(64, ops=[Gate("H", (0,)), Gate("CX", (0, 63))])
    with pytest.raises(ValueError, match="cannot run a 64-qubit circuit: a basis index is an "
                                         "int64, which holds at most 63 qubits"):
        run_ideal(circ, shots=1, seed=1, measure=[0])


# -- the real Hadamard's two-product form --------------------------------------

def _signed_zeros(rng: np.random.Generator, shape) -> np.ndarray:
    """Random float64 values with a third of them +0.0 or -0.0."""
    values = rng.normal(size=shape)
    zero = rng.random(shape) < 1 / 3
    values[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return values


def _assert_four_product_form(amp: np.ndarray, n: int, qubit: int, m: np.ndarray,
                              seed: int) -> None:
    """H on ``qubit`` of ``amp``, on every index and on a random support,
    leaves every listed row with the four-product form's amplitude, bit for
    bit, and +0.0 or -0.0 at every other index."""
    for support in _supports(n, seed):
        masked = _masked(amp, support)
        view = masked.reshape(1 << (n - 1 - qubit), 2, -1)
        a0, a1 = view[:, 0], view[:, 1]
        expected = np.stack((m[0, 0] * a0 + m[0, 1] * a1, m[1, 0] * a0 + m[1, 1] * a1),
                            axis=1).reshape(amp.shape)
        state = apply_gate(_sparse(n, amp, support), Gate("H", (qubit,)))
        assert expected[state.index].tobytes() == state.amplitudes.tobytes()
        assert np.array_equal(_scattered(state), expected)


@pytest.mark.parametrize("seed", range(4))
def test_a_real_hadamard_is_the_four_product_form_byte_for_byte(seed):
    rng = np.random.default_rng(seed)
    for qubit in range(4):
        amp = _signed_zeros(rng, (1 << 12, 16))  # 12 qubits, a block of 16 states
        _assert_four_product_form(amp, 12, qubit, sim._H_MATRIX.real, seed)


def test_a_complex_hadamard_keeps_the_four_product_form():
    # a complex product can give a zero the other sign, so complex states keep
    # the four products
    rng = np.random.default_rng(5)
    amp = _signed_zeros(rng, 1 << 6) + 1j * _signed_zeros(rng, 1 << 6)
    _assert_four_product_form(amp, 6, 2, sim._H_MATRIX, 5)



# -- the 2x2 matrix cache --------------------------------------------------------

def test_rotation_matrices_are_cached_apart_from_the_sign_of_a_zero_angle():
    # every decompose_mc U3 is U3(theta, 0, 0): its matrix is built once; a
    # -0.0 angle's matrix has zero entries of the other sign, so it is its own key
    rng = np.random.default_rng(8)
    amp = _signed_zeros(rng, (2, 64)) + 1j * _signed_zeros(rng, (2, 64))
    sim._gate_matrix_2x2.cache_clear()
    for _ in range(3):
        sim._rotate_pairs(amp[0].copy(), amp[1].copy(), Gate("U3", (0,), (0.7, 0.0, 0.0)))
    info = sim._gate_matrix_2x2.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    out = {}
    for theta in (0.0, -0.0, -0.0):
        a0, a1 = amp[0].copy(), amp[1].copy()
        sim._rotate_pairs(a0, a1, Gate("U3", (0,), (theta, 0.0, 0.0)))
        m = sim._u3_matrix(theta, 0.0, 0.0)  # built without the cache
        assert a0.tobytes() == (m[0, 0] * amp[0] + m[0, 1] * amp[1]).tobytes()
        assert a1.tobytes() == (m[1, 0] * amp[0] + m[1, 1] * amp[1]).tobytes()
        out[math.copysign(1.0, theta)] = a0.tobytes() + a1.tobytes()
    assert out[1.0] != out[-1.0]
    assert sim._gate_matrix_2x2.cache_info().hits == 3


def test_statevector_rejects_a_circuit_wider_than_an_int64_index(monkeypatch):
    # before any gate runs, and before numpy is asked for 2**64 amplitudes
    monkeypatch.setattr(sim, "apply_gate", lambda *_: pytest.fail("simulated"))
    monkeypatch.setattr(StateVector, "zero", lambda *_: pytest.fail("allocated"))
    circ = Circuit(64, ops=[Gate("H", (0,)), Gate("CX", (0, 63))])
    with pytest.raises(ValueError, match="cannot run a 64-qubit circuit: a basis index is an "
                                         "int64, which holds at most 63 qubits"):
        statevector(circ)
