import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclique.circuit import Circuit, Gate, decompose_mc, mc_ancilla_requirement
from qclique.sim import StateVector, apply_gate, statevector
from helpers import dense_unitary, gates_on


def random_circuit(rng: random.Random, n: int, length: int) -> Circuit:
    circ = Circuit(n)
    kinds = ["H", "X", "Z", "RY", "U3", "U2", "CX", "CZ", "CRY", "CCX", "CCRY", "MCX", "MCZ"]
    for _ in range(length):
        kind = rng.choice(kinds)
        arity = {"H": 1, "X": 1, "Z": 1, "RY": 1, "U3": 1, "U2": 1,
                 "CX": 2, "CZ": 2, "CRY": 2, "CCX": 3, "CCRY": 3}.get(kind)
        if arity is None:
            arity = rng.randint(2, n)
        if arity > n:
            continue
        qubits = tuple(rng.sample(range(n), arity))
        n_params = {"RY": 1, "CRY": 1, "CCRY": 1, "U3": 3, "U2": 2}.get(kind, 0)
        params = tuple(rng.uniform(-math.pi, math.pi) for _ in range(n_params))
        circ.append(Gate(kind, qubits, params))
    return circ


# -- gate validation ---------------------------------------------------------

@pytest.mark.parametrize("kind,qubits,params", [
    ("NOPE", (0,), ()),
    ("H", (0, 1), ()),
    ("CX", (1, 1), ()),
    ("MCX", (0,), ()),
    ("RY", (0,), ()),
    ("RY", (0,), (float("nan"),)),
    ("U3", (0,), (1.0,)),
])
def test_gate_validation(kind, qubits, params):
    with pytest.raises(ValueError):
        Gate(kind, qubits, params)


def test_circuit_rejects_wide_gate():
    circ = Circuit(2)
    with pytest.raises(ValueError):
        circ.add("CX", 0, 5)


def test_register_overlap_rejected():
    with pytest.raises(ValueError):
        Circuit(4, {"a": range(0, 2), "b": range(1, 3)})
    with pytest.raises(ValueError):
        Circuit(2, {"a": range(0, 3)})


# -- adjoint / compose -------------------------------------------------------

def test_adjoint_reverses_and_inverts():
    circ = Circuit(2)
    circ.add("H", 0)
    circ.add("RY", 1, params=(0.7,))
    adj = circ.adjoint()
    assert [g.kind for g in adj.ops] == ["RY", "H"]
    assert adj.ops[0].params == (-0.7,)


def test_adjoint_involution():
    rng = random.Random(7)
    circ = random_circuit(rng, 4, 40)
    twice = circ.adjoint().adjoint()
    for got, want in zip(twice.ops, circ.ops):
        assert (got.kind, got.qubits) == (want.kind, want.qubits)
        # U2 inverses carry pi-offsets, so double inversion is exact only up
        # to float rounding; every other kind restores bit-for-bit
        if want.kind == "U2":
            assert got.params == pytest.approx(want.params, abs=1e-12)
        else:
            assert got == want


def test_adjoint_preserves_metrics():
    rng = random.Random(8)
    circ = random_circuit(rng, 5, 60)
    m, ma = circ.metrics(), circ.adjoint().metrics()
    assert (m.size, m.depth, m.counts) == (ma.size, ma.depth, ma.counts)


def test_adjoint_is_inverse_unitary():
    rng = random.Random(9)
    circ = random_circuit(rng, 3, 25)
    u = dense_unitary(circ)
    u_inv = dense_unitary(circ.adjoint())
    assert np.allclose(u_inv @ u, np.eye(8), atol=1e-10)


@given(st.data())
def test_adjoint_after_circuit_is_identity_property(data):
    n = data.draw(st.integers(1, 4), label="n")
    circ = Circuit(n)
    circ.extend(data.draw(st.lists(gates_on(n), max_size=12), label="gates"))
    u = dense_unitary(circ.compose(circ.adjoint()))
    assert np.allclose(u, np.eye(1 << n), atol=1e-10)


def test_u2_adjoint_stays_u2():
    gate = Gate("U2", (0,), (0.3, 1.1))
    inv = gate.inverse()
    assert inv.kind == "U2"
    assert inv.inverse().params == pytest.approx(gate.params, abs=1e-12)
    circ = Circuit(1)
    circ.append(gate)
    circ.append(inv)
    u = dense_unitary(circ)
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_compose_adds_sizes_and_checks_width():
    a, b = Circuit(3), Circuit(2)
    a.add("H", 0)
    b.add("CX", 0, 1)
    assert len(a.compose(b)) == 2
    with pytest.raises(ValueError):
        b.compose(a)


# -- metrics -----------------------------------------------------------------

def test_metrics_empty():
    m = Circuit(4).metrics()
    assert (m.size, m.depth, m.counts, m.n_qubits) == (0, 0, {}, 4)


def test_metrics_parallel_then_serial():
    circ = Circuit(2)
    circ.add("H", 0)
    circ.add("H", 1)
    circ.add("CX", 0, 1)
    m = circ.metrics()
    assert (m.size, m.depth) == (3, 2)


def test_metrics_depth_le_size():
    rng = random.Random(10)
    for _ in range(10):
        circ = random_circuit(rng, 4, rng.randint(1, 50))
        m = circ.metrics()
        assert m.depth <= m.size
        assert sum(m.counts.values()) == m.size


def test_dumps_golden():
    circ = Circuit(3)
    circ.add("H", 0)
    circ.add("MCX", 0, 1, 2)
    circ.add("RY", 1, params=(0.5,))
    assert circ.dumps() == "H 0\nMCX 0,1,2\nRY 1 0.5\n"


# -- decompose_mc ------------------------------------------------------------

def test_decompose_mcz_cost_formula():
    for m in range(2, 8):
        circ = Circuit(m)
        circ.add("MCZ", *range(m))
        low = decompose_mc(circ)
        expected = {"CZ": 1, "CCX": 2 * m - 4} if m > 2 else {"CZ": 1}
        assert low.metrics().counts == expected
        assert mc_ancilla_requirement(circ) == m - 2
        assert low.n_qubits == 2 * m - 2


def test_decompose_leaves_cx_alone():
    circ = Circuit(2)
    circ.add("CX", 0, 1)
    low = decompose_mc(circ)
    assert low.ops == circ.ops and low.n_qubits == 2


def test_decompose_mcx_cost_formula():
    for c in range(3, 7):
        circ = Circuit(c + 1)
        circ.add("MCX", *range(c + 1))
        counts = decompose_mc(circ).metrics().counts
        assert counts == {"CCX": 2 * c - 3}
        assert mc_ancilla_requirement(circ) == c - 2


def test_decompose_mcx_three_controls_truth_table():
    circ = Circuit(4)
    circ.add("MCX", 0, 1, 2, 3)
    low = decompose_mc(circ)
    for basis in range(16):
        out = statevector(low, initial=basis)
        nz = int(np.argmax(np.abs(out.amplitudes)))
        expect = basis ^ (1 << 3) if basis & 0b111 == 0b111 else basis
        assert nz == expect
        assert abs(out.amplitudes[nz] - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_decompose_matches_original_on_basis_states(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    circ = random_circuit(rng, n, 20)
    low = decompose_mc(circ)
    assert all(g.kind in {"X", "CX", "CCX", "CZ", "H", "U3", "U2"} for g in low.ops)
    pad = low.n_qubits - n
    for basis in range(1 << n):
        ref = statevector(circ, initial=basis).amplitudes
        got = statevector(low, initial=basis).amplitudes
        folded = got.reshape(1 << pad, 1 << n) if pad else got.reshape(1, -1)
        # ancillas must return to zero: all weight on the first block
        assert np.allclose(folded[1:], 0.0, atol=1e-10)
        assert np.allclose(folded[0], ref, atol=1e-10)


def test_decompose_preserves_ry_semantics():
    circ = Circuit(3)
    circ.add("CCRY", 0, 1, 2, params=(1.234,))
    low = decompose_mc(circ)
    assert low.metrics().counts == {"CCX": 2, "U3": 2}
    u = dense_unitary(circ)
    v = dense_unitary(low)
    assert np.allclose(u, v, atol=1e-12)


@given(st.data())
def test_decompose_matches_original_property(data):
    n = data.draw(st.integers(2, 5), label="n")
    circ = Circuit(n)
    circ.extend(data.draw(st.lists(gates_on(n, {"MCX", "MCZ", "CRY", "CCRY"}),
                                   min_size=1, max_size=8), label="gates"))
    low = decompose_mc(circ)
    pad = low.n_qubits - n
    for basis in range(1 << n):
        ref = statevector(circ, initial=basis).amplitudes
        got = statevector(low, initial=basis).amplitudes.reshape(1 << pad, 1 << n)
        # ancillas are the high qubits and must return to zero
        assert np.allclose(got[1:], 0.0, atol=1e-10)
        assert np.allclose(got[0], ref, atol=1e-10)
