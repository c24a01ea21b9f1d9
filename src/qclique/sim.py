"""Circuit execution on a sparse state, measurement sampling and histograms.

Basis-state index bit ``i`` is qubit ``i`` (qubit 0 least significant).
Display strings print qubit ``n-1`` leftmost, so the node set {1,2,3,4} on six
qubits reads ``011110``.  Multi-controlled gates are applied natively; no
decomposition is needed for simulation.

Every gate goes through :func:`apply_gate` on a :class:`SparseState`, which
holds only the basis states that carry amplitude, as an int64 index array and
an amplitude array: the sparse simulation of Jaques & Haener (ACM TQC 3(3),
2022, arXiv:2105.01533).  X-type gates flip the target bit of the indices
whose controls are set, Z-type gates negate the amplitudes whose qubits are
all set, and a 2x2 gate pairs each index with its target-flipped partner, a
missing partner becoming a zero row, and applies two products per output
(:func:`_rotate_pairs`).  :func:`run_ideal`, :func:`statevector` and the noisy
trajectory blocks of :mod:`qclique.noise` run on it.  The paper's circuits
touch few basis states: the Dicke preparation keeps the Hamming weight
(Baertschi & Eidenbenz, arXiv:1904.07358) and the oracle's counters and flags
are classical functions of the node register, so a k-clique search on n nodes
never holds more than C(n, k) entries, and a trajectory block only those its
columns' resets and jumps add.

A dense :class:`StateVector` holds all ``2**n`` amplitudes.  It is what
:func:`statevector` and ``run_ideal(return_state=True)`` hand back, the sparse
amplitudes scattered to full width.  :func:`marginal_probabilities` views a
dense state's probabilities as an array of shape ``(2,)*n``, in which axis
``n-1-q`` is qubit ``q``, and sums over the unmeasured axes.  A sparse
state's probabilities are summed on its listed rows instead: each row is keyed
by its measured bits and added to its outcome one row after another, in
ascending index order, so the sum depends neither on the row order nor on
rows of zeros, and costs rows times columns rather than ``2**n``.

Amplitudes are float64 or complex128.  X/Z-type gates, H, RY, CRY and CCRY
have real matrices, so a circuit made only of them keeps a real state real:
:func:`_amplitude_dtype` picks float64 for it and complex128 for any circuit
with a U3 or U2 (every :func:`~qclique.circuit.decompose_mc` output).  On a
float64 state the kernel applies the real part of the 2x2 matrix: in half the
bytes, it gives values equal to the real parts of the complex128 run, though a
zero may carry the other sign.  :func:`run_ideal` and the trajectories of
:mod:`qclique.noise` run on that dtype; :func:`statevector` and every state
handed back stay complex128.  The kernel refuses a complex matrix on a real
state.

A sparse state's amplitudes may also be a ``(K, B)`` block of B states whose
row ``j`` holds basis index ``index[j]`` in every column (the trajectory
blocks of :mod:`qclique.noise`).  Every gate acts on every column, and X-type
gates still only flip index bits.  The marginals have one column per state,
of a sparse block or of a dense ``(2**n, B)`` one.  A 1-D state is a block of
one.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate


@dataclass
class StateVector:
    """``2**n_qubits`` amplitudes, complex128 or float64; index bit i
    corresponds to qubit i."""

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


#: A basis index is an int64, whose sign bit leaves qubits 0 to 62.
_MAX_INDEX_QUBITS = 63


def _check_index_width(n_qubits: int) -> None:
    """Raise :class:`ValueError` for a register too wide for an int64 index."""
    if n_qubits > _MAX_INDEX_QUBITS:
        raise ValueError(f"cannot run a {n_qubits}-qubit circuit: a basis index is an int64, "
                         f"which holds at most {_MAX_INDEX_QUBITS} qubits")


@dataclass
class SparseState:
    """The basis states of an ``n_qubits`` register that carry amplitude:
    ``amplitudes[j]`` (complex128 or float64) is the amplitude of basis index
    ``index[j]`` (int64), each index listed at most once, and every index not
    listed has amplitude 0.  ``amplitudes`` is ``(K,)`` for one state or
    ``(K, B)`` for a block of B states that share the listed indices, one
    state per column.  A listed amplitude may be an exact zero, in some
    columns or in all (see :func:`apply_gate`)."""

    n_qubits: int
    index: np.ndarray
    amplitudes: np.ndarray

    @classmethod
    def basis(cls, n_qubits: int, index: int, dtype=np.complex128) -> SparseState:
        """Basis state ``index``."""
        return cls(n_qubits, np.array([index], dtype=np.int64), np.ones(1, dtype))

    def dense(self, width: int, dtype=np.complex128) -> StateVector:
        """The amplitudes of one state as a ``width``-qubit
        :class:`StateVector` of ``dtype``, +0.0 at every index not listed;
        every index must be below ``2**width``."""
        state = StateVector.zero(width, dtype)
        state.amplitudes[0] = 0.0  # the 1 that zero() put there
        state.amplitudes[self.index] = self.amplitudes
        return state


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=np.complex128,
    )


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


@lru_cache(maxsize=4096)
def _gate_matrix_2x2(kind: str, angles: tuple[str, ...], real: bool) -> np.ndarray:
    """The 2x2 matrix of a gate of ``kind`` whose angles have the
    :meth:`float.hex` forms ``angles``, or with ``real`` its real part, built
    once per key and read-only.  The hex forms keep 0.0 and -0.0 apart, which
    a float key would not: a zero angle's sign is the sign of a zero entry."""
    params = tuple(map(float.fromhex, angles))
    if kind == "H":
        m = _H_MATRIX.copy()
    elif kind in ("RY", "CRY", "CCRY"):
        m = _u3_matrix(params[0], 0.0, 0.0)
    elif kind == "U3":
        m = _u3_matrix(*params)
    elif kind == "U2":
        m = _u3_matrix(math.pi / 2.0, *params)
    else:
        raise ValueError(f"no 2x2 matrix for {kind}")  # pragma: no cover
    if real:
        m = m.real.copy()  # its imaginary parts are zeros
    m.flags.writeable = False
    return m


_X_KINDS = frozenset({"X", "CX", "CCX", "MCX"})
_Z_KINDS = frozenset({"Z", "CZ", "MCZ"})
_CLASSICAL_KINDS = _X_KINDS | _Z_KINDS
#: Kinds whose matrix is real: they keep a float64 state real.
_REAL_KINDS = _CLASSICAL_KINDS | {"H", "RY", "CRY", "CCRY"}


def _amplitude_dtype(gates) -> type:
    """float64 when every gate has a real matrix, otherwise complex128."""
    return np.float64 if all(g.kind in _REAL_KINDS for g in gates) else np.complex128


def _rotate_pairs(a0: np.ndarray, a1: np.ndarray, gate: Gate) -> None:
    """Apply ``gate``'s 2x2 matrix to every amplitude pair ``(a0, a1)`` in place;
    on a real state, the real part of the matrix."""
    real = not np.iscomplexobj(a0)
    m = _gate_matrix_2x2(gate.kind, tuple(float(p).hex() for p in gate.params), real)
    if real:
        if gate.kind == "H":
            # m10 == m00 and m11 == -m01 exactly, and x + (-y) is x - y, so two
            # products give the four-product result bit for bit; a complex
            # product could change a zero's sign, so only real states take it
            t0, t1 = m[0, 0] * a0, m[0, 1] * a1
            np.add(t0, t1, out=a0)
            np.subtract(t0, t1, out=a1)
            return
    tmp = a0.copy()
    a0[...] = m[0, 0] * tmp + m[0, 1] * a1
    a1[...] = m[1, 0] * tmp + m[1, 1] * a1


@lru_cache(maxsize=4096)
def _mask(qubits: tuple[int, ...]) -> int:
    """The basis-index bits of ``qubits``, summed once per tuple."""
    return sum(1 << q for q in qubits)


def apply_gate(state: SparseState, gate: Gate) -> SparseState:
    """Apply one gate in place (exact unitary action) to a sparse state or
    block and return it.

    A float64 state takes only the kinds in ``_REAL_KINDS``; any other kind
    raises :class:`ValueError` rather than drop its imaginary part.  X-type
    gates flip the target bit of the indices whose controls are set, and
    Z-type gates negate the rows whose qubits are all set.  A 2x2 gate
    applies its matrix through :func:`_rotate_pairs` to each pair of rows
    that differ only in the target bit and have every control set.  When
    every such row has its partner, in the same order, it rotates them in
    place and keeps any zero it makes.  Rows sorted by index are in that
    order for every gate whose pairs are all present, and the paper's
    circuits keep them so: an uncontrolled X flips one bit of every index,
    which keeps each gate's pairs in order, a Dicke block's CX keeps its
    rotation's pairs in order, and an oracle's uncompute puts every index
    back.  Otherwise it finds each row's partner by index (:func:`_find`),
    with no search when no such row has the target bit set, a missing
    partner becoming a zero row, then drops the rows that are zero in every
    column and sorts the rest by index.
    """
    if max(gate.qubits) >= state.n_qubits:
        raise ValueError(f"gate {gate} exceeds state width {state.n_qubits}")
    kind = gate.kind
    if kind not in _REAL_KINDS and not np.iscomplexobj(state.amplitudes):
        raise ValueError(f"{kind} has a complex matrix and cannot act on a "
                         f"{state.amplitudes.dtype} state")
    idx, amp = state.index, state.amplitudes
    c, t = _mask(gate.controls), 1 << gate.target
    if kind in _Z_KINDS:
        # amp.T puts the rows last, where the (K,) condition broadcasts
        np.multiply(amp.T, -1.0, out=amp.T, where=(idx & (c | t)) == c | t)
        return state
    if kind in _X_KINDS:
        if c:
            np.bitwise_xor(idx, t, out=idx, where=(idx & c) == c)
        else:
            idx ^= t
        return state
    sel = idx & (c | t)
    p0, p1 = (sel == c).nonzero()[0], (sel == c | t).nonzero()[0]
    i0, i1 = idx[p0], idx[p1]
    if len(p0) == len(p1) and (i0 | t == i1).all():
        a0, a1 = amp.take(p0, axis=0), amp.take(p1, axis=0)
        _rotate_pairs(a0, a1, gate)
        amp[p0], amp[p1] = a0, a1
        return state
    # pair each p0 row with its partner and each p1 row that has none with a
    # zero: index -1 takes the zero row appended below the others
    n0 = len(p0)
    if len(p1):
        found = _find(state, np.concatenate((i0 | t, i1 ^ t)))
    else:  # no row has the target bit set, so no p0 row has a partner
        found = np.full(n0, -1)
    lone = (found[n0:] < 0).nonzero()[0]  # the p1 rows without a partner
    padded = np.concatenate((amp, np.zeros_like(amp[:1])))
    a0 = padded.take(np.concatenate((p0, np.full(len(lone), -1))), axis=0)
    a1 = padded.take(np.concatenate((found[:n0], p1[lone])), axis=0)
    _rotate_pairs(a0, a1, gate)
    keys = np.concatenate((i0, i1[lone] ^ t))
    rest = ((idx & c) != c).nonzero()[0]  # the rows with a control clear
    idx = np.concatenate((idx[rest], keys, keys | t))
    amp = np.concatenate((amp.take(rest, axis=0), a0, a1))
    # drop the rows that are zero in every column and sort the rest by index
    kept = amp.reshape(len(amp), -1).any(axis=1).nonzero()[0]
    order = kept[idx[kept].argsort()]
    state.index, state.amplitudes = idx[order], amp.take(order, axis=0)
    return state


def _find(state: SparseState, keys: np.ndarray) -> np.ndarray:
    """The row of each of ``keys`` in ``state.index``, -1 where it is not
    listed."""
    index = state.index
    order = index.argsort()
    ordered = index[order]  # a plain search of the sorted copy outruns one through a sorter
    at = np.minimum(ordered.searchsorted(keys), len(index) - 1)
    return np.where(ordered[at] == keys, order[at], -1)


def statevector(circuit: Circuit, initial: int = 0) -> StateVector:
    """Run ``circuit`` on basis state ``initial`` and return the final state,
    full width and complex128, with +0.0 at every index the run leaves empty.

    The result is allocated before any gate runs, so a register too wide for
    an int64 index, or for memory, fails at once rather than after its
    support has grown.  The circuit then runs gate by gate on a complex128
    :class:`SparseState`, whose rows are scattered into the result.
    """
    n = circuit.n_qubits
    _check_index_width(n)
    result = StateVector.zero(n)
    state = SparseState.basis(n, initial)
    for gate in circuit.ops:
        apply_gate(state, gate)
    result.amplitudes[0] = 0.0  # the 1 that zero() put there
    result.amplitudes[state.index] = state.amplitudes
    return result


def marginal_probabilities(state: StateVector | SparseState, qubits: list[int]) -> np.ndarray:
    """Born probabilities over ``qubits`` (ascending order defines outcome bits).

    A block of states gives one column of marginals per state.  A dense
    state's probabilities are laid out contiguously, one row per state,
    before the sum, so a state sums in the same order, to the same bits, in
    a block as alone.  A sparse state adds each listed row's probability to
    its outcome one row after another, in ascending index order, so neither
    its row order nor its rows of zeros change a bit.
    """
    if isinstance(state, SparseState):
        kept = sorted(set(qubits))
        order = state.index.argsort()
        index, probs = state.index[order], np.abs(state.amplitudes[order]) ** 2
        outcome = np.zeros_like(index)
        for bit, q in enumerate(kept):
            outcome |= (index >> q & 1) << bit
        columns = probs.shape[1] if probs.ndim == 2 else 1
        # bincount adds its weights in the order given: row by row
        cells = (outcome[:, None] * columns + np.arange(columns)).ravel()
        sums = np.bincount(cells, weights=probs.ravel(), minlength=columns << len(kept))
        return sums.reshape((-1,) + probs.shape[1:])
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


def _measured_qubits(measure: list[int] | None, n_qubits: int) -> list[int]:
    """``measure`` in ascending order, or every qubit when it is ``None``.

    Raises :class:`ValueError` for an empty list, and one naming every qubit
    outside the circuit and every qubit listed more than once.
    """
    qubits = sorted(measure) if measure is not None else list(range(n_qubits))
    if not qubits:  # a circuit has at least one qubit, so measure was []
        raise ValueError("the measure list is empty")
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
    Grover result.  An empty list, a qubit outside the circuit or one listed
    twice raises :class:`ValueError` before anything runs, and so does a
    circuit wider than the 63 qubits an int64 basis index holds.  Returns a
    :class:`MeasurementHistogram`, or a ``(histogram, state)`` pair when
    ``return_state`` is set.

    The circuit runs gate by gate on a :class:`SparseState` of the circuit's
    :func:`_amplitude_dtype`, so its cost follows the number of basis states
    with a nonzero amplitude rather than ``2**n``.  Its amplitudes equal a
    dense run's in value: each is the same two products.  For the marginals
    they are scattered into a dense block of the low qubits ``[0, m)``,
    ``m - 1`` the highest qubit that is measured or that a gate other than an
    X/Z-type one touches (every qubit if an index has a bit from ``m`` up
    set), and summed as :func:`marginal_probabilities` sums any state, so the
    marginals and the histogram are the same bytes as a full-width dense
    state's when every qubit below ``m`` is measured (each marginal then has
    one nonzero term).  The returned state is full width and complex128, with
    +0.0 at every index the sparse state does not list, where a dense run may
    leave -0.0.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = circuit.n_qubits
    qubits = _measured_qubits(measure, n)
    _check_index_width(n)
    state = SparseState.basis(n, 0, _amplitude_dtype(circuit.ops))
    for gate in circuit.ops:
        apply_gate(state, gate)
    m = 1 + max({q for g in circuit.ops if g.kind not in _CLASSICAL_KINDS for q in g.qubits}
                | set(qubits))
    if np.any(state.index >> m):
        m = n
    probs = marginal_probabilities(state.dense(m, state.amplitudes.dtype), qubits)
    hist = sample_histogram(probs, shots, np.random.default_rng(seed), len(qubits))
    if not return_state:
        return hist
    return hist, state.dense(n)
