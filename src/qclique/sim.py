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
gates negate the 1 half, and every other kind applies its 2x2 matrix.  The
amplitudes below an X-type gate's lowest operand move together; when such a
run is longer than one scalar and at most one 64-byte cache line, a
C-contiguous state is viewed as one opaque element per run and the gate
swaps those, so numpy's innermost loop does not walk 2-16 scalars.  The swap
moves the same bytes either way.  The views can also fix a partner axis
opposite the target, which :func:`run_ideal` uses for the blocks
``CX(c -> t) · G · CX(c -> t)`` of the Dicke preparation (Baertschi &
Eidenbenz, arXiv:1904.07358), G a CRY or CCRY on target ``c`` that ``t``
controls: the block mixes the pairs (c=0, t=1) and (c=1, t=0) with G's
matrix, one pass for three gates with the same products, bit for bit.
Marginal probabilities use the ``(2,)*n`` view and sum over the unmeasured
axes.

Amplitudes are float64 or complex128.  X/Z-type gates, H, RY, CRY and CCRY
have real matrices, so a circuit made only of them keeps a real state real:
:func:`_amplitude_dtype` picks float64 for it and complex128 for any circuit
with a U3 or U2 (every :func:`~qclique.circuit.decompose_mc` output).  On a
float64 state the kernel applies the real part of the 2x2 matrix: in half the
bytes, it gives values equal to the real parts of the complex128 run, though a
zero may carry the other sign.  :func:`run_ideal` and the trajectories of
:mod:`qclique.noise` run on that dtype; :func:`statevector` and every state
handed back stay complex128.  The integer labels of :func:`run_ideal`'s label
pass sit on float32 states while float32 holds them exactly.  The kernel
refuses a complex matrix on any real state.

A state's amplitudes may also be a ``(2**n, B)`` block of B states, one per
column (the trajectory blocks of :mod:`qclique.noise`).  The gate kernel's
views then keep the block as their trailing axis, so each ends in one
contiguous run of ``B * 2**q`` amplitudes (``q`` the lowest qubit the gate
touches), and the marginals have one column per state.  A 1-D state is a
block of one.

:func:`run_ideal` simulates only the low block of qubits ``[0, m)``: ``m - 1``
is the highest qubit that is measured or that a gate other than an X/Z-type
one touches.  The oracle's counters and flags sit above the node register and
are touched only by X/Z-type gates, so they hold |0> at every other gate and
need no amplitudes of their own.  The Dicke blocks (sandwiches) are matched
first; every X/Z-type run is evaluated whole, once, by pushing basis labels
through :func:`apply_gate` at the width it touches (never less than ``m``),
and applied to the low amplitudes as a gather and a sign.  So the block's
amplitudes meet only the 2x2 kernel, a fused sandwich and signed
permutations.  A run that leaves a high qubit set sends the whole call back
to ``m = n``.  A mirrored run, gates ``A``, then only Z-type gates ``M``,
then ``A`` reversed, is ``A^-1 · M · A`` and so diagonal, as the oracle's
compute, phase flip and uncompute is (Bennett, IBM J. Res. Dev. 17, 525,
1973): its labels go through the X-type gates of ``A`` and through ``M``
only, and it is applied as a sign alone.  The label pass first raises
glibc's mmap threshold just past half the label state
(:func:`_keep_on_heap`), so its gate temporaries are reused heap memory.
:func:`statevector` and the noisy trajectories of :mod:`qclique.noise` always
run at full width and gate by gate.
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
    """``2**n_qubits`` amplitudes, complex128, float64 or float32; index bit i
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
def _pair_views(n_qubits: int, controls: tuple[int, ...], target: int,
                partner: int | None = None):
    """View shape and index tuples of a gate's target-0 and target-1 halves.

    The shape is ``(2,)*n`` (axis ``n-1-q`` is qubit ``q``) with each run of
    qubits the gate does not touch merged into one axis, so numpy iterates
    over as few and as long axes as possible.  The index tuples fix every
    control axis to 1 and the target axis to 0 or 1; a ``partner`` axis is
    fixed opposite the target, to 1 in the first half and 0 in the second.
    Each ends with ``Ellipsis``, which stands for the trailing block axis: a
    gate that fixes every qubit axis still yields a view rather than a scalar
    copy.
    """
    fixed = {q: (1, 1) for q in controls}
    if partner is not None:
        fixed[partner] = (1, 0)
    fixed[target] = (0, 1)
    shape, lo, hi = [], [], []
    top = n_qubits
    for q in (*sorted(fixed, reverse=True), -1):
        if top > q + 1:  # qubits q+1 .. top-1 are untouched: one merged axis
            shape.append(1 << (top - q - 1))
            lo.append(slice(None))
            hi.append(slice(None))
        if q >= 0:
            shape.append(2)
            lo.append(fixed[q][0])
            hi.append(fixed[q][1])
        top = q
    return tuple(shape), (*lo, Ellipsis), (*hi, Ellipsis)


def _rotate_pairs(a0: np.ndarray, a1: np.ndarray, gate: Gate) -> None:
    """Apply ``gate``'s 2x2 matrix to every amplitude pair ``(a0, a1)`` in place;
    on a real state, the real part of the matrix."""
    m = _gate_matrix_2x2(gate)
    if not np.iscomplexobj(a0):
        m = m.real  # its imaginary parts are zeros
    tmp = a0.copy()
    a0[...] = m[0, 0] * tmp + m[0, 1] * a1
    a1[...] = m[1, 0] * tmp + m[1, 1] * a1


#: An X-type gate swaps the runs of amplitudes below its lowest operand as
#: opaque elements when a run is longer than one scalar and at most this many
#: bytes, one cache line, so numpy's innermost loop does not walk 2-16 scalars.
#: Folded runs of one scalar, or of 128 bytes and more, measured slower.
_FOLD_BYTES = 64


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place (exact unitary action) and return the state.

    A real (float32 or float64) state takes only the kinds in ``_REAL_KINDS``;
    any other kind raises :class:`ValueError` rather than drop its imaginary
    part.
    """
    if max(gate.qubits) >= state.n_qubits:
        raise ValueError(f"gate {gate} exceeds state width {state.n_qubits}")
    amp, kind = state.amplitudes, gate.kind
    if not np.iscomplexobj(amp) and kind not in _REAL_KINDS:
        raise ValueError(f"{kind} has a complex matrix and cannot act on a {amp.dtype} state")
    n, controls, target = state.n_qubits, gate.controls, gate.target
    if kind in _X_KINDS:
        # the qubits below the lowest operand index one run of
        # ``itemsize * B * 2**low`` bytes, which the swap moves whole
        low = min(gate.qubits)
        run = amp.nbytes >> (n - low)
        if amp.itemsize < run <= _FOLD_BYTES and amp.flags.c_contiguous:
            amp = amp.reshape(-1).view(np.dtype((np.void, run)))
            n, controls, target = n - low, tuple(c - low for c in controls), target - low
    shape, lo, hi = _pair_views(n, controls, target)
    view = amp.reshape((*shape, -1))
    a0, a1 = view[lo], view[hi]
    if kind in _X_KINDS:
        tmp = a0.copy()
        a0[...] = a1
        a1[...] = tmp
    elif kind in _Z_KINDS:
        a1 *= -1.0
    else:
        _rotate_pairs(a0, a1, gate)
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


def _keep_on_heap(nbytes: int) -> None:
    """Have glibc serve requests below ``nbytes`` from its heap from now on.

    Freeing a mapped chunk raises glibc's mmap threshold to that chunk's size
    (and its trim threshold to twice it), so this maps and frees one array of
    ``nbytes``.  Below the threshold, the temporaries a gate makes are reused
    heap memory; above it, each is mapped, faulted in page by page and
    unmapped again.  The thresholds only rise, and other allocators merely
    allocate and free the array.
    """
    np.empty(nbytes, dtype=np.uint8)


#: float32 holds every integer up to 2**24 exactly, so labels ``1 .. 2**m`` of a
#: low block of at most 24 qubits are pushed in half the bytes of float64.
_FLOAT32_LABEL_QUBITS = 24


def _mirror_half(run: tuple[Gate, ...]) -> int | None:
    """The largest ``h`` for which ``run`` is its first ``h`` gates, then only
    Z-type gates, then the first ``h`` in reverse; ``None`` if there is none.

    Every X/Z-type gate is its own inverse, so such a run is ``A^-1 · M · A``
    with ``M`` diagonal: it is diagonal too.  A smaller ``h`` leaves a longer
    centre, so when the largest ``h`` leaves a gate that is not Z-type in the
    centre, every ``h`` does.
    """
    h, last = 0, len(run) - 1
    while h < last - h and run[h] == run[last - h]:
        h += 1
    if all(gate.kind in _Z_KINDS for gate in run[h:len(run) - h]):
        return h
    return None


def _signed_gather(run: tuple[Gate, ...], width: int, m: int):
    """A classical run's action on the low block ``[0, m)``, as ``(source, sign)``.

    Labels ``1 .. 2**m`` are placed at indices ``[:2**m]`` (every qubit from
    ``m`` up is 0) of a ``width``-qubit state, and the run is applied to them
    through :func:`apply_gate`.  ``width`` is at least ``m`` and covers every
    qubit the run touches; a run inside the block is evaluated at ``m`` and
    cannot leave it.  The labels are real integers, so they sit on a float32
    state when ``m <= 24``, where float32 holds each of them exactly, and on
    a float64 state otherwise.  X/Z-type gates permute basis states and flip
    signs, so slot ``i`` ends up holding ``sign[i] * (source[i] + 1)``.
    Returns ``None`` when a label left the low block, that is when the run
    leaves a qubit at ``m`` or above set.

    A mirrored run (:func:`_mirror_half`), ``A^-1 · M · A``, is diagonal, so
    its source is ``Ellipsis``, the identity.  Its labels go through the
    X-type gates of ``A`` and the Z-type centre ``M`` only: label ``i`` takes
    the sign ``M`` gives the slot ``A`` moved it to, as ``A^-1`` moves it
    back and undoes the signs of ``A``'s Z-type gates.
    """
    size = 1 << m
    dtype = np.float32 if m <= _FLOAT32_LABEL_QUBITS else np.float64
    labels = StateVector.zero(width, dtype)  # its 1 at index 0 is relabelled
    # an X on a high qubit copies half the labels
    _keep_on_heap((labels.amplitudes.nbytes >> 1) + 4096)
    labels.amplitudes[:size] = np.arange(1, size + 1)
    h = _mirror_half(run)
    if h is None:
        for gate in run:
            apply_gate(labels, gate)
        landed = labels.amplitudes[:size]
        if np.count_nonzero(landed) < size:
            return None
        return np.abs(landed).astype(np.intp) - 1, np.sign(landed)
    half = (gate for gate in run[:h] if gate.kind in _X_KINDS)  # A^-1 undoes A's signs
    for gate in (*half, *run[h:len(run) - h]):
        apply_gate(labels, gate)
    held = labels.amplitudes[labels.amplitudes != 0]  # the labels, in slot order
    sign = np.empty(size, dtype)
    sign[np.abs(held).astype(np.intp) - 1] = np.sign(held)
    return Ellipsis, sign


def _is_sandwich(cx: Gate, rotation: Gate, after: Gate) -> bool:
    """Whether the three gates are ``CX(c -> t), G, CX(c -> t)`` with ``G`` a CRY
    or CCRY on target ``c`` that ``t`` controls (a Dicke preparation block)."""
    return (cx.kind == "CX" and after == cx and rotation.kind in ("CRY", "CCRY")
            and rotation.target == cx.controls[0] and cx.target in rotation.controls)


def _units(ops):
    """``ops`` cut into tuples of gates: each sandwich (:func:`_is_sandwich`),
    matched from the left, and every other gate on its own."""
    window = []
    for gate in ops:
        window.append(gate)
        if len(window) == 3:
            if _is_sandwich(*window):
                yield tuple(window)
                window.clear()
            else:
                yield (window.pop(0),)
    yield from ((gate,) for gate in window)


def _apply_sandwich(state: StateVector, cx: Gate, rotation: Gate) -> None:
    """``CX(c -> t) · G · CX(c -> t)`` in one pass, in place.

    The CXs swap (c=1, t=0) with (c=1, t=1) before and after ``G``, so the
    sandwich mixes the pairs (c=0, t=1) and (c=1, t=0) with G's matrix where
    G's other controls are 1, and leaves every other amplitude alone.  Each
    output is the same two products on the same two values as gate by gate,
    so the result is the same bit for bit.
    """
    c, t = cx.qubits
    others = tuple(q for q in rotation.controls if q != t)
    shape, lo, hi = _pair_views(state.n_qubits, others, c, t)
    view = state.amplitudes.reshape((*shape, -1))
    _rotate_pairs(view[lo], view[hi], rotation)


def _low_register_state(circuit: Circuit, m: int) -> StateVector | None:
    """Run ``circuit`` on the low qubit block ``[0, m)``, or ``None`` if it cannot be.

    Sandwiches are matched first (:func:`_units`).  Every maximal X/Z-type
    run of the other gates is applied whole as one signed gather of the
    ``2**m`` amplitudes, evaluated once per distinct run by label at width
    ``max(m, 1 + the highest qubit it touches)`` (:func:`_signed_gather`).
    Every other unit runs at width ``m``, through :func:`_apply_sandwich` or
    :func:`apply_gate`.  The amplitudes have the circuit's
    :func:`_amplitude_dtype`.
    """
    state = StateVector.zero(m, _amplitude_dtype(circuit.ops))
    gathers = {}
    for classical, units in groupby(_units(circuit.ops), key=lambda unit: all(
            gate.kind in _CLASSICAL_KINDS for gate in unit)):
        units = tuple(units)
        if not classical:
            for unit in units:
                if len(unit) == 3:
                    _apply_sandwich(state, *unit[:2])
                else:
                    apply_gate(state, unit[0])
            continue
        run = tuple(gate for (gate,) in units)  # a sandwich is never X/Z-type
        if run not in gathers:
            width = max(m, 1 + max(q for gate in run for q in gate.qubits))
            gathers[run] = _signed_gather(run, width, m)
        if gathers[run] is None:
            return None
        source, sign = gathers[run]
        state.amplitudes = state.amplitudes[source] * sign  # a view if source is Ellipsis
    return state


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
    twice raises :class:`ValueError` before anything runs.  Returns a
    :class:`MeasurementHistogram`, or a ``(histogram, state)`` pair when
    ``return_state`` is set.

    Only the low block of qubits ``[0, m)`` is simulated, where ``m - 1`` is
    the highest qubit that is measured or that a gate other than an X/Z-type
    one touches.  The qubits from ``m`` up are touched only by X/Z-type gates,
    which permute basis states and flip signs.  Sandwiches are matched first
    (see :func:`_apply_sandwich`); every X/Z-type run is evaluated whole,
    once, by label at the width it touches (see :func:`_signed_gather`),
    and applied to the ``2**m`` low amplitudes as a gather and a sign, or as
    the sign alone when it is a mirror (the oracle's compute, phase flip and
    uncompute).  If a run leaves a high qubit set, the circuit runs again with
    ``m = n``.  Either way the amplitudes with every high qubit 0 equal the
    full kernel's in value, though a zero may carry the other sign; the
    marginals and the histogram are the same bytes when every qubit below
    ``m`` is measured (each marginal then has one nonzero term).  The block
    has the circuit's :func:`_amplitude_dtype`.  The returned state is full
    width and complex128, with the low amplitudes at ``[:2**m]`` and +0.0
    elsewhere, where the full kernel may leave -0.0; so are the imaginary
    parts of a real circuit run again at ``m = n``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = circuit.n_qubits
    qubits = _measured_qubits(measure, n)
    m = 1 + max({q for g in circuit.ops if g.kind not in _CLASSICAL_KINDS for q in g.qubits}
                | set(qubits))
    low = _low_register_state(circuit, m)
    if low is None:  # a run left a high qubit set
        low = _low_register_state(circuit, n)
    probs = marginal_probabilities(low, qubits)
    hist = sample_histogram(probs, shots, np.random.default_rng(seed), len(qubits))
    if not return_state:
        return hist
    state = StateVector.zero(n)  # its 1 at index 0 is overwritten
    state.amplitudes[:1 << low.n_qubits] = low.amplitudes
    return hist, state
