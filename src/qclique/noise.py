"""Thermal relaxation (T1/T2) noise: profiles, channels, Monte-Carlo trajectories.

The channel for an interval t satisfies, on any single-qubit density matrix,

    rho_11 -> rho_11 * exp(-t/T1)        (excited population decays to ground)
    rho_01 -> rho_01 * exp(-t/T2)        (coherence decays)

Two trajectory implementations realize it:

* ``mixture`` (valid for T2 <= T1): probabilistic {identity, phase-flip,
  reset-to-|0>} instruction selection with state-independent weights.
* ``kraus`` (valid for T2 <= 2*T1): amplitude-damping Kraus selection with
  Born-rule branch weights and renormalization, followed by a probabilistic
  phase flip for the residual pure dephasing.

Trajectories run in blocks of B columns, column ``b`` holding trajectory
``b``: every scheduled gate is applied once to the whole block, and every
relaxation step works on the columns that drew a branch.  B is what a dense
``(2**n, B)`` block of 512 KiB would hold, but a block runs on its support: a
:class:`qclique.sim.SparseState` that lists the K basis states some column
holds, with a ``(K, B)`` array of their amplitudes.  X-type gates then only flip
index bits, a phase flip negates the rows with the qubit set, and only 2x2
gates, resets and Kraus jumps add rows.  A block has the circuit's amplitude
dtype (:func:`qclique.sim._amplitude_dtype`): float64 for every circuit whose
gates all have real matrices, which both channels keep real, since their
flips, resets, no-jump factors and jump copies are all real.

A block draws every channel branch of its program from its generator before
the first step runs (:func:`_draw`): a Kraus block the ``(2, B)`` uniforms of
each step, a mixture block one uniform per column and step, of which it keeps
only the events, then one uniform per reset.  A mixture step that no block
drew an event for is skipped.  Every sum a block takes is summed on its listed
rows, in an order that does not depend on how the rows are laid out: a
reset's norm is the correctly rounded sum of its squares, or on a wide
support the sum of its nonzero squares sorted by value (:func:`_reset_norm`),
a Kraus step's column norms add the |1> rows one after another in ascending
index order (:func:`_half_norms`), and the marginals add each row to its
outcome in ascending index order (:func:`qclique.sim.marginal_probabilities`).
None of them goes through BLAS, so seeded results do not depend on its
kernel.

:meth:`RelaxationChannel.apply` has this one implementation.  A dense
``(2**n,)`` or ``(2**n, B)`` array, passed with a generator, runs on the block
path at full support, over a view of its amplitudes: it draws its one step's
branches as a block does and ends in the same bytes.

Narrow blocks run in stacks: up to ``_STACK_COLUMNS // B`` of a job's blocks
(8 at 12 qubits, 1 at 8) are one sparse state whose index holds the block
number in the bits above the register, so each gate is one call per stack.
No gate mixes blocks: X-type gates flip only register bits and a 2x2 gate
pairs rows that differ in one.  A narrower last block fills only its first
columns; the rest stay zero.  What stays per block: its generator and every
draw from it; its rows, which a relaxation step works on as a view of its
own and to which it adds rows; and its marginals and multinomial.  A stack
may lay a block's rows out in another order than the block alone, or drop
rows of zeros that the block alone keeps, and the sums above do not see
either.  So a block ends in the same amplitudes and counts in any stack.

Runs are deterministic given the seed: block ``b`` draws from
``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(b,)))``, the
calling process builds every block's ``SeedSequence`` before handing blocks
to workers, and the block size depends only on the width and the dtype, so
results do not depend on the worker count.

A run with more than one job hands them to a worker pool that is started
once per process and reused by later runs, so a sweep over many profiles
forks once; the pool is replaced only when a run needs more processes than
it has, and stopped when the process exits.  Its workers are ``os.fork``
children that read pickled jobs from a pipe each (:class:`_Pool`), so no
``multiprocessing`` module is imported.  A worker exits when its job pipe
ends, which is also the moment the process that forked it dies, however it
dies.
"""
from __future__ import annotations

import atexit
import json
import math
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate, _critical_path, _lower_gate
from .sim import (
    _MAX_INDEX_QUBITS,
    MeasurementHistogram,
    SparseState,
    _amplitude_dtype,
    _check_index_width,
    _find,
    _histogram,
    _measured_qubits,
    apply_gate,
    marginal_probabilities,
)


@dataclass(frozen=True)
class NoiseProfile:
    """Decoherence times (microseconds), gate-class durations (nanoseconds).

    ``apply_idle`` extends relaxation to qubits sitting idle during other
    gates' time slices, not just to each gate's operands.
    """

    name: str
    t1_us: float
    t2_us: float
    u2_ns: float = 50.0
    u3_ns: float = 100.0
    cx_ns: float = 300.0
    readout_ns: float = 1000.0
    apply_idle: bool = True

    def __post_init__(self) -> None:
        for field in ("t1_us", "t2_us", "u2_ns", "u3_ns", "cx_ns", "readout_ns"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"noise profile field {field!r} must be a finite positive "
                                 f"number, got {value!r}")
        if self.t2_us > 2 * self.t1_us:
            raise ValueError(f"T2 must satisfy 0 < T2 <= 2*T1, got T1={self.t1_us}, T2={self.t2_us}")

    @property
    def default_implementation(self) -> str:
        return "mixture" if self.t2_us <= self.t1_us else "kraus"

    def to_json(self) -> str:
        return json.dumps({
            "schema": 1, "name": self.name, "t1_us": self.t1_us, "t2_us": self.t2_us,
            "gate_ns": {"u2": self.u2_ns, "u3": self.u3_ns, "cx": self.cx_ns},
            "readout_ns": self.readout_ns, "apply_idle": self.apply_idle,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> NoiseProfile:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("noise profile JSON: the top level must be an object")
        for key in ("name", "t1_us", "t2_us"):
            if key not in data:
                raise ValueError(f"noise profile JSON lacks the field {key!r}")
        gate_ns = data.get("gate_ns", {})
        if not isinstance(gate_ns, dict):
            raise ValueError(f"noise profile JSON: the field 'gate_ns' must be an object, "
                             f"got {gate_ns!r}")
        return cls(
            name=data["name"], t1_us=_number(data, "t1_us"), t2_us=_number(data, "t2_us"),
            u2_ns=_number(gate_ns, "u2", 50.0, "gate_ns.u2"),
            u3_ns=_number(gate_ns, "u3", 100.0, "gate_ns.u3"),
            cx_ns=_number(gate_ns, "cx", 300.0, "gate_ns.cx"),
            readout_ns=_number(data, "readout_ns", 1000.0),
            apply_idle=_boolean(data, "apply_idle", True),
        )


def _number(data: dict, key: str, default: float | None = None, field: str | None = None) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"noise profile JSON: the field {field or key!r} must be a number, "
                         f"got {value!r}")
    return float(value)


def _boolean(data: dict, key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"noise profile JSON: the field {key!r} must be true or false, "
                         f"got {value!r}")
    return value


# Duration classes for directly timed gates; every other kind is lowered via
# decompose_mc rules (CCX additionally to the standard 6-CX network) and timed
# by the ASAP critical path of its lowering.
_TIMED_CLASS = {"H": "u2", "U2": "u2", "U3": "u3", "RY": "u3", "X": "u3", "Z": "u3",
                "CX": "cx", "CZ": "cx"}

_T_ANGLE = math.pi / 4.0

# Standard CCX network over {H, CX, T, Tdg}; T gates written as U3 phase gates.
_CCX_TIMING_NET = [
    ("H", (2,), ()), ("CX", (1, 2), ()), ("U3", (2,), (0.0, 0.0, -_T_ANGLE)),
    ("CX", (0, 2), ()), ("U3", (2,), (0.0, 0.0, _T_ANGLE)), ("CX", (1, 2), ()),
    ("U3", (2,), (0.0, 0.0, -_T_ANGLE)), ("CX", (0, 2), ()), ("U3", (1,), (0.0, 0.0, _T_ANGLE)),
    ("U3", (2,), (0.0, 0.0, _T_ANGLE)), ("H", (2,), ()), ("CX", (0, 1), ()),
    ("U3", (0,), (0.0, 0.0, _T_ANGLE)), ("U3", (1,), (0.0, 0.0, -_T_ANGLE)), ("CX", (0, 1), ()),
]


def gate_duration_ns(gate: Gate, profile: NoiseProfile) -> float:
    """Wall-clock duration of one gate under the profile's gate-class timings.

    CCX, CRY, CCRY, MCX and MCZ carry no duration class of their own; their
    duration is the ASAP critical path of their lowering into timed gates.
    The trajectory simulator still applies such gates as single unitaries.
    """
    return _duration_by_shape(gate.kind, len(gate.qubits), profile)


@lru_cache(maxsize=512)
def _duration_by_shape(kind: str, arity: int, profile: NoiseProfile) -> float:
    if kind in _TIMED_CLASS:
        return {"u2": profile.u2_ns, "u3": profile.u3_ns, "cx": profile.cx_ns}[_TIMED_CLASS[kind]]
    if kind == "CCX":
        gates = [Gate(k, q, p) for k, q, p in _CCX_TIMING_NET]
    else:
        # representative gate of this shape; lowering shape is angle-independent
        params = {"CRY": (1.0,), "CCRY": (1.0,)}.get(kind, ())
        probe = Gate(kind, tuple(range(arity)), params)
        gates = _lower_gate(probe, range(arity, arity + max(arity, 2)))
    return _critical_path(gates, lambda gate: gate_duration_ns(gate, profile))


class RelaxationChannel:
    """Single-qubit thermal relaxation over ``t_ns`` for a given profile.

    Its average action matches the closed-form T1/T2 decay.  ``implementation``
    defaults to ``profile.default_implementation``.
    """

    def __init__(self, t_ns: float, profile: NoiseProfile, implementation: str | None = None):
        if t_ns < 0:
            raise ValueError("negative duration")
        implementation = implementation or profile.default_implementation
        if implementation not in ("mixture", "kraus"):
            raise ValueError(f"unknown channel implementation {implementation!r}")
        t1 = profile.t1_us * 1000.0
        t2 = profile.t2_us * 1000.0
        self.t_ns = t_ns
        self.implementation = implementation
        self.decay1 = math.exp(-t_ns / t1)           # exp(-t/T1)
        self.decay2 = math.exp(-t_ns / t2)           # exp(-t/T2)
        self.gamma = 1.0 - self.decay1
        if implementation == "mixture":
            if t2 > t1 * (1 + 1e-12):
                raise ValueError("mixture implementation requires T2 <= T1")
            self.p_reset = self.gamma
            self.p_z = max((self.decay1 - self.decay2) / 2.0, 0.0)
        else:
            # |0>, |1> amplitude factors without a jump, before renormalizing
            self.no_jump = np.array([1.0, math.sqrt(self.decay1)]).reshape(2, 1)
            # residual pure dephasing after amplitude damping: T2 <= 2*T1
            self.p_phi = max((1.0 - self.decay2 / math.sqrt(self.decay1)) / 2.0, 0.0)

    def evolve_density(self, rho: np.ndarray) -> np.ndarray:
        """Closed-form channel action on a 2x2 density matrix."""
        out = np.array(rho, dtype=np.complex128)
        p1 = out[1, 1]
        out[1, 1] = p1 * self.decay1
        out[0, 0] = out[0, 0] + p1 * self.gamma
        out[0, 1] *= self.decay2
        out[1, 0] *= self.decay2
        return out

    def apply(self, state: np.ndarray | SparseState, qubit: int, rng) -> None:
        """One stochastic application, in place and renormalized.

        ``state`` is a :class:`~qclique.sim.SparseState` block, or a stack of
        blocks (:class:`_Stack`), and ``rng`` the step's branches that each
        block drew up front (:func:`_draw`), one item per block.  Or ``state``
        is a dense array, one pure state ``(2**n,)`` or a block ``(2**n, B)``
        of them, and ``rng`` a :class:`numpy.random.Generator`: a view of the
        array runs as a block at full support, drawing this step's branches
        as :func:`_draw` does.  Each column takes its own branch.  The
        amplitudes may be complex128 or float64: every factor the channel
        applies is real, so a real state stays real.  A qubit outside the
        register, or a dense length that is not a power of two, raises
        :class:`ValueError`.

        Block ``g`` of a stack is the rows whose index holds ``g`` in the
        bits from ``n_qubits`` up (:func:`_block_bounds`), in its first
        ``state.columns[g]`` columns (every column of a plain
        :class:`~qclique.sim.SparseState`).  A mixture step works on the
        blocks that drew an event, a Kraus step on every block, each on a
        :class:`~qclique.sim.SparseState` view of its own rows and columns
        (:meth:`_mixture_block`, :meth:`_kraus_block`), and the rows it adds
        are inserted after them (:func:`_insert_rows`).
        """
        dense = isinstance(state, np.ndarray)
        if dense:
            rows = len(state)
            if not rows or rows & (rows - 1):
                raise ValueError(f"a dense state has 2**n amplitudes per column, got {rows}")
            state = SparseState(rows.bit_length() - 1, np.arange(rows, dtype=np.int64),
                                state.reshape(rows, -1))
        n, width = state.n_qubits, state.amplitudes.shape[1]
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} is outside the {n}-qubit state")
        if self.t_ns == 0.0:
            return
        # a one-step program's branches are one block's branches for this step
        draws = _draw([self], rng, width) if dense else rng
        columns = state.columns if isinstance(state, _Stack) else (width,) * len(draws)
        mixture = self.implementation == "mixture"
        idx, amp = state.index, state.amplitudes
        bounds = _block_bounds(state, len(draws))
        inserts = []
        for g, drawn in enumerate(draws):
            if mixture and not drawn:
                continue
            lo, hi = bounds[g], bounds[g + 1]
            block = SparseState(n, idx[lo:hi], amp[lo:hi, :columns[g]])
            added = (self._mixture_block if mixture else self._kraus_block)(block, qubit, drawn)
            if added is not None:
                index, rows = added
                if columns[g] < width:  # a narrower block's rows are zero in the other columns
                    pad = np.zeros_like(rows, shape=(len(rows), width - columns[g]))
                    rows = np.concatenate((rows, pad), axis=1)
                inserts.append((hi, index, rows))
        if inserts:
            _insert_rows(state, inserts)

    def _mixture_block(self, state: SparseState, qubit: int, events: list):
        """A mixture step on one sparse block, whose ``events`` are
        ``(column, outcome)`` pairs: ``outcome`` is ``None`` for a phase
        flip, or the uniform that decides what a reset measures.  It returns
        the rows to add, as :func:`_move_down` does.

        Each event works on its column's 1-D view.  A phase flip negates the
        column's rows with the qubit set.  A reset measures 1 when its
        uniform lies below the squared norm p1 of that |1> half; it then
        takes each such row to its partner with the qubit clear, and
        otherwise zeroes the half and rescales the column.  The columns that
        measure 1 move together (:func:`_move_down`), so a partner that
        several of them lack is added once.  p1 is :func:`_reset_norm`.
        """
        ones = (state.index & (1 << qubit)).nonzero()[0]
        if not len(ones):
            return None  # no |1> half: flips and resets change nothing
        moves = []
        for column, outcome in events:
            col = state.amplitudes[:, column]
            half = col.take(ones)
            if outcome is None:
                col[ones] = -half
                continue
            p1 = _reset_norm(half)
            if outcome < p1:
                moves.append((column, half, p1 ** -0.5))
                continue
            if p1:
                col *= (1.0 - p1) ** -0.5
            col[ones] = 0.0
        if not moves:
            return None
        columns, halves, scales = zip(*moves)
        return _move_down(state, qubit, ones, np.array(columns), np.array(halves).T,
                          np.array(scales))

    def _kraus_block(self, state: SparseState, qubit: int, draws: np.ndarray):
        """A Kraus step on one sparse block with the step's ``(2, B)``
        uniforms ``draws``: amplitude damping with Born-weighted branch
        selection, then a phase flip for the residual pure dephasing.  It
        returns the rows to add, as :func:`_move_down` does.

        Each column takes one factor per half: without a jump the no-jump
        factors, renormalized; a column that jumps takes each row with the
        qubit set to its partner with the qubit clear, scaled.  The column
        norms are :func:`_half_norms`."""
        ones = _ones(state, qubit)
        if not len(ones):
            return None  # p1 = 0 in every column: the factors leave the |0> half as it is
        halves = state.amplitudes.take(ones, axis=0)
        p1 = _half_norms(halves)
        damped = self.gamma * p1
        factors = self.no_jump * (1.0 - damped) ** -0.5  # (2, B): a row per half
        jump = draws[0] < damped
        flip = draws[1] < self.p_phi
        if np.count_nonzero(flip):
            factors[1, flip] *= -1.0
        added = None
        if np.count_nonzero(jump):
            columns = jump.nonzero()[0]
            added = _move_down(state, qubit, ones, columns, halves.take(columns, axis=1),
                               p1[columns] ** -0.5)
            factors[:, columns] = 1.0  # those columns are done
        state.amplitudes *= factors[state.index >> qubit & 1]
        return added


def _draw(channels: list, rng: np.random.Generator, columns: int):
    """One trajectory block's channel branches for every relaxation step of
    a program, drawn from its generator at once, before the first step runs,
    one item per step.

    ``channels`` are the program's relaxation channels in step order, all of
    one implementation (:func:`compile_noisy_program` picks one per
    profile), and ``columns`` the block's width B.  A Kraus block draws
    ``(R, 2, B)`` uniforms for its R steps, the numbers it would draw step
    by step, and a step's branches are its ``(2, B)`` row.  A mixture block
    draws ``(R, B)`` uniforms and keeps only the (step, column) pairs that
    drew an event, then draws one uniform per reset, in step and column
    order, that decides what the reset measures.  A step's branches are its
    events as ``(column, outcome)`` pairs, ``outcome`` ``None`` for a phase
    flip (:meth:`RelaxationChannel._mixture_block`).
    """
    steps = len(channels)
    if channels and channels[0].implementation == "kraus":
        return rng.random((steps, 2, columns))
    u = rng.random((steps, columns))
    p_reset = np.array([ch.p_reset for ch in channels])
    p_event = p_reset + np.array([ch.p_z for ch in channels])
    step, column = (u < p_event[:, None]).nonzero()  # in step, then column order
    reset = (u[step, column] < p_reset[step]).tolist()
    outcomes = iter(rng.random(sum(reset)).tolist())
    events = tuple((c, next(outcomes) if r else None) for c, r in zip(column.tolist(), reset))
    starts = step.searchsorted(np.arange(steps + 1)).tolist()
    return [events[a:b] for a, b in zip(starts, starts[1:])]  # () for a step without one


#: Nonzero terms up to which a reset's norm is summed exactly (:func:`_reset_norm`).
_FSUM_TERMS = 128


def _reset_norm(half: np.ndarray) -> float:
    """Squared norm p1 of ``half``, the float64 or complex128 amplitudes of a
    sparse block's |1> rows in one column.

    Up to ``_FSUM_TERMS`` nonzero squares are summed exactly
    (:func:`math.fsum`), the cheaper sum on the narrow blocks of a noisy run;
    more are sorted by value and added by numpy's pairwise sum, which on a
    wide support takes a fraction of fsum's time.  Either sum, and which of
    them is taken, depends neither on the row order nor on the rows of zeros
    a gate leaves, which both differ with the stack a block runs in, nor on
    the BLAS kernel."""
    re_im = half.view(np.float64)
    squares = re_im * re_im
    terms = np.count_nonzero(squares)
    if terms <= _FSUM_TERMS:
        return math.fsum(squares.tolist())
    squares.sort()  # the zeros come first
    return float(np.add.reduce(squares[len(squares) - terms:]))


def _ones(state: SparseState, qubit: int) -> np.ndarray:
    """The rows of a sparse block with ``qubit`` set, in ascending index
    order."""
    ones = (state.index & (1 << qubit)).nonzero()[0]
    return ones[state.index[ones].argsort()]


def _half_norms(half: np.ndarray) -> np.ndarray:
    """Squared norm of each column of ``half``, the ``(rows, B)`` float64 or
    complex128 amplitudes of a sparse block's |1> rows in ascending index
    order, a complex column adding its real and imaginary sums.

    Each column's squares are added one row after another: by einsum, whose
    loop over the columns is innermost, or for one float64 column, which
    einsum would add in SIMD lanes, by cumsum, which gives the same bits as
    such a column of a wider block.  So a norm depends neither on the rows
    of zeros a gate leaves nor on the row order, which both differ with the
    stack a block runs in, nor on the BLAS kernel."""
    re_im = half.view(np.float64)  # the rows are contiguous, so this is a view
    if re_im.shape[1] == 1:
        return np.cumsum(re_im * re_im)[-1:]
    return np.einsum("ij,ij->j", re_im, re_im).reshape(half.shape[1], -1).sum(axis=1)


def _move_down(state: SparseState, qubit: int, ones: np.ndarray, columns: np.ndarray,
               halves: np.ndarray, scales):
    """A reset that measures 1, or a Kraus jump, in ``columns`` of a sparse
    block: each index with ``qubit`` clear takes the amplitude of its partner
    with the qubit set times the column's scale, or 0 where that partner is
    not listed, and each index with the qubit set takes 0.  ``ones`` are the
    rows with the qubit set and ``halves`` their amplitudes in ``columns``.

    Only the rows of ``ones`` that are nonzero in some of ``columns`` look up
    their partners.  A partner that is not listed is not added here: it is
    returned, as ``(index, amplitudes)`` rows that are zero outside
    ``columns``, for the caller to insert; without one, ``None``."""
    live = halves.any(axis=1)
    keys = state.index[ones[live]] ^ (1 << qubit)
    moved = halves[live] * scales
    partners = _find(state, keys)
    found = partners >= 0
    state.amplitudes[:, columns] = 0.0
    state.amplitudes[partners[found][:, None], columns] = moved[found]
    if found.all():
        return None
    lone = ~found
    moved = moved[lone]
    added = np.zeros_like(state.amplitudes, shape=(len(moved), state.amplitudes.shape[1]))
    added[:, columns] = moved
    return keys[lone], added


def _block_bounds(state: SparseState, blocks: int):
    """Row bounds of each block of a stack: block ``g`` is rows
    ``bounds[g]:bounds[g + 1]``.  A stack keeps each block's rows together,
    in block order: X-type gates flip only bits below ``n_qubits``, a 2x2
    gate that moves rows sorts them by index, and a relaxation step inserts
    a block's new rows after its others."""
    if blocks == 1:
        return 0, len(state.index)
    # every row of a block lies below every row of the next, so a sorted
    # search finds where each block starts
    return state.index.searchsorted(np.arange(blocks + 1) << state.n_qubits)


def _insert_rows(state: SparseState, inserts: list) -> None:
    """Insert each of ``inserts``, ``(row, index, amplitudes)`` in ascending
    ``row`` order, before row ``row`` of ``state``, in one copy."""
    index, amplitudes, start = [], [], 0
    for row, idx, amp in inserts:
        index += (state.index[start:row], idx)
        amplitudes += (state.amplitudes[start:row], amp)
        start = row
    state.index = np.concatenate((*index, state.index[start:]))
    state.amplitudes = np.concatenate((*amplitudes, state.amplitudes[start:]))


def compile_noisy_program(circuit: Circuit, profile: NoiseProfile) -> list:
    """ASAP-schedule a circuit into (gate | relax) steps shared by all trajectories.

    Per-qubit clocks advance by each gate's duration; idle gaps (when
    ``apply_idle`` is set) and gate intervals become relaxation steps, merged
    per qubit until the next gate touches it.  A final step per qubit covers
    the idle tail plus the readout interval.  Every channel follows
    ``profile.default_implementation``: the mixture when T2 <= T1, Kraus
    otherwise.
    """
    n = circuit.n_qubits
    ready = [0.0] * n
    pending = [0.0] * n
    steps: list = []
    channels: dict[float, RelaxationChannel] = {}

    def flush(q: int) -> None:
        t = pending[q]
        if t <= 0.0:
            return
        if t not in channels:
            channels[t] = RelaxationChannel(t, profile)
        steps.append(("relax", q, channels[t]))
        pending[q] = 0.0

    for gate in circuit.ops:
        duration = gate_duration_ns(gate, profile)
        start = max(ready[q] for q in gate.qubits)
        for q in gate.qubits:
            if profile.apply_idle:
                pending[q] += start - ready[q]
            flush(q)
        steps.append(("gate", gate))
        for q in gate.qubits:
            pending[q] += duration
            ready[q] = start + duration
    t_end = max(ready)
    for q in range(n):
        if profile.apply_idle:
            pending[q] += t_end - ready[q]
        pending[q] += profile.readout_ns
        flush(q)
    return steps


# Bytes a dense block of trajectories would hold: 512 KiB, that is 2**16
# float64 or 2**15 complex128 amplitudes.  It sizes the sparse blocks too, so
# that every block draws as before: a float64 block holds 256 trajectories at
# 8 qubits, 16 at 12 and 1 from 16 qubits up; a complex128 block half as many.
_BLOCK_BYTES = 512 << 10


def _block_size(n_qubits: int, dtype) -> int:
    """Trajectories per block at this width and amplitude dtype."""
    return max(1, (_BLOCK_BYTES // np.dtype(dtype).itemsize) >> n_qubits)


#: Columns a stack of narrow blocks holds at most: ``_STACK_COLUMNS // B``
#: blocks of B columns run as one sparse state, so each gate is one call per
#: stack rather than per block.  A relaxation step that adds rows copies the
#: whole stack, which sets the limit.
_STACK_COLUMNS = 128


@dataclass
class _Stack(SparseState):
    """Trajectory blocks run as one sparse state.  Block ``g`` is the rows
    whose index holds ``g`` in the bits from ``n_qubits`` up, in its first
    ``columns[g]`` columns; a narrower block's other columns stay zero.  A
    gate never mixes blocks: X-type gates flip only register bits, and a 2x2
    gate pairs rows that differ in one of them."""

    columns: tuple[int, ...] = ()


def _stacks(blocks: list, size: int, n_qubits: int) -> list:
    """``blocks`` (``(block, seed sequence)`` pairs, in order) cut into
    stacks of at most ``_STACK_COLUMNS // size`` blocks, and no more than
    the bits above the register leave room to number, spread evenly over
    the fewest stacks that hold them."""
    most = max(1, min(_STACK_COLUMNS // size, 1 << (_MAX_INDEX_QUBITS - n_qubits)))
    count = -(-len(blocks) // most)
    return [blocks[i * len(blocks) // count:(i + 1) * len(blocks) // count] for i in range(count)]


def _run_program(state: SparseState, steps: list, rngs: list) -> None:
    """Run a compiled program on a sparse block, or on a stack of them,
    block ``g`` drawing from ``rngs[g]``.

    Each block draws its branches for every relaxation step before the first
    step runs (:func:`_draw`), so it draws the same numbers in any stack.
    A mixture step runs only where some block drew an event, and a Kraus
    step, which rescales every column, always runs.
    """
    channels = [step[2] for step in steps if step[0] == "relax"]
    columns = (state.columns if isinstance(state, _Stack)
               else (state.amplitudes.shape[1],) * len(rngs))
    draws = zip(*[_draw(channels, rng, width) for rng, width in zip(rngs, columns)])
    for step in steps:
        if step[0] == "gate":
            apply_gate(state, step[1])
            continue
        drawn = next(draws)  # every block's branches for this step
        if step[2].implementation == "kraus" or any(drawn):
            step[2].apply(state, step[1], drawn)


def _run_trajectory_blocks(args) -> np.ndarray:
    steps, n_qubits, dtype, measured, shots, trajectories, blocks = args
    size = _block_size(n_qubits, dtype)
    base, extra = divmod(shots, trajectories)
    counts = np.zeros(1 << len(measured), dtype=np.int64)
    for stack in _stacks(blocks, size, n_qubits):
        rngs = [np.random.default_rng(seed_sequence) for _, seed_sequence in stack]
        columns = tuple(min(size, trajectories - block * size) for block, _ in stack)
        # block g starts as basis state 0 of its register, index g << n
        amplitudes = np.zeros((len(stack), max(columns)), dtype)
        for g, width in enumerate(columns):
            amplitudes[g, :width] = 1.0
        state = _Stack(n_qubits, np.arange(len(stack), dtype=np.int64) << n_qubits,
                       amplitudes, columns)
        _run_program(state, steps, rngs)
        bounds = _block_bounds(state, len(stack))
        for g, (block, _) in enumerate(stack):
            rows = slice(bounds[g], bounds[g + 1])
            alone = SparseState(n_qubits, state.index[rows] ^ (g << n_qubits),
                                state.amplitudes[rows, :columns[g]])
            probs = np.clip(marginal_probabilities(alone, measured), 0.0, None).T  # a row per trajectory
            first = block * size
            row_shots = base + (np.arange(first, first + columns[g]) < extra)  # round-robin shot allocation
            counts += rngs[g].multinomial(row_shots,
                                          probs / probs.sum(axis=1, keepdims=True)).sum(axis=0)
    return counts


class _Pool:
    """``size`` forked trajectory workers, each serving jobs on a pipe of its own.

    Every message is a pickle behind its 8-byte length: a ``(function, job)``
    pair to a worker, and ``(True, result, None)`` or ``(False, exception,
    formatted traceback)`` back.  The pool's process holds the only write end
    of each worker's job pipe, so a worker reads EOF, and exits, once the pool
    is closed or that process dies.
    """

    def __init__(self, size: int):
        self.workers: list[tuple[int, int, int]] = []  # (pid, job fd, reply fd)
        try:
            for _ in range(size):
                self.workers.append(self._fork())
        except BaseException:
            self.close()
            raise

    def _fork(self) -> tuple[int, int, int]:
        job_in, job_out = os.pipe()
        reply_in, reply_out = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for _, *fds in self.workers:  # the pool's ends of its elder siblings' pipes
                    _close(fds)
                _close((job_out, reply_in))
                _serve(job_in, reply_out)
                code = 0
            finally:
                os._exit(code)
        _close((job_in, reply_out))
        return pid, job_out, reply_in

    def map(self, function, jobs: list) -> list:
        """``function(job)`` for each job, the i-th on worker i, in job order.

        A job that raised re-raises here once every reply is in.  A worker
        that died, or an interrupt, closes the pool first.
        """
        workers = self.workers[:len(jobs)]
        try:
            for (pid, job_fd, _), job in zip(workers, jobs):
                _send(job_fd, pickle.dumps((function, job), pickle.HIGHEST_PROTOCOL))
            replies = []
            for pid, _, reply_fd in workers:
                replies.append(pickle.loads(_receive(reply_fd)))
        except BaseException as err:  # the pool is out of step with its jobs
            if _POOLS.get(os.getpid()) is self:
                del _POOLS[os.getpid()]
            codes = self.close()
            if isinstance(err, (BrokenPipeError, EOFError)):
                raise ChildProcessError(f"a trajectory worker died: pid {pid} (exit code "
                                        f"{codes[pid]}); the next run starts a new pool") from None
            raise
        for ok, value, trace in replies:
            if not ok:
                raise value from RuntimeError(f"in a trajectory worker:\n{trace}")
        return [value for _, value, _ in replies]

    def close(self) -> dict[int, int]:
        """Close every pipe, wait for the workers to exit, and return their
        exit codes by pid."""
        for _, *fds in self.workers:
            _close(fds)
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _, _ in self.workers}
        self.workers = []
        return codes


def _serve(job_fd: int, reply_fd: int) -> None:
    """A worker's loop: run each job read from ``job_fd`` until EOF."""
    while True:
        try:
            function, job = pickle.loads(_receive(job_fd))
        except EOFError:
            return
        try:
            reply = pickle.dumps((True, function(job), None), pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            import traceback  # only a failed job needs it

            trace = "".join(traceback.format_exception(err))
            try:
                reply = pickle.dumps((False, err, trace), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an exception that does not pickle
                reply = pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}"), trace))
        _send(reply_fd, reply)


def _send(fd: int, message: bytes) -> None:
    data = memoryview(len(message).to_bytes(8, "little") + message)
    while data:
        data = data[os.write(fd, data):]


def _receive(fd: int) -> bytes:
    """The next message on ``fd``; :class:`EOFError` if the pipe ends first."""
    return _read(fd, int.from_bytes(_read(fd, 8), "little"))


def _read(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _close(fds) -> None:
    for fd in fds:
        os.close(fd)


# This process's trajectory worker pool, as {pid: pool}.  The pid key makes a
# forked child start a pool of its own: it drops the entry it inherited
# without closing the parent's pool.
_POOLS: dict[int, _Pool] = {}


def _pool(size: int) -> _Pool:
    """A worker pool of at least ``size`` processes, started once and reused.

    A cached pool with enough processes serves any smaller request too.  A
    smaller one is closed, and its workers waited for, before the new pool
    forks.  The cache is not guarded against calls from several threads at
    once.
    """
    pid = os.getpid()
    cached = _POOLS.get(pid)
    if cached is not None and len(cached.workers) >= size:
        return cached
    _POOLS.clear()
    if cached is not None:
        cached.close()
    _POOLS[pid] = pool = _Pool(size)
    return pool


def _close_pools() -> None:
    pool = _POOLS.pop(os.getpid(), None)
    if pool is not None:
        pool.close()


def _forget_pools() -> None:
    """In a forked child: close the pipe ends of every pool it inherited, so
    that pool's workers still see EOF when their own process ends."""
    for pool in _POOLS.values():
        for _, *fds in pool.workers:
            _close(fds)
    _POOLS.clear()


atexit.register(_close_pools)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def run_noisy(circuit: Circuit, profile: NoiseProfile, shots: int, trajectories: int,
              seed: int, measure: list[int] | None = None,
              workers: int = 1) -> MeasurementHistogram:
    """Monte-Carlo trajectory execution under thermal relaxation.

    Each trajectory replays the compiled schedule with stochastic channel
    applications, then contributes its share of the ``shots`` (round-robin
    allocation), so at most ``shots`` trajectories run.  The channel follows
    the profile's T1/T2, as in :func:`compile_noisy_program`.  Trajectories
    run in blocks of B, each a sparse block of the circuit's amplitude dtype
    on its support: ``B = max(1, 2**16 >> n)`` for float64 (every circuit
    whose gates all have real matrices) and ``max(1, 2**15 >> n)`` for
    complex128, what a dense block of 512 KiB would hold.  Up to
    ``_STACK_COLUMNS // B`` of a job's blocks run as one stack, so each gate
    is one call per stack.  Block ``b`` draws every channel branch of the
    program up front, then its shots, from
    ``SeedSequence(entropy=seed, spawn_key=(b,))``; it keeps its own rows and
    its own marginals and multinomial, and its norms and marginals are sums
    on its listed rows that do not depend on their layout, so it ends as it
    ends alone.  Those seed sequences are built here, in the calling
    process, so ``numpy.random`` is imported once rather than in every
    worker.  ``measure`` is checked before anything runs: an empty list, a
    qubit outside the circuit or one listed twice raises :class:`ValueError`.
    Identical (circuit, profile, shots, trajectories, seed) produce identical
    histograms for any ``workers`` count and any stack size, because workers
    receive whole blocks, a block ends as it ends alone, and counts are
    aggregated by order-independent summation.

    ``min(workers, blocks)`` jobs run.  A single job runs in this process;
    with two or more, every job goes to the process's worker pool and this
    process only waits for them.  The first such call starts the pool and
    later calls reuse it; a call that needs more processes than the pool has
    replaces it.  The pool's workers are forked (:class:`_Pool`), so
    ``workers > 1`` where ``os.fork`` is missing raises :class:`ValueError`
    before anything runs.  The pool stops when the process exits, and its
    workers exit as soon as the process dies.  A job that raises re-raises
    its exception here; a worker that dies mid-run raises
    :class:`ChildProcessError`, and the next call starts a new pool.  A
    circuit wider than the 63 qubits an int64 basis index holds raises
    :class:`ValueError` before anything runs.
    """
    if shots < 1 or trajectories < 1:
        raise ValueError("shots and trajectories must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"workers must be 1 where os.fork is missing, got {workers}")
    measured = _measured_qubits(measure, circuit.n_qubits)
    _check_index_width(circuit.n_qubits)
    steps = compile_noisy_program(circuit, profile)
    trajectories = min(trajectories, shots)  # a trajectory without a shot adds nothing
    dtype = _amplitude_dtype(circuit.ops)
    n_blocks = -(-trajectories // _block_size(circuit.n_qubits, dtype))
    workers = min(workers, n_blocks)
    blocks = [(b, np.random.SeedSequence(entropy=seed, spawn_key=(b,))) for b in range(n_blocks)]
    jobs = [(steps, circuit.n_qubits, dtype, measured, shots, trajectories, blocks[w::workers])
            for w in range(workers)]
    if workers == 1:
        totals = _run_trajectory_blocks(jobs[0])
    else:
        totals = np.sum(_pool(workers).map(_run_trajectory_blocks, jobs), axis=0)
    return _histogram(shots, len(measured), totals)
