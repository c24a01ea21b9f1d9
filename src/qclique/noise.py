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
relaxation step draws its branch for all columns at once.  B is what a dense
``(2**n, B)`` block of 512 KiB would hold, but a block runs on its support: a
:class:`qclique.sim.SparseState` that lists the K basis states some column
holds, with a ``(K, B)`` array of their amplitudes.  X-type gates then only flip
index bits, a phase flip negates the rows with the qubit set, and only 2x2
gates, resets and Kraus jumps add rows.  A block has the circuit's amplitude
dtype (:func:`qclique.sim._amplitude_dtype`): float64 for every circuit whose
gates all have real matrices, which both channels keep real, since their
flips, resets, no-jump factors and jump copies are all real.  A sparse block
draws the same numbers in the same order as a dense one and ends in the same
amplitudes: every product is of the same two numbers, and every sum (a
reset's norm, a Kraus step's column norms, the marginals) sees the dense
block's terms in the dense block's layout, so it rounds as there.

Narrow blocks run in stacks: up to ``_STACK_COLUMNS // B`` of a job's blocks
(8 at 12 qubits, 1 at 8) are one sparse state whose index holds the block
number in the bits above the register, so each gate is one call per stack.
No gate mixes blocks: X-type gates flip only register bits and a 2x2 gate
pairs rows that differ in one.  A narrower last block fills only its first
columns; the rest stay zero.  What stays per block: its generator and every
draw from it, in the order it makes them alone; its rows, which a
relaxation step works on as a view of its own and to which it adds rows;
each reset's and Kraus step's norms, summed in the block's own dense
layout; and its marginals and multinomial.  So a block ends in the same
amplitudes and counts in any stack.

Runs are deterministic given the seed: block ``b`` draws from
``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(b,)))``, the
calling process builds every block's ``SeedSequence`` before handing blocks
to workers, and the block size depends only on the width and the dtype, so
results do not depend on the worker count.

A run with more than one job hands them to a worker pool that is started
once per process and reused by later runs, so a sweep over many profiles
forks once; the pool is replaced only when a run needs more processes than
it has, and stopped when the process exits.  Its workers also exit on their
own when that process is killed.
"""
from __future__ import annotations

import json
import math
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from os import _exit, getpid, getppid

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
            self.no_jump = np.array([1.0, math.sqrt(self.decay1)]).reshape(2, 1, 1)
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

        ``state`` is a dense array, one pure state ``(2**n,)`` or a block
        ``(2**n, B)`` of them, one per column, or a
        :class:`~qclique.sim.SparseState` block, or a stack of blocks
        (:class:`_Stack`, :meth:`_apply_sparse`).  ``rng`` is a
        :class:`numpy.random.Generator`, or a sequence of them, one per block
        of a stack.  Each column draws its own branch from its block's
        generator.  The amplitudes may be complex128 or float64: every factor
        the channel applies is real, so a real state stays real.
        """
        if self.t_ns == 0.0:
            return
        if isinstance(state, SparseState):
            self._apply_sparse(state, qubit, [rng] if isinstance(rng, np.random.Generator) else rng)
            return
        # (qubits above, qubit value, qubits below, column)
        view = state.reshape(state.shape[0] >> (qubit + 1), 2, 1 << qubit, -1)
        if self.implementation == "mixture":
            u = rng.random(view.shape[-1])
            event = u < self.p_reset + self.p_z
            if not np.count_nonzero(event):
                return
            # events are rare: each column that draws one is handled on its own view
            for column in event.nonzero()[0]:
                if u[column] < self.p_reset:
                    _reset(view[..., column], rng)
                else:
                    view[:, 1, :, column] *= -1.0
            return
        # kraus: amplitude damping with Born-weighted branch selection, then a
        # phase flip for the residual pure dephasing; one factor per half and
        # column, shaped (2, 1, B) to multiply the view
        draws = rng.random((2, view.shape[-1]))
        p1 = _column_norms(view[:, 1])
        factors, jump = self._kraus_factors(draws, p1)
        if np.count_nonzero(jump):
            view[:, 0, :, jump] = view[:, 1, :, jump]
        view *= factors

    def _kraus_factors(self, draws: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A Kraus step's factors, shaped ``(2, 1, B)`` (one per half and
        column), and its jump mask: a column that jumps takes its |1> half,
        scaled, as its |0> half."""
        damped = self.gamma * p1
        factors = self.no_jump * (1.0 - damped) ** -0.5
        jump = draws[0] < damped
        if np.count_nonzero(jump):
            factors[0, 0, jump] = p1[jump] ** -0.5
            factors[1, 0, jump] = 0.0
        flip = draws[1] < self.p_phi
        if np.count_nonzero(flip):
            factors[1, 0, flip] *= -1.0
        return factors, jump

    def _apply_sparse(self, state: SparseState, qubit: int, rngs) -> None:
        """:meth:`apply` on a stack of ``len(rngs)`` sparse blocks, block ``g``
        drawing from ``rngs[g]``: each block draws what it draws alone, in the
        same order, and ends in the amplitudes it ends in alone.

        Block ``g`` is the rows whose index holds ``g`` in the bits from
        ``n_qubits`` up (:func:`_block_bounds`), in its first
        ``state.columns[g]`` columns (:class:`_Stack`; every column of a
        plain :class:`~qclique.sim.SparseState`).  A mixture step draws every
        block's branches, then works on the blocks that drew an event; a
        Kraus step works on every block.  Each works on a
        :class:`~qclique.sim.SparseState` view of its own rows and columns
        (:meth:`_mixture_block`, :meth:`_kraus_block`), and the rows it adds
        are inserted after them (:func:`_insert_rows`).
        """
        n, width = state.n_qubits, state.amplitudes.shape[1]
        columns = state.columns if isinstance(state, _Stack) else (width,) * len(rngs)
        if self.implementation == "mixture":
            u = np.ones((len(rngs), width))  # a column a block does not hold draws no event
            for g, rng in enumerate(rngs):
                rng.random(out=u[g, :columns[g]])
            event = u < self.p_reset + self.p_z
            if not np.count_nonzero(event):
                return
            events: dict[int, list[int]] = {}  # block -> its event columns, in order
            for g, column in zip(*(axis.tolist() for axis in event.nonzero())):
                events.setdefault(g, []).append(column)
            blocks = events
        else:
            blocks = range(len(rngs))
        idx, amp = state.index, state.amplitudes
        bounds = _block_bounds(state, len(rngs))
        inserts = []
        for g in blocks:
            lo, hi = bounds[g], bounds[g + 1]
            block = SparseState(n, idx[lo:hi], amp[lo:hi, :columns[g]])
            if self.implementation == "mixture":
                added = self._mixture_block(block, qubit, rngs[g], u[g], events[g])
            else:
                added = self._kraus_block(block, qubit, rngs[g])
            if added is not None:
                index, rows = added
                if columns[g] < width:  # a narrower block's rows are zero in the other columns
                    pad = np.zeros_like(rows, shape=(len(rows), width - columns[g]))
                    rows = np.concatenate((rows, pad), axis=1)
                inserts.append((hi, index, rows))
        if inserts:
            _insert_rows(state, inserts)

    def _mixture_block(self, state: SparseState, qubit: int, rng: np.random.Generator,
                       u: np.ndarray, columns: list[int]):
        """A mixture step on one sparse block whose ``columns`` drew an event
        (``u`` holds the block's draws).  It returns the rows to add,
        as :func:`_move_down` does.

        A phase flip negates the rows with the qubit set.  A reset that
        measures 1 takes each such row to its partner with the qubit clear
        (:func:`_move_down`).  A step in which one column draws an event
        works on that column's view (:meth:`_one_event`); one with more
        handles all its events together.  A reset's norm sees the dense
        block's terms in the dense block's layout (:func:`_reset_norms`), so
        it rounds as there; every other result is a product of the same two
        numbers.
        """
        bits = state.index >> qubit & 1
        ones = bits.nonzero()[0]
        if len(columns) == 1:
            return self._one_event(state, qubit, rng, columns[0], u, bits, ones)
        columns = np.array(columns)
        resets = (u[columns] < self.p_reset).nonzero()[0]  # positions in columns
        # the dense block's resets draw one number each, in column order
        draws = rng.random(len(resets)) if len(resets) else None
        halves = state.amplitudes.take(ones, axis=0).take(columns, axis=1)  # the |1> halves
        live = halves.any(axis=0)
        if not np.count_nonzero(live):
            return None  # a flip or a reset of a zero |1> half changes nothing
        factors = _PHASE_FLIP.repeat(len(columns), axis=1)
        added = None
        if draws is not None:
            p1, alive = np.zeros(len(resets)), live[resets]
            p1[alive] = _reset_norms(state, qubit, ones, halves[:, resets[alive]])
            moved = draws < p1
            factors[0, resets] = [p ** -0.5 if m else (1.0 - p) ** -0.5
                                  for p, m in zip(p1, moved)]
            factors[1, resets] = 0.0
            if np.count_nonzero(moved):
                moved = resets[moved]
                added = _move_down(state, qubit, ones, columns[moved], halves[:, moved],
                                   factors[0, moved])
                factors[:, moved] = 1.0  # those columns are done
        state.amplitudes[:, columns] *= factors[bits]
        return added

    def _one_event(self, state: SparseState, qubit: int, rng: np.random.Generator,
                   column: int, u: np.ndarray, bits: np.ndarray, ones: np.ndarray):
        """A mixture step in which ``column`` alone draws an event, on that
        column's 1-D view: the common case in narrow blocks, where the
        batched path's numpy calls cost more than the event itself.
        ``bits`` holds the qubit's value per row and ``ones`` its 1 rows."""
        col = state.amplitudes[:, column]
        half = col.take(ones)
        if u[column] >= self.p_reset:  # a phase flip
            col[ones] = -half
            return None
        draw = rng.random()
        if not half.any():
            return None  # p1 = 0: the reset changes nothing
        p1 = _reset_norms(state, qubit, ones, half[:, None])[0]
        if draw < p1:
            return _move_down(state, qubit, ones, np.array([column]), half[:, None], p1 ** -0.5)
        col *= np.array([(1.0 - p1) ** -0.5, 0.0])[bits]  # a zero may carry the other sign
        return None

    def _kraus_block(self, state: SparseState, qubit: int, rng: np.random.Generator):
        """A Kraus step on one sparse block; it returns the rows to add, as
        :func:`_move_down` does.  A jump takes each row with the qubit set
        to its partner with the qubit clear.  The column norms see the dense
        block's terms in the dense block's layout
        (:func:`_sparse_column_norms`)."""
        draws = rng.random((2, state.amplitudes.shape[1]))
        bits = state.index >> qubit & 1
        ones = bits.nonzero()[0]
        if not len(ones):
            return None  # p1 = 0 in every column: the factors leave the |0> half as it is
        factors, jump = self._kraus_factors(draws, _sparse_column_norms(state, qubit, ones))
        added = None
        if np.count_nonzero(jump):
            columns = jump.nonzero()[0]
            added = _move_down(state, qubit, ones, columns,
                               state.amplitudes.take(ones, axis=0).take(columns, axis=1),
                               factors[0, 0, columns])
            factors[:, 0, columns] = 1.0  # those columns are done
        state.amplitudes *= factors[:, 0][bits]
        return added


#: A phase flip's factors on the |0> and |1> halves.
_PHASE_FLIP = np.array([[1.0], [-1.0]])


def _reset(state: np.ndarray, rng: np.random.Generator) -> None:
    """Reset instruction on one state viewed as ``(above, 2, below)``: a
    projective measurement of the qubit, then set |0>.

    Measured 0 means p1 <= the draw < 1, so 1 - p1 > 0.  Each half is written
    once: the 0 half gets the scaled survivor, and a scale of 1.0, as at
    p1 = 0, leaves it as it is.
    """
    one = state[:, 1]
    p1 = np.vdot(one, one).real
    if rng.random() < p1:
        np.multiply(one, p1 ** -0.5, out=state[:, 0])
    else:
        scale = (1.0 - p1) ** -0.5
        if scale != 1.0:
            state[:, 0] *= scale
    one[...] = 0.0


def _column_norms(half: np.ndarray) -> np.ndarray:
    """Squared norm of each column of an ``(above, below, B)`` float64 or
    complex128 view; a complex column adds its real and imaginary sums."""
    re_im = half.view(np.float64)  # the last axis is contiguous, so this is a view
    squares = np.einsum("ijk,ijk->k", re_im, re_im)  # innermost loop: all B or 2B floats
    return squares.reshape(half.shape[-1], -1).sum(axis=1)


@lru_cache(maxsize=4)
def _scratch_column(n_qubits: int, columns: int, dtype: np.dtype) -> np.ndarray:
    """A column of ``2**n`` zeros laid out as a column of a dense block of
    ``columns`` (1 or 2) states: contiguous for one column, strided
    otherwise, since numpy and BLAS sum a strided run in another order than
    a contiguous one.  One is made per run (:func:`_run_trajectory_blocks`
    clears the cache) and kept zero: whoever writes rows into it sets them
    back to 0."""
    return np.zeros((1 << n_qubits, columns), dtype)[:, 0]


def _register_bits(state: SparseState, rows: np.ndarray) -> np.ndarray:
    """The basis indices of ``rows`` without the block number a stacked
    block's index carries above the register."""
    return state.index[rows] & ((1 << state.n_qubits) - 1)


def _block_scratch(state: SparseState) -> np.ndarray:
    """The scratch column laid out as a column of ``state``'s dense twin."""
    amp = state.amplitudes
    return _scratch_column(state.n_qubits, min(amp.shape[1], 2), amp.dtype)


def _reset_norms(state: SparseState, qubit: int, ones: np.ndarray,
                 halves: np.ndarray) -> np.ndarray:
    """Squared norm of each column of ``halves``, the |1> half of ``qubit``
    (the rows ``ones`` of a sparse block) in some of its columns, summed as
    :func:`_reset` sums the dense block's half.

    ``np.vdot`` sums a half that is one strided run (qubit 0, and qubit n-1
    of a block wider than one column) in place and copies any other half to
    a contiguous array first, so each column is scattered into a scratch
    column laid out as the dense block's (:func:`_scratch_column`) and summed
    there."""
    rows = _register_bits(state, ones)
    column = _block_scratch(state)
    half = column.reshape(-1, 2, 1 << qubit)[:, 1]
    p1 = np.empty(halves.shape[1])
    for j in range(len(p1)):
        column[rows] = halves[:, j]
        p1[j] = np.vdot(half, half).real
    column[rows] = 0.0
    return p1


def _sparse_column_norms(state: SparseState, qubit: int, ones: np.ndarray) -> np.ndarray:
    """:func:`_column_norms` of the |1> half of ``qubit`` (rows ``ones``) in
    a sparse block, bit for bit.  einsum sums the rows in ascending index
    order as it sums the dense half, except for one float64 column, whose
    dense half it sums in runs; that column is summed in a scratch column
    laid out as the dense block's (:func:`_scratch_column`)."""
    idx, amp = state.index, state.amplitudes
    if amp.shape[1] > 1 or np.iscomplexobj(amp):
        return _column_norms(amp.take(ones[idx[ones].argsort()], axis=0)[:, None])
    rows = _register_bits(state, ones)
    column = _block_scratch(state)
    column[rows] = amp[:, 0].take(ones)
    p1 = _column_norms(column.reshape(-1, 2, 1 << qubit, 1)[:, 1])
    column[rows] = 0.0
    return p1


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
    bit = 1 << qubit
    nonzero = halves.any(axis=1).nonzero()[0]
    moved = halves[nonzero] * scales
    partners = _find(state, state.index[ones[nonzero]] ^ bit)
    found, lone = (partners >= 0).nonzero()[0], (partners < 0).nonzero()[0]
    state.amplitudes[:, columns] = 0.0
    state.amplitudes[partners[found, None], columns] = moved[found]
    if not len(lone):
        return None
    added = np.zeros_like(state.amplitudes, shape=(len(lone), state.amplitudes.shape[1]))
    added[:, columns] = moved[lone]
    return state.index[ones[nonzero[lone]]] ^ bit, added


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


def _run_trajectory_blocks(args) -> np.ndarray:
    steps, n_qubits, dtype, measured, shots, trajectories, blocks = args
    size = _block_size(n_qubits, dtype)
    base, extra = divmod(shots, trajectories)
    counts = np.zeros(1 << len(measured), dtype=np.int64)
    try:
        for stack in _stacks(blocks, size, n_qubits):
            rngs = [np.random.default_rng(seed_sequence) for _, seed_sequence in stack]
            columns = tuple(min(size, trajectories - block * size) for block, _ in stack)
            # block g starts as basis state 0 of its register, index g << n
            amplitudes = np.zeros((len(stack), max(columns)), dtype)
            for g, width in enumerate(columns):
                amplitudes[g, :width] = 1.0
            state = _Stack(n_qubits, np.arange(len(stack), dtype=np.int64) << n_qubits,
                           amplitudes, columns)
            for step in steps:
                if step[0] == "gate":
                    apply_gate(state, step[1])
                else:
                    step[2].apply(state, step[1], rngs)
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
    finally:
        _scratch_column.cache_clear()  # one scratch column per run
    return counts


# This process's trajectory worker pool, as {pid: (processes, executor)}.  The
# pid key makes a forked child start a pool of its own: it drops the entry it
# inherited without shutting the parent's pool down.
_POOLS: dict[int, tuple[int, ProcessPoolExecutor]] = {}


def _pool(size: int) -> ProcessPoolExecutor:
    """A worker pool of at least ``size`` processes, started once and reused.

    A cached pool with enough processes serves any smaller request too.  A
    smaller one is shut down, and waited for, before the new pool forks, so no
    fork happens while an executor thread runs.  ``concurrent.futures`` joins
    the pool when the process exits.  The cache is not guarded against calls
    from several threads at once.
    """
    pid = getpid()
    cached = _POOLS.get(pid)
    if cached is not None and cached[0] >= size:
        return cached[1]
    _POOLS.clear()
    if cached is not None:
        cached[1].shutdown(wait=True)
    pool = ProcessPoolExecutor(max_workers=size, initializer=_exit_with_parent)
    _POOLS[pid] = size, pool
    return pool


def _exit_with_parent() -> None:
    """Pool worker initializer: end this worker once the process that forked it
    is gone.

    An idle worker waits on a queue whose write end its sibling workers hold
    too, so it would never see a parent that was killed outright (say by the
    out-of-memory killer) and would wait for ever.
    """
    parent = getppid()

    def watch() -> None:
        while getppid() == parent:
            time.sleep(1.0)
        _exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _lost_worker(pool: ProcessPoolExecutor) -> ChildProcessError:
    """Drop a broken pool from the cache and name the worker that died.

    The pool terminates its other workers once one dies, so the lost one is
    the worker that did not end by SIGTERM.
    """
    workers = dict(pool._processes or {})  # {pid: Process}; no public API lists them
    _POOLS.pop(getpid(), None)
    pool.shutdown(wait=True)
    ended = {pid: process.exitcode for pid, process in sorted(workers.items())}
    lost = [pid for pid, code in ended.items() if code != -signal.SIGTERM] or list(ended)
    named = ", ".join(f"pid {pid} (exit code {ended[pid]})" for pid in lost)
    return ChildProcessError(f"a trajectory worker died: {named}; the next run starts a new pool")


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
    is one call per stack; each block keeps its own generator and draws, its
    own rows and norm sums, and its own marginals and multinomial, so it
    ends as it ends alone.  Block ``b`` draws every channel branch and its
    shots from ``SeedSequence(entropy=seed, spawn_key=(b,))``.  Those seed
    sequences are built here, in the calling process, so ``numpy.random`` is
    imported once rather than in every worker.  ``measure`` is checked before anything runs: an empty list, a
    qubit outside the circuit or one listed twice raises :class:`ValueError`.
    Identical (circuit, profile, shots, trajectories, seed) produce identical
    histograms for any ``workers`` count and any stack size, because workers
    receive whole blocks, a block ends as it ends alone, and counts are
    aggregated by order-independent summation.

    ``min(workers, blocks)`` jobs run.  A single job runs in this process;
    with two or more, every job goes to the process's worker pool and this
    process only waits for them.  The first such call starts the pool and
    later calls reuse it; a call that needs more processes than the pool has
    replaces it.  The pool stops when the process exits, and its workers exit
    on their own if the process is killed.  A worker that dies mid-run raises
    :class:`ChildProcessError`, and the next call starts a new pool.  A
    circuit wider than the 63 qubits an int64 basis index holds raises
    :class:`ValueError` before anything runs.
    """
    if shots < 1 or trajectories < 1:
        raise ValueError("shots and trajectories must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
        pool = _pool(workers)
        try:
            totals = np.sum(list(pool.map(_run_trajectory_blocks, jobs)), axis=0)
        except BrokenProcessPool as err:
            raise _lost_worker(pool) from err
    return _histogram(shots, len(measured), totals)
