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

Trajectories run in fixed-size blocks, one ``(2**n, B)`` array each, column
``b`` holding trajectory ``b``: every scheduled gate is applied once to the
whole block, and every relaxation step draws its branch for all columns at
once.  With the block axis last, every gate and relaxation view ends in one
contiguous run of ``B * 2**q`` amplitudes.  A block has the circuit's
amplitude dtype (:func:`qclique.sim._amplitude_dtype`): float64 for every
circuit whose gates all have real matrices, which both channels keep real,
since their flips, resets, no-jump factors and jump copies are all real.
Runs are deterministic given the seed: block ``b`` draws from
``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(b,)))``, the
calling process builds every block's ``SeedSequence`` before handing blocks
to workers, and the block size depends only on the width, so results do not
depend on the worker count.

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
    MeasurementHistogram,
    StateVector,
    _amplitude_dtype,
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

    def apply(self, amplitudes: np.ndarray, qubit: int, rng: np.random.Generator) -> None:
        """One stochastic application, in place and renormalized.

        ``amplitudes`` is one pure state ``(2**n,)`` or a block ``(2**n, B)``
        of them, one per column; each column draws its own branch from ``rng``.
        They may be complex128 or float64: every factor the channel applies is
        real, so a real state stays real.
        """
        if self.t_ns == 0.0:
            return
        # (qubits above, qubit value, qubits below, column)
        view = amplitudes.reshape(amplitudes.shape[0] >> (qubit + 1), 2, 1 << qubit, -1)
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
        damped = self.gamma * p1
        factors = self.no_jump * (1.0 - damped) ** -0.5
        jump = draws[0] < damped
        if np.count_nonzero(jump):
            for column in jump.nonzero()[0]:
                view[:, 0, :, column] = view[:, 1, :, column]
            factors[0, 0, jump] = p1[jump] ** -0.5
            factors[1, 0, jump] = 0.0
        flip = draws[1] < self.p_phi
        if np.count_nonzero(flip):
            factors[1, 0, flip] *= -1.0
        view *= factors


def _reset(state: np.ndarray, rng: np.random.Generator) -> None:
    """Reset instruction on one state viewed as ``(above, 2, below)``: a
    projective measurement of the qubit, then set |0>.

    Measured 0 means p1 <= the draw < 1, so 1 - p1 > 0.
    """
    one = state[:, 1]
    p1 = np.vdot(one, one).real
    if rng.random() < p1:
        state[:, 0] = one
        scale = p1 ** -0.5
    else:
        scale = (1.0 - p1) ** -0.5
    one[...] = 0.0
    state *= scale


def _column_norms(half: np.ndarray) -> np.ndarray:
    """Squared norm of each column of an ``(above, below, B)`` float64 or
    complex128 view."""
    if half.dtype == np.float64:
        return np.einsum("ijk,ijk->k", half, half)
    re_im = half.view(np.float64)  # the last axis is contiguous, so this is a view
    squares = np.einsum("ijk,ijk->k", re_im, re_im)  # innermost loop: all 2B floats
    return squares[0::2] + squares[1::2]


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


# Amplitudes held by one block of trajectories: 2**15 (512 KiB), so 128
# trajectories at 8 qubits, 8 at 12 and 1 from 15 qubits up.  Doubling it
# raised the peak RSS of a 12-qubit noisy run by 4% and ran no faster.
_BLOCK_AMPLITUDES = 1 << 15


def _block_size(n_qubits: int) -> int:
    """Trajectories per block at this width."""
    return max(1, _BLOCK_AMPLITUDES >> n_qubits)


def _run_trajectory_blocks(args) -> np.ndarray:
    steps, n_qubits, dtype, measured, shots, trajectories, blocks = args
    size = _block_size(n_qubits)
    base, extra = divmod(shots, trajectories)
    counts = np.zeros(1 << len(measured), dtype=np.int64)
    for block, seed_sequence in blocks:
        first, stop = block * size, min((block + 1) * size, trajectories)
        rng = np.random.default_rng(seed_sequence)
        state = StateVector(n_qubits, np.zeros((1 << n_qubits, stop - first), dtype=dtype))
        amp = state.amplitudes
        amp[0] = 1.0
        for step in steps:
            if step[0] == "gate":
                apply_gate(state, step[1])
            else:
                step[2].apply(amp, step[1], rng)
        probs = np.clip(marginal_probabilities(state, measured), 0.0, None).T  # a row per trajectory
        row_shots = base + (np.arange(first, stop) < extra)  # round-robin shot allocation
        counts += rng.multinomial(row_shots, probs / probs.sum(axis=1, keepdims=True)).sum(axis=0)
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
    run in blocks of ``B = max(1, 2**15 >> n)`` columns, one ``(2**n, B)``
    array per block of the circuit's amplitude dtype (float64 unless a gate
    has a complex matrix), and block ``b`` draws every channel branch and its
    shots from ``SeedSequence(entropy=seed, spawn_key=(b,))``.  Those seed
    sequences are built here, in the calling process, so ``numpy.random`` is
    imported once rather than in every worker.  ``measure`` is checked before
    anything runs: a qubit outside the circuit or listed twice raises
    :class:`ValueError`.
    Identical (circuit, profile, shots, trajectories, seed) produce identical
    histograms for any ``workers`` count, because workers receive whole blocks
    and counts are aggregated by order-independent summation.

    ``min(workers, blocks)`` jobs run; one runs in this process.  More go to
    the process's worker pool, which the first such call starts and later
    calls reuse; a call that needs more processes than the pool has replaces
    it.  The pool stops when the process exits, and its workers exit on their
    own if the process is killed.  A worker that dies mid-run raises
    :class:`ChildProcessError`, and the next call starts a new pool.
    """
    if shots < 1 or trajectories < 1:
        raise ValueError("shots and trajectories must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    measured = _measured_qubits(measure, circuit.n_qubits)
    steps = compile_noisy_program(circuit, profile)
    trajectories = min(trajectories, shots)  # a trajectory without a shot adds nothing
    n_blocks = -(-trajectories // _block_size(circuit.n_qubits))
    workers = min(workers, n_blocks)
    blocks = [(b, np.random.SeedSequence(entropy=seed, spawn_key=(b,))) for b in range(n_blocks)]
    dtype = _amplitude_dtype(circuit.ops)
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
