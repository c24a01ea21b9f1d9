import hashlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qclique import noise
from qclique.circuit import Circuit, Gate, decompose_mc
from qclique.cli import load_profile, main
from qclique.graph import builtin_graph
from qclique.grover import assemble
from qclique.noise import (
    NoiseProfile,
    RelaxationChannel,
    compile_noisy_program,
    gate_duration_ns,
    run_noisy,
)
from qclique.sim import SparseState, StateVector, marginal_probabilities, run_ideal
from helpers import dense_program, gates_on
from test_sim import BAD_MEASURE_LISTS


def average_density(channel, init, trajectories, seed):
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(trajectories):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        amp = init.astype(complex).copy()
        channel.apply(amp, 0, rng)
        rho += np.outer(amp, amp.conj())
    return rho / trajectories


# -- profiles ------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ValueError):
        NoiseProfile("bad", 0.0, 50.0)
    with pytest.raises(ValueError):
        NoiseProfile("bad", 50.0, 120.0)  # T2 > 2*T1 is unphysical
    with pytest.raises(ValueError):
        NoiseProfile("bad", 50.0, 50.0, cx_ns=0.0)
    NoiseProfile("edge", 50.0, 100.0)  # T2 = 2*T1 allowed


def test_profile_json_roundtrip(tmp_path):
    prof = NoiseProfile("custom", 120.0, 80.0, u2_ns=40.0, apply_idle=False)
    data = json.loads(prof.to_json())
    assert data["gate_ns"] == {"u2": 40.0, "u3": 100.0, "cx": 300.0}
    assert NoiseProfile.from_json(prof.to_json()) == prof


def test_default_implementation_choice():
    assert NoiseProfile("a", 81.0, 39.0).default_implementation == "mixture"
    assert NoiseProfile("b", 83.0, 89.0).default_implementation == "kraus"


# -- durations -----------------------------------------------------------------

def test_gate_durations_timed_classes():
    prof = NoiseProfile("p", 100.0, 100.0)
    assert gate_duration_ns(Gate("H", (0,)), prof) == 50.0
    assert gate_duration_ns(Gate("U2", (0,), (0.0, 0.0)), prof) == 50.0
    assert gate_duration_ns(Gate("X", (0,)), prof) == 100.0
    assert gate_duration_ns(Gate("RY", (0,), (1.0,)), prof) == 100.0
    assert gate_duration_ns(Gate("CX", (0, 1)), prof) == 300.0
    assert gate_duration_ns(Gate("CZ", (0, 1)), prof) == 300.0


def test_compound_gate_durations_come_from_lowering():
    prof = NoiseProfile("p", 100.0, 100.0)
    ccx = gate_duration_ns(Gate("CCX", (0, 1, 2)), prof)
    assert ccx >= 6 * 300.0  # at least the serialized CX cost of the network
    assert gate_duration_ns(Gate("CRY", (0, 1), (0.4,)), prof) == 800.0
    mcx4 = gate_duration_ns(Gate("MCX", (0, 1, 2, 3)), prof)
    assert mcx4 == pytest.approx(3 * ccx)  # three chained CCX share qubits
    assert gate_duration_ns(Gate("MCZ", (0, 1, 2, 3)), prof) > mcx4 / 2


# -- relaxation channel ---------------------------------------------------------

def test_channel_zero_time_is_identity():
    prof = NoiseProfile("p", 100.0, 100.0)
    ch = RelaxationChannel(0.0, prof)
    rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    assert np.allclose(ch.evolve_density(rho), rho)
    amp = np.array([0.6, 0.8], dtype=complex)
    ch.apply(amp, 0, np.random.default_rng(0))
    assert np.allclose(amp, [0.6, 0.8])


def test_channel_closed_form():
    prof = NoiseProfile("p", 100.0, 160.0)
    ch = RelaxationChannel(30_000.0, prof)
    rho = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    out = ch.evolve_density(rho)
    assert out[1, 1] == pytest.approx(0.7 * math.exp(-30 / 100))
    assert out[0, 0] == pytest.approx(1 - out[1, 1].real)
    assert out[0, 1] == pytest.approx((0.2 - 0.1j) * math.exp(-30 / 160))


def test_excited_state_decays_to_one_over_e():
    prof = NoiseProfile("p", 80.0, 80.0)
    ch = RelaxationChannel(80_000.0, prof)  # t = T1
    rho = average_density(ch, np.array([0.0, 1.0]), 6000, seed=5)
    assert rho[1, 1].real == pytest.approx(math.exp(-1), abs=0.02)


def test_plus_state_coherence_decays_to_half_over_e():
    prof = NoiseProfile("p", 200.0, 100.0)
    ch = RelaxationChannel(100_000.0, prof)  # t = T2
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = average_density(ch, plus, 6000, seed=6)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-1), abs=0.02)


def test_mixture_requires_t2_below_t1():
    prof = NoiseProfile("p", 83.0, 89.0)
    with pytest.raises(ValueError, match="mixture"):
        RelaxationChannel(100.0, prof, implementation="mixture")


def test_kraus_valid_beyond_t1():
    # T1 < T2 <= 2*T1 exercises the general branch
    prof = NoiseProfile("p", 100.0, 180.0)
    ch = RelaxationChannel(40_000.0, prof, implementation="kraus")
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rho = average_density(ch, plus, 8000, seed=7)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-40 / 180), abs=0.02)
    assert rho[1, 1].real == pytest.approx(0.5 * math.exp(-40 / 100), abs=0.02)


def test_both_implementations_agree_where_valid():
    prof = NoiseProfile("p", 120.0, 90.0)
    init = np.array([math.sqrt(0.4), math.sqrt(0.6)], dtype=complex)
    t = 60_000.0
    rho_mix = average_density(RelaxationChannel(t, prof, "mixture"), init, 8000, seed=8)
    rho_kraus = average_density(RelaxationChannel(t, prof, "kraus"), init, 8000, seed=8)
    want11 = 0.6 * math.exp(-60 / 120)
    want01 = math.sqrt(0.24) * math.exp(-60 / 90)
    for rho in (rho_mix, rho_kraus):
        assert rho[1, 1].real == pytest.approx(want11, abs=0.02)
        assert rho[0, 1].real == pytest.approx(want01, abs=0.02)


@pytest.mark.parametrize("implementation", ["mixture", "kraus"])
def test_channel_on_a_block_matches_closed_form(implementation):
    prof = NoiseProfile("p", 120.0, 90.0)
    channel = RelaxationChannel(60_000.0, prof, implementation)
    init = np.array([math.sqrt(0.4), math.sqrt(0.6)], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    rho = np.outer(init, init.conj())
    # one qubit, and the middle qubit of three (index bit i is qubit i)
    for single, qubit, expected in (
        (init, 0, channel.evolve_density(rho)),
        (np.kron(ket0, np.kron(init, plus)), 1,
         np.kron(np.outer(ket0, ket0), np.kron(channel.evolve_density(rho), np.outer(plus, plus)))),
    ):
        columns = np.tile(single[:, None], (1, 20_000))  # one trajectory per column
        channel.apply(columns, qubit, np.random.default_rng(17))
        block = columns.T
        assert np.allclose(np.linalg.norm(block, axis=1), 1.0)
        average = block.T @ block.conj() / len(block)
        assert np.abs(average - expected).max() < 0.02


@pytest.mark.parametrize("implementation", ["mixture", "kraus"])
def test_channel_on_a_float64_block_matches_closed_form(implementation):
    # the channel keeps a real block real, and matches the complex128 run
    prof = NoiseProfile("p", 120.0, 90.0)
    channel = RelaxationChannel(60_000.0, prof, implementation)
    init = np.array([math.sqrt(0.4), math.sqrt(0.6)])
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    ket0 = np.array([1.0, 0.0])
    expected_one = channel.evolve_density(np.outer(init, init)).real
    for single, qubit, expected in (
        (init, 0, expected_one),
        (np.kron(ket0, np.kron(init, plus)), 1,
         np.kron(np.outer(ket0, ket0), np.kron(expected_one, np.outer(plus, plus)))),
    ):
        columns = np.tile(single[:, None], (1, 20_000))  # one trajectory per column
        complex_columns = columns.astype(np.complex128)
        channel.apply(columns, qubit, np.random.default_rng(17))
        channel.apply(complex_columns, qubit, np.random.default_rng(17))
        assert columns.dtype == np.float64
        assert np.allclose(np.linalg.norm(columns, axis=0), 1.0)
        assert np.abs(columns @ columns.T / columns.shape[1] - expected).max() < 0.02
        # real factors, and norms that the zero imaginary parts leave as they
        # are: the real parts, bit for bit
        assert np.array_equal(columns, complex_columns.real)


@pytest.mark.parametrize("implementation", ["mixture", "kraus"])
@pytest.mark.parametrize("qubit", [0, 2])
def test_channel_on_a_complex_state_commutes_with_a_global_phase(implementation, qubit):
    # a complex128 state (the perfbench probe passes one) takes the same branches
    # as its real counterpart, times the phase
    channel = RelaxationChannel(40_000.0, NoiseProfile("p", 120.0, 90.0), implementation)
    real = np.random.default_rng(3).normal(size=8)
    real /= np.linalg.norm(real)
    phase = np.exp(0.7j)
    for seed in range(40):
        state, twin = real.copy(), real * phase
        channel.apply(state, qubit, np.random.default_rng(seed))
        channel.apply(twin, qubit, np.random.default_rng(seed))
        assert twin.dtype == np.complex128
        assert np.allclose(twin, state * phase, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("spec", ["3:2", "2:3"], ids=["mixture", "kraus"])
def test_a_dense_state_relaxes_as_a_full_support_block(spec, dtype):
    # the dense form is the production step on the full support: the same
    # bytes, the same numbers drawn from the generator
    channel = RelaxationChannel(1000.0, load_profile(spec))  # gamma 0.28 (3:2), 0.39 (2:3)
    n = 4
    for seed, columns in itertools.product(range(40), (1, 3)):
        start = np.random.default_rng(seed + 1000)
        dense = start.normal(size=(1 << n, columns)).astype(dtype)
        if dtype == np.complex128:
            dense += 1j * start.normal(size=dense.shape)
        dense /= np.linalg.norm(dense, axis=0)
        qubit = seed % n
        block = SparseState(n, np.arange(1 << n), dense.copy())
        dense_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        channel.apply(dense, qubit, dense_rng)
        noise._run_program(block, [("relax", qubit, channel)], [block_rng])
        assert block.index.tolist() == list(range(1 << n))
        assert dense.tobytes() == block.amplitudes.tobytes(), seed
        assert dense_rng.bit_generator.state == block_rng.bit_generator.state, seed


@pytest.mark.parametrize("spec", ["3:2", "2:3"], ids=["mixture", "kraus"])
def test_a_qubit_outside_the_state_is_an_error(spec):
    channel = RelaxationChannel(1000.0, load_profile(spec))
    block = SparseState(3, np.arange(8), np.full((8, 2), 0.5 ** 1.5))
    branches = [np.zeros((2, 2))] if spec == "2:3" else [((0, 0.0),)]
    for qubit in (3, 5, -1):
        with pytest.raises(ValueError, match=f"qubit {qubit} is outside the 3-qubit state"):
            channel.apply(block, qubit, branches)
        with pytest.raises(ValueError, match=f"qubit {qubit} is outside the 3-qubit state"):
            channel.apply(np.full(8, 0.5 ** 1.5), qubit, np.random.default_rng(0))
    assert np.array_equal(block.amplitudes, np.full((8, 2), 0.5 ** 1.5))
    for rows in (6, 0):
        with pytest.raises(ValueError, match=f"2\\*\\*n amplitudes per column, got {rows}"):
            channel.apply(np.ones((rows, 2)), 0, np.random.default_rng(0))


# -- schedule compilation --------------------------------------------------------

def test_compile_applies_idle_and_readout():
    prof = NoiseProfile("p", 100.0, 100.0)
    circ = Circuit(2)
    circ.add("X", 0)    # 100 ns; qubit 1 idles
    circ.add("CX", 0, 1)
    steps = compile_noisy_program(circ, prof)
    relaxes = [(s[1], s[2].t_ns) for s in steps if s[0] == "relax"]
    assert (1, 100.0) in relaxes             # idle catch-up on qubit 1
    assert relaxes[-2:] == [(0, 300.0 + 1000.0), (1, 300.0 + 1000.0)]


def test_compile_without_idle_still_has_readout():
    prof = NoiseProfile("p", 100.0, 100.0, apply_idle=False)
    circ = Circuit(2)
    circ.add("X", 0)
    circ.add("CX", 0, 1)
    steps = compile_noisy_program(circ, prof)
    relaxes = [(s[1], s[2].t_ns) for s in steps if s[0] == "relax"]
    assert (1, 100.0) not in relaxes
    assert relaxes[-2:] == [(0, 1300.0), (1, 1300.0)]


@pytest.mark.parametrize("spec, implementation", [
    ("500:500", "mixture"), ("ibmq_cambridge", "mixture"), ("ibmq_singapore", "kraus")])
def test_compile_channel_follows_the_profile(g4, spec, implementation):
    steps = compile_noisy_program(assemble(g4, 3, "w", "checking"), load_profile(spec))
    channels = [s[2] for s in steps if s[0] == "relax"]
    assert channels and {ch.implementation for ch in channels} == {implementation}


# -- trajectory runs --------------------------------------------------------------

def test_run_noisy_deterministic_and_worker_independent(g4):
    circ = assemble(g4, 3, "w", "checking")
    prof = NoiseProfile("t", 200.0, 200.0)
    # 300 trajectories at 8 qubits end in a partial block of 44 rows (float64
    # blocks hold 256); 100 shots leave 100 trajectories, one block, whatever
    # the workers
    for shots, trajectories in ((400, 400), (300, 300), (100, 300)):
        kwargs = dict(shots=shots, trajectories=trajectories, seed=11, measure=list(range(4)))
        runs = [run_noisy(circ, prof, workers=w, **kwargs).to_json() for w in (1, 1, 2, 3)]
        assert runs == [runs[0]] * 4, (shots, trajectories)
        assert sum(json.loads(runs[0])["counts"].values()) == shots


def _histogram_hash(hist) -> str:
    return hashlib.sha256(hist.to_json().encode()).hexdigest()[:16]


@pytest.mark.parametrize("workers", [1, 2])
def test_kraus_histogram_is_pinned(g4, workers):
    # float64 blocks of 256 trajectories at 8 qubits
    hist = run_noisy(assemble(g4, 3, "w", "checking"), load_profile("ibmq_singapore"),
                     shots=2000, trajectories=2000, seed=17, measure=list(range(4)),
                     workers=workers)
    assert _histogram_hash(hist) == "ba08988a47d9f344"


@pytest.mark.parametrize("workers", [1, 2])
def test_mixture_histogram_is_pinned(g4, workers):
    # float64 blocks of 16 trajectories at 12 qubits; about 5,800 resets, whose
    # norms are summed without BLAS, so the pin holds under any BLAS kernel
    hist = run_noisy(assemble(g4, 3, "full", "checking"), load_profile("500:500"),
                     shots=600, trajectories=600, seed=23, measure=list(range(4)),
                     workers=workers)
    assert _histogram_hash(hist) == "de3f47e95d5d51da"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec, pinned", [
    ("500:500", "9a170e9a2af6ab5c"), ("ibmq_singapore", "63e55de7c0b6c4f4"),
])
def test_complex_histograms_are_pinned(g4, spec, pinned, workers):
    # a decompose_mc output has U3 gates, so it runs on complex128 blocks of
    # 2**15 >> n trajectories, the same blocks whatever the float64 budget
    circ = decompose_mc(assemble(g4, 3, "w", "checking"))
    hist = run_noisy(circ, load_profile(spec), shots=300, trajectories=300, seed=17,
                     measure=list(range(4)), workers=workers)
    assert _histogram_hash(hist) == pinned


@pytest.mark.parametrize("dtype, widest", [(np.float64, 16), (np.complex128, 15)])
def test_a_block_holds_512_kib(dtype, widest):
    itemsize = np.dtype(dtype).itemsize
    for n in range(widest + 1):
        assert noise._block_size(n, dtype) * itemsize << n == 512 << 10, n
    for n in range(widest + 1, 25):
        assert noise._block_size(n, dtype) == 1, n


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_a_warm_run_keeps_its_blocks_on_the_heap(g4):
    # ten 512 KiB blocks at 12 qubits: blocks and gate temporaries that went
    # back to the system after use faulted in over 1,300 pages a run
    circ = assemble(g4, 3, "full", "checking")
    kwargs = dict(shots=160, trajectories=160, seed=3, measure=list(range(4)))
    run_noisy(circ, NoiseProfile("t", 500.0, 500.0), **kwargs)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_noisy(circ, NoiseProfile("t", 500.0, 500.0), **kwargs)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 512


def test_trajectory_blocks_take_the_circuit_dtype(g4, monkeypatch):
    circ = assemble(g4, 3, "w", "checking")
    dtypes = []
    kernel = noise.apply_gate
    monkeypatch.setattr(noise, "apply_gate", lambda state, gate: dtypes.append(
        state.amplitudes.dtype.type) or kernel(state, gate))
    prof = NoiseProfile("t", 100.0, 100.0)
    for c, dtype in ((circ, np.float64), (decompose_mc(circ), np.complex128)):
        dtypes.clear()
        run_noisy(c, prof, shots=20, trajectories=20, seed=1, measure=list(range(4)))
        assert set(dtypes) == {dtype}


@pytest.mark.parametrize("measure, message", BAD_MEASURE_LISTS, ids=str)
def test_run_noisy_rejects_a_bad_measure_list_before_simulating(measure, message, monkeypatch):
    monkeypatch.setattr(noise, "compile_noisy_program", lambda *_: pytest.fail("compiled"))
    monkeypatch.setattr(noise, "_run_trajectory_blocks", lambda *_: pytest.fail("simulated"))
    circ = Circuit(3, ops=[Gate("H", (0,)), Gate("CX", (0, 2))])
    with pytest.raises(ValueError, match=message):
        run_noisy(circ, NoiseProfile("t", 100.0, 100.0), shots=400, trajectories=400, seed=1,
                  measure=measure, workers=2)


def test_counts_are_keyed_in_ascending_outcome_order(g4):
    # the CLI writes counts in the order the runners build them
    nodes = list(range(g4.n))
    ideal = run_ideal(assemble(g4, 3, "full", "checking"), shots=4096, seed=3, measure=nodes)
    circ = assemble(g4, 3, "w", "checking")
    noisy = [run_noisy(circ, load_profile("ibmq_singapore"), shots=600, trajectories=300,
                       seed=3, measure=nodes, workers=w) for w in (1, 2)]
    for hist in (ideal, *noisy):
        assert len(hist.counts) > 2
        assert list(hist.counts) == sorted(hist.counts)


def _shut_pools() -> None:
    for pool in noise._POOLS.values():
        pool.close()
    noise._POOLS.clear()


@pytest.fixture
def fresh_pool():
    """No cached worker pool when the test starts, and none left when it ends."""
    _shut_pools()
    yield
    _shut_pools()


def _cached_pool():
    return noise._POOLS.get(os.getpid())


def _pids(pool) -> set[int]:
    return {pid for pid, _, _ in pool.workers}


def _alive(pid: int) -> bool:
    """Whether this process's child ``pid`` has not exited; it is not reaped."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def test_run_noisy_reuses_one_worker_pool(g4, fresh_pool, monkeypatch):
    circ = assemble(g4, 3, "w", "checking")
    prof = NoiseProfile("t", 200.0, 200.0)
    # four blocks at 8 qubits, the last one partial: up to 4 jobs
    block = noise._block_size(8, np.float64)
    kwargs = dict(shots=3 * block + 16, trajectories=3 * block + 16, seed=11,
                  measure=list(range(4)))
    runs = []

    def run(workers):
        runs.append(run_noisy(circ, prof, workers=workers, **kwargs).to_json())
        return _cached_pool()

    # one block is one job, which runs in this process whatever the workers
    run_noisy(circ, prof, workers=3, **{**kwargs, "shots": block, "trajectories": block})
    assert run(1) is None and noise._POOLS == {}
    two = run(2)
    pids = _pids(two)
    assert len(pids) == 2
    assert run(2) is two and _pids(two) == pids
    closed = []  # the exit codes of every pool closed from here on
    close = noise._Pool.close
    monkeypatch.setattr(noise._Pool, "close", lambda pool: closed.append(close(pool)) or closed[-1])
    three = run(3)  # a larger request replaces the pool
    assert three is not two and len(_pids(three)) == 3
    assert closed == [dict.fromkeys(sorted(pids), 0)]
    assert run(2) is three  # a smaller one reuses it
    assert runs == [runs[0]] * 5


def test_a_forked_child_starts_its_own_pool(g4, fresh_pool):
    circ = assemble(g4, 3, "w", "checking")
    kwargs = dict(shots=400, trajectories=400, seed=11, measure=list(range(4)), workers=2)
    run_noisy(circ, NoiseProfile("t", 200.0, 200.0), **kwargs)
    inherited = _cached_pool()
    # a real forked child closes the pipe ends it inherited and forgets the pool
    child = os.fork()
    if child == 0:
        code = 1
        try:
            fds = [fd for _, *ends in inherited.workers for fd in ends]
            code = 0 if noise._POOLS == {} and not any(_open(fd) for fd in fds) else 2
        finally:
            os._exit(code)
    assert os.waitpid(child, 0)[1] == 0, "the child kept the inherited pool or its pipe ends"
    # what a forked child would see without that: the parent's entry under a
    # pid that is not its own
    noise._POOLS[-1] = noise._POOLS.pop(os.getpid())
    run_noisy(circ, NoiseProfile("t", 200.0, 200.0), **kwargs)
    assert list(noise._POOLS) == [os.getpid()] and _cached_pool() is not inherited
    # the child drops the entry without closing the parent's pool
    assert all(_alive(pid) for pid in _pids(inherited))
    _shut_pools()  # first: the new pool's workers hold the inherited pool's pipe ends
    inherited.close()


def _open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def _kill_a_worker(pool) -> int:
    victim = min(_pids(pool))
    os.kill(victim, signal.SIGKILL)
    # wait until it has exited, but leave it for the pool to reap
    deadline = time.monotonic() + 30
    while _alive(victim):
        assert time.monotonic() < deadline, f"worker {victim} runs 30 s after SIGKILL"
        time.sleep(0.01)
    return victim


def test_a_dead_worker_is_an_error_and_the_next_run_starts_a_new_pool(g4, fresh_pool,
                                                                      capsys):
    circ = assemble(g4, 3, "w", "checking")
    prof = load_profile("ibmq_singapore")
    kwargs = dict(shots=400, trajectories=400, seed=11, measure=list(range(4)), workers=2)
    expected = run_noisy(circ, prof, **kwargs).to_json()
    broken = _cached_pool()
    victim = _kill_a_worker(broken)
    with pytest.raises(ChildProcessError, match=rf"pid {victim} \(exit code -9\)"):
        run_noisy(circ, prof, **kwargs)
    assert noise._POOLS == {}
    assert run_noisy(circ, prof, **kwargs).to_json() == expected
    assert _cached_pool() is not broken
    # the command line reports a lost worker as one error line
    victim = _kill_a_worker(_cached_pool())
    code = main(["solve", "--graph", "g4", "--k", "3", "--shots", "400",
                 "--trajectories", "400", "--noise", "500:500", "--workers", "2"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith(f"error: a trajectory worker died: pid {victim} (exit code -9)")
    assert out.err.count("\n") == 1


def _failing_job(job, run=noise._run_trajectory_blocks):
    """A job of a run seeded 99 raises, one seeded 98 ends its process with
    exit code 3; any other job runs as before."""
    if job[-1][0][1].entropy == 99:
        raise ArithmeticError(f"a job of {len(job[-1])} blocks failed in pid {os.getpid()}")
    if job[-1][0][1].entropy == 98:
        os._exit(3)
    return run(job)


def test_a_job_that_raises_in_a_worker_raises_in_the_caller(g4, fresh_pool, monkeypatch):
    circ = assemble(g4, 3, "w", "checking")
    kwargs = dict(shots=2000, trajectories=2000, measure=list(range(4)), workers=2)
    # patched before the pool forks; 2000 trajectories are 8 blocks, 4 a job
    monkeypatch.setattr(noise, "_run_trajectory_blocks", _failing_job)
    with pytest.raises(ArithmeticError, match=r"^a job of 4 blocks failed in pid \d+$") as err:
        run_noisy(circ, load_profile("ibmq_singapore"), seed=99, **kwargs)
    assert int(str(err.value).rsplit(" ", 1)[1]) != os.getpid()
    assert "_failing_job" in str(err.value.__cause__)  # the worker's traceback
    pool = _cached_pool()
    hist = run_noisy(circ, load_profile("ibmq_singapore"), seed=17, **kwargs)
    assert _cached_pool() is pool  # the same workers ran it
    assert _histogram_hash(hist) == "ba08988a47d9f344"  # test_kraus_histogram_is_pinned


def test_a_worker_that_dies_in_a_job_is_an_error(g4, fresh_pool, monkeypatch):
    circ = assemble(g4, 3, "w", "checking")
    kwargs = dict(shots=2000, trajectories=2000, measure=list(range(4)), workers=2)
    monkeypatch.setattr(noise, "_run_trajectory_blocks", _failing_job)
    run_noisy(circ, load_profile("ibmq_singapore"), seed=17, **kwargs)  # start the pool
    first = min(_pids(_cached_pool()))
    # both workers end mid-job; the first one read is named
    with pytest.raises(ChildProcessError, match=rf"pid {first} \(exit code 3\)"):
        run_noisy(circ, load_profile("ibmq_singapore"), seed=98, **kwargs)
    assert noise._POOLS == {}
    hist = run_noisy(circ, load_profile("ibmq_singapore"), seed=17, **kwargs)
    assert _histogram_hash(hist) == "ba08988a47d9f344"  # test_kraus_histogram_is_pinned


def test_more_than_one_worker_needs_fork(g4, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(noise, "compile_noisy_program", lambda *_: pytest.fail("compiled"))
    with pytest.raises(ValueError, match=r"workers must be 1 where os\.fork is missing, got 2"):
        run_noisy(assemble(g4, 3, "w", "checking"), NoiseProfile("t", 100.0, 100.0), shots=400,
                  trajectories=400, seed=1, workers=2)
    code = main(["solve", "--graph", "g4", "--k", "3", "--shots", "400",
                 "--trajectories", "400", "--noise", "500:500", "--workers", "2"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == "error: workers must be 1 where os.fork is missing, got 2\n"


def _python(script: str, **kwargs) -> subprocess.Popen:
    """``script`` run by a new interpreter that imports qclique from this tree."""
    src = str(Path(noise.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen([sys.executable, "-c", script], env=env, text=True, **kwargs)


# a process that starts a two-worker pool and prints its worker pids
POOL_SCRIPT = (
    "import os, signal, sys\n"
    "from qclique import noise\n"
    "from qclique.circuit import Circuit\n"
    "circ = Circuit(8)\n"
    "circ.add('X', 0)\n"
    "noise.run_noisy(circ, noise.NoiseProfile('t', 100.0, 100.0), shots=400,\n"
    "                trajectories=400, seed=1, workers=2)\n"
    "print(*[pid for pid, _, _ in noise._POOLS[os.getpid()].workers], flush=True)\n")


def test_no_qclique_process_imports_multiprocessing():
    script = (
        "import sys\n"
        "import qclique\n"
        "import qclique.cli\n"
        "from qclique.circuit import Circuit\n"
        "circ = Circuit(8)\n"
        "circ.add('X', 0)\n"
        "hist = qclique.run_noisy(circ, qclique.NoiseProfile('t', 100.0, 100.0), shots=400,\n"
        "                         trajectories=400, seed=1, workers=1)\n"
        "assert sum(hist.counts.values()) == 400\n"
        "print(*[m for m in ('multiprocessing', 'concurrent.futures', 'socket', 'subprocess')\n"
        "        if m in sys.modules])\n")
    with _python(script, stdout=subprocess.PIPE) as proc:
        out = proc.stdout.read()
    assert proc.returncode == 0 and out == "\n", out


def _stat(pid: int) -> list[str] | None:
    """Fields 3 onward of ``/proc/<pid>/stat``, or ``None`` if there is no such pid."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()


def _start_time(pid: int) -> int | None:
    """When a process started (field 22, clock ticks after boot), or ``None``."""
    fields = _stat(pid)
    return None if fields is None else int(fields[19])


def _running(pid: int, started: int | None) -> bool:
    """Whether the process that started at ``started`` has not exited.

    A zombie has exited, and so has a process whose pid now names a process
    with another start time: the pid was reused.
    """
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z" and int(fields[19]) == started


def _states(pids) -> str:
    """Each pid with its ``/proc/<pid>/stat`` state, for a failure message."""
    return ", ".join(f"pid {pid} ({(_stat(pid) or ['gone'])[0]})" for pid in pids)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_a_pid_with_another_start_time_counts_as_exited():
    me = os.getpid()
    started = _start_time(me)
    assert _running(me, started)
    assert not _running(me, started - 1)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_workers_exit_with_their_process():
    # the process waits for a line on stdin after it prints, so the worker
    # start times are read while the workers surely run
    script = POOL_SCRIPT + "sys.stdin.readline()\n"
    with _python(script, stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        workers = {pid: _start_time(pid) for pid in pids}
        proc.stdin.close()
        code = proc.wait(timeout=120)
    assert code == 0, f"exit status {code}; worker pids read: {pids}"
    assert len(workers) == 2, f"worker pids read: {pids}"
    running = [pid for pid, started in workers.items() if _running(pid, started)]
    assert not running, f"still running when their process ended: {_states(running)}"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_workers_exit_when_their_parent_is_killed():
    # a process that starts a pool, prints its worker pids and dies by SIGKILL
    script = POOL_SCRIPT + "os.kill(os.getpid(), signal.SIGKILL)\n"
    with _python(script, stdout=subprocess.PIPE) as proc:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        # start times, read before any worker can exit and its pid be reused
        workers = {pid: _start_time(pid) for pid in pids}
        code = proc.wait(timeout=120)
    assert code == -signal.SIGKILL, f"exit status {code}; worker pids read: {pids}"
    assert len(workers) == 2, f"worker pids read: {pids}"

    def running() -> list[int]:
        return [pid for pid, started in workers.items() if _running(pid, started)]

    try:
        deadline = time.monotonic() + 30
        while running() and time.monotonic() < deadline:
            time.sleep(0.1)
        left = running()
        assert not left, f"still running 30 s after their parent died: {_states(left)}"
    finally:
        for pid in running():
            os.kill(pid, signal.SIGKILL)


def test_run_noisy_noiseless_limit_matches_ideal(g4):
    circ = assemble(g4, 3, "w", "checking")
    quiet = NoiseProfile("quiet", 1e9, 1e9)
    noisy = run_noisy(circ, quiet, shots=2000, trajectories=100, seed=3,
                      measure=list(range(4)))
    ideal = run_ideal(circ, shots=2000, seed=3, measure=list(range(4)))
    p_noisy = noisy.success_probability("0111")
    p_ideal = ideal.success_probability("0111")
    sigma = 2 * math.sqrt(0.25 / 2000)  # generous 2-sigma band
    assert abs(p_noisy - p_ideal) <= sigma + 1e-9
    assert p_noisy > 0.99


def test_run_noisy_monotone_in_decoherence_time(g4):
    circ = assemble(g4, 3, "w", "checking")
    nodes = list(range(4))
    p = {}
    for t in (500.0, 200.0):
        prof = NoiseProfile(f"t{t}", t, t)
        hist = run_noisy(circ, prof, shots=1500, trajectories=1500, seed=21, measure=nodes)
        p[t] = hist.success_probability("0111")
    assert p[500.0] > p[200.0] + 0.05


def test_run_noisy_validation(g4):
    circ = assemble(g4, 3, "w", "checking")
    prof = NoiseProfile("t", 100.0, 100.0)
    with pytest.raises(ValueError):
        run_noisy(circ, prof, shots=0, trajectories=10, seed=1)
    with pytest.raises(ValueError):
        run_noisy(circ, prof, shots=10, trajectories=0, seed=1)


def test_run_noisy_rejects_a_circuit_wider_than_an_int64_index():
    # a block lists int64 basis indices; nothing is compiled or allocated
    with pytest.raises(ValueError, match="cannot run a 64-qubit circuit"):
        run_noisy(Circuit(64), NoiseProfile("t", 100.0, 100.0), shots=1, trajectories=1,
                  seed=0, measure=[0])


def test_run_noisy_shot_allocation_more_shots_than_trajectories():
    circ = Circuit(1)
    circ.add("X", 0)
    prof = NoiseProfile("t", 1e6, 1e6)
    hist = run_noisy(circ, prof, shots=103, trajectories=10, seed=2)
    assert sum(hist.counts.values()) == 103
    assert hist.counts["1"] >= 100


#: Exact density-matrix P of g4 w-checking per criterion-7 profile, computed by
#: perfbench/reference.py.
SWEEP_EXACT = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                          / "reference.json").read_text())["sweep_g4"]


@pytest.mark.parametrize("spec", sorted(SWEEP_EXACT))
def test_run_noisy_matches_exact_density_matrix(g4, spec):
    circ = assemble(g4, 3, "w", "checking")
    shots = trajectories = 20_000
    hist = run_noisy(circ, load_profile(spec), shots=shots, trajectories=trajectories, seed=5,
                     measure=list(range(4)))
    exact = SWEEP_EXACT[spec]
    sigma = math.sqrt(exact * (1 - exact) / shots)
    assert abs(hist.success_probability("0111") - exact) < 4 * sigma


def test_run_noisy_matches_exact_density_matrix_at_12_qubits(g4):
    # g4 full-checking is 12 qubits wide, so its float64 blocks hold 16
    # trajectories; exact P from perfbench/reference.json (noisy_full12)
    exact = 0.0606553
    circ = assemble(g4, 3, "full", "checking")
    assert circ.n_qubits == 12
    shots = trajectories = 2400
    hist = run_noisy(circ, NoiseProfile("500:500", 500.0, 500.0), shots=shots,
                     trajectories=trajectories, seed=29, measure=list(range(4)), workers=2)
    sigma = math.sqrt(exact * (1 - exact) / shots)
    assert abs(hist.success_probability("0111") - exact) < 4 * sigma


# -- sparse trajectory blocks against the dense engine ----------------------------

BLOCK_KINDS = ("X", "CX", "CCX", "MCX", "Z", "MCZ", "H", "RY", "CRY", "CCRY")


@pytest.mark.parametrize("columns", [1, 2, 16])
@pytest.mark.parametrize("spec", ["3:2", "2:3"], ids=["mixture", "kraus"])
@settings(max_examples=30)
@given(data=st.data())
def test_a_sparse_block_matches_its_dense_twin_property(spec, columns, data):
    # a random circuit from a random start on a random support; 3:2 runs the
    # mixture with phase flips and resets, 2:3 the Kraus channel.  The dense
    # reference (helpers.dense_program) takes the same pre-drawn numbers, but
    # sums its norms and marginals in the dense layout, so the values agree
    # to rounding, not to the bit
    n = data.draw(st.integers(2, 6), label="n")
    complex_ = data.draw(st.booleans(), label="complex")
    kinds = BLOCK_KINDS + (("U3",) if complex_ else ())
    circ = Circuit(n)
    for gate in data.draw(st.lists(gates_on(n, kinds), min_size=1, max_size=20), label="gates"):
        circ.append(gate)
    steps = compile_noisy_program(circ, load_profile(spec))
    start = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="start"))
    index = np.sort(start.choice(1 << n, size=int(start.integers(1, (1 << n) + 1)), replace=False))
    amp = start.normal(size=(len(index), columns))
    if complex_:
        amp = amp + 1j * start.normal(size=amp.shape)
    amp /= np.linalg.norm(amp, axis=0)

    # the first seed whose run moves rows on qubits 0 and n-1, the edge bits
    # of the index: a reset that measures 1, or a jump
    moved = set()
    move_down = noise._move_down

    def seen_move_down(state, qubit, *args):
        moved.add(qubit)
        return move_down(state, qubit, *args)

    with mock.patch.object(noise, "_move_down", seen_move_down):
        for seed in range(64):
            moved.clear()
            noise._run_program(SparseState(n, index.copy(), amp.copy()), steps,
                               [np.random.default_rng(seed)])
            if {0, n - 1} <= moved:
                break
    assume({0, n - 1} <= moved)

    sparse = SparseState(n, index.copy(), amp.copy())
    dense = np.zeros((1 << n, columns), amp.dtype)
    dense[index] = amp
    sparse_rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    noise._run_program(sparse, steps, [sparse_rng])
    dense_program(dense, n, steps, dense_rng)
    assert sparse_rng.bit_generator.state == dense_rng.bit_generator.state
    scattered = np.zeros_like(dense)
    scattered[sparse.index] = sparse.amplitudes
    np.testing.assert_allclose(scattered, dense, rtol=1e-12)
    measured = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="measured")
    for qubits in (measured, list(range(n))):
        np.testing.assert_allclose(marginal_probabilities(sparse, qubits),
                                   marginal_probabilities(StateVector(n, dense), qubits),
                                   rtol=1e-12)


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("spec", ["3:2", "2:3"], ids=["mixture", "kraus"])
def test_a_block_sums_the_same_whatever_its_row_order_and_zero_rows(spec, columns):
    # a stack may sort a block's rows and drop rows of zeros that the block
    # alone keeps: a step on the same block listed either way takes the same
    # branch and ends in the same values, and the marginals in the same bytes.
    # A column's |1> half has about 20 nonzero rows: with _FSUM_TERMS = 20 a
    # reset norm takes either sum, and with 0 always the sorted one
    n = 6
    channel = RelaxationChannel(1000.0, load_profile(spec))  # gamma 0.28 (3:2), 0.39 (2:3)
    for seed, terms in itertools.product(range(200), (noise._FSUM_TERMS, 20, 0)):
        start = np.random.default_rng(seed)
        index = start.permutation(1 << n)[:40]
        amp = start.normal(size=(40, columns))
        amp /= np.linalg.norm(amp, axis=0)
        extra = np.setdiff1d(np.arange(1 << n), index)[:12]  # listed as rows of zeros
        shuffled = start.permutation(52)
        blocks = [SparseState(n, np.sort(index), amp[index.argsort()]),
                  SparseState(n, np.concatenate((index, extra))[shuffled],
                              np.concatenate((amp, np.zeros((12, columns))))[shuffled])]
        dense = [np.zeros((1 << n, columns)) for _ in blocks]
        for out, block in zip(dense, blocks):
            with mock.patch.object(noise, "_FSUM_TERMS", terms):
                noise._run_program(block, [("relax", seed % n, channel)],
                                   [np.random.default_rng(seed)])
            out[block.index] = block.amplitudes
        assert np.array_equal(*dense), (seed, terms)
        assert (marginal_probabilities(blocks[0], [0, 2, 3]).tobytes()
                == marginal_probabilities(blocks[1], [0, 2, 3]).tobytes()), (seed, terms)


# -- stacks of trajectory blocks ------------------------------------------------

@pytest.mark.parametrize("spec", ["3:2", "2:3"], ids=["mixture", "kraus"])
@settings(max_examples=40)
@given(data=st.data())
def test_a_stacked_block_ends_as_it_ends_alone_property(spec, data):
    # 1-5 blocks of 1, 2 or 16 columns on random supports run as one stack,
    # each drawing from its own generator, and each alone; with _FSUM_TERMS
    # = 0 every reset norm takes the sorted sum
    n = data.draw(st.integers(2, 6), label="n")
    complex_ = data.draw(st.booleans(), label="complex")
    kinds = BLOCK_KINDS + (("U3",) if complex_ else ())
    circ = Circuit(n)
    for gate in data.draw(st.lists(gates_on(n, kinds), min_size=1, max_size=20), label="gates"):
        circ.append(gate)
    steps = compile_noisy_program(circ, load_profile(spec))
    widths = data.draw(st.lists(st.sampled_from([1, 2, 16]), min_size=1, max_size=5),
                       label="widths")
    start = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="start"))
    seeds = [int(s) for s in start.integers(0, 2**32, size=len(widths))]
    alone = []
    for width in widths:
        index = np.sort(start.choice(1 << n, size=int(start.integers(1, (1 << n) + 1)),
                                     replace=False))
        amp = start.normal(size=(len(index), width))
        if complex_:
            amp = amp + 1j * start.normal(size=amp.shape)
        alone.append(SparseState(n, index, amp / np.linalg.norm(amp, axis=0)))
    amplitudes = np.zeros((sum(len(b.index) for b in alone), max(widths)),
                          alone[0].amplitudes.dtype)
    rows = np.cumsum([0] + [len(b.index) for b in alone])
    for g, block in enumerate(alone):
        amplitudes[rows[g]:rows[g + 1], :widths[g]] = block.amplitudes
    stack = noise._Stack(n, np.concatenate([b.index | g << n for g, b in enumerate(alone)]),
                         amplitudes, tuple(widths))

    terms = data.draw(st.sampled_from([noise._FSUM_TERMS, 0]), label="fsum terms")
    stack_rngs = [np.random.default_rng(seed) for seed in seeds]
    with mock.patch.object(noise, "_FSUM_TERMS", terms):
        noise._run_program(stack, steps, stack_rngs)
    bounds = noise._block_bounds(stack, len(widths))
    measured = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="measured")
    for g, (block, seed) in enumerate(zip(alone, seeds)):
        rng = np.random.default_rng(seed)
        with mock.patch.object(noise, "_FSUM_TERMS", terms):
            noise._run_program(block, steps, [rng])
        assert rng.bit_generator.state == stack_rngs[g].bit_generator.state
        lo, hi = bounds[g], bounds[g + 1]
        stacked = SparseState(n, stack.index[lo:hi] ^ g << n, stack.amplitudes[lo:hi, :widths[g]])
        assert not stack.amplitudes[lo:hi, widths[g]:].any()  # the columns it does not hold
        dense = [np.zeros((1 << n, widths[g]), amplitudes.dtype) for _ in range(2)]
        dense[0][block.index] = block.amplitudes
        dense[1][stacked.index] = stacked.amplitudes
        assert np.array_equal(*dense)  # equal values; a zero's sign may differ
        for qubits in (measured, list(range(n))):
            assert (marginal_probabilities(stacked, qubits).tobytes()
                    == marginal_probabilities(block, qubits).tobytes())


@pytest.mark.parametrize("spec", ["500:500", "2:3"], ids=["mixture", "kraus"])
def test_a_program_applies_only_the_steps_some_block_drew_a_branch_for(g4, spec,
                                                                        monkeypatch):
    # three 16-column blocks at 12 qubits as one stack: each draws its whole
    # program's uniforms first, and a mixture step runs only where one of them
    # fell below the step's event probability; a Kraus step always runs
    steps = compile_noisy_program(assemble(g4, 3, "full", "checking"), load_profile(spec))
    relax = [(step[2], step[1]) for step in steps if step[0] == "relax"]
    channels = [channel for channel, _ in relax]
    if spec == "2:3":
        expected = [True] * len(channels)
    else:
        p_event = np.array([[ch.p_reset + ch.p_z] for ch in channels])
        expected = np.logical_or.reduce([np.random.default_rng(seed).random((len(channels), 16))
                                         < p_event for seed in range(3)]).any(axis=1).tolist()
    ran = []
    monkeypatch.setattr(RelaxationChannel, "apply",
                        lambda channel, state, qubit, drawn: ran.append((channel, qubit)))
    stack = noise._Stack(12, np.arange(3, dtype=np.int64) << 12, np.ones((3, 16)), (16,) * 3)
    noise._run_program(stack, steps, [np.random.default_rng(seed) for seed in range(3)])
    assert ran == [step for step, busy in zip(relax, expected) if busy]
    assert 0 < len(ran) < len(channels) or spec == "2:3"


@pytest.mark.parametrize("workers", [1, 2])
def test_histograms_do_not_depend_on_the_stack_size(g4, workers, fresh_pool, monkeypatch):
    # 12- and 13-qubit float64 blocks hold 16 trajectories and complex128 ones
    # 8, so 150 trajectories make 10 or 19 blocks, the last one partial; the
    # 9-qubit dicke blocks hold 128, one per stack either way
    circuits = [assemble(g4, 3, "full", "checking"), assemble(g4, 3, "full", "incremental"),
                decompose_mc(assemble(g4, 3, "full", "checking")),
                assemble(g4, 3, "dicke", "incremental")]
    kwargs = dict(shots=300, trajectories=150, seed=41, measure=list(range(4)), workers=workers)

    def histograms():
        runs = [run_noisy(c, load_profile(spec), **kwargs).to_json()
                for c in circuits for spec in ("500:500", "2:3")]
        _shut_pools()  # the next pool forks from this process as it is then
        return runs

    stacked = histograms()
    monkeypatch.setattr(noise, "_STACK_COLUMNS", 1)  # a stack of one block
    assert noise._stacks(list(range(19)), 16, 12) == [[b] for b in range(19)]
    assert histograms() == stacked
