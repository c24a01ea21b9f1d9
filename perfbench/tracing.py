"""In-memory span tracing of qclique's layers, installed from outside the package.

Each wrapper replaces a function at the name its caller looks up (for
example ``qclique.noise.apply_gate``, which ``run_noisy``'s trajectory loop
calls), records one span per call and restores the original on exit.
Nothing under ``src/`` changes.  Spans nest on a stack: a span's self time is
its duration minus the durations of the spans opened inside it.  Spans are
aggregated per name as they close (count, total, self total and every
duration, for medians) and written out once the pass ends.
"""
from __future__ import annotations

import math
import statistics
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np


class SpanStats:
    __slots__ = ("count", "total", "self_total", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = array("d")

    def median(self) -> float:
        return statistics.median(self.durations)

    def summary(self) -> dict:
        return {"count": self.count, "total_s": self.total, "self_s": self.self_total,
                "median_us": self.median() * 1e6 if self.count else None}


class Tracer:
    """Spans and counters of one pass; create one per pass and pass it around."""

    def __init__(self) -> None:
        self._children: list[float] = []   # per open span: time covered by its child spans
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    def wrap(self, name, fn, on_call=None, on_result=None):
        """``fn`` recording a span per call.  ``name`` is a string or a function
        of the call's arguments; ``on_call``/``on_result`` update counters."""
        children = self._children
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = name if isinstance(name, str) else name(*args)
            if on_call is not None:
                on_call(*args, **kwargs)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                stats = spans.get(key)
                if stats is None:
                    stats = spans[key] = SpanStats()
                stats.count += 1
                stats.total += elapsed
                stats.self_total += elapsed - covered
                stats.durations.append(elapsed)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {"spans": {k: v.summary() for k, v in sorted(self.spans.items())},
                "counters": dict(sorted(self.counters.items()))}


def gate_bytes(n_qubits: int, gate) -> int:
    """Bytes a gate must read and write, computed from array sizes (16 B per
    amplitude, read once and written once).  A controlled X or 2x2 gate touches
    the 2**(n-c) amplitudes that satisfy its c controls; a Z-type phase flip
    touches only the 2**(n-len(qubits)) amplitudes with every qubit set.
    Cache misses and the kernel's own index arrays are not counted."""
    fixed = len(gate.qubits) if gate.kind in ("Z", "CZ", "MCZ") else len(gate.qubits) - 1
    return 32 << (n_qubits - fixed)


def _traced_numpy(tracer: Tracer, sample):
    """A stand-in for the ``np`` name inside qclique.noise whose
    ``random.default_rng`` returns generators with a traced ``multinomial``:
    the per-trajectory shot sampling in ``run_noisy``."""

    class TracedGenerator(np.random.Generator):
        multinomial = tracer.wrap(sample, np.random.Generator.multinomial)

    random = types.ModuleType("numpy.random")
    random.__dict__.update(np.random.__dict__)
    random.default_rng = lambda seed=None: TracedGenerator(np.random.PCG64(seed))
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.random = random
    return proxy


@contextmanager
def installed(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from qclique import graph, grover, noise, sim

    def gates_counter(name):
        return lambda circuit: tracer.count(name, len(circuit.ops))

    def count_subsets(g, k, *_):
        tracer.count("graph.subsets_checked", math.comb(g.n, k))

    def count_steps(steps):
        tracer.count("noise.programs", 1)
        for step in steps:
            tracer.count("noise.steps." + step[0], 1)

    def count_bytes(state, gate):
        tracer.count("sim.bytes_moved_computed", gate_bytes(state.n_qubits, gate))

    brute = tracer.wrap("graph.find_cliques_bruteforce", graph.find_cliques_bruteforce,
                        on_call=count_subsets)
    apply_gate = tracer.wrap(lambda state, gate: "sim.apply_gate." + gate.kind,
                             sim.apply_gate, on_call=count_bytes)
    marginal = tracer.wrap("sim.marginal_probabilities", sim.marginal_probabilities)
    patches = [
        (graph, "find_cliques_bruteforce", brute),
        (grover, "find_cliques_bruteforce", brute),
        (grover, "make_plan", tracer.wrap("grover.make_plan", grover.make_plan)),
        (grover, "assemble", tracer.wrap("grover.assemble", grover.assemble)),
        (grover, "prepare_state", tracer.wrap("stateprep.prepare_state", grover.prepare_state,
                                              on_result=gates_counter("stateprep.gates"))),
        (grover, "build_oracle", tracer.wrap("oracle.build_oracle", grover.build_oracle,
                                             on_result=gates_counter("oracle.gates"))),
        (sim, "apply_gate", apply_gate),
        (noise, "apply_gate", apply_gate),
        (sim, "marginal_probabilities", marginal),
        (noise, "marginal_probabilities", marginal),
        (sim, "sample_histogram", tracer.wrap("sim.sample", sim.sample_histogram)),
        (noise, "np", _traced_numpy(tracer, "sim.sample")),
        (noise, "compile_noisy_program",
         tracer.wrap("noise.compile_noisy_program", noise.compile_noisy_program,
                     on_result=count_steps)),
        (noise.RelaxationChannel, "apply",
         tracer.wrap(lambda channel, *_: "noise.relax_apply." + channel.implementation,
                     noise.RelaxationChannel.apply)),
        (sim, "run_ideal", tracer.wrap("run.run_ideal", sim.run_ideal)),
        (noise, "run_noisy", tracer.wrap("run.run_noisy", noise.run_noisy)),
    ]
    originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, wrapper in patches:
            setattr(obj, attr, wrapper)
        yield tracer
    finally:
        for obj, attr, original in originals:
            setattr(obj, attr, original)
