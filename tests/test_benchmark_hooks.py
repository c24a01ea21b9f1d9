"""The benchmark tracer's hook points still resolve and record their spans.

``perfbench/tracing.py`` patches qclique functions by module and name.  A
renamed or removed hook would otherwise fail only when the benchmark runs, so
this loads the benchmark's modules by path and checks the spans each traced
call opens.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from qclique import graph, grover, noise, sim
from qclique.cli import load_profile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_record_their_spans(g4):
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    nodes = list(range(g4.n))
    calls: dict[str, int] = {}

    def grown() -> tuple[set, set]:
        """Spans called since the last look, split into (gate spans, the rest)."""
        now = {name: s.count for name, s in tracer.spans.items()}
        names = {name for name, count in now.items() if count > calls.get(name, 0)}
        calls.update(now)
        gates = {name for name in names if name.startswith("sim.apply_gate.")}
        return gates, names - gates

    with tracing.installed(tracer):
        plan = grover.make_plan(g4, 3, "w", "checking")
        assert grown() == (set(), {"grover.make_plan", "graph.find_cliques_bruteforce"})
        circ = grover.assemble(g4, 3, "w", "checking", plan=plan)
        assert grown() == (set(), {"grover.assemble", "stateprep.prepare_state",
                                   "oracle.build_oracle"})
        sim.run_ideal(circ, shots=64, seed=1, measure=nodes)
        gates, rest = grown()
        # the circuit has work qubits, and its every gate kind still opens its own
        # span: the benchmark's per-kind gate metrics index these spans by kind
        assert circ.n_qubits > g4.n
        assert gates == {"sim.apply_gate." + kind for kind in circ.metrics().counts}
        assert rest == {"run.run_ideal", "sim.marginal_probabilities", "sim.sample"}
        noise.run_noisy(circ, load_profile("ibmq_singapore"), shots=16, trajectories=16,
                        seed=1, measure=nodes)
        gates, rest = grown()
        assert gates and rest == {"run.run_noisy", "noise.compile_noisy_program",
                                  "noise.relax_apply.kraus", "sim.marginal_probabilities",
                                  "sim.sample"}
    for counter in ("graph.subsets_checked", "stateprep.gates", "oracle.gates",
                    "sim.bytes_moved_computed", "noise.steps.gate", "noise.steps.relax"):
        assert tracer.counters[counter] > 0
    # every patched name is restored on exit
    for fn in (grover.make_plan, grover.assemble, sim.run_ideal, noise.run_noisy,
               noise.RelaxationChannel.apply, sim.apply_gate):
        assert not hasattr(fn, "__wrapped__")


def _ideal_dicke20(monkeypatch):
    """The benchmark's ``passes`` module and the ``ideal_dicke20`` circuit
    (workload seed 12)."""
    # passes.py puts src/ and perfbench/ on sys.path to import its workloads
    monkeypatch.setattr(sys, "path", list(sys.path))
    passes, workloads = load_perfbench("passes"), load_perfbench("workloads")
    spec = workloads.WORKLOADS["ideal_dicke20"]
    n, edges = workloads.graph_edges(spec, 12)
    circ = grover.assemble(graph.parse_edge_list(workloads.graph_text(n, edges)), spec["k"],
                           spec["prep"], spec["oracle"])
    return passes, circ


def _traced_ideal_dicke20(monkeypatch):
    """``_ideal_dicke20`` and the tracer of one ``run_ideal`` on the circuit."""
    passes, circ = _ideal_dicke20(monkeypatch)
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        sim.run_ideal(circ, shots=16, seed=1, measure=list(range(16)))
    return passes, circ, tracer


def test_an_ideal_run_opens_every_gate_span_the_benchmark_reads(monkeypatch):
    passes, _, tracer = _traced_ideal_dicke20(monkeypatch)
    # `--trace 1` reads one span per kind in COMMON_KINDS and raises KeyError
    # on a kind that no longer reaches the gate kernel
    assert {"sim.apply_gate." + kind for kind in passes.COMMON_KINDS} <= set(tracer.spans)


def test_an_ideal_run_makes_the_gate_calls_the_benchmark_reads(monkeypatch):
    _, circ, tracer = _traced_ideal_dicke20(monkeypatch)
    # every gate of the circuit is one call on the sparse state
    calls = {name.removeprefix("sim.apply_gate."): span.count
             for name, span in tracer.spans.items() if name.startswith("sim.apply_gate.")}
    assert calls == circ.metrics().counts
    assert calls == {"CCX": 258, "CCRY": 189, "CRY": 105, "CX": 594, "MCX": 252, "MCZ": 3,
                     "X": 117, "Z": 3}


def test_the_layer_metrics_of_a_traced_ideal_run_read_every_gate_kind(monkeypatch):
    passes, circ = _ideal_dicke20(monkeypatch)
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    # one traced ideal_dicke20 pass as `perfbench/run.py --trace 1` runs it,
    # probes included; layer_metrics indexes a gate span per COMMON_KINDS kind
    with tracing.installed(tracer):
        out = passes.run_pass("ideal_dicke20", 12, 1, 1, False, tracer)
    layers = out["layers"]
    counts = circ.metrics().counts
    for kind in passes.COMMON_KINDS:
        assert layers[f"sim.apply_gate_calls.{kind}"] == counts[kind]
        assert layers[f"sim.apply_gate_us.{kind}"] > 0
    assert layers["sim.apply_gate_calls.other"] == counts["CRY"] + counts["CCRY"]
    assert [op.get("error") for op in out["ops"]] == [None]


def test_a_traced_noisy_pass_makes_one_x_call_per_gate_and_stack(monkeypatch):
    # passes.py puts src/ and perfbench/ on sys.path to import its workloads
    monkeypatch.setattr(sys, "path", list(sys.path))
    passes, tracing = load_perfbench("passes"), load_perfbench("tracing")
    tracer = tracing.Tracer()
    # one traced noisy_full12 pass as `perfbench/run.py --trace 1` runs it; an
    # X only flips index bits but is still one apply_gate call per stack of
    # blocks
    with tracing.installed(tracer):
        out = passes.run_pass("noisy_full12", 9101, 1, 1, False, tracer)
    layers = out["layers"]
    size = noise._block_size(out["circuit"]["n_qubits"], np.float64)
    blocks = -(-out["trajectories"] // size)
    stacks = len(noise._stacks(list(range(blocks)), size, out["circuit"]["n_qubits"]))
    assert (blocks, stacks) == (19, 3)
    assert layers["sim.apply_gate_calls.X"] == out["circuit"]["counts"]["X"] * stacks == 108
    assert [op.get("error") for op in out["ops"]] == [None]
