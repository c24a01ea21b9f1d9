"""One pass of a workload in a fresh process, as one `qclique solve`/`sweep` call would run it.

    python3 perfbench/passes.py --workload sweep_g4 --seed 1 --noise-seed 7 \
        [--workers 2] [--setup-only] [--trace]

Set-up is timed from this file's first line, so it includes importing numpy
and qclique.  The pass prints one JSON object: timings, peak RSS, the raw
outputs of each operation (histogram counts, or the ideal state's solution
probability) for run.py to check, and with --trace the per-layer metrics.
"""
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, graph_edges, graph_text, reference_cliques  # noqa: E402

COMMON_KINDS = ("CCX", "CX", "MCX", "MCZ", "X", "Z")  # kinds every workload applies
PROBE_CALLS = 256
PROBE_PROFILES = {"mixture": "500:500", "kraus": "ibmq_singapore"}


def peak_rss_mib() -> float:
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0  # ru_maxrss is in KiB on Linux


def run_pass(name: str, seed: int, noise_seed: int, workers: int, setup_only: bool,
             tracer) -> dict:
    spec = WORKLOADS[name]
    import qclique
    from qclique import cli, graph, grover, noise, sim

    if Path(qclique.__file__).resolve().parent != SRC / "qclique":
        raise RuntimeError(f"imported qclique from {qclique.__file__}, not from {SRC}")
    n, edges = graph_edges(spec, seed)
    k = spec["k"]
    nodes = list(range(n))
    g = cli.load_graph(spec["graph"]) if spec["graph"] == "g4" else \
        graph.parse_edge_list(graph_text(n, edges))
    if spec["kind"] == "ideal":
        graph.find_cliques_bruteforce(g, k)   # `qclique solve` checks m > 0 first
    profiles = [cli.load_profile(p) for p in spec.get("profiles", [])]
    plan = grover.make_plan(g, k, spec["prep"], spec["oracle"])
    circ = grover.assemble(g, k, spec["prep"], spec["oracle"], plan=plan)
    setup_s = time.perf_counter() - _STARTED
    out = {"setup_s": setup_s}
    if setup_only:
        return out

    ops, simulate_s, trajectories = [], 0.0, 0
    for profile, label in zip(profiles, spec.get("profiles", [])) if profiles else [(None, None)]:
        op = {"op": f"run_noisy {label}" if profile else "run_ideal"}
        started = time.perf_counter()
        try:
            if profile is None:
                hist, state = sim.run_ideal(circ, shots=spec["shots"], seed=noise_seed,
                                            measure=nodes, return_state=True)
                trajectories += 1
            else:
                hist = noise.run_noisy(circ, profile, shots=spec["trajectories"],
                                       trajectories=spec["trajectories"], seed=noise_seed,
                                       measure=nodes, workers=workers)
                trajectories += spec["trajectories"]
        except Exception as err:  # an operation that raises counts as failed
            traceback.print_exc()
            op["error"] = f"{type(err).__name__}: {err}"
            ops.append(op)
            continue
        finally:
            simulate_s += time.perf_counter() - started
        op.update(shots=hist.shots, counts=hist.counts, top=hist.top()[0])
        if profile is None:
            probs = state.probabilities()
            per_node_state = probs.reshape(-1, 1 << n).sum(axis=0)
            op.update(norm=float(probs.sum()),
                      p_solutions=float(per_node_state[reference_cliques(n, edges, k)].sum()),
                      iterations=plan.iterations, m=plan.m_solutions, n_space=plan.n_space)
        ops.append(op)
    metrics = circ.metrics()
    out.update(simulate_s=simulate_s, process_s=time.perf_counter() - _STARTED,
               trajectories=trajectories, peak_rss_mib=peak_rss_mib(), ops=ops,
               circuit={"n_qubits": circ.n_qubits, "depth": metrics.depth,
                        "counts": metrics.counts, "iterations": plan.iterations})
    if tracer is not None:
        probe(tracer, circ, cli, noise)
        out["trace"] = tracer.summary()
        out["layers"] = layer_metrics(tracer, out)
    return out


def probe(tracer, circ, cli, noise) -> None:
    """Measure noise-layer calls the workload itself does not make, at its width.

    A channel implementation no profile of the workload uses is timed over
    PROBE_CALLS applications to a random state; a workload with no noisy run
    has its circuit compiled under the 500:500 profile.
    """
    import numpy as np

    n = circ.n_qubits
    rng = np.random.default_rng(12345)
    for impl, spec in PROBE_PROFILES.items():
        if tracer.stats("noise.relax_apply." + impl).count:
            continue
        channel = noise.RelaxationChannel(300.0, cli.load_profile(spec), impl)
        amp = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amp /= np.linalg.norm(amp)
        for i in range(PROBE_CALLS):
            channel.apply(amp, i % n, rng)
    if not tracer.stats("noise.compile_noisy_program").count:
        noise.compile_noisy_program(circ, cli.load_profile(PROBE_PROFILES["mixture"]))


def layer_metrics(tracer, out: dict) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    spans, counters = tracer.spans, tracer.counters
    stats = tracer.stats
    circuit = out["circuit"]
    gate_spans = {k[len("sim.apply_gate."):]: v for k, v in spans.items()
                  if k.startswith("sim.apply_gate.")}
    busy = sum(v.total for v in gate_spans.values())
    run = stats("run.run_noisy") if stats("run.run_noisy").count else stats("run.run_ideal")
    compile_ = stats("noise.compile_noisy_program")
    compile_in_run = compile_.total if stats("run.run_noisy").count else 0.0
    programs = counters["noise.programs"]
    layers = {
        "graph.find_cliques_bruteforce_s": stats("graph.find_cliques_bruteforce").self_total,
        "graph.subsets_checked": counters["graph.subsets_checked"],
        "stateprep.prepare_state_s": stats("stateprep.prepare_state").self_total,
        "stateprep.gates": counters["stateprep.gates"],
        "oracle.build_oracle_s": stats("oracle.build_oracle").self_total,
        "oracle.gates": counters["oracle.gates"],
        "grover.make_plan_s": stats("grover.make_plan").self_total,
        "grover.assemble_s": stats("grover.assemble").self_total,
        "grover.iterations": circuit["iterations"],
        "circuit.depth": circuit["depth"],
        "circuit.gates.other": sum(c for k, c in circuit["counts"].items()
                                   if k not in COMMON_KINDS),
        "sim.apply_gate_calls.other": sum(v.count for k, v in gate_spans.items()
                                          if k not in COMMON_KINDS),
        "sim.apply_gate_busy_s": busy,
        "sim.bytes_moved_computed": counters["sim.bytes_moved_computed"],
        "sim.gbps_computed": counters["sim.bytes_moved_computed"] / busy / 1e9,
        "sim.state_bytes": 16 << circuit["n_qubits"],
        "sim.marginal_probabilities_us": stats("sim.marginal_probabilities").median() * 1e6,
        "sim.sample_us": stats("sim.sample").median() * 1e6,
        "noise.relax_apply_us.mixture": stats("noise.relax_apply.mixture").median() * 1e6,
        "noise.relax_apply_us.kraus": stats("noise.relax_apply.kraus").median() * 1e6,
        "noise.compile_noisy_program_s": compile_.total / compile_.count,
        "noise.steps.gate": counters.get("noise.steps.gate", 0) / programs,
        "noise.steps.relax": counters.get("noise.steps.relax", 0) / programs,
        "run.trajectory_us": (run.total - compile_in_run) / out["trajectories"] * 1e6,
        "run.self_s": run.self_total,
    }
    for kind in COMMON_KINDS:
        layers[f"circuit.gates.{kind}"] = circuit["counts"].get(kind, 0)
        layers[f"sim.apply_gate_calls.{kind}"] = gate_spans[kind].count
        layers[f"sim.apply_gate_us.{kind}"] = gate_spans[kind].median() * 1e6
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (graph labels)")
    parser.add_argument("--noise-seed", type=int, required=True,
                        help="seed handed to run_noisy/run_ideal")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from tracing import Tracer, installed
        tracer = Tracer()
    with installed(tracer) if tracer else nullcontext():
        out = run_pass(args.workload, args.seed, args.noise_seed, args.workers,
                       args.setup_only, tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
