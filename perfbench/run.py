"""qclique benchmark: run one workload, report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep_g4 --seed 1 --seconds 25 --trace 0

Run from the repository root (it needs src/qclique).  Every pass runs in a
fresh process (perfbench/passes.py), the way each `qclique` command pays its
imports and its first, cold simulation.  With --trace 0 it runs whole
passes, each after two set-up-only passes, until --seconds have gone, and
reports medians over passes.  With --trace 1 it runs rounds of a
traced pass plus untraced passes at one and two workers, and reports the
median per-layer metrics, the tracing overhead and the pool efficiency.
Every operation's output is checked against a reference that does not come
from the run (reference.json, or first principles for ideal runs).

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A trace file with every span and the provenance is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, analytic_success, graph_edges, reference_cliques, search_space  # noqa: E402

SETUP_PASSES = 2          # set-up-only passes before each whole pass, for a steadier setup_s median
TAIL_ALPHA = 1e-7         # a noisy op fails when its binomial tail probability is below this
IDEAL_TOLERANCE = 1e-9
RUN_BUDGET_S = 170.0      # a run must end within 180 s, whatever its passes do
RUN_STARTED = time.perf_counter()

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "simulate_s": "s",
                    "trajectories_per_s": "1/s", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_us") or ".apply_gate_us." in name or ".relax_apply_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return {"sim.bytes_moved_computed": "B", "sim.state_bytes": "B",
            "sim.gbps_computed": "GB/s", "noise.pool_efficiency": "frac"}.get(name, "count")


# -- running passes ----------------------------------------------------------

def run_pass(workload: str, seed: int, noise_seed: int, *extra: str) -> tuple[dict | None, float, str]:
    """Run perfbench/passes.py in a new process group; return (output, wall seconds, error)."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--noise-seed", str(noise_seed), *extra]
    started = time.perf_counter()
    timeout = max(1.0, RUN_BUDGET_S - (started - RUN_STARTED))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the pass and any pool workers it started
        proc.communicate()
        return None, time.perf_counter() - started, f"pass timed out after {timeout:.0f}s"
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        return None, wall, stderr.strip().splitlines()[-1] if stderr.strip() else "no output"
    return json.loads(stdout.strip().splitlines()[-1]), wall, ""


# -- correctness -------------------------------------------------------------

def binomial_tail(successes: int, trials: int, p: float) -> float:
    """Two-sided tail probability of ``successes`` under Binomial(trials, p)."""
    def pmf(i: int) -> float:
        return math.exp(math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
                        + i * math.log(p) + (trials - i) * math.log1p(-p))
    lower = sum(pmf(i) for i in range(successes + 1))
    upper = sum(pmf(i) for i in range(successes, trials + 1))
    return min(1.0, 2.0 * min(lower, upper))


class Checker:
    """Checks each operation of a pass; counts attempted and failed operations."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.spec = WORKLOADS[workload]
        self.n, edges = graph_edges(self.spec, seed)
        self.solutions = reference_cliques(self.n, edges, self.spec["k"])
        self.n_space = search_space(self.spec["prep"], self.n, self.spec["k"])
        self.reference = reference.get(workload, {})
        self.attempted = 0
        self.failures: list[str] = []

    def expected_ops(self) -> int:
        return len(self.spec["profiles"]) if self.spec["kind"] == "noisy" else 1

    def check_pass(self, out: dict | None, error: str) -> None:
        self.attempted += self.expected_ops()
        if out is None:
            self.failures += [f"pass failed: {error}"] * self.expected_ops()
            return
        missing = self.expected_ops() - len(out["ops"])
        self.failures += ["pass returned too few operations"] * missing
        measured = {}
        for op in out["ops"]:
            problem = op.get("error") or (self._ideal(op) if self.spec["kind"] == "ideal"
                                          else self._noisy(op, measured))
            if problem:
                self.failures.append(f"{op['op']}: {problem}")
        if {"500:500", "200:200"} <= measured.keys() and not measured["500:500"] > measured["200:200"]:
            self.failures.append(f"P(500:500)={measured['500:500']} <= P(200:200)={measured['200:200']}")

    def _noisy(self, op: dict, measured: dict) -> str:
        label = op["op"].split(" ", 1)[1]
        trials = sum(op["counts"].values())
        if trials != op["shots"] or trials != self.spec["trajectories"]:
            return f"counts sum to {trials}, expected {self.spec['trajectories']} shots"
        hits = sum(op["counts"].get(format(s, f"0{self.n}b"), 0) for s in self.solutions)
        p_ref = self.reference[label]
        tail = binomial_tail(hits, trials, p_ref)
        if tail < TAIL_ALPHA:
            z = (hits / trials - p_ref) / math.sqrt(p_ref * (1 - p_ref) / trials)
            return f"P={hits / trials:.4f} vs exact {p_ref:.4f} (z={z:.1f}, tail={tail:.1e})"
        measured[label] = hits / trials
        return ""

    def _ideal(self, op: dict) -> str:
        iterations, analytic = analytic_success(self.n_space, len(self.solutions))
        if (op["m"], op["n_space"], op["iterations"]) != (len(self.solutions), self.n_space, iterations):
            return (f"plan m={op['m']} N={op['n_space']} j={op['iterations']}, expected "
                    f"m={len(self.solutions)} N={self.n_space} j={iterations}")
        if abs(op["norm"] - 1.0) > IDEAL_TOLERANCE:
            return f"state norm {op['norm']}"
        if abs(op["p_solutions"] - analytic) > IDEAL_TOLERANCE:
            return f"P(solutions)={op['p_solutions']!r}, analytic {analytic!r}"
        if int(op["top"], 2) not in self.solutions:
            return f"top outcome {op['top']} is not a clique"
        if sum(op["counts"].values()) != self.spec["shots"]:
            return "histogram does not sum to the shots"
        return ""


# -- provenance --------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def provenance(args, extra: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc = max(caches, key=lambda p: _read(str(p / "level")), default=None)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qclique").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "llc": f"L{_read(str(llc / 'level'))} {_read(str(llc / 'size'))}" if llc else "unknown",
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **extra,
    }


# -- the two kinds of run ----------------------------------------------------

def noise_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def end_to_end(args, spec: dict, checker: Checker) -> tuple[dict, dict]:
    started = time.perf_counter()
    setups, passes = [], []
    while not passes or time.perf_counter() - started < args.seconds:
        seed_i = noise_seed(args.seed, len(passes))
        for _ in range(SETUP_PASSES):
            out, _, error = run_pass(args.workload, args.seed, seed_i, "--setup-only")
            if out is None:
                raise RuntimeError(f"set-up pass failed: {error}")
            setups.append(out["setup_s"])
        out, wall, error = run_pass(args.workload, args.seed, seed_i,
                                    "--workers", str(spec["workers"]))
        checker.check_pass(out, error)
        passes.append((out, wall))
    good = [(out, wall) for out, wall in passes if out is not None]
    if not good:
        raise RuntimeError("every pass failed: " + "; ".join(checker.failures[:3]))
    setup_only = list(setups)
    setups += [out["setup_s"] for out, _ in good]
    metrics = {
        "wall_s": statistics.median(wall for _, wall in good),
        "setup_s": statistics.median(setups),
        "simulate_s": statistics.median(out["simulate_s"] for out, _ in good),
        "trajectories_per_s": statistics.median(out["trajectories"] / out["simulate_s"]
                                                for out, _ in good),
        "peak_rss_mib": statistics.median(out["peak_rss_mib"] for out, _ in good),
    }
    record = {"passes": [{"wall_s": wall, **(out or {"failed": True})} for out, wall in passes],
              "setup_only_s": setup_only}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, record


def per_layer(args, spec: dict, checker: Checker) -> tuple[dict, dict]:
    started = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - started < args.seconds:
        seed_i = noise_seed(args.seed, len(rounds))
        traced, _, error = run_pass(args.workload, args.seed, seed_i, "--trace", "--workers", "1")
        checker.check_pass(traced, error)
        plain, _, error = run_pass(args.workload, args.seed, seed_i, "--workers", "1")
        checker.check_pass(plain, error)
        if traced is None or plain is None:
            raise RuntimeError("traced round failed: " + "; ".join(checker.failures[-3:]))
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["process_s"] - plain["process_s"]
        if spec["kind"] == "noisy":
            pooled, _, error = run_pass(args.workload, args.seed, seed_i, "--workers", "2")
            checker.check_pass(pooled, error)
            if pooled is None:
                raise RuntimeError("pooled pass failed: " + error)
            rate = {w: out["trajectories"] / out["simulate_s"] for w, out in ((1, plain), (2, pooled))}
            layers["noise.pool_efficiency"] = rate[2] / (2 * rate[1])
        else:
            layers["noise.pool_efficiency"] = 1.0   # run_ideal runs in one process by design
        rounds.append({"layers": layers, "trace": traced["trace"]})
    metrics = {name: (statistics.median(r["layers"][name] for r in rounds), layer_unit(name))
               for name in sorted(rounds[0]["layers"])}
    return metrics, {"rounds": rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qclique" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'qclique'} not found; run from a qclique checkout",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    checker = Checker(args.workload, args.seed, reference)
    prov = provenance(args, {"workers": 1 if args.trace else spec["workers"],
                             "trajectories_per_profile": spec.get("trajectories"),
                             "profiles": spec.get("profiles"), "shots": spec.get("shots")})
    try:
        metrics, record = (per_layer if args.trace else end_to_end)(args, spec, checker)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failed = len(checker.failures)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    trace_path.write_text(json.dumps({"provenance": prov, "failures": checker.failures,
                                      "metrics": metrics, **record}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    for failure in checker.failures:
        print(f"FAILED {failure}")
    samples = len(record.get("passes") or record["rounds"])
    print(f"medians over {samples} {'rounds' if args.trace else 'passes'}; every sample is in {trace_path}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(f"{'ops_failed_frac':36s} {failed / checker.attempted:>16.6g} frac "
          f"({failed} of {checker.attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
