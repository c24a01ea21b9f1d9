"""Command-line front end: solve / resources / sweep / verify / state.

Each command returns ``(exit code, JSON payload, text)`` and writes nothing
itself.  :func:`main` is the one output path: with ``--format json`` it
writes ``{"schema": 1, "command": ...}`` followed by the payload, otherwise
the text (CSV for ``sweep`` and ``state``), to stdout or ``--output``.

Bundled noise profiles carry average T1/T2 values of six IBM Q devices
(microseconds): melbourne (55, 59), poughkeepsie (64, 65), singapore (83, 89),
paris (76, 67), cambridge (81, 39), rochester (55, 59).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .graph import (
    BUILTIN_GRAPHS,
    Graph,
    bitstring_to_subset,
    builtin_graph,
    find_cliques_bruteforce,
    parse_edge_list,
    subset_to_bitstring,
)
from .grover import NoSolutionsError, assemble, make_plan
from .noise import NoiseProfile, run_noisy
from .resources import format_table, report
from .sim import bitstring, run_ideal, statevector
from .stateprep import PrepMode, dicke_prep, full_superposition, w_complement, w_state

BUILTIN_PROFILES = {
    "ibmq_melbourne": NoiseProfile("ibmq_melbourne", 55.0, 59.0),
    "ibmq_poughkeepsie": NoiseProfile("ibmq_poughkeepsie", 64.0, 65.0),
    "ibmq_singapore": NoiseProfile("ibmq_singapore", 83.0, 89.0),
    "ibmq_paris": NoiseProfile("ibmq_paris", 76.0, 67.0),
    "ibmq_cambridge": NoiseProfile("ibmq_cambridge", 81.0, 39.0),
    "ibmq_rochester": NoiseProfile("ibmq_rochester", 55.0, 59.0),
}

PREPS = [p.value for p in PrepMode]
STYLES = ["checking", "incremental"]
#: Flags only noisy runs use, with their defaults; ``solve`` leaves them
#: ``None`` until given and takes them only with ``--noise``.
NOISY_DEFAULTS = {"trajectories": 2000, "workers": 1}


class CliError(Exception):
    pass


def load_graph(spec: str) -> Graph:
    if spec.lower() in BUILTIN_GRAPHS:
        return builtin_graph(spec)
    path = Path(spec)
    if not path.exists():
        raise CliError(f"graph {spec!r} is neither a builtin name {sorted(BUILTIN_GRAPHS)} nor a file")
    return parse_edge_list(path.read_text(encoding="utf-8"))


def load_profile(spec: str) -> NoiseProfile:
    key = spec.lower()
    if key in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[key]
    if "ibmq_" + key in BUILTIN_PROFILES:
        return BUILTIN_PROFILES["ibmq_" + key]
    if ":" in spec:  # inline "T1:T2" in microseconds
        t1, _, t2 = spec.partition(":")
        try:
            t1_us, t2_us = float(t1), float(t2)
        except ValueError:
            raise CliError(f"noise profile {spec!r} is not 'T1:T2', "
                           f"two numbers in microseconds") from None
        return NoiseProfile(f"t1={t1},t2={t2}", t1_us, t2_us)
    path = Path(spec)
    if not path.exists():
        raise CliError(f"noise profile {spec!r} is neither builtin, 'T1:T2', nor a file")
    return NoiseProfile.from_json(path.read_text(encoding="utf-8"))


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _iterations(value: str) -> int | str:
    if value == "auto":
        return "auto"
    try:
        iters = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"iterations must be 'auto' or an integer, got {value!r}") from None
    if iters < 0:
        raise argparse.ArgumentTypeError("iterations must be 'auto' or >= 0")
    return iters


def _seed(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def cmd_solve(args) -> tuple[int, dict, str]:
    given = [f"--{name}" for name in NOISY_DEFAULTS if getattr(args, name) is not None]
    if given and not args.noise:
        raise CliError(f"no noisy run to apply {' and '.join(given)} to; add --noise")
    for name, default in NOISY_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    g = load_graph(args.graph)
    if not 1 <= args.k <= g.n:
        raise CliError(f"k={args.k} out of range [1, {g.n}]")
    try:
        plan = make_plan(g, args.k, args.prep, args.oracle, args.iters)
    except NoSolutionsError:
        return (0, {"k": args.k, "m": 0, "message": f"no {args.k}-clique exists"},
                f"no {args.k}-clique exists (m = 0); nothing to search")
    circ = assemble(g, args.k, args.prep, args.oracle, plan=plan)
    nodes = list(range(g.n))
    hist = run_ideal(circ, shots=args.shots, seed=args.seed, measure=nodes)
    targets = plan.solution_bitstrings(g.n)
    top_bits, top_count = hist.top()
    decoded = sorted(bitstring_to_subset(top_bits))
    analytic = plan.success_probability()
    ok = top_bits in targets

    result = {
        "graph": {"n": g.n, "edges": len(g.edges)},
        "k": args.k, "prep": plan.prep.value, "oracle": plan.oracle.style,
        "count_nodes": plan.oracle.count_nodes,
        "search_space": plan.n_space, "m": plan.m_solutions,
        "iterations": plan.iterations,
        "analytic_success_probability": analytic,
        "ideal": {"shots": hist.shots, "counts": hist.counts,
                  "success_probability": hist.success_probability(targets),
                  "top_outcome": top_bits, "decoded_nodes": decoded},
        "solutions": sorted(targets),
        "matches_bruteforce": ok,
    }
    if args.noise:
        profile = load_profile(args.noise)
        noisy = run_noisy(circ, profile, shots=args.shots, trajectories=args.trajectories,
                          seed=args.seed, measure=nodes, workers=args.workers)
        result["noise_profile"] = {"name": profile.name, "t1_us": profile.t1_us,
                                   "t2_us": profile.t2_us}
        # run_noisy runs at most one trajectory per shot
        result["noisy"] = {"shots": noisy.shots,
                           "trajectories": min(args.trajectories, args.shots),
                           "success_probability": noisy.success_probability(targets),
                           "counts": noisy.counts}

    lines = [
        f"graph: n={g.n}, |E|={len(g.edges)}; k={args.k}",
        f"prep={plan.prep.value} oracle={plan.oracle.style} "
        f"count_nodes={plan.oracle.count_nodes} N={plan.n_space} m={plan.m_solutions} "
        f"iterations={plan.iterations}",
        f"analytic success probability: {analytic:.6f}",
        f"ideal success probability:    {result['ideal']['success_probability']:.6f} "
        f"({hist.shots} shots)",
        f"top outcome |{top_bits}> -> nodes {decoded}",
        f"matches brute force: {'PASS' if ok else 'FAIL'}",
    ]
    if args.noise:
        lines.append(
            f"noisy ({result['noise_profile']['name']}): success probability "
            f"{result['noisy']['success_probability']:.6f} "
            f"({result['noisy']['trajectories']} trajectories)")
    return (0 if ok else 1), result, "\n".join(lines)


def _config_grid(style_arg: str, prep_arg: str, g: Graph, k: int) -> list[tuple[str, str]]:
    """The (oracle, prep) pairs to report; ``all`` preparations leave out the
    W-state route unless ``k = n - 1``, the only size it prepares."""
    styles = STYLES if style_arg == "all" else [style_arg]
    preps = ([p for p in PREPS if p != PrepMode.W_COMPLEMENT or k == g.n - 1]
             if prep_arg == "all" else [prep_arg])
    return [(style, prep) for style in styles for prep in preps]


def cmd_resources(args) -> tuple[int, dict, str]:
    g = load_graph(args.graph)
    rows = []
    reports = []
    for style, prep in _config_grid(args.oracle, args.prep, g, args.k):
        plan = make_plan(g, args.k, prep, style, args.iters)
        circ = assemble(g, args.k, prep, style, plan=plan)
        rep = report(circ, config={"prep": prep, "oracle": style, "k": args.k,
                                   "graph_n": g.n, "graph_edges": len(g.edges),
                                   "iterations": plan.iterations})
        reports.append(rep)
        row = {"oracle": style, "prep": prep, "iters": plan.iterations,
               "size": rep.size, "depth": rep.depth, "qubits": rep.n_qubits,
               "size*": rep.decomposed_size, "depth*": rep.decomposed_depth,
               "qubits*": rep.decomposed_n_qubits,
               "QV": rep.required_qv, "year": rep.year}
        if args.decompose:
            row.update({cat: rep.decomposed_counts.get(cat, 0)
                        for cat in ("NOT", "CNOT", "CCNOT", "U", "other")})
        rows.append(row)
    rows.sort(key=lambda r: (r["size*"], r["oracle"], r["prep"]))
    legend = "columns marked * are after lowering to {X, CX, CCX, CZ, H, U3, U2}"
    return (0, {"reports": [r.to_dict() for r in reports]},
            format_table(rows, list(rows[0])) + "\n" + legend)


def cmd_sweep(args) -> tuple[int, dict, str]:
    g = load_graph(args.graph)
    profiles: list[NoiseProfile] = []
    if args.all_devices:
        profiles.extend(BUILTIN_PROFILES.values())
    for spec in args.profile or []:
        profiles.append(load_profile(spec))
    if not profiles:
        raise CliError("sweep needs at least one profile (--profile or --all-devices)")
    plan = make_plan(g, args.k, args.prep, args.oracle, args.iters)
    circ = assemble(g, args.k, args.prep, args.oracle, plan=plan)
    targets = plan.solution_bitstrings(g.n)
    nodes = list(range(g.n))

    rows = []
    for profile in profiles:
        hist = run_noisy(circ, profile, shots=args.shots, trajectories=args.trajectories,
                         seed=args.seed, measure=nodes, workers=args.workers)
        p = hist.success_probability(targets)
        # shots drawn from one trajectory are correlated, so count trajectories
        stderr = (p * (1 - p) / min(args.shots, args.trajectories)) ** 0.5
        rows.append({"name": profile.name, "t1_us": profile.t1_us, "t2_us": profile.t2_us,
                     "success_prob": f"{p:.6f}", "stderr": f"{stderr:.6f}"})

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return (0, {"config": {"prep": args.prep, "oracle": args.oracle, "k": args.k},
                "rows": rows}, buf.getvalue())


def cmd_verify(args) -> tuple[int, dict, str]:
    g = load_graph(args.graph)
    cliques = find_cliques_bruteforce(g, args.k)
    entries = [{"nodes": sorted(c), "bitstring": subset_to_bitstring(c, g.n)[1]}
               for c in cliques]
    lines = [f"{len(cliques)} clique(s) of size {args.k}"]
    lines += [f"  {e['nodes']} -> |{e['bitstring']}>" for e in entries]
    return 0, {"k": args.k, "m": len(cliques), "cliques": entries}, "\n".join(lines)


def cmd_state(args) -> tuple[int, None, str]:
    builders = {
        "full": lambda: full_superposition(args.n),
        "w": lambda: w_state(args.n),
        "w-complement": lambda: w_complement(args.n),
        "dicke": lambda: dicke_prep(args.n, args.k),
    }
    if args.prep == "dicke" and args.k is None:
        raise CliError("--k is required for the dicke preparation")
    if args.prep != "dicke" and args.k is not None:
        raise CliError(f"--k applies only to the dicke preparation, not to {args.prep}")
    circ = builders[args.prep]()
    state = statevector(circ)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "bitstring", "re", "im"])
    for i, a in enumerate(state.amplitudes):
        writer.writerow([i, bitstring(i, args.n), f"{a.real:.12g}", f"{a.imag:.12g}"])
    return 0, None, buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclique",
        description="Grover-search toolkit for the k-clique problem")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_run=True):
        p.add_argument("--graph", required=True,
                       help=f"edge-list file or builtin {sorted(BUILTIN_GRAPHS)}")
        p.add_argument("--k", type=int, required=True, help="clique size")
        p.add_argument("--output", help="write to file instead of stdout")
        if with_run:
            p.add_argument("--prep", default="w", choices=PREPS)
            p.add_argument("--oracle", default="checking", choices=STYLES)
            p.add_argument("--iters", type=_iterations, default="auto",
                           help="'auto' (optimal) or explicit iteration count")
            p.add_argument("--shots", type=int, default=4096)
            p.add_argument("--seed", type=_seed, default=1234)
            p.add_argument("--trajectories", type=int, default=NOISY_DEFAULTS["trajectories"],
                           help="noisy runs only: trajectories to simulate (default 2000)")
            p.add_argument("--workers", type=int, default=NOISY_DEFAULTS["workers"],
                           help="noisy runs only: trajectory worker processes (default 1)")

    p_solve = sub.add_parser("solve", help="run the search end to end (ideal, optionally noisy)")
    common(p_solve)
    p_solve.add_argument("--noise", help="noise profile: builtin name, 'T1:T2' (us), or JSON "
                         "file; --trajectories and --workers need it")
    p_solve.set_defaults(func=cmd_solve, trajectories=None, workers=None)

    p_res = sub.add_parser("resources", help="size/depth/qubit accounting and QV estimate")
    common(p_res, with_run=False)
    p_res.add_argument("--prep", default="all", choices=PREPS + ["all"])
    p_res.add_argument("--oracle", default="all", choices=STYLES + ["all"])
    p_res.add_argument("--iters", type=_iterations, default="auto")
    p_res.add_argument("--decompose", action="store_true",
                       help="add NOT/CNOT/CCNOT/U count columns")
    p_res.set_defaults(func=cmd_resources)

    p_sweep = sub.add_parser(
        "sweep", help="success probability across noise profiles (CSV)",
        description="Success probability across noise profiles. The stderr column is "
                    "sqrt(p(1-p)/T), T = min(shots, trajectories), the trajectories that ran: "
                    "exact when shots equal trajectories, an upper bound when there are more "
                    "shots.")
    common(p_sweep)
    p_sweep.add_argument("--profile", action="append",
                         help="profile (builtin, 'T1:T2', or JSON file); repeatable")
    p_sweep.add_argument("--all-devices", action="store_true",
                         help="include the six bundled device profiles")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="classical brute-force clique search only")
    common(p_verify, with_run=False)
    p_verify.set_defaults(func=cmd_verify)

    for p in (p_solve, p_res, p_verify):
        p.add_argument("--format", default="text", choices=["text", "json"])
    p_sweep.add_argument("--format", default="csv", choices=["csv", "json"])

    p_state = sub.add_parser("state", help="dump preparation amplitudes as CSV")
    p_state.add_argument("--prep", required=True,
                         choices=["full", "w", "w-complement", "dicke"])
    p_state.add_argument("--n", type=int, required=True)
    p_state.add_argument("--k", type=int, help="Hamming weight of the dicke preparation")
    p_state.add_argument("--output")
    p_state.set_defaults(func=cmd_state, format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.func(args)
        if args.format == "json":
            text = json.dumps({"schema": 1, "command": args.command, **payload}, indent=2)
        _emit(text, args.output)
        return code
    except (CliError, ValueError, MemoryError, OSError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
