"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the full run takes a few minutes (criterion 7 runs 160k noisy
trajectories).
"""
import math
import random
import time

import numpy as np
import pytest

from qclique.circuit import decompose_mc
from qclique.graph import Graph, builtin_graph, find_cliques_bruteforce, subset_to_bitstring
from qclique.grover import assemble, make_plan, opt_iter, success_probability_analytic
from qclique.noise import NoiseProfile, RelaxationChannel, run_noisy
from qclique.oracle import OracleMode, build_oracle
from qclique.resources import linear_fit_r2, report
from qclique.sim import apply_gate, marginal_probabilities, run_ideal, statevector
from qclique.stateprep import dicke_prep, w_state
from helpers import oracle_action, random_graph

G4 = builtin_graph("g4")
SOLUTION_G4 = "0111"
NODES_G4 = [0, 1, 2, 3]


def _report(number: int, label: str, started: float, budget_s: float | None = None,
            detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:2d} {label}: PASS ({elapsed:.2f}s){suffix}")


def test_criterion_01_state_prep_exactness():
    t0 = time.perf_counter()
    amps = statevector(dicke_prep(4, 3)).amplitudes
    hot = {0b0111, 0b1011, 0b1101, 0b1110}
    for i in range(16):
        want = 0.5 if i in hot else 0.0
        assert abs(amps[i] - want) < 1e-10
    for n in range(1, 11):
        w_amps = statevector(w_state(n)).amplitudes
        for i in range(1 << n):
            want = 1 / math.sqrt(n) if i.bit_count() == 1 else 0.0
            assert abs(w_amps[i] - want) < 1e-10
    _report(1, "state-prep exactness", t0, budget_s=1.0)


def test_criterion_02_restricted_space_exact_hit():
    t0 = time.perf_counter()
    for prep in ("w", "dicke"):
        for style in ("checking", "incremental"):
            plan = make_plan(G4, 3, prep, style)
            assert plan.iterations == 1
            circ = assemble(G4, 3, prep, style, plan=plan)
            probs = marginal_probabilities(statevector(circ), NODES_G4)
            assert abs(probs[0b0111] - 1.0) < 1e-9, (prep, style)
    _report(2, "restricted space P=1 after one iteration", t0, budget_s=1.0)


def test_criterion_03_full_space_three_iterations():
    t0 = time.perf_counter()
    plan = make_plan(G4, 3, "full", "checking")
    assert plan.iterations == 3
    circ = assemble(G4, 3, "full", "checking", plan=plan)
    probs = marginal_probabilities(statevector(circ), NODES_G4)
    analytic = success_probability_analytic(16, 1, 3)
    assert abs(analytic - math.sin(7 * math.asin(0.25)) ** 2) < 1e-12
    assert abs(probs[0b0111] - analytic) < 1e-6
    assert abs(analytic - 0.9613) < 5e-4
    _report(3, "full space P≈0.9613 after three iterations", t0, budget_s=1.0,
            detail=f"P={probs[0b0111]:.6f}")


def test_criterion_04_oracle_equals_bruteforce_on_random_graphs():
    t0 = time.perf_counter()
    rng = random.Random(20260811)
    sizes = [4] * 60 + [5] * 60 + [6] * 50 + [7] * 30
    checked = 0
    for n in sizes:
        g = random_graph(rng, n, rng.uniform(0.25, 0.85))
        k = rng.choice([kk for kk in (2, 3, 4) if kk <= n])
        expected = {subset_to_bitstring(s, n)[0] for s in find_cliques_bruteforce(g, k)}
        for style in ("checking", "incremental"):
            for count_nodes in (False, True):
                orc = build_oracle(g, k, OracleMode(style, count_nodes))
                flipped, leakage = oracle_action(orc, n)
                assert leakage < 1e-20, (g, k, style, count_nodes)
                if count_nodes:
                    assert flipped == expected, (g, k, style)
                else:
                    restricted = {i for i in flipped if i.bit_count() == k}
                    assert restricted == expected, (g, k, style)
        checked += 1
    assert checked >= 200
    _report(4, "oracle == brute force", t0, budget_s=120.0,
            detail=f"{checked} graphs x 4 variants")


def test_criterion_05_opt_iter():
    t0 = time.perf_counter()
    assert opt_iter(16, 1) == 3
    assert opt_iter(4, 1) == 1
    rng = random.Random(5)
    for _ in range(500):
        n_space = rng.randint(1, 10**9)
        m = rng.randint(1, n_space)
        assert opt_iter(n_space, m) == math.floor(math.pi / 4 * math.sqrt(n_space / m))
    _report(5, "opt_iter values and property", t0)


def test_criterion_06_channel_matches_closed_form():
    t0 = time.perf_counter()
    t1_us = 100.0
    init = np.array([math.sqrt(0.4), math.sqrt(0.6)], dtype=complex)
    rho11_0, rho01_0 = 0.6, math.sqrt(0.24)
    trajectories = 20_000
    worst = 0.0
    for impl in ("mixture", "kraus"):
        for t_over_t1 in (0.05, 0.15, 0.3, 0.6, 1.0):
            for ratio in (1.0, 1.25, 1.6, 2.0, 3.0):  # T2 = T1 / ratio <= T1
                profile = NoiseProfile("grid", t1_us, t1_us / ratio)
                channel = RelaxationChannel(t_over_t1 * t1_us * 1000.0, profile, impl)
                rng = np.random.default_rng(1234)
                rho = np.zeros((2, 2), dtype=complex)
                for _ in range(trajectories):
                    amp = init.copy()
                    channel.apply(amp, 0, rng)
                    rho += np.outer(amp, amp.conj())
                rho /= trajectories
                want11 = rho11_0 * math.exp(-t_over_t1)
                want01 = rho01_0 * math.exp(-t_over_t1 * ratio)
                err = max(abs(rho[1, 1].real - want11), abs(rho[0, 1] - want01))
                worst = max(worst, err)
                assert err < 0.02, (impl, t_over_t1, ratio, err)
    _report(6, "trajectory channel vs closed form (5x5 grid, both impls)", t0,
            budget_s=60.0, detail=f"worst |err|={worst:.4f}")


def test_criterion_07_decoherence_orderings():
    t0 = time.perf_counter()
    circ = assemble(G4, 3, "w", "checking")
    trajectories = shots = 20_000
    seed = 7

    ideal = run_ideal(circ, shots=shots, seed=seed, measure=NODES_G4)
    p_ideal = ideal.success_probability(SOLUTION_G4)

    def noisy(profile):
        hist = run_noisy(circ, profile, shots=shots, trajectories=trajectories,
                         seed=seed, measure=NODES_G4, workers=2)
        p = hist.success_probability(SOLUTION_G4)
        return p, math.sqrt(max(p * (1 - p), 1e-12) / shots)

    p500, s500 = noisy(NoiseProfile("t500", 500.0, 500.0))
    p200, s200 = noisy(NoiseProfile("t200", 200.0, 200.0))

    assert (p_ideal - p500) / s500 >= 3.0
    assert (p500 - p200) / math.sqrt(s500**2 + s200**2) >= 3.0

    from qclique.cli import BUILTIN_PROFILES
    device_p = {name: noisy(prof)[0] for name, prof in BUILTIN_PROFILES.items()}
    best = max(device_p, key=device_p.get)
    assert best == "ibmq_singapore", device_p

    reduction = ((1 - p200) - (1 - p500)) / (1 - p200)
    assert 0.20 <= reduction <= 0.60, reduction
    _report(7, "decoherence orderings and 200->500us error reduction", t0, budget_s=600.0,
            detail=f"P(ideal)={p_ideal:.3f} P(500)={p500:.3f} P(200)={p200:.3f} "
                   f"reduction={reduction:.1%} best={best}")


def test_criterion_08_qv_pipeline():
    t0 = time.perf_counter()
    from qclique.resources import required_qv, year_estimate
    assert required_qv(79, 9) == 512
    assert year_estimate(512).year == 2024 and not year_estimate(512).clamped
    _report(8, "quantum-volume pipeline", t0)


def test_criterion_09_resource_ordering_and_linearity():
    t0 = time.perf_counter()
    lowered = {}
    native = {}
    for style in ("checking", "incremental"):
        for prep in ("full", "w", "dicke"):
            rep = report(assemble(G4, 3, prep, style))
            lowered[(style, prep)] = rep.decomposed_size
            native[(style, prep)] = rep.size
    assert lowered[("checking", "w")] == min(lowered.values()), lowered
    assert native[("checking", "w")] == min(native.values()), native

    rng = random.Random(99)
    fits = {}
    for style in ("checking", "incremental"):
        xs, ys = [], []
        for n_edges in range(6, 28, 2):
            edges = rng.sample([(u, v) for u in range(8) for v in range(u + 1, 8)], n_edges)
            orc = build_oracle(Graph.from_edges(8, edges), 3, OracleMode(style, False))
            xs.append(n_edges)
            ys.append(decompose_mc(orc).metrics().size)
        slope, _, r2 = linear_fit_r2(xs, ys)
        assert slope > 0 and r2 >= 0.99, (style, r2)
        fits[style] = r2
    _report(9, "W-checking minimal size; oracle size linear in |E|", t0,
            detail=f"R2={min(fits.values()):.4f}")


def test_criterion_10_desk_scale_performance_and_determinism():
    t0 = time.perf_counter()
    rng = random.Random(11)
    edges = {(0, 1), (0, 2), (1, 2)}
    edges.update(rng.sample([(u, v) for u in range(16) for v in range(u + 1, 16)], 40))
    g = Graph.from_edges(16, sorted(edges))
    plan = make_plan(g, 3, "dicke", "checking")
    circ = assemble(g, 3, "dicke", "checking", plan=plan)
    assert circ.n_qubits == 20

    prep = dicke_prep(16, 3)
    oracle_circ = build_oracle(g, 3, OracleMode("checking", False))
    from qclique.grover import diffusion
    from qclique.sim import SparseState
    diff = diffusion(prep, range(16))
    state = SparseState.basis(20, 0)
    for gate in prep.ops:
        apply_gate(state, gate)

    started = time.perf_counter()
    for gate in oracle_circ.ops:
        apply_gate(state, gate)
    for gate in diff.ops:
        apply_gate(state, gate)
    iteration_s = time.perf_counter() - started
    assert iteration_s < 10.0, f"one Grover iteration took {iteration_s:.1f}s"

    small = assemble(G4, 3, "w", "checking")
    a = run_ideal(small, shots=512, seed=13, measure=NODES_G4)
    b = run_ideal(small, shots=512, seed=13, measure=NODES_G4)
    assert a.to_json().encode() == b.to_json().encode()
    prof = NoiseProfile("t", 200.0, 200.0)
    na = run_noisy(small, prof, shots=300, trajectories=300, seed=13, measure=NODES_G4)
    nb = run_noisy(small, prof, shots=300, trajectories=300, seed=13, measure=NODES_G4)
    assert na.to_json().encode() == nb.to_json().encode()
    _report(10, "20-qubit iteration under 10s; byte-identical reruns", t0,
            detail=f"iteration={iteration_s:.2f}s")
