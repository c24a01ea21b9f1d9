"""Grover assembly: iteration count, diffusion operator, full-algorithm circuits.

The ideal-simulation success probability of an assembled circuit must equal
the analytic rotation value sin^2((2j+1) * asin(sqrt(m/N))); that identity is
the master correctness check for the oracle and diffusion construction.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .circuit import Circuit, Gate
from .graph import Graph, find_cliques_bruteforce, subset_to_bitstring
from .oracle import OracleMode, build_oracle
from .stateprep import PrepMode, prepare_state, search_space_size


class NoSolutionsError(ValueError):
    """The graph has no k-clique (m = 0); quantum counting is out of scope."""


def opt_iter(n_space: int, m_solutions: int) -> int:
    """Optimal Grover iteration count floor(pi/4 * sqrt(N/m))."""
    if n_space < 1:
        raise ValueError("search-space size must be >= 1")
    if m_solutions < 1:
        raise NoSolutionsError(
            "no solutions known (m = 0); cannot choose an iteration count")
    return math.floor(math.pi / 4.0 * math.sqrt(n_space / m_solutions))


def success_probability_analytic(n_space: int, m_solutions: int, iterations: int) -> float:
    """sin^2((2j+1) * asin(sqrt(m/N))): probability of measuring a solution after j iterations."""
    if not 1 <= m_solutions <= n_space:
        raise ValueError("need 1 <= m <= N")
    theta = math.asin(math.sqrt(m_solutions / n_space))
    return math.sin((2 * iterations + 1) * theta) ** 2


def diffusion(prep: Circuit, nodes: range | None = None) -> Circuit:
    """Reflection about the prepared state: prep^-1, X-conjugated MCZ, prep.

    ``prep`` must act only on the node register.  Equals
    prep (2|0><0| - I) prep^t up to global phase; applying it twice is the
    identity.
    """
    span = nodes if nodes is not None else range(prep.n_qubits)
    if any(q not in span for g in prep.ops for q in g.qubits):
        raise ValueError("state preparation must act only on the node register")
    flips = [Gate("X", (q,)) for q in span]
    core = Gate("Z", (span[0],)) if len(span) == 1 else Gate("MCZ", tuple(span))
    return Circuit(prep.n_qubits, prep.registers, f"diffusion({prep.name})",
                   [*prep.adjoint().ops, *flips, core, *flips, *prep.ops])


@dataclass(frozen=True)
class GroverPlan:
    """Sizing of one run: search-space size N, solution count m, iterations."""

    n_space: int
    m_solutions: int
    iterations: int
    prep: PrepMode
    oracle: OracleMode
    solutions: tuple[frozenset, ...]

    def success_probability(self) -> float:
        return success_probability_analytic(self.n_space, self.m_solutions, self.iterations)

    def solution_bitstrings(self, n: int) -> list[str]:
        return [subset_to_bitstring(s, n)[1] for s in self.solutions]


def make_plan(g: Graph, k: int, prep: PrepMode, style: str = "checking",
              iterations: int | str = "auto") -> GroverPlan:
    """Classical sizing pass: brute-force m, pick N from the prep mode, fix j.

    The oracle counts nodes exactly when the preparation spans the full space;
    a weight-k preparation already fixes the node count.  Raises
    :class:`ValueError` for the W-state preparation unless k = n - 1, and then
    :class:`NoSolutionsError` when the graph has no k-clique.
    """
    prep = PrepMode(prep)
    if prep is PrepMode.W_COMPLEMENT and k != g.n - 1:
        raise ValueError(
            f"W-state preparation works only for clique size k = n-1 (k={k}, n={g.n})")
    mode = OracleMode(style, count_nodes=prep is PrepMode.FULL)
    solutions = find_cliques_bruteforce(g, k)
    if not solutions:
        raise NoSolutionsError(f"graph has no {k}-clique")
    n_space = search_space_size(prep, g.n, k)
    if iterations == "auto":
        iterations = opt_iter(n_space, len(solutions))
    elif not (isinstance(iterations, int) and iterations >= 0):
        raise ValueError(f"iterations must be 'auto' or a non-negative integer, got {iterations!r}")
    return GroverPlan(n_space, len(solutions), iterations, prep, mode, tuple(solutions))


def assemble(g: Graph, k: int, prep: PrepMode, style: str = "checking",
             plan: GroverPlan | None = None) -> Circuit:
    """Full search circuit: state prep, then ``plan.iterations`` x (oracle, diffusion).

    Without a ``plan``, :func:`make_plan` sizes one with the optimal iteration
    count; pass a plan to choose another.  When that count is 0 (N = m) the
    circuit is just the preparation.  Width and registers are the oracle's;
    the node register is qubits [0, n), which the preparation acts on exactly.
    Measure it to read the clique.
    """
    if plan is None:
        plan = make_plan(g, k, prep, style)
    prep_circuit = prepare_state(plan.prep, g.n, k)
    oracle_circuit = build_oracle(g, k, plan.oracle)
    diffusion_circuit = diffusion(prep_circuit)
    iteration = oracle_circuit.ops + diffusion_circuit.ops
    # a list holds one 8-byte reference per gate; a list larger than memory
    # would be filled until the process is killed, where the allocator allows it
    if plan.iterations * len(iteration) * 8 > _physical_memory():
        raise _cannot_assemble(plan.iterations, len(iteration))
    try:
        ops = prep_circuit.ops + plan.iterations * iteration
    except (MemoryError, OverflowError):  # too large to size, or to count as an index
        raise _cannot_assemble(plan.iterations, len(iteration)) from None
    return Circuit(oracle_circuit.n_qubits, oracle_circuit.registers,
                   f"grover({plan.prep.value},{plan.oracle.style},k={k})", ops)


def _cannot_assemble(iterations: int, gates: int) -> MemoryError:
    return MemoryError(f"cannot assemble {iterations} Grover iterations of {gates} gates each")


def _physical_memory() -> float:
    """Bytes of physical memory, or no bound where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf
