"""Grover-search toolkit for the k-clique problem.

Gate-level construction of checking- and incremental-style clique oracles,
Dicke/W initial states, simulation on a sparse state of the basis states that
carry amplitude (ideal runs, full statevectors and Monte-Carlo thermal
relaxation trajectories alike), and circuit resource accounting.
"""

from .circuit import Circuit, Gate, decompose_mc
from .graph import Graph, builtin_graph, find_cliques_bruteforce, parse_edge_list, subset_to_bitstring
from .grover import GroverPlan, NoSolutionsError, assemble, diffusion, make_plan, opt_iter, success_probability_analytic
from .noise import NoiseProfile, RelaxationChannel, run_noisy
from .oracle import OracleMode, build_oracle, increment_circuit
from .resources import ResourceReport, report, required_qv, year_estimate
from .sim import MeasurementHistogram, StateVector, run_ideal, statevector
from .stateprep import PrepMode, dicke_prep, full_superposition, prepare_state, search_space_size, w_complement, w_state

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "decompose_mc",
    "Graph", "builtin_graph", "find_cliques_bruteforce", "parse_edge_list", "subset_to_bitstring",
    "GroverPlan", "NoSolutionsError", "assemble", "diffusion", "make_plan", "opt_iter",
    "success_probability_analytic",
    "NoiseProfile", "RelaxationChannel", "run_noisy",
    "OracleMode", "build_oracle", "increment_circuit",
    "ResourceReport", "report", "required_qv", "year_estimate",
    "MeasurementHistogram", "StateVector", "run_ideal", "statevector",
    "PrepMode", "dicke_prep", "full_superposition", "prepare_state", "search_space_size",
    "w_complement", "w_state",
    "__version__",
]
