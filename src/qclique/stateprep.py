"""Initial-state circuits: full superposition, W state (plus complement), Dicke states.

All builders produce states whose nonzero amplitudes are equal *and real
positive* (uniform phase), which is what lets the diffusion operator act as an
exact reflection inside the restricted search space.
"""
from __future__ import annotations

import math
from enum import Enum

from .circuit import Circuit, Gate


class PrepMode(str, Enum):
    """How the node register is initialized before the Grover loop.

    FULL spans the whole Hilbert space (2^n states).  W_COMPLEMENT and DICKE
    restrict the search to the C(n, k) states of Hamming weight k; the W-state
    route (W state followed by n NOT gates) is legal only for k = n - 1.
    """

    FULL = "full"
    W_COMPLEMENT = "w"
    DICKE = "dicke"


def full_superposition(n: int) -> Circuit:
    """n Hadamards: every amplitude equals 2^(-n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    circ = Circuit(n, {"nodes": range(n)}, name=f"full({n})")
    for q in range(n):
        circ.add("H", q)
    return circ


def _w_block(circ: Circuit, src: int, dst: int, keep: int, total: int) -> None:
    # Moves sqrt((total-keep)/total) of the excitation amplitude from src to
    # dst and keeps sqrt(keep/total); leaves |00> alone.  4 gates, all real.
    theta = math.acos(math.sqrt((total - keep) / total))
    circ.add("RY", dst, params=(theta,))
    circ.add("CX", src, dst)
    circ.add("RY", dst, params=(-theta,))
    circ.add("CX", dst, src)


def _w_distribute(circ: Circuit, qubits: list[int]) -> None:
    # Binary split: the excitation sits on qubits[0]; spread it uniformly.
    # Blocks at the same recursion level touch disjoint qubits, giving
    # O(log n) depth with n - 1 blocks.
    count = len(qubits)
    if count == 1:
        return
    left = qubits[: (count + 1) // 2]
    right = qubits[(count + 1) // 2:]
    _w_block(circ, qubits[0], right[0], keep=len(left), total=count)
    _w_distribute(circ, left)
    _w_distribute(circ, right)


def w_state(n: int) -> Circuit:
    """Uniform superposition of the n Hamming-weight-1 states, amplitude 1/sqrt(n).

    One X seeds the excitation; n - 1 two-qubit blocks (2 RY + 2 CX each)
    spread it by recursive halving: O(n) gates, O(log n) depth.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    circ = Circuit(n, {"nodes": range(n)}, name=f"w({n})")
    circ.add("X", 0)
    _w_distribute(circ, list(range(n)))
    return circ


def w_complement(n: int) -> Circuit:
    """W state followed by n NOT gates: uniform over Hamming weight n - 1."""
    w = w_state(n)
    return Circuit(n, w.registers, f"w_complement({n})",
                   w.ops + [Gate("X", (q,)) for q in range(n)])


def _dicke_stage(circ: Circuit, p: int, k: int) -> None:
    # Splits qubit p off the range [0, p]: a seed block of s ones ending at p
    # keeps qubit p set with amplitude sqrt(s/(p+1)) or shifts the block down
    # one position with amplitude sqrt((p+1-s)/(p+1)).
    size = p + 1
    for weight in range(1, min(k, p) + 1):
        theta = -2.0 * math.acos(math.sqrt(weight / size))
        low = p - weight
        circ.add("CX", p, low)
        if weight == 1:
            circ.add("CRY", low, p, params=(theta,))
        else:
            circ.add("CCRY", low, low + 1, p, params=(theta,))
        circ.add("CX", p, low)


def dicke_prep(n: int, k: int) -> Circuit:
    """Deterministic Dicke-state circuit: uniform over the C(n, k) weight-k states.

    Split-and-cycle-shift construction: seed the top k qubits with X gates,
    then peel qubits off one at a time, each stage redistributing the seed
    block with exact binomial-ratio rotations.  Gate count is
    k + 3 * (k*(k-1)/2 + k*(n-k)) <= 4*k*n, no measurements.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"dicke_prep requires 1 <= k <= n-1, got k={k}, n={n}")
    circ = Circuit(n, {"nodes": range(n)}, name=f"dicke({n},{k})")
    for q in range(n - k, n):
        circ.add("X", q)
    for p in range(n - 1, 0, -1):
        _dicke_stage(circ, p, k)
    return circ


def prepare_state(mode: PrepMode, n: int, k: int) -> Circuit:
    """Prep circuit for a clique search over n nodes with clique size k."""
    mode = PrepMode(mode)
    if mode is PrepMode.FULL:
        return full_superposition(n)
    if mode is PrepMode.W_COMPLEMENT:
        if k != n - 1:
            raise ValueError(
                f"W-state preparation works only for clique size k = n-1 (k={k}, n={n})")
        return w_complement(n)
    return dicke_prep(n, k)


def search_space_size(mode: PrepMode, n: int, k: int) -> int:
    """2^n for the full space, C(n, k) for the weight-restricted preparations."""
    mode = PrepMode(mode)
    if mode is PrepMode.FULL:
        return 1 << n
    return math.comb(n, k)
