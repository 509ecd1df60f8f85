"""Proportional load balancing across different-speed processors.

This implements Section 4.2 of the paper (and its reference [2]):

* the *continuous* share of processor ``P_i`` in a pool of total weight
  ``W`` is ``c_i = (1/t_i) / sum_j (1/t_j)`` — every processor then
  finishes its fraction ``c_i * W`` at the same instant;
* because tasks are indivisible, the *optimal distribution* algorithm
  rounds the shares down and then hands out the remaining tasks one by
  one, each to the processor whose completion time after one more task
  is smallest.  This minimizes ``max_i t_i * n_i`` over all integer
  distributions of ``n`` equal-size tasks (the greedy step is exchange-
  optimal, which the test-suite cross-checks by brute force);
* the smallest ``n`` for which the continuous shares are all integral is
  ``lcm(t_1..t_p) * sum_i (1/t_i)`` — the paper's perfect-balance chunk
  size ``B = 38`` for the 6/10/15 platform.

ILHA uses these primitives twice: the one-port variant bounds each
processor's *weight* within a chunk by ``c_i * W``; the macro-dataflow
variant distributes task *counts* with the integer algorithm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .exceptions import ConfigurationError


def weight_shares(cycle_times: Sequence[float]) -> list[float]:
    """Continuous shares ``c_i = (1/t_i) / sum(1/t_j)``; sums to 1."""
    if not cycle_times:
        raise ConfigurationError("weight_shares needs at least one processor")
    if any(t <= 0 for t in cycle_times):
        raise ConfigurationError("cycle times must be > 0")
    inv = [1.0 / t for t in cycle_times]
    total = 0.0
    for x in inv:  # left to right, as Platform.aggregate_speed (not sum())
        total += x
    return [x / total for x in inv]


def share_limits(total_weight: float, cycle_times: Sequence[float]) -> list[float]:
    """Per-processor weight budgets ``c_i * W`` for a chunk of weight ``W``."""
    if total_weight < 0:
        raise ConfigurationError(f"total weight must be >= 0, got {total_weight}")
    return [c * total_weight for c in weight_shares(cycle_times)]


def optimal_distribution(n: int, cycle_times: Sequence[float]) -> list[int]:
    """Distribute ``n`` equal-size tasks minimizing ``max_i t_i * n_i``.

    The paper's two-phase algorithm: start from the floored continuous
    shares, then repeatedly give one more task to the processor ``k``
    minimizing ``t_k * (c_k + 1)`` until all ``n`` tasks are assigned
    (ties go to the lowest index, making the result deterministic).
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    shares = weight_shares(cycle_times)
    counts = [math.floor(c * n) for c in shares]
    p = len(cycle_times)
    while sum(counts) < n:
        k = min(range(p), key=lambda i: (cycle_times[i] * (counts[i] + 1), i))
        counts[k] += 1
    return counts


def distribution_makespan(counts: Sequence[int], cycle_times: Sequence[float]) -> float:
    """Completion time of a count distribution: ``max_i t_i * n_i``."""
    if len(counts) != len(cycle_times):
        raise ConfigurationError("counts and cycle_times must have equal length")
    return max((t * c for t, c in zip(cycle_times, counts)), default=0.0)


def is_count_distribution_optimal(counts: Sequence[int], cycle_times: Sequence[float]) -> bool:
    """Exchange-optimality check: no single task move can lower the max.

    A distribution is optimal for this min-max objective iff moving one
    task from any processor attaining the max to any other processor does
    not reduce the makespan.  (Global optimality follows because the
    objective is an order statistic of independent per-processor loads;
    the tests also brute-force small instances.)
    """
    ms = distribution_makespan(counts, cycle_times)
    p = len(cycle_times)
    for i in range(p):
        if counts[i] == 0 or cycle_times[i] * counts[i] < ms:
            continue
        for j in range(p):
            if i == j:
                continue
            moved = list(counts)
            moved[i] -= 1
            moved[j] += 1
            if distribution_makespan(moved, cycle_times) < ms:
                return False
    return True


def perfect_balance_count(cycle_times: Sequence[float]) -> int:
    """Smallest ``n`` whose continuous shares are all integers.

    ``n = lcm(t_1..t_p) * sum(1/t_i)`` for integer cycle times — the
    paper's recommended upper end for sampling the ILHA parameter ``B``
    (Section 5.3).  38 for the paper's 6/10/15 platform.
    """
    ints = []
    for t in cycle_times:
        if abs(t - round(t)) > 1e-12 or t <= 0:
            raise ConfigurationError("perfect_balance_count needs positive integer cycle times")
        ints.append(round(t))
    lcm = 1
    for t in ints:
        lcm = math.lcm(lcm, t)
    return sum(lcm // t for t in ints)


def b_candidates(cycle_times: Sequence[float], num_processors: int | None = None) -> list[int]:
    """Sensible values of ILHA's chunk parameter ``B`` to sample.

    Section 5.3: ``B`` must be at least the number of processors (else
    some processor is forcibly idle) and at most the perfect-balance
    count ``M``, beyond which larger chunks cannot balance better.  The
    returned list covers ``[p, M]`` with the paper's observed optima
    (4, 20, 38 on the paper platform) included when in range.
    """
    p = num_processors if num_processors is not None else len(cycle_times)
    m = perfect_balance_count(cycle_times)
    lo = min(p, m)
    candidates = {lo, m}
    step = max(1, (m - lo) // 4)
    candidates.update(range(lo, m + 1, step))
    return sorted(candidates)


class ChunkLoadTracker:
    """Running per-processor load against the ``c_i * W`` budgets.

    ILHA's Step 1 (Section 4.4) allocates a zero-communication task to
    processor ``P_i`` only while ``load_i + w(T) <= c_i * W``.  This
    object tracks the loads of one chunk.
    """

    __slots__ = ("limits", "loads")

    def __init__(self, total_weight: float, cycle_times: Sequence[float]) -> None:
        self.limits = share_limits(total_weight, cycle_times)
        self.loads = [0.0] * len(self.limits)

    def fits(self, proc: int, weight: float, slack: float = 1e-12) -> bool:
        """Whether ``proc`` can absorb ``weight`` within its budget."""
        return self.loads[proc] + weight <= self.limits[proc] + slack

    def add(self, proc: int, weight: float) -> None:
        self.loads[proc] += weight

    def remaining(self, proc: int) -> float:
        return self.limits[proc] - self.loads[proc]
