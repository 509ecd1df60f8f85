"""ILHA — Iso-Level Heterogeneous Allocation (the paper's new heuristic).

ILHA (Sections 4.2 and 4.4) differs from HEFT by taking its decisions on
a *chunk* of ``B`` ready tasks at once, which gives it a global view of
the potential communications:

* **Step 1** — scan the chunk in priority order; a task whose parents all
  live on one processor ``P_i`` is allocated there *without generating
  any communication*, provided ``P_i``'s accumulated chunk load stays
  within its proportional share ``c_i * W`` (where ``W`` is the chunk's
  total weight and ``c_i = (1/t_i)/Σ(1/t_j)``).
* **Step 2** — the remaining tasks are scheduled exactly as in HEFT:
  minimum earliest-finish-time over all processors, incoming messages
  booked greedily under the model's rules.

Section 4.4 sketches two refinements, both implemented behind flags:

* ``single_comm_scan`` — an extra scan between the two steps for tasks
  schedulable "at the price of a single communication" (exactly one
  remote parent);
* ``reschedule`` — treat Steps 1–2 as a *pre-allocation* only: rerun the
  chunk keeping the allocation but re-booking every communication
  greedily in priority order (the paper proves the optimal such
  re-scheduling NP-complete — Theorem 2 — and suggests a greedy pass).

The chunk size ``B`` trades load balance (large ``B``) against critical-
path urgency (small ``B``); the paper finds B=4 best for LU, B=20 for
DOOLITTLE/LDMt and B=38 (the perfect-balance count) for LAPLACE,
FORK-JOIN and STENCIL, and recommends sampling ``[p .. M]``.

This module also provides :class:`ILHAClassic`, the earlier macro-
dataflow formulation of Section 4.2 (integer task *counts* from the
optimal-distribution algorithm, "fastest free processor" fallback),
kept for fidelity to the published pseudocode.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from ..core.exceptions import ConfigurationError
from ..core.loadbalance import (
    ChunkLoadTracker,
    optimal_distribution,
    perfect_balance_count,
)
from ..core.platform import Platform
from ..core.ranking import bottom_levels
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..models.base import CommunicationModel
from ..obs import span as _obs_span
from .base import (
    PriorityKey,
    ReadyQueue,
    Scheduler,
    SchedulerState,
    make_model,
    register_scheduler,
)

TaskId = Hashable


class _ChunkBudget:
    """Step-1 budget tracker, in task counts or weight units (see ILHA).

    ``counts`` memoises the read-only count limits by chunk length: a run
    computes :func:`optimal_distribution` once per distinct length.
    """

    __slots__ = ("mode", "limits", "used", "tracker")

    def __init__(
        self,
        mode: str,
        chunk_weights: Sequence[float],
        cycle_times: Sequence[float],
        counts: dict[int, list[int]],
    ):
        self.mode = mode
        if mode == "counts":
            n = len(chunk_weights)
            limits = counts.get(n)
            if limits is None:
                limits = counts[n] = optimal_distribution(n, cycle_times)
            self.limits = limits
            self.used = [0] * len(cycle_times)
            self.tracker = None
        else:
            total = 0.0
            for w in chunk_weights:  # left to right, as weight_shares (not sum())
                total += w
            self.tracker = ChunkLoadTracker(total, cycle_times)

    def fits(self, proc: int, weight: float) -> bool:
        if self.mode == "counts":
            return self.used[proc] < self.limits[proc]
        return self.tracker.fits(proc, weight)

    def add(self, proc: int, weight: float) -> None:
        if self.mode == "counts":
            self.used[proc] += 1
        else:
            self.tracker.add(proc, weight)


def default_chunk_size(platform: Platform) -> int:
    """Paper-recommended default ``B``.

    The perfect-balance count ``M = lcm(t) * Σ(1/t_i)`` when the cycle
    times are integral (38 on the paper platform), otherwise the number
    of processors (the paper's lower bound for ``B``).
    """
    try:
        return max(perfect_balance_count(platform.cycle_times), platform.num_processors)
    except ConfigurationError:
        return platform.num_processors


@register_scheduler
class ILHA(Scheduler):
    """Chunked list scheduling with proportional load balancing.

    Parameters
    ----------
    b:
        Chunk size ``B`` (``None`` = :func:`default_chunk_size`).  Must
        be >= 1; the paper requires ``B >= p`` for full processor use but
        smaller values are accepted (they degenerate towards HEFT).
    insertion:
        Insertion-based compute slots (as in HEFT).
    priority_key:
        Override of the ready ordering, as in :class:`~repro.heuristics.heft.HEFT`.
    single_comm_scan:
        Enable the Section 4.4 "one communication" extra scan.
    reschedule:
        Enable the Section 4.4 third-step greedy communication
        re-scheduling (allocation from Steps 1–2, timing re-derived).
    respect_shares_step2:
        Also enforce the Step-1 budgets during Step 2 (falling back to
        all processors when no budget fits).  Off by default — the
        paper's Step 2 is plain HEFT.
    budget:
        How the per-processor Step-1 budgets ``c_i`` are derived.
        ``"counts"`` (default) runs the paper's *optimal distribution*
        algorithm on the chunk size — "ci is the value returned by the
        load-balancing algorithm" — and lets ``P_i`` absorb that many
        tasks; ``"weights"`` enforces the continuous bound
        ``load_i + w(T) <= c_i * W`` literally.  The two coincide for
        equal-weight tasks and large ``B``; for small ``B`` the
        continuous bound is stricter than any integer distribution
        (with ``B = 4`` on the paper platform no share reaches one
        task's weight, so Step 1 would never fire), hence the default.
    """

    name = "ilha"

    def __init__(
        self,
        b: int | None = None,
        insertion: bool = True,
        priority_key: PriorityKey | None = None,
        single_comm_scan: bool = False,
        reschedule: bool = False,
        respect_shares_step2: bool = False,
        budget: str = "counts",
    ):
        if b is not None and b < 1:
            raise ConfigurationError(f"chunk size B must be >= 1, got {b}")
        if budget not in ("counts", "weights"):
            raise ConfigurationError(f"budget must be 'counts' or 'weights', got {budget!r}")
        self.b = b
        self.insertion = insertion
        self.priority_key = priority_key
        self.single_comm_scan = single_comm_scan
        self.reschedule = reschedule
        self.respect_shares_step2 = respect_shares_step2
        self.budget = budget

    # ------------------------------------------------------------------
    def run(
        self,
        graph: TaskGraph,
        platform: Platform,
        model: str | CommunicationModel = "one-port",
    ) -> Schedule:
        model = make_model(platform, model)
        state = SchedulerState(
            graph, platform, model, heuristic=self.name, insertion=self.insertion
        )
        if self.priority_key is not None:
            key = self.priority_key
        else:
            with _obs_span("phase.rank"):
                bl = bottom_levels(graph, platform)
            key = lambda v: -bl[v]  # noqa: E731
        b = self.b if self.b is not None else default_chunk_size(platform)

        with _obs_span("phase.construct"):
            tasks = state.kernel.tasks
            counts: dict[int, list[int]] = {}
            for chunk in ReadyQueue(graph, key, state.kernel).chunks(b):
                if self.reschedule:
                    # Pre-allocate on a scratch run (rolled back through
                    # the state's undo journal — O(chunk), not a deep
                    # copy), then rebuild the chunk's timing with the
                    # allocation fixed.
                    mark = state.mark()
                    alloc = self._run_chunk(state, chunk, counts)
                    state.restore(mark)
                    for ti in chunk:
                        state.schedule_on(tasks[ti], alloc[ti])
                else:
                    self._run_chunk(state, chunk, counts)
        return state.schedule

    # ------------------------------------------------------------------
    def _run_chunk(
        self, state: SchedulerState, chunk: list[int], counts: dict[int, list[int]]
    ) -> dict[int, int]:
        """Steps 1 (+ optional single-comm scan) and 2 on ``state``.

        ``chunk`` holds interned tasks.  Commits every one of them to
        ``state`` and returns the allocation by task index.
        """
        kernel = state.kernel
        tasks, weights, pred_rows = kernel.tasks, kernel.weights, kernel.pred_rows
        platform = state.platform
        tracker = _ChunkBudget(
            self.budget, [weights[ti] for ti in chunk], platform.cycle_times, counts
        )
        alloc: dict[int, int] = {}
        remaining: list[int] = []

        # Step 1: zero-communication allocations within the share budgets.
        for ti in chunk:
            if pred_rows[ti]:
                procs = state.parent_procs(tasks[ti])
                if len(procs) == 1:
                    proc = next(iter(procs))
                    if tracker.fits(proc, weights[ti]):
                        state.schedule_on(tasks[ti], proc)
                        tracker.add(proc, weights[ti])
                        alloc[ti] = proc
                        continue
            remaining.append(ti)

        # Optional scan: tasks placeable at the price of one message.
        if self.single_comm_scan:
            still: list[int] = []
            for ti in remaining:
                placed = self._try_single_comm(state, tracker, ti)
                if placed is None:
                    still.append(ti)
                else:
                    alloc[ti] = placed
            remaining = still

        # Step 2: HEFT-style earliest completion time.  Only the share
        # filter needs the budget after Step 1; without it the whole
        # step is one list.
        if not self.respect_shares_step2:
            alloc.update(zip(remaining, state.run_list(remaining)))
            return alloc
        for ti in remaining:
            fitting = [p for p in platform.processors if tracker.fits(p, weights[ti])]
            best = state.best_candidate(tasks[ti], fitting or None)
            state.commit(best)
            tracker.add(best.proc, weights[ti])
            alloc[ti] = best.proc
        return alloc

    def _try_single_comm(
        self, state: SchedulerState, tracker: _ChunkBudget, ti: int
    ) -> int | None:
        """Place task ``ti`` where exactly one parent is remote, if possible.

        Candidate processors are those hosting at least one parent (so the
        message count is the number of parents elsewhere); among the
        candidates with exactly one remote parent and budget headroom, the
        earliest completion time wins.  Returns the processor or ``None``.
        """
        kernel = state.kernel
        nparents = len(kernel.pred_rows[ti])
        if not nparents:
            return None
        task, weight = kernel.tasks[ti], kernel.weights[ti]
        by_proc: dict[int, int] = {}
        for _parent, pproc, _pfinish, _data in state.parents_info(task):
            by_proc[pproc] = by_proc.get(pproc, 0) + 1
        candidates = [
            proc
            for proc, count in by_proc.items()
            if nparents - count == 1 and tracker.fits(proc, weight)
        ]
        if not candidates:
            return None
        best = state.best_candidate(task, sorted(candidates))
        state.commit(best)
        tracker.add(best.proc, weight)
        return best.proc


@register_scheduler
class TunedILHA(Scheduler):
    """ILHA with the paper's parameter-tuning methodology built in.

    Section 5.3: "the best results for ILHA have been obtained by trying
    several values for B.  Unfortunately, we have not found any
    systematic technique to predict the optimal value of B" — the
    reported ILHA curves are best-over-B.  This wrapper runs ILHA over a
    grid of chunk sizes (and optionally the Section 4.4 variants) and
    returns the schedule with the smallest makespan.  The winning
    configuration is recorded in the schedule's ``heuristic`` label.

    Parameters
    ----------
    b_values:
        Chunk sizes to sample; defaults to the paper's observed optima
        plus the perfect-balance count, clipped to the task count at
        run time.
    try_variants:
        Also sample ``single_comm_scan`` and ``reschedule`` (triples the
        grid).
    insertion:
        Passed through to every ILHA run.
    """

    name = "ilha-tuned"

    def __init__(
        self,
        b_values: Sequence[int] | None = None,
        try_variants: bool = True,
        insertion: bool = True,
    ):
        self.b_values = tuple(b_values) if b_values is not None else None
        self.try_variants = try_variants
        self.insertion = insertion

    def run(
        self,
        graph: TaskGraph,
        platform: Platform,
        model: str | CommunicationModel = "one-port",
    ) -> Schedule:
        if self.b_values is not None:
            b_values = self.b_values
        else:
            b_values = (4, 6, 10, 20, default_chunk_size(platform))
        b_values = sorted({max(1, min(b, graph.num_tasks)) for b in b_values})
        variant_kwargs: list[dict] = [{}]
        if self.try_variants:
            variant_kwargs += [
                {"single_comm_scan": True},
                {"single_comm_scan": True, "reschedule": True},
            ]
        best: Schedule | None = None
        best_label = ""
        for b in b_values:
            for kwargs in variant_kwargs:
                sched = ILHA(b=b, insertion=self.insertion, **kwargs).run(
                    graph, platform, model
                )
                if best is None or sched.makespan() < best.makespan():
                    best = sched
                    flags = "".join(
                        {"single_comm_scan": "+scan", "reschedule": "+resched"}[k]
                        for k, v in kwargs.items()
                        if v
                    )
                    best_label = f"ilha-tuned(B={b}{flags})"
        assert best is not None
        best.heuristic = best_label
        return best


@register_scheduler
class ILHAClassic(Scheduler):
    """The Section 4.2 macro-dataflow formulation of ILHA.

    Follows the published pseudocode: take the ``B`` highest-bottom-level
    ready tasks, compute the *integer* optimal distribution of ``B``
    equal tasks over the processors, assign zero-communication tasks to
    their parents' processor while it still has budget (count) left, and
    assign every other task to the fastest processor with remaining
    budget.  Start times then follow from the model's communication rule
    and the earliest compute slot.

    This variant treats tasks as equal-size when budgeting (counts, not
    weights), exactly as the pseudocode does; :class:`ILHA` is the
    weight-aware one-port refinement of Section 4.4.
    """

    name = "ilha-classic"

    def __init__(
        self,
        b: int | None = None,
        insertion: bool = True,
        priority_key: PriorityKey | None = None,
    ):
        if b is not None and b < 1:
            raise ConfigurationError(f"chunk size B must be >= 1, got {b}")
        self.b = b
        self.insertion = insertion
        self.priority_key = priority_key

    def run(
        self,
        graph: TaskGraph,
        platform: Platform,
        model: str | CommunicationModel = "macro-dataflow",
    ) -> Schedule:
        model = make_model(platform, model)
        state = SchedulerState(
            graph, platform, model, heuristic=self.name, insertion=self.insertion
        )
        if self.priority_key is not None:
            key = self.priority_key
        else:
            bl = bottom_levels(graph, platform)
            key = lambda v: (-bl[v],)  # noqa: E731
        b = self.b if self.b is not None else default_chunk_size(platform)
        maps = state.maps
        # Fastest-first processor order ("the fastest processor that is
        # not yet saturated"), ties by index.
        speed_order = sorted(
            platform.processors, key=lambda p: (platform.cycle_time(p), p)
        )

        queue = ReadyQueue(graph, key)
        while queue:
            chunk = queue.pop_chunk(b)
            budget = optimal_distribution(len(chunk), platform.cycle_times)
            leftovers: list[TaskId] = []
            for task in chunk:
                if maps.preds[task]:
                    procs = state.parent_procs(task)
                    if len(procs) == 1:
                        proc = next(iter(procs))
                        if budget[proc] > 0:
                            state.schedule_on(task, proc)
                            budget[proc] -= 1
                            continue
                leftovers.append(task)
            for task in leftovers:
                proc = next((p for p in speed_order if budget[p] > 0), speed_order[0])
                state.schedule_on(task, proc)
                budget[proc] -= 1
            for task in chunk:
                queue.complete(task)
        return state.schedule
