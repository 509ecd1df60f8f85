"""Order-preserving replay: independent reconstruction of schedule times.

A one-port schedule is fully determined by its *decisions* — the
allocation ``alloc(v)``, the execution order on each processor, and the
transfer order on each send and each receive port.  Given only those
decisions, the earliest-start times satisfy a simple recurrence (each
activity starts when its dependence and resource predecessors finish),
solvable in one topological pass over the *constraint DAG*:

* precedence edges — parent task → its outgoing transfer → child task
  (or parent → child directly when co-located);
* processor edges — consecutive tasks in a processor's order;
* port edges — consecutive transfers in a send port's order and in a
  receive port's order.

:func:`replay_schedule` extracts the decisions from an existing
schedule and re-derives all times from scratch.  Because the original
times are one feasible solution of the same constraints and the replay
computes the component-wise *least* solution, the replayed schedule

* is valid under the same model,
* starts every activity no later than the original, and
* never increases the makespan.

The test-suite uses this as an end-to-end cross-check on every
heuristic (a timing bug in a heuristic that still passes the validator
would show up as a replay mismatch), and `tighten=True` gives users a
free post-pass that compacts any schedule without changing a single
decision.

Two implementations compute the same least solution:

* the **kernel path** — decision sets whose transfers are all direct
  (``hop == 0``, one transfer per remote edge: every one-port schedule
  on a fully connected platform) compile to the flat integer arrays of
  :mod:`repro.kernel` and propagate in one pass over int-indexed lists;
* the **object path** (:func:`replay_object`) — the original
  dict-of-tuples implementation, retained for multi-hop routed
  schedules and as the reference the kernel is fuzz-checked against
  (both produce bit-identical floats: same ``max`` over the same
  operands, same single addition per activity).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from ..core.exceptions import SchedulingError
from ..core.platform import Platform
from ..core.schedule import CommEvent, Schedule, TaskPlacement
from ..core.taskgraph import TaskGraph
from ..core.tolerance import time_tol
from ..kernel import TimedKernel, compile_statics, current_backend
from ..kernel.timed import KernelIneligible

TaskId = Hashable

#: Constraint-DAG node ids: ("task", v) or ("comm", src, dst, hop).
Node = tuple


@dataclass
class ReplayDecisions:
    """The decision content of a schedule, stripped of all times."""

    alloc: dict[TaskId, int]
    proc_order: dict[int, list[TaskId]]
    send_order: dict[int, list[tuple]]
    recv_order: dict[int, list[tuple]]
    #: (src, dst, hop) -> (from_proc, to_proc); identifies each transfer.
    hops: dict[tuple, tuple[int, int]] = field(default_factory=dict)


def extract_decisions(schedule: Schedule) -> ReplayDecisions:
    """Pull allocation and all resource orders out of a schedule.

    Every order is sorted under a *total* deterministic key — time
    first, then the full identity of the activity (processors, interned
    task indices, hop) — so two schedules with identical content but
    different event insertion order extract identical decisions.
    Simultaneous transfers (or zero-width activities) would otherwise
    tie-break on list order and leak schedule-construction history into
    campaign cache keys and search starting points.
    """
    index = schedule.graph.as_maps().index
    alloc = {t: p.proc for t, p in schedule.placements.items()}
    proc_order: dict[int, list[TaskId]] = {}
    for proc in schedule.platform.processors:
        row = schedule.tasks_on(proc)
        row.sort(key=lambda p: (p.start, p.finish, index[p.task]))
        proc_order[proc] = [p.task for p in row]
    send_order: dict[int, list[tuple]] = {p: [] for p in schedule.platform.processors}
    recv_order: dict[int, list[tuple]] = {p: [] for p in schedule.platform.processors}
    hops: dict[tuple, tuple[int, int]] = {}
    events = sorted(
        schedule.comm_events,
        key=lambda e: (
            e.start,
            e.finish,
            e.src_proc,
            e.dst_proc,
            index[e.src_task],
            index[e.dst_task],
            e.hop,
        ),
    )
    for e in events:
        key = (e.src_task, e.dst_task, e.hop)
        if key in hops:
            raise SchedulingError(f"duplicate transfer {key} in schedule")
        hops[key] = (e.src_proc, e.dst_proc)
        send_order[e.src_proc].append(key)
        recv_order[e.dst_proc].append(key)
    return ReplayDecisions(alloc, proc_order, send_order, recv_order, hops)


def replay(
    graph: TaskGraph,
    platform: Platform,
    decisions: ReplayDecisions,
    heuristic: str = "replay",
) -> Schedule:
    """Least feasible times for the given decisions (see module docstring)."""
    statics = compile_statics(graph, platform)
    try:
        kern = TimedKernel.from_decisions(statics, decisions)
    except KernelIneligible:
        # multi-hop or unknown-edge transfers: outside the kernel's
        # domain, handled by the object-level reference implementation
        return replay_object(graph, platform, decisions, heuristic)
    kern.propagate_kahn()

    out = Schedule(graph, platform, model="one-port", heuristic=heuristic)
    n = statics.num_tasks
    start, finish = kern.start, kern.finish
    edata = statics.edata
    # the output records are the bulk of a replay: the backend builds
    # them (see KernelBackend.records)
    records = current_backend().records
    out.comm_events = records(CommEvent, (
        (key[0], key[1], a, b, start[n + e], finish[n + e], edata[e], 0)
        for e, (key, (a, b)) in zip(kern.hop_list, decisions.hops.items())
    ))
    tasks = statics.tasks
    placed = records(TaskPlacement, zip(tasks, kern.alloc, start, finish))
    out.placements = dict(zip(tasks, placed))
    return out


def replay_object(
    graph: TaskGraph,
    platform: Platform,
    decisions: ReplayDecisions,
    heuristic: str = "replay",
) -> Schedule:
    """Object-level reference replay (handles multi-hop routed chains).

    :func:`replay` routes every direct-transfer decision set through the
    flat kernel; this retained implementation serves routed schedules
    and acts as the independent oracle of the kernel cross-check suite.
    """
    maps = graph.as_maps()
    preds: dict[Node, list[Node]] = {}

    def task_node(v) -> Node:
        return ("task", v)

    def comm_node(key) -> Node:
        return ("comm", *key)

    # durations
    duration: dict[Node, float] = {}
    for v in graph.tasks():
        if v not in decisions.alloc:
            raise SchedulingError(f"decisions missing task {v!r}")
        duration[task_node(v)] = platform.exec_time(
            maps.weight[v], decisions.alloc[v]
        )
        preds[task_node(v)] = []
    for key, (a, b) in decisions.hops.items():
        src, dst, hop = key
        duration[comm_node(key)] = platform.comm_time(maps.data[(src, dst)], a, b)
        preds[comm_node(key)] = []

    # precedence: group hop chains per graph edge
    chains: dict[tuple, list[tuple]] = {}
    for key in decisions.hops:
        chains.setdefault((key[0], key[1]), []).append(key)
    for (src, dst), keys in chains.items():
        keys.sort(key=lambda k: k[2])
        if [k[2] for k in keys] != list(range(len(keys))):
            raise SchedulingError(f"edge {src!r}->{dst!r}: non-contiguous hops")
        preds[comm_node(keys[0])].append(task_node(src))
        for a, b in zip(keys, keys[1:]):
            preds[comm_node(b)].append(comm_node(a))
        preds[task_node(dst)].append(comm_node(keys[-1]))
    for u, v in graph.edges():
        if decisions.alloc[u] == decisions.alloc[v]:
            if (u, v) in chains:
                raise SchedulingError(f"edge {u!r}->{v!r} is local but has transfers")
            preds[task_node(v)].append(task_node(u))
        elif (u, v) not in chains:
            raise SchedulingError(f"remote edge {u!r}->{v!r} has no transfer")

    # resource orders
    for proc, tasks in decisions.proc_order.items():
        for a, b in zip(tasks, tasks[1:]):
            preds[task_node(b)].append(task_node(a))
    for orders in (decisions.send_order, decisions.recv_order):
        for proc, keys in orders.items():
            for a, b in zip(keys, keys[1:]):
                preds[comm_node(b)].append(comm_node(a))

    # longest-path pass (Kahn) over the constraint DAG
    indeg = {n: 0 for n in preds}
    succs: dict[Node, list[Node]] = {n: [] for n in preds}
    for node, plist in preds.items():
        for p in plist:
            succs[p].append(node)
            indeg[node] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    start: dict[Node, float] = {}
    finish: dict[Node, float] = {}
    done = 0
    while ready:
        node = ready.pop()
        s = max((finish[p] for p in preds[node]), default=0.0)
        start[node] = s
        finish[node] = s + duration[node]
        done += 1
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if done != len(preds):
        raise SchedulingError(
            "constraint DAG has a cycle: the decision orders are inconsistent"
        )

    out = Schedule(graph, platform, model="one-port", heuristic=heuristic)
    for key, (a, b) in decisions.hops.items():
        node = comm_node(key)
        src, dst, hop = key
        out.record_comm(
            src, dst, a, b, start[node], duration[node], maps.data[(src, dst)], hop
        )
    for v in graph.tasks():
        node = task_node(v)
        out.place(v, decisions.alloc[v], start[node], finish[node])
    return out


def replay_schedule(schedule: Schedule, tighten: bool = True) -> Schedule:
    """Re-derive a schedule's times from its own decisions.

    With ``tighten=True`` (default) this is a free compaction pass:
    the result keeps every decision of the input but starts each
    activity as early as the decision orders allow, so its makespan is
    less than or equal to the input's.

    With ``tighten=False`` the replay is used purely as a validator:
    the decisions are reconstructed and re-timed, every original time
    is checked to be no earlier than its least feasible time (raising
    :class:`~repro.core.exceptions.SchedulingError` otherwise), and a
    copy of the schedule carrying the *original* times and heuristic
    label is returned.  Comparisons use the scale-aware shared epsilon
    (:func:`repro.core.tolerance.time_tol`), so accumulated float error
    on long transfer chains never spuriously rejects a schedule.
    """
    decisions = extract_decisions(schedule)
    out = replay(
        schedule.graph,
        schedule.platform,
        decisions,
        heuristic=f"replay({schedule.heuristic})",
    )
    if tighten:
        return out
    for task, placement in schedule.placements.items():
        least = out.start_of(task)
        if placement.start < least - time_tol(placement.start, least):
            raise SchedulingError(
                f"task {task!r} starts at {placement.start}, before its "
                f"least feasible time {least} under the schedule's own decisions"
            )
    least_comm = {(e.src_task, e.dst_task, e.hop): e.start for e in out.comm_events}
    for event in schedule.comm_events:
        least = least_comm[(event.src_task, event.dst_task, event.hop)]
        if event.start < least - time_tol(event.start, least):
            raise SchedulingError(
                f"transfer {event.src_task!r}->{event.dst_task!r} starts at "
                f"{event.start}, before its least feasible time {least}"
            )
    checked = Schedule(
        schedule.graph,
        schedule.platform,
        model=schedule.model,
        heuristic=schedule.heuristic,
    )
    checked.placements = dict(schedule.placements)
    checked.comm_events = list(schedule.comm_events)
    return checked
