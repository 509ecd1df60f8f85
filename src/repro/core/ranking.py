"""Task priorities: bottom levels, top levels, and critical paths.

Section 4.1 of the paper defines the *bottom level* of a task as the
length of the longest path from the task to an exit node, where with
heterogeneous processors:

* a task of weight ``w`` counts for ``p * w / sum(1/t_i)`` time units —
  ``w`` times the harmonic mean of the cycle times;
* an edge of volume ``d`` counts for ``d`` times the average link time;
* **all** communication costs are included (it is conservatively assumed
  that communications cannot be avoided by co-locating endpoints).

Bottom levels drive the priority queues of HEFT and ILHA; top levels
define the iso-level decomposition of the first ILHA variant.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Hashable, Mapping, Sequence

from .platform import Platform
from .taskgraph import TaskGraph

TaskId = Hashable


def averaged_weights(graph: TaskGraph, platform: Platform) -> dict[TaskId, float]:
    """Per-task execution estimate ``w(v) * harmonic_mean(t_i)``."""
    factor = platform.average_cycle_time()
    return {v: graph.weight(v) * factor for v in graph.tasks()}


def averaged_comms(graph: TaskGraph, platform: Platform) -> dict[tuple[TaskId, TaskId], float]:
    """Per-edge communication estimate ``data(u,v) * average_link``."""
    factor = platform.average_link_time()
    return {(u, v): graph.data(u, v) * factor for u, v in graph.edges()}


def _levels(
    topo: Sequence[int],
    succ_rows: Sequence[Sequence[int]],
    edst: Sequence[int],
    node_cost: Sequence[float],
    edge_cost: Sequence[float],
) -> list[float]:
    """Bottom levels over interned tasks and edges (the one recurrence).

    ``bl(v) = node_cost[v] + max over out-edges e of (edge_cost[e] +
    bl(edst[e]))``, with the max taken as 0 for exit tasks, in one
    reverse sweep of the topological order ``topo`` — O(V + E).  Each
    row lists a task's out-edges in :meth:`TaskGraph.successors` order,
    so ``max`` sees its operands in that order.
    """
    bl = [0.0] * len(node_cost)
    for v in reversed(topo):
        row = succ_rows[v]
        bl[v] = node_cost[v] + (max([edge_cost[e] + bl[edst[e]] for e in row]) if row else 0.0)
    return bl


def bottom_levels_from(
    graph: TaskGraph,
    node_cost: Mapping[TaskId, float],
    edge_cost: Mapping[tuple[TaskId, TaskId], float],
) -> dict[TaskId, float]:
    """Generic bottom levels from explicit per-node / per-edge costs.

    ``bl(v) = node_cost(v) + max over successors s of
    (edge_cost(v, s) + bl(s))``, with the max taken as 0 for exit tasks
    (see :func:`_levels`).
    """
    maps = graph.as_maps()
    index = maps.index
    succ_rows, edst = maps.succ_csr()
    bl = _levels(
        [index[v] for v in graph.topological_order()],
        succ_rows,
        edst,
        [node_cost[v] for v in index],
        [edge_cost[e] for e in maps.data],
    )
    return dict(zip(index, bl))


def top_levels_from(
    graph: TaskGraph,
    node_cost: Mapping[TaskId, float],
    edge_cost: Mapping[tuple[TaskId, TaskId], float],
) -> dict[TaskId, float]:
    """Generic top levels: longest-path length *arriving at* each task.

    ``tl(v) = max over predecessors u of (tl(u) + node_cost(u) +
    edge_cost(u, v))``, 0 for entry tasks.  ``tl(v)`` is the earliest
    time ``v`` could start on an idealized platform.
    """
    tl: dict[TaskId, float] = {}
    for v in graph.topological_order():
        preds = graph.predecessors(v)
        tl[v] = max((tl[u] + node_cost[u] + edge_cost[(u, v)] for u in preds), default=0.0)
    return tl


def bottom_levels(graph: TaskGraph, platform: Platform) -> dict[TaskId, float]:
    """Paper Section 4.1 bottom levels with heterogeneous averaging.

    Computed once per (graph, platform) on the interned statics and
    cached there as :attr:`~repro.kernel.statics.KernelStatics.ranks`
    (dropped with the statics when the graph mutates), as an
    ``array('d')``: a graph kept for reuse holds 8 bytes per task, not a
    float object.  Each call returns a fresh dict of the cached floats.
    """
    from ..kernel.statics import compile_statics

    kernel = compile_statics(graph, platform)
    ranks = kernel.ranks
    if ranks is None:
        act, alt = platform.average_cycle_time(), platform.average_link_time()
        levels = _levels(
            kernel.topo_ix,
            kernel.succ_rows,
            kernel.edst,
            [w * act for w in kernel.weights],
            [d * alt for d in kernel.edata],
        )
        ranks = kernel.ranks = array("d", levels)
    return dict(zip(kernel.tasks, ranks))


def top_levels(graph: TaskGraph, platform: Platform) -> dict[TaskId, float]:
    """Top levels with the same heterogeneous averaging as bottom levels."""
    return top_levels_from(graph, averaged_weights(graph, platform), averaged_comms(graph, platform))


def critical_path_length(graph: TaskGraph, platform: Platform) -> float:
    """Length of the longest path through the averaged graph.

    Equals the maximum bottom level over entry tasks (and the maximum of
    ``tl(v) + w̄(v)`` over exit tasks).
    """
    bl = bottom_levels(graph, platform)
    return max((bl[v] for v in graph.tasks()), default=0.0)


def critical_path(graph: TaskGraph, platform: Platform) -> list[TaskId]:
    """One maximal-length path, following the highest-bottom-level child.

    Used by CPOP-style heuristics; ties are broken by task insertion
    index so the path is deterministic.
    """
    if graph.num_tasks == 0:
        return []
    bl = bottom_levels(graph, platform)
    edge = averaged_comms(graph, platform)
    index = graph.task_index()
    node = max(graph.entry_tasks(), key=lambda v: (bl[v], -index[v]))
    path = [node]
    while graph.out_degree(node) > 0:
        node = max(
            graph.successors(node),
            key=lambda s: (edge[(node, s)] + bl[s], -index[s]),
        )
        path.append(node)
    return path


def priority_order(
    graph: TaskGraph,
    platform: Platform,
    key: Callable[[TaskId], tuple] | None = None,
) -> list[TaskId]:
    """All tasks sorted by decreasing bottom level (HEFT's priority list).

    The default tie-break is the task insertion index, which makes every
    heuristic built on this order deterministic.  Pass ``key`` to override
    the full sort key (used to reproduce the paper's toy example, which
    fixes a specific tie order).
    """
    if key is None:
        bl = bottom_levels(graph, platform)
        index = graph.task_index()
        key = lambda v: (-bl[v], index[v])  # noqa: E731
    return sorted(graph.tasks(), key=key)
