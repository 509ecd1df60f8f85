"""Static flat arrays of one (graph, platform) pair — the kernel's interning layer.

:class:`KernelStatics` freezes everything about a scheduling instance
that does not depend on decisions into contiguous, integer-indexed
structures:

* **task interning** — task ids map to ``0 .. n-1`` in graph insertion
  order (the same order as :meth:`TaskGraph.task_index`), with the
  inverse in :attr:`tasks`;
* **edge interning** — graph edges map to ``0 .. E-1`` in
  :meth:`TaskGraph.edges` order (by source task, then by edge insertion
  within each source), with int endpoints in :attr:`esrc` /
  :attr:`edst` and volumes in :attr:`edata`;
* **CSR adjacency** — :attr:`pred_ptr` / :attr:`pred_eix` (and the
  ``succ_*`` mirror) store, for each task, the *edge indices* of its
  incoming (outgoing) edges contiguously, so one index hop reaches both
  the neighbor task and the edge's data volume;
* **cost tables** — :attr:`exec_` is the ``n x p`` execution-time table
  (``weight[i] * cycle_time[q]``) and :attr:`link_rows` the ``p x p``
  per-item link matrix; ``link_rows`` is the platform's own table of
  nested tuples, so a platform cannot be mutated out from under a
  compiled statics.

Statics are cached per (graph, platform) on the graph itself (see
:func:`compile_statics`) and invalidated on graph mutation, so replay,
the incremental evaluator, and the list heuristics all share one
compilation.  The Section 4.1 bottom levels (:attr:`KernelStatics.ranks`)
are cached alongside on first use, so HEFT, ILHA and PCT on one
(graph, platform) pair rank it once.
"""

from __future__ import annotations

import math
from collections.abc import Hashable

from ..core.exceptions import PlatformError
from ..core.platform import Platform
from ..core.taskgraph import TaskGraph

TaskId = Hashable


class KernelStatics:
    """Interned flat view of one (graph, platform) pair (immutable)."""

    __slots__ = (
        "graph",
        "platform",
        "num_tasks",
        "num_edges",
        "num_procs",
        "num_nodes",
        "tasks",
        "tindex",
        "tid_index",
        "weights",
        "edges",
        "eindex",
        "esrc",
        "edst",
        "edata",
        "all_links_finite",
        "pred_ptr",
        "pred_eix",
        "succ_ptr",
        "succ_eix",
        "succ_rows",
        "pred_rows",
        "hop0_node",
        "topo_ix",
        "base_indeg",
        "base_entries",
        "exec_",
        "link_rows",
        "ranks",
        "_cext",
    )

    def __init__(self, graph: TaskGraph, platform: Platform) -> None:
        maps = graph.as_maps()
        self.graph = graph
        self.platform = platform

        # -- task interning (graph insertion order, = maps.index) ------
        self.tasks: list[TaskId] = list(maps.index)
        self.tindex: dict[TaskId, int] = dict(maps.index)
        #: Identity-keyed mirror of :attr:`tindex`.  Decision structures
        #: built from a schedule reference the graph's own task objects,
        #: so hot loops can intern by ``id()`` (int hash) instead of
        #: re-hashing arbitrary task ids; a miss falls back to
        #: :attr:`tindex`.  Keys stay valid because :attr:`tasks` keeps
        #: every object alive for the statics' lifetime.
        self.tid_index: dict[int, int] = {id(v): i for i, v in enumerate(self.tasks)}
        tindex = self.tindex
        n = len(self.tasks)
        self.num_tasks = n
        self.weights: list[float] = [maps.weight[v] for v in self.tasks]

        # -- edge interning (by source, then edge insertion) -----------
        self.edges: list[tuple[TaskId, TaskId]] = list(maps.data)
        self.eindex: dict[tuple[TaskId, TaskId], int] = {
            e: i for i, e in enumerate(self.edges)
        }
        self.esrc: list[int] = [tindex[u] for u, _ in self.edges]
        self.edst: list[int] = [tindex[v] for _, v in self.edges]
        self.edata: list[float] = [maps.data[e] for e in self.edges]
        m = len(self.edges)
        self.num_edges = m
        #: Constraint-DAG node universe: tasks ``0..n-1`` then one fixed
        #: transfer slot per edge at ``n + e`` (active only while remote).
        self.num_nodes = n + m

        # -- CSR adjacency over edge indices ----------------------------
        indeg = [0] * n
        outdeg = [0] * n
        for e in range(m):
            outdeg[self.esrc[e]] += 1
            indeg[self.edst[e]] += 1
        self.pred_ptr = self._ptr(indeg)
        self.succ_ptr = self._ptr(outdeg)
        pred_fill = list(self.pred_ptr)
        succ_fill = list(self.succ_ptr)
        self.pred_eix = [0] * m
        self.succ_eix = [0] * m
        for e in range(m):
            u, v = self.esrc[e], self.edst[e]
            self.succ_eix[succ_fill[u]] = e
            succ_fill[u] += 1
            self.pred_eix[pred_fill[v]] = e
            pred_fill[v] += 1

        #: Row views of the CSR arrays: ``succ_rows[i]`` / ``pred_rows[i]``
        #: are the edge indices leaving / entering task ``i``.  Built once
        #: so hot loops iterate plain lists with no per-call slicing.
        self.succ_rows: list[list[int]] = [
            self.succ_eix[self.succ_ptr[i] : self.succ_ptr[i + 1]] for i in range(n)
        ]
        self.pred_rows: list[list[int]] = [
            self.pred_eix[self.pred_ptr[i] : self.pred_ptr[i + 1]] for i in range(n)
        ]
        #: Direct-transfer lookup: ``(src, dst, 0)`` -> transfer-slot node
        #: index ``n + e`` (exactly the hop keys the one-port model books).
        self.hop0_node: dict[tuple, int] = {
            (u, v, 0): n + e for e, (u, v) in enumerate(self.edges)
        }

        #: The graph's deterministic topological order, interned.
        self.topo_ix: list[int] = [tindex[v] for v in graph.topological_order()]
        #: Precedence in-degree per task.  Each graph edge contributes
        #: exactly one constraint predecessor to its consumer — the
        #: source task when local, the transfer slot when remote — so
        #: this is the constraint-DAG in-degree before order edges.
        self.base_indeg: list[int] = indeg
        #: Entry tasks (no precedence predecessor): the only candidates
        #: for in-degree zero once order edges are added.
        self.base_entries: list[int] = [i for i in range(n) if not indeg[i]]

        # -- cost tables -------------------------------------------------
        cts = platform.cycle_times
        self.num_procs = platform.num_processors
        self.exec_: list[list[float]] = [
            [w * t for t in cts] for w in self.weights
        ]
        self.link_rows: tuple[tuple[float, ...], ...] = platform.link_rows()
        #: True when every link is finite: hot loops skip the per-edge
        #: ``isfinite`` guard that partially connected platforms need.
        self.all_links_finite: bool = platform.is_fully_connected()
        #: Section 4.1 bottom levels per task index (an ``array('d')``),
        #: computed on first use by :func:`repro.core.ranking.bottom_levels`
        #: and shared by every heuristic run on this (graph, platform) pair.
        self.ranks = None
        #: Lazily-built flattened mirror for the compiled backend (see
        #: :func:`repro.kernel.cext_backend.engine_statics`).
        self._cext = None

    @staticmethod
    def _ptr(degrees: list[int]) -> list[int]:
        ptr = [0] * (len(degrees) + 1)
        for i, d in enumerate(degrees):
            ptr[i + 1] = ptr[i] + d
        return ptr

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, task: TaskId) -> int:
        """Kernel index of ``task``: identity fast path, equality fallback.

        The ``id()`` lookup is valid because :attr:`tasks` keeps every
        task object alive for the statics' lifetime; callers holding the
        graph's own task objects (schedules, decisions, points) hit it
        without re-hashing arbitrary ids.  Hot loops that intern whole
        rows may inline the same two-step pattern — keep any copy
        faithful to this method.
        """
        i = self.tid_index.get(id(task))
        if i is None:
            i = self.tindex[task]
        return i

    # ------------------------------------------------------------------
    # derived costs
    # ------------------------------------------------------------------
    def comm_dur(self, e: int, src_proc: int, dst_proc: int) -> float:
        """Transfer time of edge ``e`` between two processors.

        Matches :meth:`Platform.comm_time`: zero when co-located, raises
        :class:`PlatformError` when the processors are not directly
        linked (the routed model handles those — outside the kernel).
        """
        if src_proc == dst_proc:
            return 0.0
        cost = self.link_rows[src_proc][dst_proc]
        if not math.isfinite(cost):
            raise PlatformError(f"no direct link from P{src_proc} to P{dst_proc}")
        return self.edata[e] * cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelStatics(tasks={self.num_tasks}, edges={self.num_edges}, "
            f"procs={self.num_procs})"
        )


def compile_statics(graph: TaskGraph, platform: Platform) -> KernelStatics:
    """The cached :class:`KernelStatics` of ``(graph, platform)``.

    The cache lives on the graph (cleared when the graph mutates) and is
    keyed by platform identity — platforms are immutable, so one entry
    per distinct platform object ever paired with the graph.
    """
    cache = graph._kernel_cache
    if cache is None:
        cache = graph._kernel_cache = {}
    statics = cache.get(platform)
    if statics is None:
        statics = cache[platform] = KernelStatics(graph, platform)
    return statics
