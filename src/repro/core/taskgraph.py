"""Directed acyclic task graphs with computation and communication costs.

This module implements the application model of the paper (Section 2.1):
a directed vertex-weighted edge-weighted acyclic graph ``G = (V, E, w, c)``
where ``w(v)`` is the number of computation cycles of task ``v`` and
``data(u, v)`` is the number of data items sent from ``u`` to ``v`` once
``u`` completes.

The graph lives in three insertion-ordered dicts: task weights, one
``{dst: data}`` row per source task and one predecessor list per task.
Iteration follows :class:`networkx.DiGraph`'s orders exactly — tasks by
insertion, edges by source insertion and then by edge insertion within
each source — so kernel edge indices, tie-breaks and serialized graphs
are the same as a networkx-backed graph would give.  networkx itself is
optional: :class:`TaskGraph` accepts a ``DiGraph`` and
:meth:`TaskGraph.to_networkx` builds one, importing networkx only then.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any, NamedTuple

from .exceptions import GraphError

#: Node attribute storing the computation cost of a task (networkx interop).
WEIGHT_KEY = "weight"
#: Edge attribute storing the communication volume of a dependence.
DATA_KEY = "data"

TaskId = Hashable


def _checked_weight(task: TaskId, weight: float) -> float:
    weight = float(weight)
    if not 0.0 <= weight < math.inf:  # NaN fails both comparisons
        raise GraphError(f"task {task!r}: weight must be finite and >= 0, got {weight}")
    return weight


def _checked_data(src: TaskId, dst: TaskId, data: float) -> float:
    data = float(data)
    if not 0.0 <= data < math.inf:
        raise GraphError(f"edge {src!r}->{dst!r}: data must be finite and >= 0, got {data}")
    return data


class GraphMaps(NamedTuple):
    """Plain-dict snapshot of a task graph for tight scheduling loops.

    Heuristics iterate over parents/children of thousands of tasks, so
    :meth:`TaskGraph.as_maps` exposes the graph as flat dictionaries
    (tuple neighbour lists, ``(src, dst)``-keyed volumes) built once and
    invalidated on mutation.
    """

    weight: dict[TaskId, float]
    data: dict[tuple[TaskId, TaskId], float]
    preds: dict[TaskId, tuple[TaskId, ...]]
    succs: dict[TaskId, tuple[TaskId, ...]]
    index: dict[TaskId, int]

    def succ_csr(self) -> tuple[list[list[int]], list[int]]:
        """Interned out-edges: ``(succ_rows, edst)``.

        Tasks are interned by :attr:`index` and edges by :attr:`data`
        order, as in :class:`~repro.kernel.statics.KernelStatics`:
        ``succ_rows[i]`` lists the edges leaving task ``i`` (in
        successor order) and ``edst[e]`` is the target of edge ``e``.
        """
        index = self.index
        succ_rows: list[list[int]] = [[] for _ in index]
        edst = []
        for e, (u, v) in enumerate(self.data):
            succ_rows[index[u]].append(e)
            edst.append(index[v])
        return succ_rows, edst


class TaskGraph:
    """A weighted DAG of tasks.

    Parameters
    ----------
    graph:
        Optional existing :class:`networkx.DiGraph` (or anything with its
        ``nodes(data=True)`` / ``edges(data=True)`` views) whose nodes
        carry a ``weight`` attribute and whose edges carry a ``data``
        attribute.  Its tasks and edges are copied in through
        :meth:`add_task` and :meth:`add_dependency`.
    name:
        Optional human-readable name (testbed generators set this).

    Notes
    -----
    * Task identifiers may be any hashable object; generators in
      :mod:`repro.graphs` use strings or tuples.
    * Weights and data volumes must be non-negative finite numbers, on
      construction and on every later ``set_*``/``scale_data`` call.
      Zero-weight tasks are allowed — the COMM-SCHED reduction of the
      paper's appendix uses them.
    * The graph must be acyclic.  :meth:`validate` and
      :meth:`topological_order` check it in one pass whose result is
      cached until the next mutation.
    """

    __slots__ = ("_weight", "_succ", "_pred", "_name", "_topo", "_maps", "_kernel_cache")

    def __init__(self, graph: Any = None, name: str = "taskgraph"):
        #: ``task -> weight``; its key order is the task insertion order.
        self._weight: dict[TaskId, float] = {}
        #: ``src -> {dst: data}``, each row in edge insertion order.
        self._succ: dict[TaskId, dict[TaskId, float]] = {}
        #: ``dst -> [src, ...]`` in the order the edges into ``dst`` came.
        self._pred: dict[TaskId, list[TaskId]] = {}
        self._name = name
        self._topo: tuple[TaskId, ...] | None = None
        self._maps: GraphMaps | None = None
        #: Per-platform :class:`repro.kernel.KernelStatics` cache, owned
        #: by :func:`repro.kernel.compile_statics`; cleared on mutation.
        self._kernel_cache: dict | None = None
        if graph is not None:
            for node, attrs in graph.nodes(data=True):
                self.add_task(node, attrs.get(WEIGHT_KEY, 1.0))
            for u, v, attrs in graph.edges(data=True):
                self.add_dependency(u, v, attrs.get(DATA_KEY, 0.0))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: TaskId, weight: float = 1.0) -> TaskId:
        """Add a task with computation cost ``weight``; returns the id."""
        weight = _checked_weight(task, weight)
        if task in self._weight:
            raise GraphError(f"duplicate task id {task!r}")
        self._weight[task] = weight
        self._succ[task] = {}
        self._pred[task] = []
        self._invalidate()
        return task

    def add_dependency(self, src: TaskId, dst: TaskId, data: float = 0.0) -> None:
        """Add a precedence edge ``src -> dst`` carrying ``data`` items."""
        data = _checked_data(src, dst, data)
        for node in (src, dst):
            if node not in self._weight:
                raise GraphError(f"unknown task {node!r} in edge {src!r}->{dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on task {src!r}")
        row = self._succ[src]
        if dst in row:
            raise GraphError(f"duplicate edge {src!r}->{dst!r}")
        row[dst] = data
        self._pred[dst].append(src)
        self._invalidate()

    def set_weight(self, task: TaskId, weight: float) -> None:
        """Replace the computation cost of ``task``."""
        if task not in self._weight:
            raise GraphError(f"unknown task {task!r}")
        self._weight[task] = _checked_weight(task, weight)
        self._invalidate()

    def set_data(self, src: TaskId, dst: TaskId, data: float) -> None:
        """Replace the communication volume of edge ``src -> dst``."""
        row = self._succ.get(src)
        if row is None or dst not in row:
            raise GraphError(f"unknown edge {src!r}->{dst!r}")
        row[dst] = _checked_data(src, dst, data)
        self._invalidate()

    def scale_data(self, factor: float) -> "TaskGraph":
        """Multiply every edge's data volume by ``factor`` (in place)."""
        factor = float(factor)
        if not 0.0 <= factor < math.inf:
            raise GraphError(f"scale factor must be finite and >= 0, got {factor}")
        for row in self._succ.values():
            for v in row:
                row[v] *= factor
        self._invalidate()
        return self

    def _invalidate(self) -> None:
        self._topo = None
        self._maps = None
        self._kernel_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_tasks(self) -> int:
        return len(self._weight)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def __len__(self) -> int:
        return len(self._weight)

    def __contains__(self, task: TaskId) -> bool:
        return task in self._weight

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._weight)

    def tasks(self) -> Iterator[TaskId]:
        """Iterate over task identifiers (insertion order)."""
        return iter(self._weight)

    def edges(self) -> Iterator[tuple[TaskId, TaskId]]:
        """Iterate over dependence edges: by source, then by insertion."""
        return ((u, v) for u, row in self._succ.items() for v in row)

    def weight(self, task: TaskId) -> float:
        """Computation cost ``w(task)``."""
        try:
            return self._weight[task]
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def data(self, src: TaskId, dst: TaskId) -> float:
        """Communication volume ``data(src, dst)``."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise GraphError(f"unknown edge {src!r}->{dst!r}") from None

    def has_edge(self, src: TaskId, dst: TaskId) -> bool:
        return dst in self._succ.get(src, ())

    def _adjacent(self, table: dict, task: TaskId):
        try:
            return table[task]
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def predecessors(self, task: TaskId) -> list[TaskId]:
        """Immediate predecessors (parents) of ``task``, in edge insertion order."""
        return list(self._adjacent(self._pred, task))

    def successors(self, task: TaskId) -> list[TaskId]:
        """Immediate successors (children) of ``task``, in edge insertion order."""
        return list(self._adjacent(self._succ, task))

    def in_degree(self, task: TaskId) -> int:
        return len(self._adjacent(self._pred, task))

    def out_degree(self, task: TaskId) -> int:
        return len(self._adjacent(self._succ, task))

    def entry_tasks(self) -> list[TaskId]:
        """Tasks with no predecessor, in insertion order."""
        return [v for v, preds in self._pred.items() if not preds]

    def exit_tasks(self) -> list[TaskId]:
        """Tasks with no successor, in insertion order."""
        return [u for u, row in self._succ.items() if not row]

    def total_weight(self) -> float:
        """Sum of all task weights (the paper's ``W`` for the whole graph).

        Summed left to right from 0.0: built-in ``sum()`` compensates its
        rounding from Python 3.12 on, which would move this float, and
        every lower bound and speedup built on it, between versions.
        """
        total = 0.0
        for w in self._weight.values():
            total += w
        return total

    def total_data(self) -> float:
        """Sum of all edge data volumes."""
        return sum(d for row in self._succ.values() for d in row.values())

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`GraphError` unless the graph is a DAG.

        This is the cached :meth:`topological_order` pass, so it is free
        from its first call until the next mutation.
        """
        self.topological_order()

    def topological_order(self) -> tuple[TaskId, ...]:
        """A deterministic topological order (cached).

        Kahn's algorithm that always takes the ready task of least
        insertion index — networkx's ``lexicographical_topological_sort``
        keyed on insertion index — so repeated calls, and every heuristic
        built on top, are deterministic regardless of hash randomization.
        Raises :class:`GraphError` naming the tasks of a cycle if any.
        """
        if self._topo is None:
            tasks = list(self._weight)
            index = self.as_maps().index
            indeg = [len(preds) for preds in self._pred.values()]
            ready = [i for i, d in enumerate(indeg) if not d]  # sorted: a heap
            order = []
            while ready:
                v = tasks[heapq.heappop(ready)]
                order.append(v)
                for w in self._succ[v]:
                    j = index[w]
                    indeg[j] -= 1
                    if not indeg[j]:
                        heapq.heappush(ready, j)
            if len(order) < len(tasks):
                raise GraphError(f"task graph contains a cycle: {self._cycle(indeg)}")
            self._topo = tuple(order)
        return self._topo

    def _cycle(self, indeg: list[int]) -> str:
        """One cycle among the tasks a Kahn pass left with ``indeg > 0``.

        Each such task has a predecessor among them, so walking
        predecessors from the first one must revisit a task.
        """
        stuck = {v for v, d in zip(self._weight, indeg) if d}
        walk: dict[TaskId, int] = {}
        v = next(v for v in self._weight if v in stuck)
        while v not in walk:
            walk[v] = len(walk)
            v = next(p for p in self._pred[v] if p in stuck)
        cycle = list(walk)[walk[v]:][::-1]
        return " -> ".join(map(repr, cycle + cycle[:1]))

    def task_index(self) -> Mapping[TaskId, int]:
        """Stable integer index of each task (insertion order); cached."""
        return self.as_maps().index

    def as_maps(self) -> GraphMaps:
        """Flat-dict snapshot for tight loops (cached; see :class:`GraphMaps`)."""
        if self._maps is None:
            self._maps = GraphMaps(
                weight=dict(self._weight),
                data={(u, v): d for u, row in self._succ.items() for v, d in row.items()},
                preds={v: tuple(preds) for v, preds in self._pred.items()},
                succs={u: tuple(row) for u, row in self._succ.items()},
                index={v: i for i, v in enumerate(self._weight)},
            )
        return self._maps

    def levels(self) -> list[list[TaskId]]:
        """Iso-levels: groups of tasks sharing the same *depth*.

        The depth of a task is the length (in edges) of the longest path
        from any entry task.  This is the "same top-level" level
        decomposition used by the first version of ILHA (Section 4.2):
        level 0 holds the entry tasks, level ``i+1`` the tasks that become
        ready once level ``i`` completes.
        """
        depth: dict[TaskId, int] = {}
        for v in self.topological_order():
            preds = self._pred[v]
            depth[v] = 0 if not preds else 1 + max(depth[p] for p in preds)
        if not depth:
            return []
        buckets: list[list[TaskId]] = [[] for _ in range(max(depth.values()) + 1)]
        for v in self.topological_order():
            buckets[depth[v]].append(v)
        return buckets

    # ------------------------------------------------------------------
    # interoperability
    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """A new :class:`networkx.DiGraph` holding this graph, in its orders.

        Nodes carry a ``weight`` and edges a ``data`` attribute.  networkx
        is imported here, so only callers of this method need it.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from((v, {WEIGHT_KEY: w}) for v, w in self._weight.items())
        g.add_edges_from(
            (u, v, {DATA_KEY: d}) for u, row in self._succ.items() for v, d in row.items()
        )
        return g

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible serialization (ids converted to strings)."""
        return {
            "name": self._name,
            "tasks": [{"id": repr(v), "weight": w} for v, w in self._weight.items()],
            "edges": [
                {"src": repr(u), "dst": repr(v), "data": d}
                for u, row in self._succ.items()
                for v, d in row.items()
            ],
        }

    @classmethod
    def from_specs(
        cls,
        tasks: Iterable[tuple[TaskId, float]],
        edges: Iterable[tuple[TaskId, TaskId, float]],
        name: str = "taskgraph",
    ) -> "TaskGraph":
        """Build a graph from ``(id, weight)`` and ``(src, dst, data)`` specs."""
        g = cls(name=name)
        for task, weight in tasks:
            g.add_task(task, weight)
        for src, dst, data in edges:
            g.add_dependency(src, dst, data)
        g.validate()
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph(name={self._name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges}, total_weight={self.total_weight():g})"
        )
