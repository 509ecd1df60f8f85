"""Move evaluation on the flat kernel: one compiled sweep per preview.

:class:`IncrementalEvaluator` holds the timed constraint DAG of one
decision point in the point form of :class:`~repro.kernel.TimedKernel`
(task ``i`` is node ``i``, the transfer slot of graph edge ``e`` is node
``n + e``; the point itself is two int lists, the allocation and the
global sequence) and answers "what would this move do to the
makespan?" without building the new point.
:meth:`~IncrementalEvaluator.preview` interns the move's
:meth:`~repro.search.neighborhood.Move.edit` — reallocations by task
index, and a reposition as one splice of the int sequence — and asks
the kernel to :meth:`~repro.kernel.TimedKernel.patch` it: one forward
sweep of the edited point in canonical key order (see
:meth:`SearchPoint.key`), compiled under the ``cext`` backend, that
leaves the base state untouched.
:meth:`~IncrementalEvaluator.commit` folds the edit in with
:meth:`~repro.kernel.TimedKernel.apply` and installs the new point.

Contract: for every point and every move, ``preview(move).makespan``
equals the makespan of ``replay(graph, platform, new_point.to_decisions())``
exactly — both compute the component-wise least solution of the same
constraints with the same float operations.  :meth:`cross_check`
asserts this equivalence, and the test suite checks it with ``==`` on
every move of seeded walks, on both kernel tiers.

For debugging and white-box tests, :attr:`~IncrementalEvaluator._start`
and :attr:`~IncrementalEvaluator._finish` expose the kernel state as the
object-level ``("task", v)`` / ``("comm", u, v, 0)`` dictionaries the
pre-kernel implementation stored directly (rebuilt on each access — do
not use them in hot paths).
"""

from __future__ import annotations

from collections.abc import Hashable

from ..core.exceptions import SchedulingError
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..kernel import TimedKernel, compile_statics
from ..obs import current as _obs_current
from ..simulate.replay import replay
from .neighborhood import Edit, Move, apply_edit
from .point import Node, SearchPoint, comm_node, task_node

TaskId = Hashable

#: Tolerance used only by :meth:`IncrementalEvaluator.cross_check`; the
#: incremental and full passes are expected to agree bit-for-bit.
CHECK_TOL = 1e-9


class MovePreview:
    """One evaluated move, ready to commit.

    Holds the move, the previewed makespan and the move's
    :data:`~repro.search.neighborhood.Edit` at the evaluated point, plus
    the kernel form of that edit.  :attr:`point` is built on first
    access: only commits and tests read it.
    """

    __slots__ = ("move", "makespan", "edit", "_base", "_point", "_realloc", "_seq")

    def __init__(
        self,
        move: Move,
        makespan: float,
        edit: Edit,
        base: SearchPoint,
        realloc: list[tuple[int, int]],
        seq: list[int] | None,
    ) -> None:
        self.move = move
        self.makespan = makespan
        self.edit = edit
        self._base = base
        self._point: SearchPoint | None = None
        self._realloc = realloc
        self._seq = seq

    @property
    def point(self) -> SearchPoint:
        """The point the move leads to."""
        if self._point is None:
            self._point = apply_edit(self._base, self.edit)
        return self._point


class IncrementalEvaluator:
    """Cached flat constraint DAG of one decision point (see module docstring)."""

    def __init__(self, graph: TaskGraph, platform: Platform) -> None:
        self.graph = graph
        self.platform = platform
        self._statics = compile_statics(graph, platform)
        self._point: SearchPoint | None = None
        self._kern: TimedKernel | None = None
        self._makespan = 0.0
        # active obs collector, captured once (None = stats off)
        self._stats = _obs_current()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def point(self) -> SearchPoint:
        if self._point is None:
            raise SchedulingError("evaluator has no point loaded")
        return self._point

    @property
    def makespan(self) -> float:
        return self._makespan

    def load(self, point: SearchPoint) -> float:
        """Full build of the timed constraint DAG at ``point``."""
        if self._stats is None:
            return self._load(point)
        with self._stats.span("phase.search.load"):
            return self._load(point)

    def _load(self, point: SearchPoint) -> float:
        kern = TimedKernel.from_point(self._statics, point)
        self._makespan = kern.propagate_order()
        self._kern, self._point = kern, point
        return self._makespan

    def _node_tuple(self, ix: int) -> Node:
        st = self._statics
        if ix < st.num_tasks:
            return task_node(st.tasks[ix])
        u, v = st.edges[ix - st.num_tasks]
        return comm_node(u, v)

    # ------------------------------------------------------------------
    # move evaluation
    # ------------------------------------------------------------------
    def preview(self, move: Move) -> MovePreview:
        """Evaluate ``move`` without touching the base state."""
        point = self.point
        edit = move.edit(point)
        realloc, reposition = edit
        kern = self._kern
        intern = self._statics.intern
        realloc_ix = [(intern(task), proc) for task, proc in realloc]
        seq = None
        if reposition is not None:
            # kern.seq is point.sequence interned, so point.pos indexes it
            task, before = reposition
            seq = kern.seq.copy()
            del seq[point.pos[task]]
            seq.insert(point.pos[before], intern(task))
        ms = kern.patch(realloc_ix, seq)
        if self._stats is not None:
            self._stats.inc("search.previews")
            self._stats.inc("search.patched_nodes", kern.timed_nodes)
        return MovePreview(move, ms, edit, point, realloc_ix, seq)

    def commit(self, preview: MovePreview) -> float:
        """Fold a preview into the base state and install its point."""
        if self._stats is not None:
            self._stats.inc("search.commits")
        self._makespan = self._kern.apply(preview._realloc, preview._seq)
        self._point = preview.point
        return self._makespan

    def critical_path_tasks(self) -> list[TaskId]:
        """Tasks on one scheduled critical chain, latest-finishing first.

        Walks tight predecessors (the first activity, in canonical
        order, whose finish released the node) back from the
        makespan-defining task; deterministic and independent of how
        the point was reached, so seeded searches can bias moves toward
        the chain reproducibly.
        """
        kern = self._kern
        if kern is None:
            return []
        st = self._statics
        n = st.num_tasks
        if n == 0:
            return []
        node = max(range(n), key=kern.finish.__getitem__)
        tight, tasks = kern.tight, st.tasks
        out: list[TaskId] = []
        while node >= 0:
            if node < n:
                out.append(tasks[node])
            node = tight[node]
        return out

    # ------------------------------------------------------------------
    # object-level views (debugging / white-box tests; rebuilt per access)
    # ------------------------------------------------------------------
    def _live_nodes(self):
        kern = self._kern
        st = self._statics
        n = st.num_tasks
        yield from range(n)
        active = kern.active
        for e in range(st.num_edges):
            if active[e]:
                yield n + e

    @property
    def _start(self) -> dict[Node, float]:
        start = self._kern.start
        nt = self._node_tuple
        return {nt(ix): start[ix] for ix in self._live_nodes()}

    @property
    def _finish(self) -> dict[Node, float]:
        finish = self._kern.finish
        nt = self._node_tuple
        return {nt(ix): finish[ix] for ix in self._live_nodes()}

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------
    def schedule(self, heuristic: str = "search") -> Schedule:
        """Full replay of the current point into a real :class:`Schedule`."""
        return replay(
            self.graph,
            self.platform,
            self.point.to_decisions(self.platform.processors),
            heuristic=heuristic,
        )

    def cross_check(self) -> Schedule:
        """Assert the incremental state agrees with a full :func:`replay`."""
        sched = self.schedule()
        kern = self._kern
        st = self._statics
        for ix, v in enumerate(st.tasks):
            if abs(sched.start_of(v) - kern.start[ix]) > CHECK_TOL:
                raise SchedulingError(
                    f"incremental drift on task {v!r}: "
                    f"{kern.start[ix]} != replay {sched.start_of(v)}"
                )
        if abs(sched.makespan() - self._makespan) > CHECK_TOL:
            raise SchedulingError(
                f"incremental makespan {self._makespan} != replay {sched.makespan()}"
            )
        return sched
