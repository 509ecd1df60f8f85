"""The compiled EFT engine — ``SchedulerState`` on the cext backend.

:class:`CextSchedulerState` routes every hot operation — parent
resolution, the all-processor candidate sweep with maxpf / frontier /
in-trial pruning, the model bookers' ``trial_est`` / ``commit_est``
fixed points (seed memo included), gap search, commit, whole lists
(:meth:`run_list`: one ``Engine.run_list`` call), and the undo journal
— through one :class:`repro.kernel._cext.Engine` instance: a C struct
of typed arrays with no Python objects in the inner loop.  The engine
also owns the placements and the placement and transfer logs: commits
create no Python objects, ``mark`` / ``restore`` / ``snapshot`` carry
the logs, and :attr:`schedule` is built from them in C when read
(``Engine.records``).  The Python layer keeps only a FlatBuilder-shaped
facade for tests and debugging.

Bit-identity: the C engine transliterates the scalar reference
(``builder.py``, the flat bookers, ``SchedulerState``'s sweep) —
the same IEEE-754 double operations in the same order, the same strict
``(finish, start, proc)`` tie-break, the same guard-tolerance
arithmetic — so schedules match the python backend float for float.
The cross-backend fuzz suite asserts this for every registered
heuristic × flat model × testbed.

Observability: the engine accumulates the booking counters internally
(one C increment instead of a Python dict update per event) and this
wrapper flushes the *deltas* into the active collector after each
committing call — once per list for :meth:`run_list` — so stats-on runs
see the exact counters the python path emits while stats-off runs pay
nothing.  Under :func:`~repro.obs.stage_detail_scope` :meth:`run_list`
takes the per-task reference loop, so the ``stage.*`` timers keep
their meaning.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from time import perf_counter

from ..core.exceptions import SchedulingError
from ..core.schedule import CommEvent, TaskPlacement
from ..kernel import _cext
from ..kernel.cext_backend import engine_statics
from ..obs import stage_detail as _stage_detail
from .base import Candidate, SchedulerState

TaskId = Hashable


def _model_code(model) -> int | None:
    """The engine's booker code for ``model`` (``None`` = no C booker:
    the ``cext`` backend then runs ``model`` on the pure-Python state).

    Exact type match on purpose: the one-port variants subclass and
    *share* ``name = "one-port"``-style metadata, and a user subclass
    overriding a booker hook must not be silently routed to the C
    implementation of its base class.
    """
    from ..models.macro_dataflow import MacroDataflowModel
    from ..models.one_port import OnePortModel
    from ..models.variants import NoOverlapOnePortModel, UniPortModel

    t = type(model)
    if t is OnePortModel:
        return _cext.MODEL_ONE_PORT
    if t is MacroDataflowModel:
        return _cext.MODEL_MACRO
    if t is UniPortModel:
        return _cext.MODEL_UNI_PORT
    if t is NoOverlapOnePortModel:
        return _cext.MODEL_NO_OVERLAP
    return None


class _EngineBuilder:
    """FlatBuilder-shaped read surface over the engine (tests, repr).

    The hot path never goes through this object; it exists so state
    introspection written against ``state.builder`` (fingerprints,
    trial-generation checks, committed-row dumps) works unchanged on
    the compiled backend.
    """

    __slots__ = ("_eng",)

    def __init__(self, eng) -> None:
        self._eng = eng

    @property
    def gen(self) -> int:
        return self._eng.gen

    @property
    def commit_count(self) -> int:
        return self._eng.commit_count

    @property
    def num_rows(self) -> int:
        return self._eng.num_rows

    def fingerprint(self) -> tuple:
        return self._eng.fingerprint()

    def committed(self, r: int) -> list[tuple[float, float]]:
        return self._eng.committed(r)

    def next_fit(self, r: int, ready: float, duration: float) -> float:
        return self._eng.next_fit(r, ready, duration)

    def book(self, r: int, start: float, end: float) -> None:
        self._eng.book(r, start, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        eng = self._eng
        booked = sum(eng.row_len(r) for r in range(eng.num_rows))
        return (
            f"EngineBuilder(rows={eng.num_rows}, intervals={booked}, "
            f"gen={eng.gen})"
        )


class _CextComputeRowView:
    """Timeline-like view over one engine compute row (committed layer)."""

    __slots__ = ("_eng", "_proc")

    def __init__(self, eng, proc: int) -> None:
        self._eng = eng
        self._proc = proc

    def is_empty(self) -> bool:
        return self._eng.row_len(self._proc) == 0

    def last_end(self) -> float:
        return self._eng.last_end(self._proc)

    def intervals(self) -> list[tuple[float, float]]:
        return self._eng.committed(self._proc)

    def next_fit(self, ready: float, duration: float) -> float:
        return self._eng.next_fit(self._proc, ready, duration)

    def next_after_last(self, ready: float) -> float:
        last = self._eng.last_end(self._proc)
        return ready if ready >= last else last

    def reserve(self, start: float, end: float, tag=None) -> None:
        self._eng.book(self._proc, start, end)

    def __len__(self) -> int:
        return self._eng.row_len(self._proc)


class CextSchedulerState(SchedulerState):
    """Scheduler state on the compiled engine (see module docstring)."""

    __slots__ = ("_eng",)

    state_impl_name = "flat-cext"

    def __init__(self, *args, **kwargs) -> None:
        """As :class:`SchedulerState`; :meth:`_init_engine` builds the engine."""
        super().__init__(*args, **kwargs)

    def _init_engine(self) -> None:
        self._eng = eng = _cext.Engine(engine_statics(self.kernel), _model_code(self.model))
        #: No FlatBuilder/booker pair: ``builder`` is the engine's read
        #: facade, so state introspection keeps working.
        self.builder = _EngineBuilder(eng)
        self.booker = None

    # ------------------------------------------------------------------
    # counter drain
    # ------------------------------------------------------------------
    def _flush_counters(self) -> None:
        """Drain engine counter deltas into the active collector.

        The engine accumulates counters in C; draining only at the
        sync points that close out every construction step (commit,
        schedule_on, run_list, restore) keeps the evaluate fast path
        free of per-call stats traffic while every completed run still
        reports exact totals.
        """
        deltas = self._eng.drain_counters()
        if deltas is not None:
            inc = self._stats.inc
            for name, d in deltas.items():
                inc(name, d)

    # ------------------------------------------------------------------
    # EFT engine
    # ------------------------------------------------------------------
    def _parents(self, ti: int) -> list[tuple[float, int, int, int]]:
        return self._eng.parents(ti)

    def parent_procs(self, task: TaskId) -> set[int]:
        return self._eng.parent_procs(self.kernel.intern(task))

    def evaluate(
        self,
        task: TaskId,
        proc: int,
        parents: Sequence[tuple[TaskId, int, float, float]] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        eng = self._eng
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        if parents is None:
            start, finish = eng.evaluate_one(ti, proc, ins)
        else:
            flat = self._flat_parents_from(task, parents)
            start, finish = eng.evaluate_with_parents(ti, proc, ins, flat)
        return Candidate(task, proc, start, finish)

    def evaluate_all(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> list[Candidate]:
        eng = self._eng
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        if procs is not None and not isinstance(procs, (list, tuple, range)):
            procs = list(procs)
        rows = eng.evaluate_all(ti, ins, procs)
        return [Candidate(task, p, s, f) for p, s, f in rows]

    def best_candidate(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        eng = self._eng
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        if procs is not None and not isinstance(procs, (list, tuple, range)):
            procs = list(procs)
        detail = self._stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        res = eng.best_candidate(ti, ins, procs)
        if detail:
            self._stats.add_time("stage.sweep", perf_counter() - t0)
        if res is None:
            raise SchedulingError(f"no candidate processors for task {task!r}")
        proc, start, finish = res
        return Candidate(task, proc, start, finish)

    # ------------------------------------------------------------------
    # commits
    # ------------------------------------------------------------------
    def commit(self, candidate: Candidate) -> None:
        ti = self.kernel.intern(candidate.task)
        detail = self._stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        try:
            self._eng.commit(ti, candidate.proc, candidate.start, candidate.finish)
        finally:
            if detail:
                self._stats.add_time("stage.commit", perf_counter() - t0)
            if self._stats is not None:
                self._flush_counters()

    def run_list(self, order: Iterable[int]) -> list[int]:
        """One ``Engine.run_list`` call: the reference loop in C.

        Under :func:`~repro.obs.stage_detail_scope` the reference loop
        runs instead, so the ``stage.*`` timers keep timing each sweep
        and commit.
        """
        stats = self._stats
        if stats is not None and _stage_detail():
            return super().run_list(order)
        try:
            return self._eng.run_list(order, self.insertion)
        finally:
            if stats is not None:
                self._flush_counters()

    def schedule_on(
        self, task: TaskId, proc: int, insertion: bool | None = None
    ) -> Candidate:
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        try:
            start, finish = self._eng.schedule_on(ti, proc, ins)
        finally:
            if self._stats is not None:
                self._flush_counters()
        return Candidate(task, proc, start, finish)

    def _records(self) -> tuple[dict, list]:
        return self._eng.records(TaskPlacement, CommEvent, self.kernel.tasks)

    # ------------------------------------------------------------------
    # compute-row views
    # ------------------------------------------------------------------
    @property
    def compute(self):
        views = self._compute_views
        if views is None:
            views = self._compute_views = [
                _CextComputeRowView(self._eng, p)
                for p in range(self.platform.num_processors)
            ]
        return views

    # ------------------------------------------------------------------
    # scratch runs and snapshots
    # ------------------------------------------------------------------
    def mark(self):
        return self._eng.mark()

    def restore(self, mark) -> None:
        detail = self._stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        self._eng.rollback(*mark)
        if detail:
            self._stats.add_time("stage.journal", perf_counter() - t0)
        if self._stats is not None:
            self._flush_counters()

    def _copy_engine(self, dup: "CextSchedulerState") -> None:
        dup._eng = self._eng.copy()
        dup.builder = _EngineBuilder(dup._eng)
        dup.booker = None
