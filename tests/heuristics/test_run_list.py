"""Whole-list construction: ``run_list``, the int ready queue, the
cached ranks and the schedule built from the commit logs.

``SchedulerState.run_list`` is the list heuristics' reference loop on
the python tier and one ``Engine.run_list`` call under cext.  Both must
fail the same way: each error case below raises the same exception type
on both tiers and leaves equal committed rows and equal schedules.
"""

import gc

import pytest

from repro import Platform
from repro.core import SchedulingError
from repro.core.exceptions import PlatformError
from repro.core.ranking import bottom_levels
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import get_scheduler
from repro.heuristics.base import ReadyQueue, SchedulerState
from repro.kernel import compile_statics
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.models import OnePortModel
from repro.obs import collect

needs_cext = pytest.mark.skipif(not cext_available(), reason="cext extension not built")
BACKENDS = ["python", pytest.param("cext", marks=needs_cext)]


def _paper() -> Platform:
    return Platform.from_groups([(5, 6), (3, 10), (2, 15)])


def _state(backend, graph, platform):
    with use_backend(backend):
        state = SchedulerState(graph, platform, OnePortModel(platform))
    assert state.schedule.state_impl == f"flat-{backend}"
    return state


def _observed(state):
    schedule = state.schedule
    return (
        state.builder.fingerprint(),
        state.builder.commit_count,
        list(schedule.placements.items()),
        list(schedule.comm_events),
    )


class TestPlacedTwice:
    """A placed task is refused before anything is booked."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schedule_on_refuses_a_placed_task(self, backend):
        graph = lu_graph(4)
        state = _state(backend, graph, _paper())
        task = next(iter(graph.tasks()))
        state.schedule_on(task, 0)
        before = _observed(state)
        with pytest.raises(SchedulingError, match="placed twice"):
            state.schedule_on(task, 1)
        assert _observed(state) == before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_commit_refuses_a_placed_task(self, backend):
        graph = lu_graph(4)
        state = _state(backend, graph, _paper())
        task = next(iter(graph.tasks()))
        state.schedule_on(task, 0)
        before = _observed(state)
        with pytest.raises(SchedulingError, match="placed twice"):
            state.commit(state.best_candidate(task))
        assert _observed(state) == before


def _ring4() -> Platform:
    inf = float("inf")
    links = [[0.0 if i == j else (1.0 if (j - i) % 4 in (1, 3) else inf) for j in range(4)]
             for i in range(4)]
    return Platform([1.0, 2.0, 3.0, 4.0], links)


def _error_cases():
    """Orders over lu_graph(5) that fail after three commits."""
    graph = lu_graph(5)
    topo = [graph.task_index()[v] for v in graph.topological_order()]
    return graph, {
        "repeated task": (topo[:3] + topo[1:2] + topo[3:], SchedulingError),
        "index out of range": (topo[:3] + [graph.num_tasks], IndexError),
        "negative index": (topo[:3] + [-1], IndexError),
        "task before its parent": (topo[:3] + topo[-1:], SchedulingError),
    }


class TestRunListErrors:
    @needs_cext
    @pytest.mark.parametrize("case", sorted(_error_cases()[1]))
    def test_both_tiers_fail_alike(self, case):
        graph, cases = _error_cases()
        order, exc = cases[case]
        observed = []
        for backend in ("python", "cext"):
            state = _state(backend, graph, _paper())
            with pytest.raises(exc):
                state.run_list(order)
            observed.append(_observed(state))
            assert len(observed[-1][2]) == 3
        assert observed[0] == observed[1]

    @needs_cext
    def test_missing_link_fails_alike(self):
        """A 4-processor ring under one-port: HEFT commits its entry task,
        then a probe over a missing link raises PlatformError."""
        graph, ring = lu_graph(5), _ring4()
        bl = bottom_levels(graph, ring)
        observed = []
        for backend in ("python", "cext"):
            state = _state(backend, graph, ring)
            queue = ReadyQueue(graph, lambda v: -bl[v], state.kernel)
            with pytest.raises(PlatformError, match="no direct link"):
                state.run_list(queue.order())
            observed.append(_observed(state))
            assert len(observed[-1][2]) == 1
        assert observed[0] == observed[1]
        with use_backend("cext"), pytest.raises(PlatformError):
            get_scheduler("heft").run(graph, ring, "one-port")


class TestRunList:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_the_per_task_loop(self, backend):
        graph = irregular_testbed(80, seed=4)
        bl = bottom_levels(graph, _paper())
        key = lambda v: (-bl[v],)  # noqa: E731
        listed = _state(backend, graph, _paper())
        procs = listed.run_list(ReadyQueue(graph, key, listed.kernel).order())
        looped = _state(backend, graph, _paper())
        queue = ReadyQueue(graph, key)
        chosen = []
        while queue:
            task = queue.pop()
            best = looped.best_candidate(task)
            looped.commit(best)
            chosen.append(best.proc)
            queue.complete(task)
        assert procs == chosen
        assert _observed(listed) == _observed(looped)

    @pytest.mark.parametrize("name", ["heft", "ilha", "pct"])
    def test_counters_agree_across_tiers(self, name):
        """One drain after the whole list gives the per-task totals."""
        if not cext_available():
            pytest.skip("cext extension not built")
        graph = layered_testbed(8, seed=3)
        counters = []
        for backend in ("python", "cext"):
            with use_backend(backend), collect() as stats:
                get_scheduler(name).run(graph, _paper(), "one-port")
            counters.append({k: v for k, v in stats.counters.items()
                             if k.startswith(("builder.", "oneport."))})
        assert counters[0] == counters[1]
        assert counters[0]["builder.commits"] == graph.num_tasks


class TestReadyQueue:
    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_chunks_match_pop_and_complete(self, size):
        graph = layered_testbed(7, seed=1)
        bl = bottom_levels(graph, _paper())
        key = lambda v: (-bl[v],)  # noqa: E731
        queue = ReadyQueue(graph, key)
        index = graph.task_index()
        popped = []
        while queue:
            chunk = queue.pop_chunk(size)
            popped.append([index[t] for t in chunk])
            for task in chunk:
                queue.complete(task)
        kernel = compile_statics(graph, _paper())
        assert ReadyQueue(graph, key, kernel).chunks(size) == popped
        assert ReadyQueue(graph, key).chunks(size) == popped
        if size == 1:
            assert ReadyQueue(graph, key, kernel).order() == [c[0] for c in popped]


class TestRanks:
    def test_computed_once_per_graph_and_platform(self):
        graph, platform = irregular_testbed(50, seed=2), _paper()
        first = bottom_levels(graph, platform)
        kernel = compile_statics(graph, platform)
        cached = kernel.ranks
        assert cached is not None
        second = bottom_levels(graph, platform)
        assert second == first and second is not first
        assert kernel.ranks is cached
        first[next(iter(first))] = -1.0  # callers own the dict they get
        assert bottom_levels(graph, platform) == second

    def test_graph_mutation_drops_the_ranks(self):
        graph, platform = irregular_testbed(50, seed=2), _paper()
        before = bottom_levels(graph, platform)
        task = next(iter(graph.tasks()))
        graph.set_weight(task, graph.weight(task) + 5.0)
        after = bottom_levels(graph, platform)
        assert after[task] == before[task] + 5.0 * platform.average_cycle_time()


class TestScheduleFromLogs:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mark_restore_truncates_the_logs(self, backend):
        graph = lu_graph(5)
        state = _state(backend, graph, _paper())
        order = [graph.task_index()[v] for v in graph.topological_order()]
        state.run_list(order[:4])
        before = _observed(state)
        mark = state.mark()
        state.run_list(order[4:9])
        assert len(state.schedule.placements) == 9
        state.restore(mark)
        # commit_count is a monotone epoch: a rollback advances it too
        assert _observed(state)[::2] == before[::2]
        assert _observed(state)[3] == before[3]
        state.run_list(order[4:])
        assert state.schedule.is_complete()

    @needs_cext
    def test_records_with_atomic_fields_are_untracked(self):
        graph = irregular_testbed(30, seed=1)
        with use_backend("cext"):
            schedule = get_scheduler("heft").run(graph, _paper(), "one-port")
        assert schedule.comm_events
        assert not any(gc.is_tracked(p) for p in schedule.placements.values())
        assert not any(gc.is_tracked(e) for e in schedule.comm_events)
