"""``KernelBackend.records``: replay's output records on both tiers.

Both backends build ``tuple.__new__(cls, row)`` per row.  The compiled
one leaves a record untracked by the cyclic collector when none of its
fields may be tracked — CPython's own rule for plain tuples, which it
never applies to tuple subclasses — and keeps every other record
tracked, so no reference cycle can hide from the collector.
"""

import gc
import weakref

import pytest

from repro import Platform
from repro.core.schedule import CommEvent, TaskPlacement
from repro.graphs import irregular_testbed, lu_graph
from repro.heuristics import HEFT
from repro.kernel.backends import get_backend, use_backend
from repro.kernel.cext_backend import _cext, cext_available
from repro.simulate import extract_decisions, replay

needs_cext = pytest.mark.skipif(not cext_available(), reason="cext extension not built")
BACKENDS = [pytest.param("python"), pytest.param("cext", marks=needs_cext)]

PLATFORM = Platform.from_groups([(5, 6), (3, 10), (2, 15)])
ROWS = [("a", 0, 0.0, 1.5), (("b", 2), 1, 1.5, 4.0), (7, 2, -0.0, float("inf"))]


class Holder:
    """A task id the collector tracks (any user object)."""


@pytest.mark.parametrize("backend", BACKENDS)
def test_records_equal_tuple_new(backend):
    out = get_backend(backend).records(TaskPlacement, iter(ROWS))
    assert out == [TaskPlacement(*row) for row in ROWS]
    assert all(type(r) is TaskPlacement for r in out)
    assert get_backend(backend).records(CommEvent, ()) == []


@needs_cext
class TestCompiledRecords:
    def test_atomic_records_untracked(self):
        out = _cext.records(TaskPlacement, ROWS)
        assert not any(gc.is_tracked(r) for r in out)

    @pytest.mark.parametrize("task", [Holder(), ["list"], ("tuple", ["list"]), frozenset({1})])
    def test_record_with_trackable_field_stays_tracked(self, task):
        (rec,) = _cext.records(TaskPlacement, [(task, 0, 0.0, 1.0)])
        assert rec.task is task
        assert gc.is_tracked(rec)

    def test_cycle_through_a_record_is_collected(self):
        holder = Holder()
        (holder.rec,) = _cext.records(TaskPlacement, [(holder, 0, 0.0, 1.0)])
        probe = Holder()
        holder.probe = probe
        ref = weakref.ref(probe)
        del holder, probe
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("cls", [int, type("Plain", (tuple,), {})])
    def test_rejects_classes_with_instance_state(self, cls):
        with pytest.raises(TypeError, match="without instance slots"):
            _cext.records(cls, ROWS)

    def test_rejects_non_tuple_rows(self):
        with pytest.raises(TypeError, match="row must be a tuple"):
            _cext.records(TaskPlacement, [list(ROWS[0])])

    def test_row_iterator_error_propagates(self):
        def rows():
            yield ROWS[0]
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            _cext.records(TaskPlacement, rows())


GRAPHS = {"lu": lu_graph(6), "irregular": irregular_testbed(40, seed=3)}


@needs_cext
@pytest.mark.parametrize("name", GRAPHS)
def test_replay_records_match_python_and_are_untracked(name):
    graph = GRAPHS[name]
    decisions = extract_decisions(HEFT().run(graph, PLATFORM, "one-port"))
    with use_backend("python"):
        ref = replay(graph, PLATFORM, decisions)
    with use_backend("cext"):
        gc.collect()  # untracks the graph's own tuple task ids
        out = replay(graph, PLATFORM, decisions)
    assert list(out.placements.items()) == list(ref.placements.items())
    assert out.comm_events == ref.comm_events
    assert out.comm_events, "the plan should have remote transfers"
    assert not any(gc.is_tracked(r) for r in out.placements.values())
    assert not any(gc.is_tracked(r) for r in out.comm_events)
