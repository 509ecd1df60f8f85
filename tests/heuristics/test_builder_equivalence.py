"""Flat construction vs the frozen object reference: bit-identical schedules.

The acceptance property of the builder layer: for every registered
heuristic x model x testbed, running the heuristic through
``SchedulerState`` produces *bit-identical* schedules (placements and
communication events, exact float equality — no tolerance) to the
object-level implementation the flat path replaced.  That
implementation (one ``Timeline`` per resource and a ``TimelineOverlay``
trial per candidate) is no longer in the package; its verdicts were
frozen before it went.  ``object_digests.json`` holds, per case, the
SHA-256 of the object path's schedule (see :func:`schedule_digest`) and
its makespan; every case here recomputes the digest on the active
kernel backend and must match.

Cases: the heuristic matrix on the paper platform and on the
``skewed-links`` platform (asymmetric, non-dyadic link costs — where
per-destination transfer durations differ), the routed model on three
sparse topologies, the singletons below, and the slow 1000-task fuzz.

Also here: the no-trace property (rejected candidates leave the flat
state untouched) and the booker-rebinding and missing-link regressions.
"""

import functools
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro import HEFT, ILHA, Platform
from repro.graphs import (
    fork_join_graph,
    irregular_testbed,
    layered_testbed,
    lu_graph,
    toy_graph,
)
from repro.heuristics import available_schedulers, get_scheduler
from repro.heuristics.base import SchedulerState
from repro.models import (
    MacroDataflowModel,
    NoOverlapOnePortModel,
    OnePortModel,
    RoutedOnePortModel,
    UniPortModel,
    make_model,
)
from platforms import OTHER_PLATFORMS

TESTBEDS = {
    "lu": lambda: lu_graph(8),
    "layered": lambda: layered_testbed(5, seed=7),
    "irregular": lambda: irregular_testbed(40, seed=3),
}

#: Constructor overrides for schedulers that need arguments; ``None``
#: marks schedulers excluded from the sweep (fixed needs a per-graph
#: allocation and is exercised separately below; ils improves through
#: replay, not through SchedulerState, and multiplies runtime).
SCHEDULER_KWARGS = {
    "fixed": None,
    "ils": None,
    "ilha": {"b": 4, "single_comm_scan": True, "reschedule": True},
}

SWEPT = [n for n in available_schedulers() if SCHEDULER_KWARGS.get(n, {}) is not None]

MODELS = ["one-port", "macro-dataflow", "uni-port", "no-overlap"]


def _paper() -> Platform:
    """Section 5.2: 5x t=6, 3x t=10, 2x t=15 on a unit network."""
    return Platform.from_groups([(5, 6), (3, 10), (2, 15)])


def _sparse(cycle_times: list[float], links: dict[tuple[int, int], float]) -> Platform:
    p = len(cycle_times)
    return Platform(
        cycle_times,
        [[0.0 if i == j else links.get((i, j), math.inf) for j in range(p)] for i in range(p)],
    )


#: Routed-model topologies: every multi-hop pair relays store-and-forward.
SPARSE = {
    # ring whose two directions cost differently on every link
    "ring5": lambda: _sparse(
        [6.0, 10.0, 15.0, 6.0, 10.0],
        {(i, (i + 1) % 5): 0.5 + 0.35 * i for i in range(5)}
        | {((i + 1) % 5, i): 1.2 - 0.15 * i for i in range(5)},
    ),
    "line4": lambda: _sparse(
        [4.0, 9.0, 9.0, 4.0],
        {(i, i + 1): 1.25 for i in range(3)} | {(i + 1, i): 1.25 for i in range(3)},
    ),
    "star6": lambda: _sparse(
        [6.0, 6.0, 10.0, 10.0, 15.0, 15.0],
        {(0, i): 0.75 for i in range(1, 6)} | {(i, 0): 1.1 for i in range(1, 6)},
    ),
}


def _run(scheduler, graph, platform_fn, model_name):
    def run():
        platform = platform_fn()
        return scheduler().run(graph(), platform, make_model(platform, model_name))

    return run


def _swept(name):
    return functools.partial(get_scheduler, name, **SCHEDULER_KWARGS.get(name, {}))


def _toy_zero_data():
    graph = toy_graph()
    for u, v in list(graph.edges())[:2]:
        graph.set_data(u, v, 0.0)
    return graph


def _fixed_lu6():
    graph = lu_graph(6)
    return get_scheduler("fixed", alloc={v: i % 3 for i, v in enumerate(graph.tasks())})


def _hetero3() -> Platform:
    return Platform([1.0, 2.0, 3.0], [[0.0, 1.0, 2.5], [1.5, 0.0, 0.5], [2.0, 1.0, 0.0]])


#: Every frozen case: id -> thunk building the schedule on the active path.
CASES = {}
for _name in SWEPT:
    for _bed in TESTBEDS:
        for _model in MODELS:
            CASES[f"paper/{_name}-{_bed}-{_model}"] = _run(
                _swept(_name), TESTBEDS[_bed], _paper, _model
            )
            CASES[f"skewed-links/{_name}-{_bed}-{_model}"] = _run(
                _swept(_name), TESTBEDS[_bed], OTHER_PLATFORMS["skewed-links"], _model
            )
        for _plat in SPARSE:
            CASES[f"routed/{_name}-{_bed}-{_plat}"] = _run(
                _swept(_name), TESTBEDS[_bed], SPARSE[_plat], "routed"
            )
for _model in MODELS:
    CASES[f"fixed/{_model}"] = _run(_fixed_lu6, lambda: lu_graph(6), _paper, _model)
    CASES[f"hetero-links/{_model}"] = _run(
        HEFT, lambda: layered_testbed(4, seed=11), _hetero3, _model
    )
CASES["zero-data/heft-one-port"] = _run(HEFT, _toy_zero_data, _paper, "one-port")
CASES["toy/heft-one-port"] = _run(
    HEFT, toy_graph, lambda: Platform.homogeneous(2, cycle_time=1.0, link=1.0), "one-port"
)
CASES["fork-join/ilha-one-port"] = _run(
    lambda: ILHA(b=4), lambda: fork_join_graph(16), _paper, "one-port"
)
CASES["reschedule/ilha-one-port"] = _run(
    lambda: ILHA(b=4, reschedule=True), lambda: lu_graph(8), _paper, "one-port"
)
for _seed in range(5):
    for _label, _sched in (("heft", HEFT), ("ilha", lambda: ILHA(b=8))):
        for _model in ("one-port", "macro-dataflow"):
            CASES[f"fuzz/{_seed}-{_label}-{_model}"] = _run(
                _sched,
                functools.partial(irregular_testbed, 1000, seed=_seed),
                _paper,
                _model,
            )


def schedule_digest(schedule) -> str:
    """SHA-256 over every placement and communication event.

    Floats enter as ``float.hex`` (exact), tasks as ``repr``; both
    record kinds are sorted, so the digest ignores recording order.
    """
    lines = sorted(
        f"P {task!r} {p.proc} {float(p.start).hex()} {float(p.finish).hex()}"
        for task, p in schedule.placements.items()
    )
    lines += sorted(
        f"C {e.src_task!r} {e.dst_task!r} {e.src_proc} {e.dst_proc} "
        f"{float(e.start).hex()} {float(e.finish).hex()} {float(e.data).hex()} {e.hop}"
        for e in schedule.comm_events
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@functools.cache
def _frozen() -> dict:
    return json.loads(Path(__file__).with_name("object_digests.json").read_text())


def assert_matches_frozen(case_id: str) -> None:
    schedule = CASES[case_id]()
    assert schedule.state_impl.startswith("flat-"), schedule.state_impl
    want = _frozen()[case_id]
    assert schedule.makespan() == want["makespan"], f"{case_id}: makespan drift"
    assert schedule_digest(schedule) == want["sha256"], f"{case_id}: schedule drift"


def test_every_case_is_frozen():
    assert sorted(_frozen()) == sorted(CASES)


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize("name", SWEPT)
def test_flat_matches_object_for_every_heuristic(name, testbed, model_name):
    assert_matches_frozen(f"paper/{name}-{testbed}-{model_name}")


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize("name", SWEPT)
def test_flat_matches_object_on_skewed_links(name, testbed, model_name):
    """Per-destination durations differ here: a transfer's feasible
    window depends on its destination, not just on its source row."""
    assert_matches_frozen(f"skewed-links/{name}-{testbed}-{model_name}")


@pytest.mark.parametrize("platform_name", sorted(SPARSE))
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize("name", SWEPT)
def test_routed_matches_object(name, testbed, platform_name):
    assert_matches_frozen(f"routed/{name}-{testbed}-{platform_name}")


def test_fixed_allocation_equivalence():
    for model_name in MODELS:
        assert_matches_frozen(f"fixed/{model_name}")


def test_heterogeneous_links_equivalence():
    """Non-uniform link matrix: per-pair durations."""
    for model_name in MODELS:
        assert_matches_frozen(f"hetero-links/{model_name}")


def test_zero_data_edges_equivalence():
    """Zero-volume edges book zero-length transfers."""
    assert_matches_frozen("zero-data/heft-one-port")
    schedule = CASES["zero-data/heft-one-port"]()
    assert any(e.duration == 0.0 for e in schedule.comm_events)


class TestGolden:
    def test_toy_example_heft_one_port(self):
        """Figure 4's toy graph under one-port HEFT (paper tie order)."""
        assert_matches_frozen("toy/heft-one-port")

    def test_fork_join_ilha(self):
        assert_matches_frozen("fork-join/ilha-one-port")


def test_ilha_reschedule_equivalence():
    """The mark/run/restore pre-allocation (ILHA's reschedule variant)."""
    assert_matches_frozen("reschedule/ilha-one-port")


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_large_testbed_fuzz(seed):
    for label in ("heft", "ilha"):
        for model_name in ("one-port", "macro-dataflow"):
            assert_matches_frozen(f"fuzz/{seed}-{label}-{model_name}")


# ----------------------------------------------------------------------
# no-trace property: rejected candidates leave flat state untouched
# ----------------------------------------------------------------------
#: One instance of every registered model; routed on a sparse ring so
#: its bookings really relay.
MODEL_CASES = [
    pytest.param(OnePortModel, _paper, id="OnePortModel"),
    pytest.param(MacroDataflowModel, _paper, id="MacroDataflowModel"),
    pytest.param(UniPortModel, _paper, id="UniPortModel"),
    pytest.param(NoOverlapOnePortModel, _paper, id="NoOverlapOnePortModel"),
    pytest.param(RoutedOnePortModel, SPARSE["ring5"], id="RoutedOnePortModel"),
]


class TestNoTrace:
    def _fingerprint(self, state):
        return (
            state.builder.fingerprint(),
            dict(state.schedule.placements),
            list(state.schedule.comm_events),
            dict(state.finish),
        )

    @pytest.mark.parametrize("model_cls, platform_fn", MODEL_CASES)
    def test_rejected_candidates_leave_no_trace(self, model_cls, platform_fn):
        platform = platform_fn()
        graph = lu_graph(6)
        state = SchedulerState(graph, platform, model_cls(platform))
        order = list(graph.topological_order())
        for task in order[: len(order) // 2]:
            state.schedule_on(task, 0)
        before = self._fingerprint(state)
        next_task = order[len(order) // 2]
        # evaluate every processor several times and commit nothing
        for _ in range(3):
            state.evaluate_all(next_task)
            state.best_candidate(next_task)
            state.evaluate(next_task, 1, insertion=False)
        assert self._fingerprint(state) == before

    def test_rejection_is_constant_time(self, paper_platform):
        """Rejecting = bumping one counter: no rows are cleared eagerly."""
        graph = lu_graph(6)
        state = SchedulerState(graph, paper_platform, OnePortModel(paper_platform))
        for task in list(graph.topological_order())[:6]:
            state.schedule_on(task, 0)
        gen_before = state.builder.gen
        state.evaluate(list(graph.topological_order())[6], 1)
        assert state.builder.gen == gen_before + 1


def test_hypothetical_parents_do_not_poison_later_evaluations(two_identical):
    """evaluate(parents=...) with made-up finish times is evaluate-only,
    and must not corrupt the booker's memoized state (regression: the
    one-port seed cache used to be keyed without the ready time)."""
    from repro.core import TaskGraph

    g = TaskGraph.from_specs([("a", 1.0), ("c", 1.0)], [("a", "c", 2.0)])
    state = SchedulerState(g, two_identical, OnePortModel(two_identical))
    state.schedule_on("a", 0)
    genuine = state.evaluate("c", 1)
    state.evaluate("c", 1, parents=[("a", 0, 100.0, 2.0)])
    again = state.evaluate("c", 1)
    assert (again.start, again.finish) == (genuine.start, genuine.finish)


def test_relocated_parent_probe_does_not_poison_seed():
    """A hypothetical probe that *relocates* a parent (same finish, other
    processor) must neither use nor pollute the real send row's seed
    (regression: the seed key used to omit the source processor)."""
    from repro.core import TaskGraph

    platform = Platform.homogeneous(3)
    g = TaskGraph.from_specs(
        [("a", 1.0), ("b", 1.0), ("d", 1.0), ("c", 1.0)],
        [("a", "b", 3.0), ("d", "c", 2.0)],
    )
    state = SchedulerState(g, platform, OnePortModel(platform))
    state.schedule_on("a", 1)
    state.schedule_on("d", 0)
    state.schedule_on("b", 2)  # books P1's send port [1, 4)
    genuine = state.evaluate("c", 2)
    # hypothetical: d on busy-sender P1 instead of idle P0
    info = state.parents_info("c")
    parent, _pproc, pfinish, data = info[0]
    state.evaluate("c", 2, parents=[(parent, 1, pfinish, data)])
    again = state.evaluate("c", 2)
    assert (again.start, again.finish) == (genuine.start, genuine.finish)


@pytest.mark.parametrize("model_cls, platform_fn", MODEL_CASES)
def test_snapshot_rebinds_booker_per_model(model_cls, platform_fn):
    """snapshot() gives every flat booker an independent builder binding;
    the copy and the original book identically from the shared base."""
    from repro.core import TaskGraph

    platform = platform_fn()
    g = TaskGraph.from_specs(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "c", 2.0), ("b", "c", 1.0)],
    )
    state = SchedulerState(g, platform, model_cls(platform))
    state.schedule_on("a", 0)
    state.schedule_on("b", 1)
    snap = state.snapshot()
    c_snap = snap.schedule_on("c", 2)
    c_real = state.schedule_on("c", 2)
    assert (c_snap.start, c_snap.finish) == (c_real.start, c_real.finish)
    assert snap.schedule.comm_events == state.schedule.comm_events
    assert snap.builder is not state.builder


def test_parent_procs_requires_scheduled_parents(paper_platform):
    from repro.core import TaskGraph
    from repro.core.exceptions import SchedulingError

    g = TaskGraph.from_specs([("a", 1.0), ("c", 1.0)], [("a", "c", 2.0)])
    state = SchedulerState(g, paper_platform, OnePortModel(paper_platform))
    with pytest.raises(SchedulingError):
        state.parent_procs("c")


def test_missing_link_raises_like_object_path():
    """Partially linked platform + one-port: the unlinked probe raises
    PlatformError — pruning must not skip it."""
    from repro.core import TaskGraph
    from repro.core.exceptions import PlatformError

    inf = math.inf
    platform = Platform(
        [1.0, 1.0, 100.0],
        [[0.0, 1.0, 1.0], [1.0, 0.0, inf], [1.0, inf, 0.0]],
    )
    g = TaskGraph.from_specs([("p", 1.0), ("x", 1.0)], [("p", "x", 1.0)])
    state = SchedulerState(g, platform, OnePortModel(platform))
    state.schedule_on("p", 1)
    with pytest.raises(PlatformError):
        state.best_candidate("x")
