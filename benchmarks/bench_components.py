"""Microbenchmarks of the scheduling substrates.

These are the hot paths of every heuristic (profiling-guided, per the
optimization workflow): timeline gap search, one-port joint fits through
the flat booker's tentative layer, bottom-level computation, and a full
one-port EFT evaluation.
"""

import random

from repro.core import Platform, TaskGraph, Timeline, bottom_levels
from repro.experiments import paper_platform
from repro.graphs import lu_graph
from repro.heuristics.base import SchedulerState
from repro.kernel import FlatBuilder, compile_statics
from repro.models import OnePortModel


def test_timeline_next_fit(benchmark):
    """Gap search over a timeline with 1000 busy intervals."""
    t = Timeline()
    for i in range(1000):
        t.reserve(3.0 * i, 3.0 * i + 2.0, i)
    rng = random.Random(7)
    queries = [(rng.uniform(0, 3200), rng.uniform(0.5, 1.0)) for _ in range(200)]

    def search():
        return [t.next_fit(r, d) for r, d in queries]

    out = benchmark(search)
    assert len(out) == 200


def test_timeline_fill(benchmark):
    """Insertion-schedule 500 requests into an empty timeline."""
    rng = random.Random(3)
    reqs = [(rng.uniform(0, 500), rng.uniform(0.5, 3.0)) for _ in range(500)]

    def fill():
        t = Timeline()
        for ready, dur in reqs:
            start = t.next_fit(ready, dur)
            t.reserve(start, start + dur)
        return t

    t = benchmark(fill)
    assert len(t) == 500


def test_one_port_joint_fit(benchmark):
    """Tentative placement of one candidate's 50 incoming transfers
    (``OnePortFlatBooker.trial_est``) over busy send/receive rows."""
    platform = Platform.homogeneous(10, cycle_time=1.0, link=1.0)
    graph = TaskGraph.from_specs(
        [(f"p{i}", 1.0) for i in range(50)] + [("x", 1.0)],
        [(f"p{i}", "x", 2.0) for i in range(50)],
    )
    st = compile_statics(graph, platform)
    builder = FlatBuilder(10)
    booker = OnePortModel(platform).flat_booker(builder, st)
    rng = random.Random(11)
    for _ in range(400):
        q, r = rng.randrange(10), rng.randrange(10)
        if q == r:
            continue
        rows = (booker.send0 + q, booker.recv0 + r)
        start = builder.joint_next_fit(rows, rng.uniform(0, 300), 2.0)
        for row in rows:
            builder.book(row, start, start + 2.0)
    # parents on P1..P9, ready at 0..49, all sending to the candidate on P0
    parents = [
        (float(i), st.tindex[f"p{i}"], st.eindex[(f"p{i}", "x")], 1 + i % 9)
        for i in range(50)
    ]

    def trial():
        builder.begin_trial()
        return booker.trial_est(parents, 0)

    assert benchmark(trial) > 49.0


def test_bottom_levels_lu(benchmark):
    """Rank computation on a ~5000-task LU graph."""
    graph = lu_graph(100)
    platform = paper_platform()
    bl = benchmark(bottom_levels, graph, platform)
    assert len(bl) == graph.num_tasks


def test_eft_evaluation(benchmark):
    """One full one-port EFT evaluation round (10 processors)."""
    platform = paper_platform()
    graph = lu_graph(20)
    model = OnePortModel(platform)
    state = SchedulerState(graph, platform, model)
    order = graph.topological_order()
    for task in order[:100]:
        state.commit(state.best_candidate(task))
    target = order[100]

    def evaluate():
        return state.evaluate_all(target)

    candidates = benchmark(evaluate)
    assert len(candidates) == 10
