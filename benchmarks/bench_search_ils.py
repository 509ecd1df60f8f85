"""Benchmarks of the iterated-local-search subsystem.

Tracks the two numbers the search layer promises: improvement over the
base heuristic on the seeded random testbeds, and move-evaluation
throughput (moves/second) of the evaluator — including the speedup of
a preview (one point sweep of the moved-to point) over a from-scratch
``replay()`` of its decisions and over rescheduling with the base
heuristic.
"""

import random
import time

from repro import HEFT, validate_schedule
from repro.experiments import paper_platform
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import IteratedLocalSearch
from repro.search import IncrementalEvaluator, SearchPoint, propose
from repro.simulate import replay


def test_ils_improvement_over_heft(benchmark):
    """ils(heft) on the seeded layered/irregular testbeds: improvement
    and throughput of one full budgeted search per graph."""
    platform = paper_platform()
    cases = [
        ("layered-8/s1", layered_testbed(8, seed=1)),
        ("irregular-60/s0", irregular_testbed(60, seed=0)),
        ("irregular-60/s1", irregular_testbed(60, seed=1)),
    ]

    def sweep():
        rows = []
        for name, graph in cases:
            base_ms = HEFT().run(graph, platform, "one-port").makespan()
            t0 = time.perf_counter()
            out = IteratedLocalSearch(base="heft", budget=3000, seed=0).run(
                graph, platform, "one-port"
            )
            elapsed = time.perf_counter() - t0
            validate_schedule(out)
            stats = out.search_stats
            rows.append((name, base_ms, out.makespan(), stats["evals"] / elapsed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nils(heft), budget 3000:")
    for name, base_ms, ils_ms, rate in rows:
        gain = (1.0 - ils_ms / base_ms) * 100.0
        print(
            f"  {name:<16} heft {base_ms:9.1f} -> ils {ils_ms:9.1f} "
            f"({gain:+5.1f}%)  {rate:6.0f} moves/s"
        )
        benchmark.extra_info[name] = {
            "improvement_pct": round(gain, 2),
            "moves_per_s": round(rate),
        }


def test_preview_vs_full_replay(benchmark):
    """Throughput of preview() against a from-scratch replay of the
    same mutated decisions, and against rescheduling with HEFT."""
    platform = paper_platform()
    graph = lu_graph(20)
    sched = HEFT().run(graph, platform, "one-port")
    evaluator = IncrementalEvaluator(graph, platform)
    evaluator.load(SearchPoint.from_schedule(sched))
    rng = random.Random(0)
    moves = []
    while len(moves) < 200:
        move = propose(evaluator.point, platform, rng)
        if move is not None:
            moves.append(move)

    def preview_all():
        for move in moves:
            evaluator.preview(move)

    benchmark.pedantic(preview_all, rounds=1, iterations=1)
    t0 = time.perf_counter()
    preview_all()
    preview_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for move in moves:
        replay(
            graph, platform, move.apply(evaluator.point).to_decisions(platform.processors)
        )
    full_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(10):
        HEFT().run(graph, platform, "one-port")
    reschedule_s = (time.perf_counter() - t0) * len(moves) / 10

    print(
        f"\nlu-20 ({graph.num_tasks} tasks), {len(moves)} move evaluations:\n"
        f"  preview (one sweep) : {preview_s:7.3f}s "
        f"({len(moves) / preview_s:7.0f}/s)\n"
        f"  full replay         : {full_s:7.3f}s "
        f"(x{full_s / preview_s:4.1f} slower)\n"
        f"  reschedule with heft: {reschedule_s:7.3f}s "
        f"(x{reschedule_s / preview_s:4.1f} slower)"
    )
    benchmark.extra_info["speedup_vs_replay"] = round(full_s / preview_s, 1)
    benchmark.extra_info["speedup_vs_reschedule"] = round(
        reschedule_s / preview_s, 1
    )
    assert full_s > preview_s  # previews must beat from-scratch replay
