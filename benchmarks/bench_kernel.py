"""Kernel performance trajectory per backend: flat replay and move previews.

Standalone script (not a pytest-benchmark module) so CI can run it and
archive the result::

    python benchmarks/bench_kernel.py --quick --out BENCH_KERNEL.json

Measures, per testbed and kernel backend (``python``, plus ``cext``
when the extension is built):

* **replay** — full :func:`repro.simulate.replay` (kernel-routed: the
  one-shot pass, compiled under ``cext``) vs the retained object-level
  :func:`repro.simulate.replay_object` on the same extracted decisions,
  reporting min-of-rounds latency and the speedup ratio.  The
  acceptance bar for the kernel PR is >= 5x at lu-20 with exact
  makespan agreement (asserted here on every pair).
* **previews** — :class:`repro.search.IncrementalEvaluator` load time
  and move-preview throughput (the ILS moves/second figure: one point
  sweep per move, compiled under ``cext``), to catch regressions of the
  search hot loop.

``--quick`` trims repetition counts and the testbed list for CI smoke;
the committed ``BENCH_KERNEL.json`` at the repo root is produced by a
full run on one host (``write_result`` stamps it) and seeds the perf
trajectory (regenerate and commit alongside kernel changes).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _harness import best_of, write_result  # noqa: E402
from repro import HEFT  # noqa: E402
from repro.experiments import paper_platform  # noqa: E402
from repro.graphs import irregular_testbed, layered_testbed, lu_graph  # noqa: E402
from repro.kernel.backends import use_backend  # noqa: E402
from repro.kernel.cext_backend import cext_available  # noqa: E402
from repro.search import IncrementalEvaluator, SearchPoint, propose  # noqa: E402
from repro.simulate import extract_decisions, replay, replay_object  # noqa: E402


def bench_replay(label: str, graph, plat, rounds: int, repeats: int, backend: str) -> dict:
    schedule = HEFT().run(graph, plat, "one-port")
    decisions = extract_decisions(schedule)
    fast = replay(graph, plat, decisions)
    ref = replay_object(graph, plat, decisions)
    assert fast.makespan() == ref.makespan(), "kernel/legacy makespan drift"
    # interleave the two implementations inside each round so CPU-load
    # drift between measurement blocks cannot skew the ratio
    kernel_s = legacy_s = float("inf")
    legacy_repeats = max(1, repeats // 3)
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(repeats):
            replay(graph, plat, decisions)
        kernel_s = min(kernel_s, (time.perf_counter() - t0) / repeats)
        t0 = time.perf_counter()
        for _ in range(legacy_repeats):
            replay_object(graph, plat, decisions)
        legacy_s = min(legacy_s, (time.perf_counter() - t0) / legacy_repeats)
    row = {
        "testbed": label,
        "backend": backend,
        "tasks": graph.num_tasks,
        "edges": graph.num_edges,
        "kernel_ms": round(kernel_s * 1e3, 4),
        "legacy_ms": round(legacy_s * 1e3, 4),
        "speedup": round(legacy_s / kernel_s, 2),
        "makespan": ref.makespan(),
    }
    print(
        f"replay   {label:<16} {backend:<6} {row['tasks']:>5} tasks  "
        f"kernel {row['kernel_ms']:8.3f} ms  legacy {row['legacy_ms']:8.3f} ms  "
        f"x{row['speedup']:.2f}"
    )
    return row


def bench_previews(label: str, graph, plat, rounds: int, num_moves: int, backend: str) -> dict:
    schedule = HEFT().run(graph, plat, "one-port")
    evaluator = IncrementalEvaluator(graph, plat)
    t0 = time.perf_counter()
    evaluator.load(SearchPoint.from_schedule(schedule))
    load_s = time.perf_counter() - t0
    rng = random.Random(0)
    moves = []
    while len(moves) < num_moves:
        move = propose(evaluator.point, plat, rng)
        if move is not None:
            moves.append(move)
    for move in moves[: min(20, num_moves)]:
        evaluator.preview(move)  # warm

    def preview_all():
        for move in moves:
            evaluator.preview(move)

    best = best_of(preview_all, rounds, 1)
    row = {
        "testbed": label,
        "backend": backend,
        "tasks": graph.num_tasks,
        "load_ms": round(load_s * 1e3, 3),
        "moves_per_s": round(num_moves / best),
    }
    print(
        f"previews {label:<16} {backend:<6} {row['tasks']:>5} tasks  "
        f"load {row['load_ms']:7.2f} ms  {row['moves_per_s']:>7} moves/s"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer rounds, smaller testbeds")
    parser.add_argument("--out", default="BENCH_KERNEL.json",
                        help="output JSON path (default: BENCH_KERNEL.json)")
    args = parser.parse_args(argv)

    backends = ["python"]
    if cext_available():
        backends.append("cext")
    else:
        print("note: cext extension not built; measuring python only "
              "(build with: python setup.py build_ext --inplace)")

    plat = paper_platform()
    if args.quick:
        rounds, repeats = 5, 60
        replay_beds = [
            ("lu-20", lu_graph(20)),
            ("irregular-300", irregular_testbed(300, seed=0)),
        ]
        preview_beds = [("lu-20", lu_graph(20))]
        num_moves = 100
    else:
        rounds, repeats = 12, 150
        replay_beds = [
            ("lu-20", lu_graph(20)),
            ("lu-40", lu_graph(40)),
            ("layered-big", layered_testbed(160, seed=0, width=10, density=0.25)),
            ("irregular-1000", irregular_testbed(1000, seed=0)),
        ]
        preview_beds = [
            ("lu-20", lu_graph(20)),
            ("irregular-1000", irregular_testbed(1000, seed=0)),
        ]
        num_moves = 200

    replay_rows, preview_rows = [], []
    for be in backends:
        with use_backend(be):
            replay_rows += [
                bench_replay(n, g, plat, rounds, repeats, be) for n, g in replay_beds
            ]
            preview_rows += [
                bench_previews(n, g, plat, max(3, rounds // 3), num_moves, be)
                for n, g in preview_beds
            ]

    result = {
        "benchmark": "kernel",
        "quick": args.quick,
        "backends": backends,
        "replay": replay_rows,
        "previews": preview_rows,
    }
    write_result(args.out, result)
    print(f"\nwrote {args.out}")

    for lu20 in (r for r in replay_rows if r["testbed"] == "lu-20"):
        if lu20["speedup"] < 5.0 and not args.quick:
            print(f"WARNING: lu-20 replay speedup {lu20['speedup']}x ({lu20['backend']}) "
                  "is below the 5x target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
