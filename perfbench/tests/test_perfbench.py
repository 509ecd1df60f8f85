"""Self-tests of the benchmark harness (``perfbench/``).

They run tiny versions of the workloads on the pure-Python engine, so
they need neither the compiled extension nor much time::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.heuristics import get_scheduler  # noqa: E402
from repro.heuristics.base import Scheduler  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())


@pytest.fixture(autouse=True)
def python_engine(monkeypatch):
    """Pin the tiny workloads to the reference engine (no build needed)."""
    monkeypatch.setattr(workloads, "ENGINE", "python")
    monkeypatch.setattr(workloads, "ENGINE_IMPL", "flat-python")
    monkeypatch.setattr(run, "IMPORTS", "import repro.campaign, repro.online")


class TinyConstruct(workloads.Construct):
    PER_FAMILY = TRACE_PER_FAMILY = 1
    IRREGULAR_SIZE, LAYERED_LAYERS, LU_SIZE = 30, 6, 5


class TinyCampaign(workloads.Campaign):
    TESTBEDS, SIZES, MODELS, SEEDS = ("lu", "irregular"), (4,), ("one-port",), 1


class Raising(Scheduler):
    name = "raising"

    def run(self, graph, platform, model="one-port"):
        raise RuntimeError("injected failure")


class WrongMakespan(Scheduler):
    """HEFT whose first schedule claims one task ran a unit too long."""

    name = "wrong-makespan"

    def __init__(self):
        self.calls = 0

    def run(self, graph, platform, model="one-port"):
        schedule = get_scheduler("heft").run(graph, platform, model)
        self.calls += 1
        if self.calls == 1:
            task, placed = next(iter(schedule.placements.items()))
            schedule.placements[task] = placed._replace(finish=placed.finish + 1.0)
        return schedule


def names(section: str) -> list[str]:
    return [m["name"] for m in BENCHMARK[section]]


# ----------------------------------------------------------------------
# metric emission
# ----------------------------------------------------------------------
def test_end_to_end_emits_every_metric_with_unit_and_count():
    metrics, tally, lines, extra = run.end_to_end(
        TinyConstruct(), seed=3, seconds=0.0, predictions=PREDICTIONS)
    assert list(metrics) == names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, (value, unit, count) in metrics.items():
        assert unit == units[name]
        assert value > 0 and count >= 1, name
    assert extra["fail_ratio"] == 0.0 and not tally.failures
    assert any("run_ms.p50" in line and "n=" in line for line in lines)


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    metrics, tally, recorded, _origin, wall = run.traced(TinyConstruct(), seed=3)
    assert set(metrics) == set(names("per_layer"))
    assert not tally.failures
    for name in ("heuristics.sweep_ms", "core.ranking.calls", "kernel.statics.compiles"):
        assert metrics[name] > 0, name
    # the layer self times plus the residual add up to the traced wall time
    own = spans.self_times(recorded)
    assert sum(own.values()) + spans.residual(recorded, wall) == pytest.approx(wall)
    assert metrics["traced_wall_ms"] == pytest.approx(wall * 1e3 / 9)  # 9 runs


def test_benchmark_files_agree():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(PREDICTIONS["workloads"]) == set(run.WORKLOADS)
    per_layer = set(names("per_layer"))
    for row in PREDICTIONS["layers"]:
        assert set(row["metrics"]) <= per_layer, row["layer"]
    assert set(layers.WORKLOAD_LAYERS) == set(run.WORKLOADS)
    installed = {layer for names_ in layers.WORKLOAD_LAYERS.values() for layer in names_}
    spans_ = set(layers.METHODS) | set(layers.FUNCTIONS)
    assert {span.split(".", 1)[0] for span in spans_} <= installed
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# ----------------------------------------------------------------------
# failures are counted, never fatal or silent
# ----------------------------------------------------------------------
def test_injected_failures_raise_fail_ratio():
    bench = TinyConstruct(schedulers=[
        ("heft", get_scheduler("heft")),
        ("raising", Raising()),
        ("wrong-makespan", WrongMakespan()),
    ])
    _metrics, tally, _lines, extra = run.end_to_end(
        bench, seed=3, seconds=0.0, predictions=PREDICTIONS)
    assert tally.attempted == 9
    failed = " ".join(tally.failures)
    assert "injected failure" in failed
    assert "wrong-makespan" in failed
    assert extra["fail_ratio"] == pytest.approx(len(tally.failures) / 9)
    assert 0 < extra["fail_ratio"] < 1


def test_engine_fallback_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "ENGINE_IMPL", "flat-cext")
    tally = TinyConstruct().measure(TinyConstruct().inputs(3), seconds=0.0)
    assert len(tally.failures) == tally.attempted == 9
    assert all("flat-python" in f for f in tally.failures)


# ----------------------------------------------------------------------
# decision neutrality
# ----------------------------------------------------------------------
def test_traced_and_untraced_construct_schedules_identical():
    bench = TinyConstruct()
    _ops, plain, _ = bench.trace_pass(5)
    recorder = spans.SpanRecorder()
    layers.install(recorder, "construct")
    try:
        _ops, traced, _ = bench.trace_pass(5)
    finally:
        recorder.uninstall()
    assert recorder.closed_spans()
    assert bench.fingerprint(traced) == bench.fingerprint(plain)


def test_traced_and_untraced_campaign_cells_identical(tmp_path):
    metrics, tally, recorded, _origin, _wall = run.traced(TinyCampaign(tmp_path), seed=5)
    assert not tally.failures  # includes the traced-vs-untraced comparison
    assert {s[0] for s in recorded} >= {"campaign.run", "campaign.triage",
                                        "campaign.cache_put", "campaign.reassemble"}
    assert metrics["campaign.warm_ms"] > 0 and metrics["campaign.cell_ms.p50"] > 0


def test_uninstall_restores_every_entry_point():
    from repro.core import ranking
    from repro.heuristics import base, heft

    before = (base.ReadyQueue.pop, heft.bottom_levels, ranking.bottom_levels)
    recorder = spans.SpanRecorder()
    layers.install(recorder, "improve")
    assert heft.bottom_levels is not before[1]
    recorder.uninstall()
    assert (base.ReadyQueue.pop, heft.bottom_levels, ranking.bottom_levels) == before


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
SYNTHETIC = [
    ("A", 0.0, 10.0, -1),  # 0: root
    ("B", 1.0, 4.0, 0),    # 1
    ("C", 2.0, 3.0, 1),    # 2: inside B
    ("B", 5.0, 6.0, 0),    # 3
    ("E", 7.0, 9.0, 0),    # 4
    ("E", 7.5, 8.5, 4),    # 5: E calling its own override
    ("D", 12.0, 13.0, -1),  # 6: second root
]


def test_self_time_and_residual_on_synthetic_spans():
    own = spans.self_times(SYNTHETIC)
    assert own == {"A": 4.0, "B": 3.0, "C": 1.0, "E": 2.0, "D": 1.0}
    assert spans.residual(SYNTHETIC, wall=15.0) == 4.0
    assert sum(own.values()) + spans.residual(SYNTHETIC, 15.0) == 15.0
    assert spans.call_counts(SYNTHETIC) == {"A": 1, "B": 2, "C": 1, "E": 1, "D": 1}
    assert spans.durations(SYNTHETIC, "E") == [2.0]


def _synthetic_pace(durations: list[float]) -> pace.Pace:
    """Reference passes at t = 0, 1, 2, ... with the given durations."""
    p = pace.Pace()
    for t, d in enumerate(durations):
        p.starts.append(float(t))
        p.ends.append(t + d)
        p.durations.append(d)
    return p


def test_pace_leaves_out_reference_passes_and_scales_by_nearby_ones():
    # a host at half the reference speed: every pass takes twice nominal
    slow = 2 * pace.NOMINAL_S
    p = _synthetic_pace([slow] * 4)
    # passes 1 and 2 ran inside the span: raw drops them, seconds halves the rest
    assert p.raw(0.5, 2.5) == pytest.approx(2.0 - 2 * slow)
    assert p.seconds(0.5, 2.5) == pytest.approx((2.0 - 2 * slow) / 2)
    assert p.seconds(1.1, 1.2) == pytest.approx(0.05)
    # the speed of a stretch is the median of the passes nearest to it
    p = _synthetic_pace([pace.NOMINAL_S] * 4 + [3 * pace.NOMINAL_S] * 4)
    assert p.seconds(0.5, 0.6) == pytest.approx(0.1)
    assert p.seconds(6.5, 6.6) == pytest.approx(0.1 / 3)
    assert p.raw(6.5, 6.6) == pytest.approx(0.1)


def test_recorder_nests_real_calls():
    recorder = spans.SpanRecorder()

    def inner():
        return 1

    inner_t = recorder.wrap("inner", inner)

    def outer():
        return inner_t() + inner_t()

    assert recorder.wrap("outer", outer)() == 2
    recorded = recorder.closed_spans()
    assert [(s[0], s[3]) for s in recorded] == [("outer", -1), ("inner", 0), ("inner", 0)]


def test_chrome_trace_has_one_track_per_workload():
    trace = spans.chrome_trace(SYNTHETIC, "online", origin=0.0)
    events = trace["traceEvents"]
    assert all("ph" in e and e["pid"] == spans.TRACE_PID for e in events)
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(SYNTHETIC)
    assert {e["tid"] for e in complete} == {spans.WORKLOAD_TIDS["online"]}
    assert all(e["dur"] >= 0 for e in complete)
    assert any(e["name"] == "thread_name" and e["args"]["name"] == "online" for e in events)
    json.dumps(trace)


def test_quantile_and_top_percentile():
    xs = [float(i) for i in range(1, 101)]
    assert run.quantile(xs, 0.5) == pytest.approx(50.5)
    assert run.quantile([], 0.9) == 0.0
    assert run.top_percentile(100) == 0.9
    assert run.top_percentile(1000) == 0.99
    assert run.top_percentile(19) is None
