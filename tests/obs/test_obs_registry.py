"""The ``repro.obs`` collector: recording, merging, scoping, no-op path."""

from __future__ import annotations

import pytest

from repro.graphs import lu_graph
from repro.heuristics import get_scheduler
from repro.obs import (
    CATALOG,
    Stats,
    collect,
    current,
    enabled,
    metric_names,
    span,
)


class TestStats:
    def test_counters_accumulate(self):
        s = Stats()
        s.inc("builder.candidates")
        s.inc("builder.candidates", 4)
        s.add("online.port_wait_time", 2.5)
        assert s.counters["builder.candidates"] == 5
        assert s.counters["online.port_wait_time"] == 2.5

    def test_gauges_overwrite(self):
        s = Stats()
        s.gauge("campaign.workers", 2)
        s.gauge("campaign.workers", 4)
        assert s.gauges["campaign.workers"] == 4

    def test_add_time_accumulates_calls_and_seconds(self):
        s = Stats()
        s.add_time("phase.cell", 0.5)
        s.add_time("phase.cell", 1.5, calls=3)
        assert s.timers["phase.cell"] == [4, 2.0]

    def test_span_records_timer_and_trace_span(self):
        s = Stats()
        with s.span("phase.statics"):
            pass
        calls, seconds = s.timers["phase.statics"]
        assert calls == 1 and seconds >= 0.0
        (name, start, dur), = s.spans
        assert name == "phase.statics" and start >= 0.0 and dur >= 0.0

    def test_payload_merge_roundtrip(self):
        a = Stats()
        a.inc("builder.commits", 3)
        a.add_time("phase.cell", 1.0)
        a.gauge("campaign.workers", 1)
        b = Stats()
        b.inc("builder.commits", 2)
        b.inc("oneport.seed.hit", 7)
        b.add_time("phase.cell", 0.5, calls=2)
        b.gauge("campaign.workers", 8)
        with b.span("phase.statics"):
            pass
        a.merge(b.payload())
        assert a.counters == {"builder.commits": 5, "oneport.seed.hit": 7}
        assert a.timers["phase.cell"] == [3, 1.5]
        assert a.gauges["campaign.workers"] == 8  # last writer wins
        assert [name for name, _, _ in a.spans] == ["phase.statics"]

    def test_merge_accepts_stats_directly(self):
        a, b = Stats(), Stats()
        b.inc("builder.commits")
        a.merge(b)
        assert a.counters["builder.commits"] == 1

    def test_merge_is_worker_split_invariant(self):
        """Merging N partial payloads equals one combined collector."""
        whole = Stats()
        whole.inc("builder.candidates", 10)
        whole.add_time("phase.cell", 3.0, calls=2)
        parts = Stats()
        for n, secs in ((4, 1.0), (6, 2.0)):
            p = Stats()
            p.inc("builder.candidates", n)
            p.add_time("phase.cell", secs)
            parts.merge(p.payload())
        assert parts.counters == whole.counters
        assert parts.timers == whole.timers

    def test_table_output(self):
        s = Stats()
        s.inc("builder.candidates", 1234)
        s.add_time("phase.statics", 0.001)
        s.gauge("campaign.occupancy", 0.5)
        out = s.table()
        assert "builder.candidates" in out
        assert "1,234" in out
        assert "phase.statics" in out
        assert "campaign.occupancy" in out

    def test_table_empty(self):
        assert Stats().table() == "(no metrics collected)"


class TestScoping:
    def test_disabled_by_default(self):
        assert current() is None
        assert not enabled()

    def test_collect_activates_and_restores(self):
        with collect() as stats:
            assert current() is stats
            assert enabled()
        assert current() is None

    def test_nested_collect_shadows_outer(self):
        with collect() as outer:
            with collect() as inner:
                current().inc("builder.commits")
            assert inner.counters == {"builder.commits": 1}
            assert outer.counters == {}

    def test_collect_into_existing_scope(self):
        acc = Stats()
        with collect(acc):
            current().inc("builder.commits")
        with collect(acc):
            current().inc("builder.commits")
        assert acc.counters["builder.commits"] == 2

    def test_module_span_noop_when_disabled(self):
        with span("phase.statics") as got:
            assert got is None

    def test_module_span_records_when_enabled(self):
        with collect() as stats:
            with span("phase.statics"):
                pass
        assert "phase.statics" in stats.timers

    def test_scope_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with collect():
                raise RuntimeError("boom")
        assert current() is None


class TestCatalog:
    def test_metric_names_sorted_and_complete(self):
        names = metric_names()
        assert names == sorted(CATALOG)
        assert "builder.candidates" in names
        assert all(
            isinstance(unit, str) and isinstance(desc, str)
            for unit, desc in CATALOG.values()
        )

    def test_emitted_metrics_are_registered(self, paper_platform):
        """A real construction only emits catalogued names."""
        with collect() as stats:
            get_scheduler("heft").run(lu_graph(8), paper_platform, "one-port")
        assert stats.counters, "expected builder counters from a flat run"
        assert set(stats.counters) <= set(CATALOG)
        assert set(stats.timers) <= set(CATALOG)
