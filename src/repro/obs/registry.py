"""Contextvar-scoped metrics collector: counters, timers, gauges, spans.

The collector is deliberately dumb — plain dicts, no locks, no
sampling — because it is process-local: each worker of a campaign pool
collects into its own :class:`Stats` and ships the
:meth:`~Stats.payload` back to the parent, which :meth:`~Stats.merge`\\ s
them.  Scoping goes through one :class:`~contextvars.ContextVar`;
instrumented objects capture :func:`current` **once at construction**
into a slot, so a disabled run costs one attribute load plus an
``is not None`` test per would-be event.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

#: Registered metric names -> ``(unit, description)``.  Everything the
#: instrumented layers may emit; surfaced by ``repro info --json`` and
#: the README catalog.  Timers additionally appear in
#: ``Stats.timers`` as ``(calls, seconds)`` pairs.
CATALOG: dict[str, tuple[str, str]] = {
    # flat-kernel construction (kernel/builder.py + heuristics/*)
    "builder.candidates": ("count", "(task, processor) EFT probes evaluated"),
    "builder.prune.maxpf": (
        "count", "candidates skipped by the max-parent-finish + duration bound"),
    "builder.prune.frontier": (
        "count", "non-insertion candidates skipped by the frontier bound"),
    "builder.prune.abort": (
        "count", "trial bookings abandoned once est + duration beat the bound"),
    "builder.commits": ("count", "placements committed into the flat builder"),
    "builder.rollbacks": ("count", "journal rollbacks (trial/search undo)"),
    "builder.rollback_entries": ("count", "booking entries undone by rollbacks"),
    # one-port booker (models/one_port.py)
    "oneport.seed.hit": ("count", "send-feasibility seed-memo hits"),
    "oneport.seed.miss": ("count", "send-feasibility seed-memo misses"),
    # local search (search/)
    "search.previews": ("count", "moves previewed through the incremental evaluator"),
    "search.commits": ("count", "previewed moves committed"),
    "search.sideways": ("count", "equal-makespan moves accepted"),
    "search.kicks": ("count", "perturbation kicks applied"),
    "search.rounds": ("count", "improvement rounds executed"),
    "search.patched_nodes": (
        "count", "kernel nodes timed by move previews (each task and remote transfer)"),
    # online engine (online/engine.py)
    "online.events.arrival": ("count", "job-arrival events processed"),
    "online.events.finish": ("count", "activity-finish events processed"),
    "online.events.tick": ("count", "policy tick events processed"),
    "online.activities": ("count", "activities dispatched to resources"),
    "online.replans": ("count", "plans rebuilt on a non-empty system"),
    "online.port_waits": ("count", "activities that waited on a busy resource"),
    "online.port_wait_time": ("model-time", "total released-to-start wait"),
    "online.utilization": ("gauge", "mean compute utilization over the horizon"),
    # campaign runner (campaign/runner.py)
    "campaign.cells": ("count", "unique cells in the expanded campaign"),
    "campaign.cache_hits": ("count", "cells served from the result cache"),
    "campaign.executed": ("count", "cells freshly executed"),
    "campaign.workers": ("gauge", "worker-pool size used for the run"),
    "campaign.occupancy": (
        "gauge", "sum of cell runtimes / (workers x wall time)"),
    # spool executor (campaign/executors.py + campaign/spool.py)
    "campaign.retries": ("count", "cells re-queued after a lease expiry"),
    "campaign.leases_expired": (
        "count", "worker leases that expired without a completion"),
    "campaign.spool_poll": (
        "count", "parent poll sweeps over the spool's done/ shards"),
    "campaign.snapshots": ("count", "rolling metrics snapshots recorded"),
    # durable event journal (obs/journal.py) and its derived progress
    # gauges (obs/export.py folds a journal into these for export)
    "journal.events": ("count", "records appended to the event journal"),
    "journal.cells.queued": ("gauge", "published cells awaiting a claim"),
    "journal.cells.running": ("gauge", "cells currently claimed by a worker"),
    "journal.cells.done": ("gauge", "cells completed, settled, or cached"),
    "journal.cells.failed": ("gauge", "cells that completed with an error"),
    "journal.workers": ("gauge", "distinct workers seen in the journal"),
    # per-stage booking-loop timers (bench_sched --stages): only
    # recorded while :func:`stage_detail_scope` is active, so routine
    # stats-on runs never pay per-candidate clock reads
    "stage.sweep": ("seconds", "all-processor candidate sweep per task"),
    "stage.seed": ("seconds", "message booking / seed resolution (trial_est)"),
    "stage.gap": ("seconds", "compute-slot gap search"),
    "stage.commit": ("seconds", "commit re-derivation + placement booking"),
    "stage.journal": ("seconds", "undo-journal rollbacks"),
    # wall-clock phase timers (also recorded as spans for the trace)
    "phase.statics": ("seconds", "static cost compilation (ranks, frontiers)"),
    "phase.rank": ("seconds", "priority/rank computation"),
    "phase.construct": ("seconds", "candidate sweeps + booking main loop"),
    "phase.search.load": ("seconds", "incremental-evaluator kernel load"),
    "phase.search.run": ("seconds", "iterated local search main loop"),
    "phase.online.run": ("seconds", "online-engine event loop"),
    "phase.online.replan": (
        "seconds", "one replan that moved tasks: heuristic run + sub-plan install"),
    "phase.online.install": ("seconds", "one plan install at a job's arrival"),
    "phase.campaign.run": ("seconds", "campaign execution wall time"),
    "phase.cell": ("seconds", "per-cell scheduler wall time"),
}


def metric_names() -> list[str]:
    """Sorted names of every registered metric."""
    return sorted(CATALOG)


#: Per-stage booking-loop timers are opt-in: timing every candidate's
#: gap search / seed resolution costs two clock reads per probe, far
#: too much for routine stats-on runs (the bench's stats-overhead
#: guard).  ``bench_sched --stages`` flips this for its timed region.
_STAGE_DETAIL = False


def stage_detail() -> bool:
    """Whether the ``stage.*`` booking-loop timers are active."""
    return _STAGE_DETAIL


@contextmanager
def stage_detail_scope():
    """Enable the ``stage.*`` timers for the dynamic extent of the block."""
    global _STAGE_DETAIL
    prev = _STAGE_DETAIL
    _STAGE_DETAIL = True
    try:
        yield
    finally:
        _STAGE_DETAIL = prev


class Stats:
    """One collection scope's counters, timers, gauges, and spans.

    ``counters`` map name -> int, ``timers`` map name -> ``[calls,
    seconds]``, ``gauges`` map name -> float, and ``spans`` hold
    ``(name, start_s, dur_s)`` tuples relative to the collector's
    creation (wall clock), ready for the Chrome-trace phase view.
    """

    __slots__ = ("counters", "timers", "gauges", "spans", "_epoch")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, list[float]] = {}
        self.gauges: dict[str, float] = {}
        self.spans: list[tuple[str, float, float]] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        ent = self.timers.get(name)
        if ent is None:
            self.timers[name] = [calls, seconds]
        else:
            ent[0] += calls
            ent[1] += seconds

    @contextmanager
    def span(self, name: str):
        """Time a phase: records both a timer entry and a trace span."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            t1 = time.perf_counter()
            self.spans.append((name, t0 - self._epoch, t1 - t0))
            self.add_time(name, t1 - t0)

    # ------------------------------------------------------------------
    # aggregation / export
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """JSON-able snapshot (the cross-process wire format)."""
        return {
            "counters": dict(self.counters),
            "timers": {k: list(v) for k, v in self.timers.items()},
            "gauges": dict(self.gauges),
            "spans": [list(s) for s in self.spans],
        }

    def merge(self, payload: dict | Stats) -> None:
        """Fold another collector's payload into this one.

        Counters and timers add; gauges keep the incoming value (last
        writer wins); spans append (each process's spans are relative
        to its own epoch — counts and totals stay meaningful, absolute
        alignment across processes does not).
        """
        if isinstance(payload, Stats):
            payload = payload.payload()
        for name, n in payload.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, (calls, seconds) in payload.get("timers", {}).items():
            self.add_time(name, seconds, calls)
        self.gauges.update(payload.get("gauges", {}))
        for name, start, dur in payload.get("spans", []):
            self.spans.append((name, start, dur))

    def table(self) -> str:
        """Human-readable stats table (the ``--profile`` output)."""
        lines = []
        if self.counters:
            lines.append("counters")
            width = max(len(k) for k in self.counters)
            for name in sorted(self.counters):
                unit = CATALOG.get(name, ("count", ""))[0]
                value = self.counters[name]
                shown = f"{value:,}" if isinstance(value, int) else f"{value:g}"
                lines.append(f"  {name:<{width}}  {shown:>14} {unit}")
        if self.timers:
            lines.append("timers")
            width = max(len(k) for k in self.timers)
            for name in sorted(self.timers):
                calls, seconds = self.timers[name]
                lines.append(
                    f"  {name:<{width}}  {seconds * 1e3:>12.3f} ms"
                    f"  ({int(calls)} calls)"
                )
        if self.gauges:
            lines.append("gauges")
            width = max(len(k) for k in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name:<{width}}  {self.gauges[name]:>14g}")
        if self.spans:
            totals: dict[str, list[float]] = {}
            for name, _, dur in self.spans:
                ent = totals.setdefault(name, [0, 0.0])
                ent[0] += 1
                ent[1] += dur
            lines.append("spans")
            width = max(len(k) for k in totals)
            for name in sorted(totals):
                count, seconds = totals[name]
                lines.append(
                    f"  {name:<{width}}  {seconds * 1e3:>12.3f} ms"
                    f"  ({int(count)} span(s))"
                )
        return "\n".join(lines) if lines else "(no metrics collected)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stats(counters={len(self.counters)}, timers={len(self.timers)},"
            f" gauges={len(self.gauges)}, spans={len(self.spans)})"
        )


#: The active collector for this context; ``None`` disables collection.
_ACTIVE: ContextVar[Stats | None] = ContextVar("repro_obs_stats", default=None)


def current() -> Stats | None:
    """The active collector, or ``None`` when collection is off.

    Hot objects should call this **once at construction** and keep the
    result in a slot — that makes the disabled path one attribute load
    plus an ``is not None`` test per event site.
    """
    return _ACTIVE.get()


def enabled() -> bool:
    """Whether a collector is active in this context."""
    return _ACTIVE.get() is not None


@contextmanager
def collect(stats: Stats | None = None):
    """Activate a collector for the dynamic extent of the block.

    Nested ``collect()`` blocks shadow the outer collector completely
    (no bleed-through); pass an existing :class:`Stats` to accumulate
    several blocks into one scope.
    """
    if stats is None:
        stats = Stats()
    token = _ACTIVE.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str):
    """Module-level phase span: no-op when collection is disabled.

    Use at coarse phase boundaries only (statics build, search load,
    engine run) — per-candidate paths should use slot-cached counters.
    """
    stats = _ACTIVE.get()
    if stats is None:
        yield None
    else:
        with stats.span(name):
            yield stats
