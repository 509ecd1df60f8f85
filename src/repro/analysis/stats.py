"""Descriptive statistics over schedules.

These are the quantities the paper's discussion reasons about — per-
processor load (Section 5.2's balance analysis), serialized port traffic
(the STENCIL bottleneck of Figure 12), and message counts (ILHA's design
goal) — exposed as plain dictionaries for reports and tests.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..core.schedule import Schedule


def processor_profile(schedule: Schedule) -> dict[int, dict[str, float]]:
    """Per-processor busy/idle breakdown over the makespan window."""
    ms = schedule.makespan()
    out: dict[int, dict[str, float]] = {}
    for proc in schedule.platform.processors:
        busy = schedule.proc_busy_time(proc)
        tasks = schedule.tasks_on(proc)
        out[proc] = {
            "busy": busy,
            "idle": max(0.0, ms - busy),
            "tasks": float(len(tasks)),
            "utilization": busy / ms if ms > 0 else 1.0,
        }
    return out


def idle_profile(schedule: Schedule) -> dict[str, float]:
    """Aggregate idle statistics (min/max/mean utilization)."""
    profile = processor_profile(schedule)
    utils = [row["utilization"] for row in profile.values()]
    return {
        "min_utilization": min(utils),
        "max_utilization": max(utils),
        "mean_utilization": sum(utils) / len(utils),
        "total_idle": sum(row["idle"] for row in profile.values()),
    }


def port_busy_times(schedule: Schedule) -> dict[int, dict[str, float]]:
    """Per-processor send/receive port occupation.

    Under the one-port model these are serialized resources; a port busy
    for most of the makespan is the communication bottleneck the paper
    identifies on STENCIL ("these become the bottleneck").
    """
    out = {
        proc: {"send": 0.0, "recv": 0.0} for proc in schedule.platform.processors
    }
    for e in schedule.comm_events:
        out[e.src_proc]["send"] += e.duration
        out[e.dst_proc]["recv"] += e.duration
    return out


def comm_matrix(schedule: Schedule) -> Any:
    """``p x p`` ndarray of total transfer time between processor pairs.

    NumPy is imported here, so only callers of this function need it.
    """
    import numpy as np

    p = schedule.platform.num_processors
    mat = np.zeros((p, p))
    for e in schedule.comm_events:
        mat[e.src_proc, e.dst_proc] += e.duration
    return mat


def compare_schedules(schedules: Iterable[Schedule]) -> str:
    """Aligned comparison table of several schedules' headline metrics."""
    rows = []
    for s in schedules:
        idle = idle_profile(s) if s.placements else None
        rows.append(
            (
                s.heuristic or "?",
                s.model,
                s.makespan(),
                s.speedup(),
                s.num_comms(),
                s.total_comm_time(),
                idle["mean_utilization"] if idle else 0.0,
            )
        )
    header = (
        f"{'heuristic':<20} {'model':<16} {'makespan':>10} {'speedup':>8} "
        f"{'#msg':>6} {'commtime':>10} {'util':>6}"
    )
    lines = [header, "-" * len(header)]
    for name, model, ms, sp, nc, ct, util in rows:
        lines.append(
            f"{name:<20} {model:<16} {ms:>10.1f} {sp:>8.2f} {nc:>6} "
            f"{ct:>10.1f} {util:>6.2f}"
        )
    return "\n".join(lines)
