"""Persistence: JSON-compatible round-trips and stable content digests.

Schedules carry non-JSON task ids (tuples, arbitrary hashables), so the
format stores ``repr`` strings and resolves them against the graph's
tasks on load — a schedule is always deserialized *against* the graph
and platform it was computed for, which also re-validates the pairing.

The module also provides the canonical-JSON machinery the campaign
engine builds its content-addressed cell keys on:

* :func:`canonical_json` — deterministic JSON text (sorted keys, no
  whitespace, tuples collapsed to lists);
* :func:`stable_digest` — SHA-256 of the canonical JSON, stable across
  processes and Python invocations (unlike ``hash()``);
* :func:`graph_to_dict` / :func:`graph_from_dict` and
  :func:`platform_to_dict` / :func:`platform_from_dict` — full-content
  round trips so a campaign cell can be reconstructed anywhere.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Hashable
from pathlib import Path

from .exceptions import SchedulingError
from .platform import Platform
from .schedule import Schedule
from .taskgraph import TaskGraph

TaskId = Hashable


# ----------------------------------------------------------------------
# canonical JSON and content digests
# ----------------------------------------------------------------------
def canonical_json(payload) -> str:
    """Deterministic JSON text of a JSON-able payload.

    Keys are sorted and separators fixed so two structurally equal
    payloads always serialize to the same bytes; tuples become lists
    (``json`` does this natively) so dataclass ``astuple``-style
    payloads hash identically to their list forms.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def stable_digest(payload) -> str:
    """Hex SHA-256 of :func:`canonical_json` — a process-stable content key."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# graph and platform round-trips
# ----------------------------------------------------------------------
def graph_to_dict(graph: TaskGraph) -> dict:
    """Full-content dict of a task graph (tasks, weights, edges, volumes).

    Task ids are stored as ``repr`` strings, matching the schedule
    format; :func:`graph_from_dict` rebuilds string/int/tuple ids via
    ``ast.literal_eval``.  Rows are emitted in topological-insertion
    order so the output is deterministic for a deterministically built
    graph.
    """
    return {
        "name": graph.name,
        "tasks": [[repr(v), graph.weight(v)] for v in graph.tasks()],
        "edges": [[repr(u), repr(v), graph.data(u, v)] for u, v in graph.edges()],
    }


def graph_from_dict(payload: dict) -> TaskGraph:
    """Rebuild a graph written by :func:`graph_to_dict`."""
    from ast import literal_eval

    g = TaskGraph(name=payload.get("name", "taskgraph"))
    for key, weight in payload["tasks"]:
        g.add_task(literal_eval(key), weight)
    for src, dst, data in payload["edges"]:
        g.add_dependency(literal_eval(src), literal_eval(dst), data)
    return g


def platform_to_dict(platform: Platform) -> dict:
    """Full-content dict of a platform (cycle times + link matrix).

    A fully homogeneous network is collapsed to its scalar link cost;
    otherwise the full matrix is stored (``inf`` entries as the string
    ``"inf"`` since JSON has no infinity).
    """
    rows = platform.link_rows()
    off = [x for q, row in enumerate(rows) for r, x in enumerate(row) if q != r]
    if off and all(x == off[0] and math.isfinite(x) for x in off):
        link = off[0]
    elif not off:
        link = 1.0
    else:
        link = [[("inf" if not math.isfinite(x) else x) for x in row] for row in rows]
    return {"cycle_times": list(platform.cycle_times), "link": link}


def platform_from_dict(payload: dict) -> Platform:
    """Rebuild a platform written by :func:`platform_to_dict`."""
    link = payload.get("link", 1.0)
    if isinstance(link, list):
        link = [[math.inf if x == "inf" else float(x) for x in row] for row in link]
    return Platform(payload["cycle_times"], link)


def schedule_to_dict(schedule: Schedule) -> dict:
    """JSON-compatible dict of a schedule's decisions and times."""
    return {
        "heuristic": schedule.heuristic,
        "model": schedule.model,
        "placements": [
            {
                "task": repr(p.task),
                "proc": p.proc,
                "start": p.start,
                "finish": p.finish,
            }
            for p in schedule.placements.values()
        ],
        "comm_events": [
            {
                "src_task": repr(e.src_task),
                "dst_task": repr(e.dst_task),
                "src_proc": e.src_proc,
                "dst_proc": e.dst_proc,
                "start": e.start,
                "finish": e.finish,
                "data": e.data,
                "hop": e.hop,
            }
            for e in schedule.comm_events
        ],
    }


def schedule_from_dict(
    payload: dict, graph: TaskGraph, platform: Platform
) -> Schedule:
    """Rebuild a schedule against its graph and platform.

    Task references are matched by ``repr``; unknown or ambiguous
    references raise :class:`~repro.core.exceptions.SchedulingError`.
    """
    by_repr: dict[str, TaskId] = {}
    for task in graph.tasks():
        key = repr(task)
        if key in by_repr:
            raise SchedulingError(f"ambiguous task repr {key!r} in graph")
        by_repr[key] = task

    def resolve(key: str) -> TaskId:
        try:
            return by_repr[key]
        except KeyError:
            raise SchedulingError(f"schedule references unknown task {key!r}") from None

    schedule = Schedule(
        graph,
        platform,
        model=payload.get("model", "one-port"),
        heuristic=payload.get("heuristic", ""),
    )
    for row in payload["placements"]:
        schedule.place(resolve(row["task"]), row["proc"], row["start"], row["finish"])
    for row in payload["comm_events"]:
        schedule.record_comm(
            resolve(row["src_task"]),
            resolve(row["dst_task"]),
            row["src_proc"],
            row["dst_proc"],
            row["start"],
            row["finish"] - row["start"],
            row["data"],
            row.get("hop", 0),
        )
    return schedule


def save_schedule(schedule: Schedule, path: str | Path) -> Path:
    """Write a schedule as JSON."""
    path = Path(path)
    path.write_text(json.dumps(schedule_to_dict(schedule), indent=2))
    return path


def load_schedule(path: str | Path, graph: TaskGraph, platform: Platform) -> Schedule:
    """Read a schedule written by :func:`save_schedule`."""
    return schedule_from_dict(json.loads(Path(path).read_text()), graph, platform)
