"""Recording order of the list heuristics, pinned per backend.

:func:`test_builder_equivalence.schedule_digest` sorts both record kinds,
so it cannot see the order a schedule stores them in.  That order is
observable all the same: ``schedule_to_dict`` emits placements in dict
order and communication events in list order.  This digest takes both
record kinds in their stored order — placements in commit order, events
in booking order — with floats as ``float.hex``, and every available
backend must reproduce the frozen value.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro import Platform
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import get_scheduler
from repro.kernel.backends import available_backends, use_backend

GRAPHS = {
    "irregular": lambda: irregular_testbed(60, seed=5),
    "layered": lambda: layered_testbed(6, seed=2),
    "lu": lambda: lu_graph(8),
}

HEURISTICS = {
    "heft": ("heft", {}),
    "pct": ("pct", {}),
    "ilha": ("ilha", {}),
    "ilha:b=8": ("ilha", {"b": 8}),
    "ilha:scan+resched": ("ilha", {"single_comm_scan": True, "reschedule": True}),
}


def _paper() -> Platform:
    """Section 5.2: 5x t=6, 3x t=10, 2x t=15 on a unit network."""
    return Platform.from_groups([(5, 6), (3, 10), (2, 15)])


def ordered_digest(schedule) -> str:
    """SHA-256 over the records in their stored order (exact floats)."""
    lines = [
        f"P {task!r} {p.task!r} {p.proc} {float(p.start).hex()} {float(p.finish).hex()}"
        for task, p in schedule.placements.items()
    ]
    lines += [
        f"C {e.src_task!r} {e.dst_task!r} {e.src_proc} {e.dst_proc} "
        f"{float(e.start).hex()} {float(e.finish).hex()} {float(e.data).hex()} {e.hop}"
        for e in schedule.comm_events
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@functools.cache
def _frozen() -> dict:
    return json.loads(Path(__file__).with_name("order_digests.json").read_text())


def test_every_case_is_frozen():
    assert sorted(_frozen()) == sorted(
        f"{h}/{g}" for h in HEURISTICS for g in GRAPHS
    )


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("label", sorted(HEURISTICS))
def test_recording_order_is_frozen(label, graph_name, backend):
    name, kwargs = HEURISTICS[label]
    with use_backend(backend):
        schedule = get_scheduler(name, **kwargs).run(
            GRAPHS[graph_name](), _paper(), "one-port"
        )
    assert ordered_digest(schedule) == _frozen()[f"{label}/{graph_name}"]
