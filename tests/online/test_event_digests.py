"""Frozen online decisions: one digest per seeded simulation.

``test_backend_identity.py`` compares the kernel backends on one tree
and ``TestDeterminism`` compares two runs of one tree; neither sees a
change that moves every backend the same way.  ``event_digests.json``
holds, per configuration below, the event count and the SHA-256 of
``repr((event_log, placements, sorted(transfers)))`` (see
:func:`event_digest`), and every available backend must reproduce both.

Only draws that need no libm transcendental are used, so the digests
hold on every CPython version and platform: ``burst`` and ``trace``
arrivals (``poisson`` calls ``math.log``), and ``exact`` or zero-sigma
``straggler`` noise (``lognormal`` calls ``math.exp``).  The aggregate
and the job rows are left out: their flow and transfer-time totals use
built-in ``sum()``, whose floats change from Python 3.12 on.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.online import check_execution, make_workload, make_policy, simulate_online

STRAGGLER = "straggler:prob=0.15,factor=8,sigma=0"

#: id -> (testbed, size, jobs, arrival, vary_graphs, heuristic, policy, noise)
CONFIGS = {
    "lu-8/heft/reactive-0.05": (
        "lu", 8, 6, "burst:size=3,gap=60", False, "heft", "reactive:threshold=0.05", STRAGGLER),
    "lu-8/ilha/reactive-0.2": (
        "lu", 8, 6, "burst:size=2,gap=80", False, "ilha", "reactive:threshold=0.2", STRAGGLER),
    "lu-12/heft/reactive-0.03": (
        "lu", 12, 4, "burst:size=2,gap=150", False, "heft", "reactive:threshold=0.03", STRAGGLER),
    "fork-join-8/pct/reactive-0.05": (
        "fork-join", 8, 6, "burst:size=3,gap=40", False, "pct", "reactive:threshold=0.05",
        STRAGGLER),
    "irregular-30/heft/reactive-0.05": (
        "irregular", 30, 5, "burst:size=2,gap=100", True, "heft", "reactive:threshold=0.05",
        STRAGGLER),
    "lu-8/heft/periodic-100/exact": (
        "lu", 8, 6, "burst:size=3,gap=60", False, "heft", "periodic:period=100", "exact"),
    "irregular-30/ilha/periodic-300": (
        "irregular", 30, 5, "trace:0,50,120", True, "ilha", "periodic:period=300", STRAGGLER),
    "lu-10/pct/periodic-300": (
        "lu", 10, 4, "burst:size=2,gap=100", False, "pct", "periodic:period=300", STRAGGLER),
    "fork-join-8/heft/static/exact": (
        "fork-join", 8, 4, "burst:size=2,gap=50", False, "heft", "static", "exact"),
    "irregular-30/pct/static": (
        "irregular", 30, 4, "burst:size=2,gap=60", False, "pct", "static", STRAGGLER),
    "lu-8/ready-dispatch": (
        "lu", 8, 5, "burst:size=3,gap=60", False, None, "ready-dispatch", STRAGGLER),
    "irregular-30/ready-dispatch/exact": (
        "irregular", 30, 4, "burst:size=4,gap=0", True, None, "ready-dispatch", "exact"),
}

BACKENDS = [
    "python",
    pytest.param("cext", marks=pytest.mark.skipif(
        not cext_available(), reason="cext extension not built")),
]


def event_digest(result) -> str:
    """SHA-256 of a run's event log, placements and sorted transfers."""
    payload = repr((result.event_log, result.placements, sorted(result.transfers)))
    return hashlib.sha256(payload.encode()).hexdigest()


def simulate(config_id, platform):
    testbed, size, jobs, arrival, vary, heuristic, policy, noise = CONFIGS[config_id]
    workload = make_workload(testbed, size, jobs, arrival=arrival, seed=2, vary_graphs=vary)
    overrides = {} if heuristic is None else {"heuristic": heuristic}
    return simulate_online(workload, platform, policy=make_policy(policy, **overrides),
                           noise=noise, seed=3)


@pytest.fixture(scope="module")
def frozen():
    return json.loads(Path(__file__).with_name("event_digests.json").read_text())


def test_every_config_is_frozen(frozen):
    assert sorted(frozen) == sorted(CONFIGS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config_id", sorted(CONFIGS))
def test_decisions_match_frozen_digest(config_id, backend, frozen, paper_platform):
    with use_backend(backend):
        result = simulate(config_id, paper_platform)
    check_execution(result)
    if CONFIGS[config_id][6].startswith(("reactive", "periodic")):
        assert any(ev[1] == "replan" for ev in result.event_log), "expected a replan"
    assert result.events == frozen[config_id]["events"]
    assert event_digest(result) == frozen[config_id]["sha256"], f"{config_id}: decision drift"
