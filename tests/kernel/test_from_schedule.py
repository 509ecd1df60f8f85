"""``TimedKernel.from_schedule`` is ``from_decisions`` of the extracted decisions.

The two constructors share one linking step (``TimedKernel._link``) and
differ only in how they intern their input: ``from_schedule`` sorts a
schedule's records the way ``extract_decisions`` does, without building
the decision dicts.  For every schedule the frozen-digest suite builds
(``tests/heuristics/test_builder_equivalence.py``), every one-shot
field must be equal, or both must raise the same error; hand-built
schedules pin the same for each single fault.
"""

import math

import pytest

from heuristics.test_builder_equivalence import CASES
from repro import Platform
from repro.core import TaskGraph
from repro.core.exceptions import PlatformError, SchedulingError
from repro.core.schedule import Schedule
from repro.kernel import KernelIneligible, TimedKernel, compile_statics
from repro.simulate import extract_decisions

FIELDS = (
    "alloc",
    "active",
    "num_active",
    "hop_list",
    "hop_procs",
    "dur",
    "indeg",
    "next_proc",
    "next_send",
    "next_recv",
)


def outcome(build):
    """The one-shot fields of ``build()``, or its error's type and text."""
    try:
        kern = build()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return tuple(getattr(kern, name) for name in FIELDS)


def both(schedule, statics=None):
    """``(from_schedule, from_decisions(extract_decisions))`` outcomes."""
    if statics is None:
        statics = compile_statics(schedule.graph, schedule.platform)
    return (
        outcome(lambda: TimedKernel.from_schedule(statics, schedule)),
        outcome(lambda: TimedKernel.from_decisions(statics, extract_decisions(schedule))),
    )


@pytest.mark.parametrize("case_id", [
    pytest.param(c, marks=pytest.mark.slow) if c.startswith("fuzz/") else c
    for c in sorted(CASES)
])
def test_matches_extracted_decisions(case_id):
    schedule = CASES[case_id]()
    got, want = both(schedule)
    assert got == want
    if any(e.hop for e in schedule.comm_events):
        assert got[0] is KernelIneligible


def test_routed_cases_include_multi_hop_schedules():
    routed = [CASES[c]() for c in sorted(CASES) if c.startswith("routed/")]
    assert any(e.hop for s in routed for e in s.comm_events)


def _pair(platform=None) -> Schedule:
    graph = TaskGraph.from_specs([("u", 1.0), ("v", 2.0)], [("u", "v", 3.0)])
    return Schedule(graph, platform or Platform.homogeneous(2), model="one-port")


def _remote(platform=None) -> Schedule:
    """``u`` on P0 feeding ``v`` on P1 through one transfer."""
    s = _pair(platform)
    s.place("u", 0, 0.0, 1.0)
    s.record_comm("u", "v", 0, 1, 1.0, 3.0, 3.0)
    s.place("v", 1, 4.0, 6.0)
    return s


def test_well_formed_pair_compiles():
    got, want = both(_remote())
    assert got == want
    assert got[FIELDS.index("hop_procs")] == [(0, 1)]


def test_duplicate_transfer():
    s = _remote()
    s.record_comm("u", "v", 0, 1, 3.0, 3.0, 3.0)
    got, want = both(s)
    assert got == want
    assert got == (SchedulingError, "duplicate transfer ('u', 'v', 0) in schedule")


def test_local_edge_with_transfer():
    s = _pair()
    s.place("u", 0, 0.0, 1.0)
    s.record_comm("u", "v", 0, 1, 1.0, 3.0, 3.0)
    s.place("v", 0, 4.0, 6.0)
    got, want = both(s)
    assert got == want
    assert got[0] is SchedulingError and "local but has transfers" in got[1]


def test_remote_edge_without_transfer():
    s = _pair()
    s.place("u", 0, 0.0, 1.0)
    s.place("v", 1, 1.0, 3.0)
    got, want = both(s)
    assert got == want
    assert got[0] is SchedulingError and "has no transfer" in got[1]


@pytest.mark.parametrize("bad", [-1, 2])
def test_out_of_range_processor(bad):
    s = _pair()
    s.place("u", 0, 0.0, 1.0)
    s.record_comm("u", "v", 0, 1, 1.0, 3.0, 3.0)
    s.place("v", bad, 4.0, 6.0)
    got, want = both(s)
    assert got == want
    assert got[0] is PlatformError and "out of range" in got[1]


@pytest.mark.parametrize("end", ["src", "dst"])
def test_out_of_range_transfer_port(end):
    s = _pair()
    s.place("u", 0, 0.0, 1.0)
    src, dst = (5, 1) if end == "src" else (0, 5)
    s.record_comm("u", "v", src, dst, 1.0, 3.0, 3.0)
    s.place("v", 1, 4.0, 6.0)
    got, want = both(s)
    assert got == want
    assert got[0] is KeyError


def test_missing_link():
    inf = math.inf
    got, want = both(_remote(Platform([1.0, 1.0], [[0.0, inf], [inf, 0.0]])))
    assert got == want
    assert got == (PlatformError, "no direct link from P0 to P1")


def test_missing_task():
    s = _pair()
    s.place("u", 0, 0.0, 1.0)
    got, want = both(s)
    assert got == want
    assert got == (SchedulingError, "decisions missing task 'v'")


def test_multi_hop_transfer_is_ineligible():
    s = _remote(Platform.homogeneous(3))
    s.comm_events[0] = s.comm_events[0]._replace(dst_proc=2)
    s.record_comm("u", "v", 2, 1, 3.0, 1.0, 3.0, hop=1)
    got, want = both(s)
    assert got == want
    assert got[0] is KernelIneligible
