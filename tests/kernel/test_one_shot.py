"""The timed kernel's one-shot pass: compiled vs the Python loop.

``TimedKernel.propagate_kahn`` runs the active backend's compiled pass
(``cext``: ``_cext.OneShot``, a packed successor CSR built once per
kernel) or the pure-Python ``_kahn_loop``.  The two must agree bit for
bit — makespans, every written time, and which nodes get written —
under every override combination, and both keep the override
contract: passing any of ``dur`` / ``out_start`` / ``out_finish``
leaves the kernel's base ``start`` / ``finish`` / ``makespan``
untouched.

Contract tests run on every available pass; comparisons against the
compiled pass skip when the extension is not built.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Platform
from repro.core import SchedulingError, TaskGraph
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import get_scheduler
from repro.kernel import TimedKernel, compile_statics
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.search import SearchPoint
from repro.simulate import extract_decisions
from repro.simulate.replay import ReplayDecisions

needs_cext = pytest.mark.skipif(not cext_available(), reason="cext extension not built")
PASSES = [pytest.param("python"), pytest.param("cext", marks=needs_cext)]

PLATFORM = Platform.from_groups([(5, 6), (3, 10), (2, 15)])
GRAPHS = {
    "lu": lambda: lu_graph(6),
    "irregular": lambda: irregular_testbed(30, seed=4),
    "layered": lambda: layered_testbed(4, seed=2),
}
#: Duration overrides: zero, huge, infinite, and plain ints.
OVERRIDES = [0.0, 1e9, math.inf, 0, 3, 10**6]
CYCLE = "constraint DAG has a cycle: the decision orders are inconsistent"

_PLANS: dict = {}


def plan(name: str):
    """``(statics, decisions)`` of a HEFT plan of a small testbed."""
    if name not in _PLANS:
        graph = GRAPHS[name]()
        schedule = get_scheduler("heft").run(graph, PLATFORM, "one-port")
        _PLANS[name] = (compile_statics(graph, PLATFORM), extract_decisions(schedule))
    return _PLANS[name]


def kernel_on(backend: str, statics, decisions) -> TimedKernel:
    """A compiled kernel whose pass was resolved under ``backend``."""
    with use_backend(backend):
        kern = TimedKernel.from_decisions(statics, decisions)
        kern.propagate_kahn()
    return kern


def base_state(kern: TimedKernel):
    return list(kern.start), list(kern.finish), kern.makespan


def call(kern: TimedKernel, mode: str, dur):
    """One override call; returns the makespan and the out arrays,
    pre-filled with a sentinel so unwritten entries show."""
    size = len(kern.dur)
    out_start = [-1.0] * size if "start" in mode else None
    out_finish = [-1.0] * size if "finish" in mode else None
    ms = kern.propagate_kahn(
        dur=dur if "dur" in mode else None, out_start=out_start, out_finish=out_finish
    )
    return ms, out_start, out_finish


MODES = ["dur", "dur+start+finish", "start+finish", "start", "finish", "dur+finish"]


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_python_runs_the_python_loop():
    statics, decisions = plan("lu")
    assert kernel_on("python", statics, decisions)._one_shot is False


@needs_cext
def test_cext_packs_the_kernel_once():
    from repro.kernel import _cext

    statics, decisions = plan("lu")
    kern = kernel_on("cext", statics, decisions)
    packed = kern._one_shot
    assert isinstance(packed, _cext.OneShot)
    kern.propagate_kahn(dur=list(kern.dur))
    assert kern._one_shot is packed


# ----------------------------------------------------------------------
# compiled == Python loop
# ----------------------------------------------------------------------
@needs_cext
@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(GRAPHS)), data=st.data())
def test_compiled_matches_python_loop(name, data):
    statics, decisions = plan(name)
    py = kernel_on("python", statics, decisions)
    cx = kernel_on("cext", statics, decisions)
    assert base_state(py) == base_state(cx)
    size = len(py.dur)
    picks = data.draw(
        st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(OVERRIDES)),
                 max_size=size)
    )
    dur = list(py.dur)
    for node, value in picks:
        dur[node] = value
    mode = data.draw(st.sampled_from(MODES))
    before = base_state(py)
    got_py = call(py, mode, dur)
    got_cx = call(cx, mode, dur)
    assert got_py == got_cx
    assert base_state(py) == before
    assert base_state(cx) == before


# ----------------------------------------------------------------------
# override contract (every pass)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", PASSES)
@pytest.mark.parametrize("mode", MODES)
def test_overrides_leave_base_state_untouched(backend, mode):
    statics, decisions = plan("irregular")
    kern = kernel_on(backend, statics, decisions)
    size = len(kern.dur)
    # scribble the base state: any write by the pass would show
    kern.start[:] = [-2.0] * size
    kern.finish[:] = [-2.0] * size
    kern.makespan = -2.0
    dur = [d * 2.0 for d in kern.dur]
    ms, out_start, out_finish = call(kern, mode, dur)
    assert kern.start == [-2.0] * size
    assert kern.finish == [-2.0] * size
    assert kern.makespan == -2.0
    ref = kernel_on(backend, statics, decisions)
    scale = 2.0 if "dur" in mode else 1.0
    assert ms == scale * ref.makespan
    live = set(ref.active_nodes())
    for out, base in ((out_start, ref.start), (out_finish, ref.finish)):
        if out is None:
            continue
        for node in range(size):
            assert out[node] == (scale * base[node] if node in live else -1.0)


@pytest.mark.parametrize("backend", PASSES)
def test_empty_graph_returns_zero(backend):
    statics = compile_statics(TaskGraph(name="empty"), PLATFORM)
    decisions = ReplayDecisions(alloc={}, proc_order={}, send_order={}, recv_order={})
    kern = kernel_on(backend, statics, decisions)
    assert kern.makespan == 0.0
    assert kern.propagate_kahn() == 0.0
    assert kern.propagate_kahn(dur=[]) == 0.0
    assert kern.propagate_kahn(dur=[], out_start=[], out_finish=[]) == 0.0


@pytest.mark.parametrize("backend", PASSES)
def test_search_point_kernels_are_rejected(backend):
    graph = lu_graph(4)
    schedule = get_scheduler("heft").run(graph, PLATFORM, "one-port")
    statics = compile_statics(graph, PLATFORM)
    kern = TimedKernel.from_point(statics, SearchPoint.from_schedule(schedule))
    with use_backend(backend):
        with pytest.raises(SchedulingError, match="one-shot form"):
            kern.propagate_kahn()


# ----------------------------------------------------------------------
# bad inputs: raise up front, write nothing, leave the kernel usable
# ----------------------------------------------------------------------
BAD_INPUTS = {
    "dur short": (lambda n: {"dur": [1.0] * (n - 1)}, ValueError),
    "dur long": (lambda n: {"dur": [1.0] * (n + 1)}, ValueError),
    "dur empty": (lambda n: {"dur": []}, ValueError),
    "out_start short": (lambda n: {"out_start": [0.0] * (n - 1)}, ValueError),
    "out_finish long": (lambda n: {"out_finish": [0.0] * (n + 1)}, ValueError),
    "dur strings": (lambda n: {"dur": ["1.0"] * n}, TypeError),
    "dur None entries": (lambda n: {"dur": [None] * n}, TypeError),
    "dur not a sequence": (lambda n: {"dur": 5}, TypeError),
    "out_start tuple": (lambda n: {"out_start": (0.0,) * n}, TypeError),
    "dur huge int": (lambda n: {"dur": [10**400] * n}, OverflowError),
}


@pytest.mark.parametrize("backend", PASSES)
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_arrays_raise_and_kernel_stays_usable(backend, case):
    statics, decisions = plan("lu")
    kern = kernel_on(backend, statics, decisions)
    before = base_state(kern)
    make, exc = BAD_INPUTS[case]
    kwargs = make(len(kern.dur))
    snapshot = {k: list(v) if isinstance(v, list) else v for k, v in kwargs.items()}
    with pytest.raises(exc):
        kern.propagate_kahn(**kwargs)
    if "dur" not in case:  # wrong-shaped out arrays are rejected before any write
        assert kwargs == snapshot
    assert base_state(kern) == before
    assert kern.propagate_kahn(dur=list(kern.dur)) == before[2]
    assert kern.propagate_kahn() == before[2]
    assert base_state(kern) == before


@pytest.mark.parametrize("backend", PASSES)
def test_bad_entry_of_a_live_node_raises(backend):
    statics, decisions = plan("lu")
    kern = kernel_on(backend, statics, decisions)
    dur = list(kern.dur)
    dur[statics.num_tasks - 1] = "slow"
    with pytest.raises(TypeError):
        kern.propagate_kahn(dur=dur)
    assert kern.propagate_kahn(dur=list(kern.dur)) == kern.makespan


# ----------------------------------------------------------------------
# cyclic orders
# ----------------------------------------------------------------------
def processor_cycle():
    """``a -> b`` by precedence, ``b`` before ``a`` on the processor;
    ``c`` is independent and still gets timed."""
    graph = TaskGraph.from_specs([("a", 1.0), ("b", 1.0), ("c", 2.0)], [("a", "b", 0.0)])
    decisions = ReplayDecisions(
        alloc={"a": 0, "b": 0, "c": 1},
        proc_order={0: ["b", "a"], 1: ["c"]},
        send_order={0: [], 1: []},
        recv_order={0: [], 1: []},
    )
    return graph, decisions


def port_cycle():
    """Two transfers P0 -> P1 sent in one order and received in the other."""
    graph = TaskGraph.from_specs(
        [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
        [("a", "c", 2.0), ("b", "d", 3.0)],
    )
    ac, bd = ("a", "c", 0), ("b", "d", 0)
    decisions = ReplayDecisions(
        alloc={"a": 0, "b": 0, "c": 1, "d": 1},
        proc_order={0: ["a", "b"], 1: ["c", "d"]},
        send_order={0: [ac, bd], 1: []},
        recv_order={0: [], 1: [bd, ac]},
        hops={ac: (0, 1), bd: (0, 1)},
    )
    return graph, decisions


CYCLES = {"processor": processor_cycle, "port": port_cycle}


@pytest.mark.parametrize("backend", PASSES)
@pytest.mark.parametrize("shape", sorted(CYCLES))
def test_cyclic_orders_raise_and_kernel_stays_usable(backend, shape):
    graph, decisions = CYCLES[shape]()
    statics = compile_statics(graph, Platform.homogeneous(2))
    with use_backend(backend):
        kern = TimedKernel.from_decisions(statics, decisions)
        for _ in range(2):  # in-degree countdowns are per call: same error again
            with pytest.raises(SchedulingError) as info:
                kern.propagate_kahn()
            assert str(info.value) == CYCLE
            with pytest.raises(SchedulingError, match="cycle"):
                kern.propagate_kahn(dur=list(kern.dur))
    assert kern.makespan == 0.0


@needs_cext
@pytest.mark.parametrize("shape", sorted(CYCLES))
def test_cyclic_orders_write_the_same_nodes(shape):
    graph, decisions = CYCLES[shape]()
    statics = compile_statics(graph, Platform.homogeneous(2))
    outs = []
    for backend in ("python", "cext"):
        with use_backend(backend):
            kern = TimedKernel.from_decisions(statics, decisions)
            size = len(kern.dur)
            out = ([-1.0] * size, [-1.0] * size)
            with pytest.raises(SchedulingError, match="cycle"):
                kern.propagate_kahn(out_start=out[0], out_finish=out[1])
            outs.append(out)
    assert outs[0] == outs[1]
