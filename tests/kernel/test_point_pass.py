"""The timed kernel's point sweep: compiled vs the Python reference.

A point-form ``TimedKernel`` (``from_point``) times a search point in
one forward sweep over its sequence, either compiled
(``_cext.Statics.point_pass``, selected through
``KernelBackend.point_pass``) or as the pure-Python ``_point_loop``.
The two must agree bit for bit — makespan, timed-node count, and every
written ``start`` / ``finish`` / ``tight`` entry, with the same entries
left unwritten — and both must equal the one-shot Kahn pass of the
point's canonical decisions (the replay kernel).

Both tiers validate before they write: bad inputs raise the same
exception types, leave the out lists untouched, and leave the kernel's
(and the evaluator's) base state unchanged.

Comparisons against the compiled pass skip when the extension is not
built.
"""

import math
import random

import pytest

from repro import HEFT, Platform
from repro.core import SchedulingError, TaskGraph
from repro.core.exceptions import PlatformError
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.kernel import TimedKernel, compile_statics
from repro.kernel.backends import get_backend, use_backend
from repro.kernel.cext_backend import cext_available
from repro.search import IncrementalEvaluator, MoveTask, Reposition, SearchPoint

from platforms import OTHER_PLATFORMS

needs_cext = pytest.mark.skipif(not cext_available(), reason="cext extension not built")
PASSES = [pytest.param("python"), pytest.param("cext", marks=needs_cext)]


#: The paper platform plus the two non-uniform platforms of the backend
#: equivalence suite (asymmetric non-dyadic links; three processors).
PLATFORMS = {
    "paper": lambda: Platform.from_groups([(5, 6), (3, 10), (2, 15)]),
    **OTHER_PLATFORMS,
}


def _zero_data(graph: TaskGraph) -> TaskGraph:
    """``graph`` with every third edge carrying no data: zero-length
    transfers that still hold their ports, so finishes tie often."""
    return TaskGraph.from_specs(
        [(v, graph.weight(v)) for v in graph.tasks()],
        [(u, v, 0.0 if i % 3 == 0 else graph.data(u, v))
         for i, (u, v) in enumerate(graph.edges())],
    )


TESTBEDS = {
    "lu": lambda: lu_graph(8),
    "layered": lambda: layered_testbed(5, seed=7),
    "irregular": lambda: irregular_testbed(40, seed=3),
    "zero-data": lambda: _zero_data(irregular_testbed(40, seed=3)),
}

_CACHE: dict = {}


def instance(testbed: str, platform_name: str):
    """``(graph, platform, statics)``, built once per pair."""
    key = (testbed, platform_name)
    if key not in _CACHE:
        graph, platform = TESTBEDS[testbed](), PLATFORMS[platform_name]()
        _CACHE[key] = (graph, platform, compile_statics(graph, platform))
    return _CACHE[key]


def random_point(graph, platform, rng) -> SearchPoint:
    """A random allocation and a random topological sequence."""
    maps = graph.as_maps()
    indeg = {v: len(maps.preds[v]) for v in graph.tasks()}
    ready = [v for v in graph.tasks() if not indeg[v]]
    sequence = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        sequence.append(v)
        for w in maps.succs[v]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    alloc = {v: rng.randrange(platform.num_processors) for v in graph.tasks()}
    return SearchPoint(graph, alloc, sequence)


def repositioned(point: SearchPoint, rng, moves: int = 12) -> SearchPoint:
    """``point`` after up to ``moves`` random feasible repositions."""
    for _ in range(moves * 4):
        if not moves:
            break
        seq = point.sequence
        i, j = sorted(rng.sample(range(len(seq)), 2))
        move = Reposition(seq[j], seq[i])
        if move.feasible(point):
            point = move.apply(point)
            moves -= 1
    return point


def points(graph, platform, seed: int):
    rng = random.Random(seed)
    heft = SearchPoint.from_schedule(HEFT().run(graph, platform, "one-port"))
    out = [heft, repositioned(heft, rng)]
    for _ in range(4):
        point = random_point(graph, platform, rng)
        out += [point, repositioned(point, rng)]
    return out


def run_pass(backend: str, statics, alloc, seq, outs=True):
    """One pass on ``backend`` into sentinel-filled out lists."""
    size = statics.num_nodes
    start, finish, tight = ([-1.0] * size, [-1.0] * size, [-2] * size) if outs else (None,) * 3
    ms, timed = point_pass(backend, statics)(alloc, seq, start, finish, tight)
    return ms, timed, start, finish, tight


def point_pass(backend: str, statics):
    """``backend``'s point pass over ``statics``: the compiled one, or
    the Python reference ``_point_loop`` of a kernel over them."""
    return get_backend(backend).point_pass(statics) or TimedKernel(statics)._point_loop


def interned(statics, point: SearchPoint):
    return [point.alloc[v] for v in statics.tasks], [statics.tindex[v] for v in point.sequence]


# ----------------------------------------------------------------------
# compiled == Python reference == one-shot replay kernel
# ----------------------------------------------------------------------
@needs_cext
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
def test_compiled_matches_python_bit_for_bit(testbed, platform_name):
    graph, platform, statics = instance(testbed, platform_name)
    for point in points(graph, platform, seed=len(testbed) * 31 + len(platform_name)):
        alloc, seq = interned(statics, point)
        py = run_pass("python", statics, alloc, seq)
        cx = run_pass("cext", statics, alloc, seq)
        assert py == cx
        assert run_pass("cext", statics, alloc, seq, outs=False)[:2] == py[:2]


@pytest.mark.parametrize("backend", PASSES)
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
def test_sweep_matches_the_replay_kernel(backend, testbed, platform_name):
    """Every live node gets the one-shot Kahn pass's start and finish,
    and nothing else is written."""
    graph, platform, statics = instance(testbed, platform_name)
    for point in points(graph, platform, seed=7):
        alloc, seq = interned(statics, point)
        ms, timed, start, finish, tight = run_pass(backend, statics, alloc, seq)
        with use_backend("python"):
            ref = TimedKernel.from_decisions(statics, point.to_decisions(platform.processors))
            ref.propagate_kahn()
        live = set(ref.active_nodes())
        assert timed == len(live)
        assert ms == ref.makespan
        for node in range(statics.num_nodes):
            if node in live:
                assert (start[node], finish[node]) == (ref.start[node], ref.finish[node])
            else:
                assert (start[node], finish[node], tight[node]) == (-1.0, -1.0, -2)


@pytest.mark.parametrize("backend", PASSES)
def test_tight_predecessor_releases_the_node(backend):
    """Each live node starts exactly when its tight predecessor
    finishes; only a task without predecessors has none (and starts
    at 0)."""
    graph, platform, statics = instance("zero-data", "contended")
    n = statics.num_tasks
    for point in points(graph, platform, seed=3):
        alloc, seq = interned(statics, point)
        _, _, start, finish, tight = run_pass(backend, statics, alloc, seq)
        for node, t in enumerate(tight):
            if t == -2:
                continue  # not live
            if t < 0:
                assert node < n and start[node] == 0.0
            else:
                assert finish[t] == start[node]


@pytest.mark.parametrize("backend", PASSES)
def test_empty_graph(backend):
    statics = compile_statics(TaskGraph(name="empty"), PLATFORMS["paper"]())
    assert run_pass(backend, statics, [], []) == (0.0, 0, [], [], [])


# ----------------------------------------------------------------------
# bad inputs: same exception types, nothing written, state unchanged
# ----------------------------------------------------------------------
def _swap_with_successor(statics, seq):
    """``seq`` with its first task that has a successor swapped with it."""
    seq = list(seq)
    for i, v in enumerate(seq):
        row = statics.succ_rows[v]
        if row:
            j = seq.index(statics.edst[row[0]])
            seq[i], seq[j] = seq[j], seq[i]
            return seq
    raise AssertionError("no edge")


#: name -> (make(statics, alloc, seq) -> pass arguments, exception type)
BAD_INPUTS = {
    "processor too large": (
        lambda st, a, s: ([st.num_procs] + a[1:], s, None), PlatformError),
    "processor negative": (lambda st, a, s: (a[:-1] + [-1], s, None), PlatformError),
    "alloc short": (lambda st, a, s: (a[:-1], s, None), ValueError),
    "alloc not a sequence": (lambda st, a, s: (7, s, None), TypeError),
    "seq duplicate": (lambda st, a, s: (a, [s[1]] + s[1:], None), SchedulingError),
    "seq out of range": (lambda st, a, s: (a, s[:-1] + [len(s)], None), SchedulingError),
    "seq not topological": (lambda st, a, s: (a, _swap_with_successor(st, s), None), SchedulingError),
    "seq short": (lambda st, a, s: (a, s[:-1], None), ValueError),
    "start short": (lambda st, a, s: (a, s, ("start", [0.0] * (st.num_nodes - 1))), ValueError),
    "finish long": (lambda st, a, s: (a, s, ("finish", [0.0] * (st.num_nodes + 1))), ValueError),
    "tight tuple": (lambda st, a, s: (a, s, ("tight", (0,) * st.num_nodes)), TypeError),
    "start dict": (lambda st, a, s: (a, s, ("start", {})), TypeError),
}


def _call(backend, statics, alloc, seq, bad_out):
    size = statics.num_nodes
    outs = {"start": [-1.0] * size, "finish": [-1.0] * size, "tight": [-2] * size}
    if bad_out is not None:
        outs[bad_out[0]] = bad_out[1]
    snapshot = {k: type(v)(v) for k, v in outs.items()}
    fn = point_pass(backend, statics)
    return lambda: fn(alloc, seq, outs["start"], outs["finish"], outs["tight"]), outs, snapshot


@pytest.mark.parametrize("backend", PASSES)
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_raise_and_write_nothing(backend, case):
    graph, platform, statics = instance("irregular", "paper")
    alloc, seq = interned(statics, points(graph, platform, seed=1)[0])
    make, exc = BAD_INPUTS[case]
    bad_alloc, bad_seq, bad_out = make(statics, alloc, seq)
    run, outs, snapshot = _call(backend, statics, bad_alloc, bad_seq, bad_out)
    with pytest.raises(exc):
        run()
    assert outs == snapshot


def _missing_link_instance():
    inf = math.inf
    graph = TaskGraph.from_specs([("u", 1.0), ("v", 1.0), ("w", 2.0)],
                                 [("u", "v", 2.0), ("u", "w", 1.0)])
    platform = Platform([1.0, 1.0, 2.0], [[0.0, inf, 1.0], [inf, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return graph, platform, compile_statics(graph, platform)


@pytest.mark.parametrize("backend", PASSES)
def test_missing_link_raises_and_writes_nothing(backend):
    graph, platform, statics = _missing_link_instance()
    seq = [statics.tindex[v] for v in ("u", "v", "w")]
    alloc = [0, 1, 2]  # u -> v crosses the missing P0 - P1 link
    run, outs, snapshot = _call(backend, statics, alloc, seq, None)
    with pytest.raises(PlatformError, match="no direct link from P0 to P1"):
        run()
    assert outs == snapshot


def kernel_state(kern: TimedKernel):
    return (list(kern.start), list(kern.finish), list(kern.tight), list(kern.alloc),
            list(kern.seq), kern.makespan, bytes(kern.active))


@pytest.mark.parametrize("backend", PASSES)
def test_bad_edits_leave_the_kernel_unchanged(backend):
    graph, platform, statics = instance("layered", "paper")
    point = points(graph, platform, seed=2)[0]
    with use_backend(backend):
        kern = TimedKernel.from_point(statics, point)
        kern.propagate_order()
        before = kernel_state(kern)
        n = statics.num_tasks
        seq = list(kern.seq)
        bad_edits = [
            (([(0, statics.num_procs)],), PlatformError),
            (([(n - 1, -1)],), PlatformError),
            (([], seq[:-1] + [seq[0]]), SchedulingError),
            (([], _swap_with_successor(statics, seq)), SchedulingError),
            (([], seq[:-1]), ValueError),
        ]
        for args, exc in bad_edits:
            for method in (kern.patch, kern.apply):
                with pytest.raises(exc):
                    method(*args)
                assert kernel_state(kern) == before
        assert kern.patch([]) == before[5]
        assert kern.propagate_order() == before[5]
        assert kernel_state(kern) == before


@pytest.mark.parametrize("backend", PASSES)
def test_apply_reads_a_one_shot_iterable(backend):
    """``apply`` given a generator of reallocations equals a fresh load
    of the edited point, active transfer slots included."""
    graph, platform, statics = instance("layered", "paper")
    point = points(graph, platform, seed=2)[0]
    with use_backend(backend):
        kern = TimedKernel.from_point(statics, point)
        kern.propagate_order()
        realloc = [(v, (kern.alloc[v] + 1) % statics.num_procs)
                   for v in range(0, statics.num_tasks, 3)]
        ms = kern.apply(pair for pair in realloc)
        alloc = dict(point.alloc)
        alloc.update((statics.tasks[v], proc) for v, proc in realloc)
        fresh = TimedKernel.from_point(statics, point.replace(alloc=alloc))
        assert fresh.propagate_order() == ms
    assert (kern.alloc, bytes(kern.active), kern.num_active) == (
        fresh.alloc, bytes(fresh.active), fresh.num_active)
    live = fresh.active_nodes()
    assert kern.active_nodes() == live
    for times in ("start", "finish", "tight"):
        assert [getattr(kern, times)[x] for x in live] == [getattr(fresh, times)[x] for x in live]


@pytest.mark.parametrize("backend", PASSES)
def test_bad_moves_leave_the_evaluator_unchanged(backend):
    graph, platform, statics = _missing_link_instance()
    with use_backend(backend):
        evaluator = IncrementalEvaluator(graph, platform)
        evaluator.load(SearchPoint(graph, {"u": 0, "v": 2, "w": 2}, ["u", "v", "w"]))
        kern = evaluator._kern
        before = (evaluator.makespan, evaluator.point, evaluator._start,
                  evaluator._finish, list(kern.tight))
        for move, exc in ((MoveTask("v", 1), PlatformError),
                          (MoveTask("w", 3), PlatformError),
                          (MoveTask("v", 2), SchedulingError)):
            with pytest.raises(exc):
                evaluator.preview(move)
            assert (evaluator.makespan, evaluator.point, evaluator._start,
                    evaluator._finish, list(kern.tight)) == before
        evaluator.cross_check()
