"""Cross-backend equivalence: the cext backend vs pure Python.

The acceptance property of the backend registry: for every registered
heuristic x model with a C booker x testbed, the compiled backend
``cext`` (``CextSchedulerState``: the C booking engine) produces
*bit-identical* schedules — placements, starts, finishes, and
communication events, exact float equality — against the pure-Python
default.

Also here: the backend registry surface (selection precedence, unknown
names, the ``REPRO_BACKEND`` environment channel and its warning on an
unregistered value) and the engine-visibility regressions — a model
without a C booker runs the pure-Python state under ``cext`` without a
warning, a ``cext`` selection without the compiled extension must
degrade to the pure-Python state with one ``repro.kernel`` warning, and
``Schedule.state_impl`` must record the engine that actually ran.
"""

import logging
import math

import pytest

from repro import Platform
from repro.core import TaskGraph
from repro.core.exceptions import ConfigurationError
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import available_schedulers, get_scheduler
from repro.kernel import backends, cext_backend
from repro.kernel.backends import (
    available_backends,
    current_backend,
    current_backend_name,
    get_backend,
    set_backend,
    use_backend,
)
from repro.kernel.cext_backend import cext_available
from repro.models import OnePortModel, RoutedOnePortModel, available_models, make_model

from platforms import OTHER_PLATFORMS

#: The accelerated backend under test, compared against the pure-Python
#: reference; its rows skip when the extension isn't built.
needs_cext = pytest.mark.skipif(
    not cext_available(), reason="cext extension not built"
)
ACCEL_BACKENDS = [pytest.param("cext", marks=needs_cext)]

TESTBEDS = {
    "lu": lambda: lu_graph(8),
    "layered": lambda: layered_testbed(5, seed=7),
    "irregular": lambda: irregular_testbed(40, seed=3),
}

#: Constructor overrides for schedulers that need arguments; ``None``
#: marks schedulers excluded from the sweep (fixed needs a per-graph
#: allocation and is exercised separately below; ils improves through
#: replay, not through SchedulerState, and multiplies runtime).
SCHEDULER_KWARGS = {
    "fixed": None,
    "ils": None,
    "ilha": {"b": 4, "single_comm_scan": True, "reschedule": True},
}

MODELS = ["one-port", "macro-dataflow", "uni-port", "no-overlap"]


def assert_identical(a, b):
    """Exact equality of two schedules, field by field."""
    assert a.placements.keys() == b.placements.keys()
    for task, placement in a.placements.items():
        other = b.placements[task]
        assert placement.proc == other.proc, f"proc drift on {task!r}"
        assert placement.start == other.start, f"start drift on {task!r}"
        assert placement.finish == other.finish, f"finish drift on {task!r}"
    assert sorted(a.comm_events) == sorted(b.comm_events)
    assert a.makespan() == b.makespan()


def run_on_backend(scheduler, graph, platform, model_name, backend):
    with use_backend(backend):
        return scheduler.run(graph, platform, make_model(platform, model_name))


@pytest.mark.parametrize("backend", ACCEL_BACKENDS)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize(
    "name",
    [n for n in available_schedulers() if SCHEDULER_KWARGS.get(n, {}) is not None],
)
def test_accel_matches_python_for_every_heuristic(
    name, testbed, model_name, backend, paper_platform
):
    scheduler = get_scheduler(name, **SCHEDULER_KWARGS.get(name, {}))
    graph = TESTBEDS[testbed]()
    ref = run_on_backend(scheduler, graph, paper_platform, model_name, "python")
    acc = run_on_backend(scheduler, graph, paper_platform, model_name, backend)
    assert_identical(ref, acc)


@pytest.mark.parametrize("backend", ACCEL_BACKENDS)
@pytest.mark.parametrize("platform_name", sorted(OTHER_PLATFORMS))
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize(
    "name",
    [n for n in available_schedulers() if SCHEDULER_KWARGS.get(n, {}) is not None],
)
def test_accel_matches_python_on_other_platforms(
    name, testbed, model_name, platform_name, backend
):
    scheduler = get_scheduler(name, **SCHEDULER_KWARGS.get(name, {}))
    graph = TESTBEDS[testbed]()
    platform = OTHER_PLATFORMS[platform_name]()
    ref = run_on_backend(scheduler, graph, platform, model_name, "python")
    acc = run_on_backend(scheduler, graph, platform, model_name, backend)
    assert ref.state_impl == "flat-python"
    assert acc.state_impl == f"flat-{backend}"
    assert_identical(ref, acc)


@needs_cext
@pytest.mark.parametrize("name", ["heft", "ilha"])
@pytest.mark.parametrize("seed", [0, 11, 23])
def test_large_irregular_fuzz(name, seed, paper_platform):
    """1000-task instances grow long rows, so the C engine's realloc'd
    rows, journal, and seed memo all run — and must not move a single
    float."""
    graph = irregular_testbed(1000, seed=seed)
    scheduler = get_scheduler(name)
    ref = run_on_backend(scheduler, graph, paper_platform, "one-port", "python")
    acc = run_on_backend(scheduler, graph, paper_platform, "one-port", "cext")
    assert_identical(ref, acc)


@pytest.mark.parametrize("backend", ACCEL_BACKENDS)
def test_fixed_allocation_equivalence(backend, paper_platform):
    graph = lu_graph(6)
    alloc = {t: i % paper_platform.num_processors for i, t in enumerate(graph)}
    scheduler = get_scheduler("fixed", alloc=alloc)
    ref = run_on_backend(scheduler, graph, paper_platform, "one-port", "python")
    acc = run_on_backend(scheduler, graph, paper_platform, "one-port", backend)
    assert_identical(ref, acc)


def test_state_impl_recorded_per_backend(paper_platform):
    graph = lu_graph(4)
    with use_backend("python"):
        sched = get_scheduler("heft").run(graph, paper_platform, "one-port")
    assert sched.state_impl == "flat-python"
    assert sched.summary()["state_impl"] == "flat-python"


@needs_cext
def test_state_impl_recorded_for_cext(paper_platform):
    with use_backend("cext"):
        sched = get_scheduler("heft").run(lu_graph(4), paper_platform, "one-port")
    assert sched.state_impl == "flat-cext"
    assert sched.summary()["state_impl"] == "flat-cext"


# ----------------------------------------------------------------------
# registry surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == ["cext", "python"]

    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
        monkeypatch.setattr(backends, "_ACTIVE", None)
        assert current_backend_name() == "python"

    def test_environment_channel(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "cext")
        monkeypatch.setattr(backends, "_ACTIVE", None)
        assert current_backend_name() == "cext"

    def test_environment_channel_cext(self, monkeypatch):
        """cext is selectable through REPRO_BACKEND regardless of
        whether the extension is built — degradation happens at state
        construction, not at registry lookup."""
        monkeypatch.setattr(cext_backend, "_cext", None)
        monkeypatch.setenv(backends.BACKEND_ENV, "cext")
        monkeypatch.setattr(backends, "_ACTIVE", None)
        assert current_backend_name() == "cext"

    def test_explicit_cext_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "python")
        with use_backend("cext"):
            assert current_backend_name() == "cext"

    def test_unknown_environment_value_falls_back(self, monkeypatch, caplog):
        """An unregistered value (``numpy`` was a backend once) still
        selects ``python``, and says so exactly once per process."""
        monkeypatch.setattr(backends, "_ACTIVE", None)
        monkeypatch.setattr(backends, "_WARNED_ENV", set())
        monkeypatch.setenv(backends.BACKEND_ENV, "fortran")
        assert current_backend_name() == "python"
        monkeypatch.setenv(backends.BACKEND_ENV, "numpy")
        with caplog.at_level(logging.WARNING, logger="repro.kernel"):
            assert current_backend_name() == "python"
            assert current_backend_name() == "python"
            assert current_backend().name == "python"
        warnings = [r for r in caplog.records if "'numpy'" in r.getMessage()]
        assert len(warnings) == 1, "expected exactly one warning"
        assert warnings[0].levelno == logging.WARNING
        assert warnings[0].name == "repro.kernel"
        assert str(available_backends()) in warnings[0].getMessage()

    def test_explicit_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "cext")
        with use_backend("python"):
            assert current_backend_name() == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            set_backend("fortran")
        with pytest.raises(ConfigurationError):
            get_backend("fortran")

    def test_use_backend_restores(self):
        before = current_backend_name()
        with use_backend("cext"):
            assert current_backend_name() == "cext"
        assert current_backend_name() == before


# ----------------------------------------------------------------------
# engine visibility: every model runs a flat engine, and the schedule
# says which one
# ----------------------------------------------------------------------
class TestEngineVisibility:
    def _routed_run(self):
        inf = math.inf
        line = Platform(
            [1.0, 1.0, 1.0],
            [[0.0, 1.0, inf], [1.0, 0.0, 1.0], [inf, 1.0, 0.0]],
        )
        graph = TaskGraph.from_specs(
            [("u", 2.0), ("v", 3.0), ("w", 1.0)],
            [("u", "v", 4.0), ("v", "w", 2.0)],
        )
        alloc = {"u": 0, "v": 2, "w": 0}
        return get_scheduler("fixed", alloc=alloc), graph, line

    @pytest.mark.parametrize("backend", ["python", *ACCEL_BACKENDS])
    def test_routed_runs_flat_python_without_warning(self, backend, caplog):
        """No C booker for routed: under every backend it runs (and
        records) the pure-Python flat state, and nothing warns."""
        scheduler, graph, line = self._routed_run()
        with use_backend(backend):
            with caplog.at_level(logging.WARNING, logger="repro"):
                sched = scheduler.run(graph, line, RoutedOnePortModel(line))
        assert sched.state_impl == "flat-python"
        assert [(h.src_proc, h.dst_proc) for h in sched.comm_events] == [
            (0, 1), (1, 2), (2, 1), (1, 0),
        ]
        assert not caplog.records

    @pytest.mark.parametrize("backend", ["python", *ACCEL_BACKENDS])
    @pytest.mark.parametrize("model_name", available_models())
    def test_every_model_records_its_engine(self, model_name, backend, paper_platform):
        with use_backend(backend):
            sched = get_scheduler("heft").run(lu_graph(4), paper_platform, model_name)
        expected = "flat-python" if backend == "python" or model_name == "routed" else "flat-cext"
        assert sched.state_impl == expected

    @needs_cext
    def test_model_subclass_runs_python_engine(self, paper_platform):
        """The C bookers match exact model types: a subclass (which may
        override booking) runs the pure-Python state under cext."""

        class TracedOnePort(OnePortModel):
            pass

        graph = lu_graph(6)
        with use_backend("cext"):
            sched = get_scheduler("heft").run(graph, paper_platform, TracedOnePort(paper_platform))
        ref = run_on_backend(get_scheduler("heft"), graph, paper_platform, "one-port", "python")
        assert sched.state_impl == "flat-python"
        assert_identical(ref, sched)


# ----------------------------------------------------------------------
# graceful degradation without a compiler: simulate the extension being
# absent (the state every user without a C toolchain is in)
# ----------------------------------------------------------------------
class TestCextGracefulDegradation:
    @pytest.fixture()
    def no_extension(self, monkeypatch):
        monkeypatch.setattr(cext_backend, "_cext", None)
        monkeypatch.setattr(
            cext_backend, "_IMPORT_ERROR",
            "No module named 'repro.kernel._cext'",
        )
        monkeypatch.setattr(cext_backend, "_WARNED", False)

    def test_availability_probes(self, no_extension):
        assert not cext_backend.cext_available()
        assert "repro.kernel._cext" in cext_backend.cext_import_error()
        assert cext_backend.cext_build_info() is None

    def test_backend_still_registered(self, no_extension, paper_platform):
        assert "cext" in available_backends()
        assert get_backend("cext").state_class(OnePortModel(paper_platform)) is None

    def test_falls_back_to_python_state_with_one_warning(
        self, no_extension, paper_platform, caplog
    ):
        graph = lu_graph(6)
        with caplog.at_level(logging.WARNING, logger="repro.kernel"):
            with use_backend("cext"):
                sched = get_scheduler("heft").run(graph, paper_platform, "one-port")
                again = get_scheduler("heft").run(graph, paper_platform, "one-port")
        # ran, on the pure-Python state, and recorded what actually ran
        assert sched.state_impl == "flat-python"
        assert again.state_impl == "flat-python"
        warnings = [
            r for r in caplog.records
            if "compiled extension is not available" in r.getMessage()
        ]
        assert len(warnings) == 1, "expected exactly one fallback warning"
        assert warnings[0].name == "repro.kernel"
        assert "build_ext" in warnings[0].getMessage()

    def test_propagation_falls_back_under_the_same_warning(
        self, no_extension, paper_platform, caplog
    ):
        from repro.kernel import TimedKernel, compile_statics
        from repro.simulate import extract_decisions, replay_schedule

        graph = lu_graph(6)
        with caplog.at_level(logging.WARNING, logger="repro.kernel"):
            with use_backend("cext"):
                sched = get_scheduler("heft").run(graph, paper_platform, "one-port")
                kern = TimedKernel.from_decisions(
                    compile_statics(graph, paper_platform), extract_decisions(sched)
                )
                ms = kern.propagate_kahn()
                replayed = replay_schedule(sched)
        assert kern._one_shot is False, "expected the Python loop"
        assert ms == replayed.makespan()
        warnings = [
            r for r in caplog.records
            if "compiled extension is not available" in r.getMessage()
        ]
        assert len(warnings) == 1, "expected exactly one fallback warning"

    def test_fallback_schedule_matches_python(self, no_extension, paper_platform):
        graph = irregular_testbed(40, seed=3)
        scheduler = get_scheduler("ilha", b=4)
        ref = run_on_backend(scheduler, graph, paper_platform, "one-port", "python")
        fb = run_on_backend(scheduler, graph, paper_platform, "one-port", "cext")
        assert_identical(ref, fb)
