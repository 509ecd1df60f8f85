"""Tests for the iterated-local-search scheduler (``ils``).

Acceptance criteria covered here:

* ``ils(heft)`` with a fixed seed is deterministic — identical
  makespans across runs and across campaign worker counts;
* it never returns a worse makespan than its base heuristic on any
  testbed in the suite;
* it strictly improves the makespan on at least 3 of the seeded
  layered/irregular random-DAG testbeds;
* its verdicts are frozen: ``ils_digests.json`` holds one SHA-256 per
  seeded run (:func:`ils_digest`: final placements and
  ``search_stats``), recorded on the heap-patching evaluator the
  one-pass sweep replaced, and every kernel backend must reproduce it.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro import HEFT, ILHA, validate_schedule
from repro.core.exceptions import ConfigurationError
from repro.graphs import (
    doolittle_graph,
    fork_join_graph,
    irregular_testbed,
    laplace_graph,
    layered_testbed,
    lu_graph,
    stencil_graph,
)
from repro.heuristics import IteratedLocalSearch, available_schedulers, get_scheduler
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available

TOL = 1e-6

#: The seeded random-DAG testbeds of the improvement criterion.
SEEDED_CASES = [
    ("layered", layered_testbed(8, seed=0)),
    ("layered", layered_testbed(8, seed=1)),
    ("layered", layered_testbed(8, seed=2)),
    ("irregular", irregular_testbed(60, seed=0)),
    ("irregular", irregular_testbed(60, seed=1)),
    ("irregular", irregular_testbed(80, seed=2)),
]

#: One small graph per testbed family, for the never-worse sweep.
SUITE = {
    "lu": lu_graph(8),
    "laplace": laplace_graph(6),
    "stencil": stencil_graph(6),
    "fork-join": fork_join_graph(12),
    "doolittle": doolittle_graph(6),
    "layered": layered_testbed(6, seed=4),
    "irregular": irregular_testbed(50, seed=5),
}

needs_cext = pytest.mark.skipif(not cext_available(), reason="cext extension not built")
BACKENDS = [pytest.param("python"), pytest.param("cext", marks=needs_cext)]

#: The frozen runs: every ``SUITE`` graph and ``SEEDED_CASES`` entry
#: under ``ils(heft)`` with these seeds and this budget.
DIGEST_SEEDS = (0, 7)
DIGEST_BUDGET = 600
DIGEST_CASES = {
    f"{label}/seed={seed}": (graph, seed)
    for label, graph in [(f"suite/{name}", g) for name, g in SUITE.items()]
    + [(f"seeded/{i}-{family}", g) for i, (family, g) in enumerate(SEEDED_CASES)]
    for seed in DIGEST_SEEDS
}


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def ils_digest(schedule) -> str:
    """SHA-256 over the final placements and the ``search_stats``.

    Floats enter as ``float.hex`` (exact), tasks as ``repr``; placements
    are sorted, so the digest ignores recording order.
    """
    lines = sorted(
        f"P {task!r} {p.proc} {_hex(float(p.start))} {_hex(float(p.finish))}"
        for task, p in schedule.placements.items()
    )
    lines += [f"S {key} {_hex(value)}" for key, value in sorted(schedule.search_stats.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_digest_case(case_id: str, platform):
    graph, seed = DIGEST_CASES[case_id]
    return IteratedLocalSearch(base="heft", budget=DIGEST_BUDGET, seed=seed).run(
        graph, platform, "one-port"
    )


@functools.cache
def _frozen() -> dict:
    return json.loads(Path(__file__).with_name("ils_digests.json").read_text())


class TestRegistry:
    def test_registered_as_ils(self):
        assert "ils" in available_schedulers()
        scheduler = get_scheduler("ils", base="heft", budget=10)
        assert isinstance(scheduler, IteratedLocalSearch)

    def test_cannot_wrap_itself(self):
        with pytest.raises(ConfigurationError, match="wrap itself"):
            IteratedLocalSearch(base="ils")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            IteratedLocalSearch(budget=-1)
        with pytest.raises(ConfigurationError):
            IteratedLocalSearch(kick=-2)
        with pytest.raises(ConfigurationError):
            IteratedLocalSearch(sideways=1.5)

    def test_requires_one_port_model(self, paper_platform):
        with pytest.raises(ConfigurationError, match="one-port"):
            IteratedLocalSearch(budget=10).run(
                SUITE["lu"], paper_platform, "macro-dataflow"
            )


class TestDeterminism:
    def test_same_seed_same_schedule(self, paper_platform):
        graph = layered_testbed(8, seed=2)
        first = IteratedLocalSearch(base="heft", budget=1200, seed=7).run(
            graph, paper_platform, "one-port"
        )
        second = IteratedLocalSearch(base="heft", budget=1200, seed=7).run(
            graph, paper_platform, "one-port"
        )
        assert first.makespan() == second.makespan()
        assert first.search_stats == second.search_stats
        for task in graph.tasks():
            assert first.start_of(task) == second.start_of(task)
            assert first.proc_of(task) == second.proc_of(task)

    @needs_cext
    def test_python_and_cext_agree(self, paper_platform):
        """The compiled and the reference evaluator walk the same search:
        identical stats and schedules."""
        graph = irregular_testbed(120, seed=11)
        runs = {}
        for backend in ("python", "cext"):
            with use_backend(backend):
                runs[backend] = IteratedLocalSearch(base="heft", budget=800, seed=3).run(
                    graph, paper_platform, "one-port"
                )
        py, cx = runs["python"], runs["cext"]
        assert py.search_stats == cx.search_stats
        assert ils_digest(py) == ils_digest(cx)
        assert sorted(py.comm_events) == sorted(cx.comm_events)

    def test_different_seeds_may_differ_but_stay_bounded(self, paper_platform):
        graph = irregular_testbed(60, seed=1)
        base_ms = HEFT().run(graph, paper_platform, "one-port").makespan()
        for seed in (0, 1, 2):
            out = IteratedLocalSearch(base="heft", budget=600, seed=seed).run(
                graph, paper_platform, "one-port"
            )
            assert out.makespan() <= base_ms + TOL

    def test_identical_across_campaign_worker_counts(self, tmp_path):
        """The acceptance-criterion form: one ils grid, 1 worker vs a
        pool vs a warm cache — identical metrics everywhere."""
        from repro.campaign import CampaignSpec, HeuristicSpec, ResultCache, run_campaign

        spec = CampaignSpec(
            name="ils-det",
            testbeds=["irregular"],
            sizes=[30],
            seeds=[0, 1],
            heuristics=[HeuristicSpec.of("heft")],
            improve=[None, {"budget": 300, "seed": 7}],
        )
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2, cache=ResultCache(tmp_path))
        warm = run_campaign(spec, workers=2, cache=ResultCache(tmp_path))
        assert warm.cache_hits == len(warm.outcomes)

        def metrics(result):
            return [
                (o.cell.key, o.result.makespan, o.result.num_comms)
                for o in result.outcomes
            ]

        assert metrics(serial) == metrics(pooled) == metrics(warm)


class TestFrozenVerdicts:
    def test_every_case_is_frozen(self):
        assert sorted(_frozen()) == sorted(DIGEST_CASES)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case_id", sorted(DIGEST_CASES))
    def test_matches_frozen_digest(self, case_id, backend, paper_platform):
        with use_backend(backend):
            out = run_digest_case(case_id, paper_platform)
        want = _frozen()[case_id]
        assert out.makespan() == want["makespan"], f"{case_id}: makespan drift"
        assert ils_digest(out) == want["sha256"], f"{case_id}: verdict drift"


class TestNeverWorse:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_ils_heft_never_worse(self, name, paper_platform):
        graph = SUITE[name]
        base_ms = HEFT().run(graph, paper_platform, "one-port").makespan()
        out = IteratedLocalSearch(base="heft", budget=600, seed=0).run(
            graph, paper_platform, "one-port"
        )
        validate_schedule(out)
        assert out.is_complete()
        assert out.makespan() <= base_ms + TOL

    @pytest.mark.parametrize("name", ["lu", "layered"])
    def test_ils_ilha_never_worse(self, name, paper_platform):
        graph = SUITE[name]
        base_ms = ILHA(b=8).run(graph, paper_platform, "one-port").makespan()
        out = IteratedLocalSearch(
            base="ilha", base_kwargs={"b": 8}, budget=600, seed=0
        ).run(graph, paper_platform, "one-port")
        validate_schedule(out)
        assert out.makespan() <= base_ms + TOL
        assert out.heuristic == "ils(ilha(b=8))"

    def test_zero_budget_returns_tightened_base(self, paper_platform):
        graph = SUITE["lu"]
        base_ms = HEFT().run(graph, paper_platform, "one-port").makespan()
        out = IteratedLocalSearch(base="heft", budget=0).run(
            graph, paper_platform, "one-port"
        )
        assert out.makespan() <= base_ms + TOL
        assert out.search_stats["evals"] == 0
        assert out.heuristic == "ils(heft)"


class TestImprovement:
    def test_strictly_improves_seeded_random_testbeds(self, paper_platform):
        """Acceptance criterion: strict improvement over HEFT on at
        least 3 of the seeded layered/irregular testbeds."""
        improved = 0
        for _, graph in SEEDED_CASES:
            base_ms = HEFT().run(graph, paper_platform, "one-port").makespan()
            out = IteratedLocalSearch(base="heft", budget=4000, seed=0).run(
                graph, paper_platform, "one-port"
            )
            validate_schedule(out)
            assert out.makespan() <= base_ms + TOL
            if out.makespan() < base_ms - TOL:
                improved += 1
        assert improved >= 3

    def test_budget_is_respected(self, paper_platform):
        out = IteratedLocalSearch(base="heft", budget=250, seed=0).run(
            SUITE["irregular"], paper_platform, "one-port"
        )
        assert out.search_stats["evals"] <= 250

    def test_stats_are_coherent(self, paper_platform):
        out = IteratedLocalSearch(base="heft", budget=400, seed=0).run(
            SUITE["layered"], paper_platform, "one-port"
        )
        stats = out.search_stats
        assert stats["final_makespan"] == pytest.approx(out.makespan())
        assert stats["tightened_makespan"] <= stats["base_makespan"] + TOL
        assert stats["final_makespan"] <= stats["tightened_makespan"] + TOL
        assert stats["accepted"] + stats["kicks"] <= stats["evals"]

    @pytest.mark.slow
    def test_paranoia_mode_full_search(self, paper_platform):
        """A full search with per-accept replay cross-checks (slow)."""
        out = IteratedLocalSearch(
            base="heft", budget=2000, seed=0, paranoia=True
        ).run(irregular_testbed(60, seed=1), paper_platform, "one-port")
        validate_schedule(out)
