"""Cross-checks of the incremental evaluator against full replay.

Acceptance criterion: the incremental evaluator agrees with a full
``replay()`` of the mutated decision set on every accepted move.
"""

import random

import pytest

from repro import HEFT, ILHA, Platform
from repro.graphs import (
    fork_join_graph,
    irregular_testbed,
    layered_testbed,
    lu_graph,
    stencil_graph,
)
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.search import IncrementalEvaluator, MoveTask, SearchPoint, propose
from repro.simulate import replay

from platforms import OTHER_PLATFORMS

GRAPHS = {
    "lu": lu_graph(6),
    "fork-join": fork_join_graph(8),
    "layered": layered_testbed(5, seed=3),
    "irregular": irregular_testbed(40, seed=1),
}

TOL = 1e-9

needs_cext = pytest.mark.skipif(not cext_available(), reason="cext extension not built")
BACKENDS = [pytest.param("python"), pytest.param("cext", marks=needs_cext)]

#: The paper platform's unit network, and asymmetric non-dyadic links.
PLATFORMS = {
    "paper": lambda: Platform.from_groups([(5, 6), (3, 10), (2, 15)]),
    "skewed-links": OTHER_PLATFORMS["skewed-links"],
}


def loaded_evaluator(graph, platform, scheduler=None):
    sched = (scheduler or HEFT()).run(graph, platform, "one-port")
    evaluator = IncrementalEvaluator(graph, platform)
    evaluator.load(SearchPoint.from_schedule(sched))
    return evaluator


class TestLoad:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_load_equals_full_replay(self, name, paper_platform):
        graph = GRAPHS[name]
        evaluator = loaded_evaluator(graph, paper_platform)
        sched = replay(
            graph,
            paper_platform,
            evaluator.point.to_decisions(paper_platform.processors),
        )
        assert evaluator.makespan == pytest.approx(sched.makespan(), abs=TOL)
        evaluator.cross_check()


class TestPreviewCrossCheck:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_previews_match_full_replay(self, name, platform_name, backend):
        """Bit-for-bit: every move of a seeded walk (half of them
        committed) previews to exactly the makespan of a from-scratch
        replay of the moved-to point."""
        graph, platform = GRAPHS[name], PLATFORMS[platform_name]()
        with use_backend(backend):
            evaluator = loaded_evaluator(graph, platform)
            rng = random.Random(31)
            checked = 0
            for step in range(80):
                move = propose(evaluator.point, platform, rng)
                if move is None:
                    continue
                preview = evaluator.preview(move)
                full = replay(graph, platform, preview.point.to_decisions(platform.processors))
                assert preview.makespan == full.makespan()
                checked += 1
                if step % 2:
                    evaluator.commit(preview)
                    assert evaluator.makespan == full.makespan()
        assert checked >= 50

    def test_preview_leaves_base_state_untouched(self, paper_platform):
        graph = GRAPHS["lu"]
        evaluator = loaded_evaluator(graph, paper_platform)
        before = evaluator.makespan
        point_before = evaluator.point
        rng = random.Random(1)
        for _ in range(10):
            move = propose(evaluator.point, paper_platform, rng)
            if move is not None:
                evaluator.preview(move)
        assert evaluator.makespan == before
        assert evaluator.point is point_before
        evaluator.cross_check()

    def test_localizing_and_remoting_an_edge(self, paper_platform):
        """Targeted check of transfer-node removal and creation."""
        graph = GRAPHS["lu"]
        evaluator = loaded_evaluator(graph, paper_platform)
        u, v = next(iter(evaluator.point.remote_edges()))
        # make the edge local ...
        localize = MoveTask(v, evaluator.point.alloc[u])
        preview = evaluator.preview(localize)
        full = replay(
            graph,
            paper_platform,
            preview.point.to_decisions(paper_platform.processors),
        )
        assert preview.makespan == pytest.approx(full.makespan(), abs=TOL)
        evaluator.commit(preview)
        evaluator.cross_check()
        # ... and remote again
        other = (evaluator.point.alloc[u] + 1) % paper_platform.num_processors
        preview = evaluator.preview(MoveTask(v, other))
        full = replay(
            graph,
            paper_platform,
            preview.point.to_decisions(paper_platform.processors),
        )
        assert preview.makespan == pytest.approx(full.makespan(), abs=TOL)
        evaluator.commit(preview)
        evaluator.cross_check()


class TestCommit:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_accepted_moves_agree_with_replay(self, name, paper_platform):
        """A seeded walk where EVERY accepted move is cross-checked
        against full replay — per-task starts included.  Acceptance is
        deliberately lenient (<= +10%) so plenty of moves commit even on
        testbeds where random moves rarely improve a tight schedule."""
        graph = GRAPHS[name]
        evaluator = loaded_evaluator(graph, paper_platform)
        rng = random.Random(42)
        accepted = 0
        for _ in range(60):
            move = propose(evaluator.point, paper_platform, rng)
            if move is None:
                continue
            preview = evaluator.preview(move)
            if preview.makespan <= evaluator.makespan * 1.10:
                evaluator.commit(preview)
                evaluator.cross_check()  # raises on any drift
                accepted += 1
        assert accepted >= 5

    def test_commit_chain_matches_fresh_load(self, paper_platform):
        """After a long random commit chain, the patched state equals a
        from-scratch load of the final point."""
        graph = GRAPHS["irregular"]
        evaluator = loaded_evaluator(graph, paper_platform)
        rng = random.Random(9)
        for _ in range(40):
            move = propose(evaluator.point, paper_platform, rng)
            if move is None:
                continue
            evaluator.commit(evaluator.preview(move))
        fresh = IncrementalEvaluator(graph, paper_platform)
        fresh_ms = fresh.load(evaluator.point)
        assert evaluator.makespan == pytest.approx(fresh_ms, abs=TOL)
        for node, finish in fresh._finish.items():
            assert evaluator._finish[node] == pytest.approx(finish, abs=TOL)
        assert set(evaluator._finish) == set(fresh._finish)

    @pytest.mark.slow
    def test_long_fuzz_commit_every_move(self, paper_platform):
        """Commit 300 unconditional random moves on two testbeds,
        cross-checking each (excluded from tier-1)."""
        for name in ("layered", "irregular"):
            evaluator = loaded_evaluator(GRAPHS[name], paper_platform, ILHA(b=4))
            rng = random.Random(1234)
            for _ in range(300):
                move = propose(evaluator.point, paper_platform, rng)
                if move is None:
                    continue
                evaluator.commit(evaluator.preview(move))
                evaluator.cross_check()


class TestCriticalPath:
    def test_chain_starts_at_makespan_and_is_connected(self, paper_platform):
        graph = GRAPHS["layered"]
        evaluator = loaded_evaluator(graph, paper_platform)
        chain = evaluator.critical_path_tasks()
        assert chain
        first = ("task", chain[0])
        assert evaluator._finish[first] == pytest.approx(evaluator.makespan)
        # the chain is monotone: each later entry finishes no later
        finishes = [evaluator._finish[("task", t)] for t in chain]
        assert finishes == sorted(finishes, reverse=True)

    def test_chain_independent_of_search_history(self, paper_platform):
        """A point reached by commits and the same point loaded fresh
        give the same chain: tight-predecessor ties break in one
        canonical order, not in the order the state was built."""
        graph = stencil_graph(6)
        evaluator = loaded_evaluator(graph, paper_platform)
        rng = random.Random(5)
        commits = 0
        while commits < 200:
            move = propose(evaluator.point, paper_platform, rng)
            if move is None:
                continue
            evaluator.commit(evaluator.preview(move))
            commits += 1
            fresh = IncrementalEvaluator(graph, paper_platform)
            fresh.load(evaluator.point)
            assert evaluator.critical_path_tasks() == fresh.critical_path_tasks()
