"""Property tests for the move neighborhood.

The central property (an acceptance criterion of the search subsystem):
every move the generator produces maps a feasible point to a feasible
point — replay never sees a cycle, and the replayed schedule passes the
independent one-port validator.
"""

import random

import pytest

from repro import HEFT, validate_schedule
from repro.graphs import (
    fork_join_graph,
    irregular_testbed,
    layered_random,
    layered_testbed,
    lu_graph,
)
from repro.search import (
    AdjacentExchange,
    MoveTask,
    Reposition,
    SearchPoint,
    SwapTasks,
    propose,
)
from repro.simulate import replay

GRAPHS = {
    "lu": lu_graph(6),
    "fork-join": fork_join_graph(8),
    "layered": layered_testbed(5, seed=3),
    "irregular": irregular_testbed(40, seed=1),
}


def start_point(graph, platform):
    return SearchPoint.from_schedule(HEFT().run(graph, platform, "one-port"))


class TestEveryGeneratedMoveIsFeasible:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_single_moves_replay_valid(self, name, paper_platform):
        graph = GRAPHS[name]
        point = start_point(graph, paper_platform)
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            move = propose(point, paper_platform, rng)
            if move is None:
                continue
            new = move.apply(point)
            new.check()  # sequence stays topological
            sched = replay(
                graph, paper_platform, new.to_decisions(paper_platform.processors)
            )
            validate_schedule(sched)
            checked += 1
        assert checked >= 40  # the generator rarely comes up empty

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_random_walk_stays_feasible(self, name, paper_platform):
        """Feasibility is closed under composition: a 30-move walk never
        leaves the space of valid decision sets."""
        graph = GRAPHS[name]
        point = start_point(graph, paper_platform)
        rng = random.Random(11)
        for _ in range(30):
            move = propose(point, paper_platform, rng)
            if move is None:
                continue
            point = move.apply(point)
        sched = replay(
            graph, paper_platform, point.to_decisions(paper_platform.processors)
        )
        validate_schedule(sched)
        assert sched.is_complete()

    @pytest.mark.slow
    def test_moves_on_random_layered_graphs(self, paper_platform):
        """Long fuzz over many seeded graphs (excluded from tier-1)."""
        for graph_seed in range(12):
            graph = layered_random(6, 5, density=0.5, seed=graph_seed)
            point = start_point(graph, paper_platform)
            rng = random.Random(graph_seed)
            for _ in range(80):
                move = propose(point, paper_platform, rng)
                if move is None:
                    continue
                point = move.apply(point)
                validate_schedule(
                    replay(
                        graph,
                        paper_platform,
                        point.to_decisions(paper_platform.processors),
                    )
                )


class TestMoveSemantics:
    def test_move_task_changes_only_that_allocation(self, paper_platform):
        graph = GRAPHS["lu"]
        point = start_point(graph, paper_platform)
        task = point.sequence[3]
        target = (point.alloc[task] + 1) % paper_platform.num_processors
        new = MoveTask(task, target).apply(point)
        assert new.alloc[task] == target
        assert new.sequence == point.sequence
        assert all(new.alloc[t] == point.alloc[t] for t in point.sequence if t != task)

    def test_swap_exchanges_processors(self, paper_platform):
        graph = GRAPHS["lu"]
        point = start_point(graph, paper_platform)
        a, b = next(
            (x, y)
            for x in point.sequence
            for y in point.sequence
            if point.alloc[x] != point.alloc[y]
        )
        new = SwapTasks(a, b).apply(point)
        assert new.alloc[a] == point.alloc[b]
        assert new.alloc[b] == point.alloc[a]

    def test_adjacent_exchange_swaps_proc_order_entries(self, paper_platform):
        graph = GRAPHS["irregular"]
        point = start_point(graph, paper_platform)
        rng = random.Random(3)
        for _ in range(200):
            proc = rng.randrange(paper_platform.num_processors)
            order = point.proc_list(proc)
            if len(order) < 2:
                continue
            index = rng.randrange(len(order) - 1)
            move = AdjacentExchange("proc", proc, index)
            if move.resolve(point) is None:
                continue
            new = move.apply(point)
            new_order = new.proc_list(proc)
            assert new_order[index] == order[index + 1]
            assert new_order[index + 1] == order[index]
            return
        pytest.fail("no feasible proc exchange found")

    @pytest.mark.parametrize("kind", ["send", "recv"])
    def test_adjacent_exchange_swaps_port_entries(self, kind, paper_platform):
        graph = GRAPHS["layered"]
        point = start_point(graph, paper_platform)
        rng = random.Random(5)
        for _ in range(400):
            proc = rng.randrange(paper_platform.num_processors)
            order = point.resource_list(kind, proc)
            if len(order) < 2:
                continue
            index = rng.randrange(len(order) - 1)
            move = AdjacentExchange(kind, proc, index)
            if move.resolve(point) is None:
                continue
            new = move.apply(point)
            new_order = new.resource_list(kind, proc)
            assert new_order.index(order[index + 1]) < new_order.index(order[index])
            return
        pytest.fail(f"no feasible {kind} exchange found")

    def test_infeasible_reposition_rejected(self, paper_platform):
        """Pulling a task before one of its predecessors must refuse."""
        graph = GRAPHS["lu"]
        point = start_point(graph, paper_platform)
        preds = graph.as_maps().preds
        task = next(t for t in point.sequence if preds[t])
        parent = preds[task][0]
        move = Reposition(task, parent)
        assert not move.feasible(point)
        with pytest.raises(Exception, match="topological"):
            move.apply(point)

