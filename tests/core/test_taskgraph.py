"""Unit tests for the TaskGraph substrate."""

import random

import networkx as nx
import pytest

from repro.core import GraphError, TaskGraph
from repro.core.serialization import graph_to_dict
from repro.graphs import irregular_dag, layered_random, random_dag
from repro.graphs.base import available_testbeds, make_testbed


def diamond() -> TaskGraph:
    g = TaskGraph(name="diamond")
    for v, w in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]:
        g.add_task(v, w)
    g.add_dependency("a", "b", 10.0)
    g.add_dependency("a", "c", 20.0)
    g.add_dependency("b", "d", 30.0)
    g.add_dependency("c", "d", 40.0)
    return g


class TestConstruction:
    def test_add_task_and_weight(self):
        g = TaskGraph()
        g.add_task("x", 2.5)
        assert g.weight("x") == 2.5
        assert "x" in g
        assert len(g) == 1

    def test_default_weight_is_one(self):
        g = TaskGraph()
        g.add_task("x")
        assert g.weight("x") == 1.0

    def test_zero_weight_allowed(self):
        g = TaskGraph()
        g.add_task("x", 0.0)
        assert g.weight("x") == 0.0

    def test_negative_weight_rejected(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task("x", -1.0)

    def test_nan_and_inf_weight_rejected(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task("x", float("nan"))
        with pytest.raises(GraphError):
            g.add_task("y", float("inf"))

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task("x")
        with pytest.raises(GraphError):
            g.add_task("x")

    def test_edge_requires_known_tasks(self):
        g = TaskGraph()
        g.add_task("x")
        with pytest.raises(GraphError):
            g.add_dependency("x", "ghost", 1.0)

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("x")
        with pytest.raises(GraphError):
            g.add_dependency("x", "x")

    def test_duplicate_edge_rejected(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.add_dependency("a", "b", 5.0)

    def test_negative_data_rejected(self):
        g = TaskGraph()
        g.add_task("x")
        g.add_task("y")
        with pytest.raises(GraphError):
            g.add_dependency("x", "y", -1.0)

    def test_from_specs_roundtrip(self):
        g = TaskGraph.from_specs(
            [("a", 1.0), ("b", 2.0)], [("a", "b", 3.0)], name="spec"
        )
        assert g.name == "spec"
        assert g.data("a", "b") == 3.0

    def test_from_networkx(self):
        nxg = nx.DiGraph()
        nxg.add_node("u", weight=5.0)
        nxg.add_node("v", weight=6.0)
        nxg.add_edge("u", "v", data=7.0)
        g = TaskGraph(nxg)
        assert g.weight("u") == 5.0
        assert g.data("u", "v") == 7.0


class TestQueries:
    def test_counts(self):
        g = diamond()
        assert g.num_tasks == 4
        assert g.num_edges == 4

    def test_entry_exit(self):
        g = diamond()
        assert g.entry_tasks() == ["a"]
        assert g.exit_tasks() == ["d"]

    def test_neighbours(self):
        g = diamond()
        assert sorted(g.successors("a")) == ["b", "c"]
        assert sorted(g.predecessors("d")) == ["b", "c"]
        assert g.in_degree("d") == 2
        assert g.out_degree("a") == 2

    def test_totals(self):
        g = diamond()
        assert g.total_weight() == 10.0
        assert g.total_data() == 100.0

    def test_total_weight_sums_left_to_right(self):
        """3.11's ``sum()`` float on every version: 3.12+ would give 1.0."""
        g = TaskGraph()
        for i in range(10):
            g.add_task(i, 0.1)
        assert g.total_weight().hex() == "0x1.fffffffffffffp-1"

    def test_unknown_task_raises(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.weight("ghost")
        with pytest.raises(GraphError):
            g.predecessors("ghost")
        with pytest.raises(GraphError):
            g.successors("ghost")
        with pytest.raises(GraphError):
            g.in_degree("ghost")
        with pytest.raises(GraphError):
            g.out_degree("ghost")
        with pytest.raises(GraphError):
            g.data("a", "d")

    def test_set_weight_and_data(self):
        g = diamond()
        g.set_weight("a", 9.0)
        g.set_data("a", "b", 99.0)
        assert g.weight("a") == 9.0
        assert g.data("a", "b") == 99.0

    def test_scale_data(self):
        g = diamond()
        g.scale_data(0.5)
        assert g.data("a", "b") == 5.0
        assert g.total_data() == 50.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_mutators_reject_what_constructors_reject(self, bad):
        g = diamond()
        g.add_dependency("b", "c", 0.0)
        before = graph_to_dict(g)
        with pytest.raises(GraphError):
            g.set_weight("a", bad)
        with pytest.raises(GraphError):
            g.set_data("a", "b", bad)
        with pytest.raises(GraphError):
            g.scale_data(bad)
        assert graph_to_dict(g) == before


class TestTraversal:
    def test_topological_order_is_topological(self):
        g = diamond()
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for u, v in g.edges():
            assert pos[u] < pos[v]

    def test_topological_order_deterministic(self):
        assert diamond().topological_order() == diamond().topological_order()

    def test_cycle_detected(self):
        g = TaskGraph()
        g.add_task("x")
        g.add_task("y")
        g.add_dependency("x", "y")
        g.add_dependency("y", "x")
        with pytest.raises(GraphError):
            g.validate()
        with pytest.raises(GraphError):
            g.topological_order()

    def test_cycle_message_names_a_task_on_the_cycle(self):
        g = TaskGraph()
        for v in ("head", "on-x", "on-y", "on-z", "tail"):
            g.add_task(v)
        g.add_dependency("head", "on-x")
        g.add_dependency("on-x", "on-y")
        g.add_dependency("on-y", "on-z")
        g.add_dependency("on-z", "on-x")
        g.add_dependency("on-z", "tail")
        for check in (g.validate, g.topological_order):
            with pytest.raises(GraphError) as err:
                check()
            message = str(err.value)
            assert any(repr(v) in message for v in ("on-x", "on-y", "on-z"))
            assert repr("head") not in message and repr("tail") not in message

    def test_levels(self):
        g = diamond()
        assert g.levels() == [["a"], ["b", "c"], ["d"]]

    def test_levels_empty_graph(self):
        assert TaskGraph().levels() == []

    def test_as_maps_consistent(self):
        g = diamond()
        maps = g.as_maps()
        assert maps.weight == {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        assert maps.preds["d"] == ("b", "c")
        assert maps.succs["a"] == ("b", "c")
        assert maps.data[("c", "d")] == 40.0

    def test_as_maps_invalidated_on_mutation(self):
        g = diamond()
        _ = g.as_maps()
        g.add_task("e", 5.0)
        assert "e" in g.as_maps().weight


_RANDOM_FAMILIES = {
    "random_dag": lambda size: random_dag(size, seed=size),
    "layered_random": lambda size: layered_random(size, 5, seed=size),
    "irregular_dag": lambda size: irregular_dag(size, seed=size),
}


class TestNetworkxOrderOracle:
    """Every iteration order equals the one networkx gives the same add calls.

    Schedules, kernel edge indices and serialized graphs all follow these
    orders, so the frozen digests rest on them.  Edges are added in a
    shuffled global order, so that order differs from the adjacency order
    (by source insertion, then by edge insertion within each source).
    """

    @staticmethod
    def twins(graph: TaskGraph, seed: int) -> tuple[TaskGraph, nx.DiGraph]:
        edges = list(graph.edges())
        random.Random(seed).shuffle(edges)
        ours, theirs = TaskGraph(name=graph.name), nx.DiGraph()
        for v in graph.tasks():
            ours.add_task(v, graph.weight(v))
            theirs.add_node(v, weight=graph.weight(v))
        for u, v in edges:
            ours.add_dependency(u, v, graph.data(u, v))
            theirs.add_edge(u, v, data=graph.data(u, v))
        return ours, theirs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [6, 20])
    @pytest.mark.parametrize("family", available_testbeds() + sorted(_RANDOM_FAMILIES))
    def test_orders_match_networkx(self, family, size, seed):
        if family in _RANDOM_FAMILIES:
            graph = _RANDOM_FAMILIES[family](size)
        else:
            graph = make_testbed(family, size)
        ours, theirs = self.twins(graph, seed)
        index = {v: i for i, v in enumerate(theirs.nodes)}
        assert ours.topological_order() == tuple(
            nx.lexicographical_topological_sort(theirs, key=index.__getitem__)
        )
        assert list(ours.edges()) == list(theirs.edges)
        maps = ours.as_maps()
        assert list(maps.data) == list(theirs.edges)
        for v in theirs.nodes:
            assert ours.predecessors(v) == list(theirs.predecessors(v))
            assert ours.successors(v) == list(theirs.successors(v))
            assert maps.preds[v] == tuple(theirs.predecessors(v))
            assert maps.succs[v] == tuple(theirs.successors(v))
        again = TaskGraph(ours.to_networkx(), name=ours.name)
        assert graph_to_dict(again) == graph_to_dict(ours)


class TestSerialization:
    def test_to_dict(self):
        d = diamond().to_dict()
        assert d["name"] == "diamond"
        assert len(d["tasks"]) == 4
        assert len(d["edges"]) == 4

    def test_to_networkx_is_copy(self):
        g = diamond()
        nxg = g.to_networkx()
        nxg.add_node("zzz")
        assert "zzz" not in g
