"""Unit tests for the routed one-port model (Section 4.3 extension)."""

import math

import numpy as np
import pytest

from repro.core import Platform, PlatformError, TaskGraph, validate_schedule
from repro.heuristics import HEFT, FixedAllocation
from repro.kernel import FlatBuilder, compile_statics
from repro.models import RoutedOnePortModel, build_routing_table


def line_platform(p: int, link: float = 1.0) -> Platform:
    """P0 - P1 - ... - P(p-1): only neighbouring links exist."""
    mat = np.full((p, p), math.inf)
    np.fill_diagonal(mat, 0.0)
    for i in range(p - 1):
        mat[i][i + 1] = link
        mat[i + 1][i] = link
    return Platform([1.0] * p, mat)


class TestRoutingTable:
    def test_full_network_routes_direct(self):
        plat = Platform.homogeneous(4)
        routes = build_routing_table(plat)
        for q in range(4):
            for r in range(4):
                expected = [q] if q == r else [q, r]
                assert routes[(q, r)] == expected

    def test_line_routes_through_middle(self):
        routes = build_routing_table(line_platform(4))
        assert routes[(0, 3)] == [0, 1, 2, 3]
        assert routes[(3, 0)] == [3, 2, 1, 0]
        assert routes[(1, 2)] == [1, 2]

    def test_cheapest_not_fewest_hops(self):
        # direct link exists but costs 10; the two-hop detour costs 2
        mat = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
        plat = Platform([1.0] * 3, mat)
        routes = build_routing_table(plat)
        assert routes[(0, 2)] == [0, 1, 2]

    def test_disconnected_raises(self):
        mat = [[0.0, math.inf], [math.inf, 0.0]]
        with pytest.raises(PlatformError, match="no route"):
            build_routing_table(Platform([1.0, 1.0], mat))

    def test_deterministic(self):
        plat = line_platform(5)
        assert build_routing_table(plat) == build_routing_table(plat)


def routed_booker(plat: Platform, graph: TaskGraph):
    """The routed flat booker over a fresh builder, plus its statics."""
    statics = compile_statics(graph, plat)
    builder = FlatBuilder(plat.num_processors)
    return RoutedOnePortModel(plat).flat_booker(builder, statics), statics


def two_messages() -> TaskGraph:
    """``u -> x`` and ``v -> x``, 2 data items each."""
    return TaskGraph.from_specs(
        [("u", 1.0), ("v", 1.0), ("x", 1.0)],
        [("u", "x", 2.0), ("v", "x", 2.0)],
    )


def parent_row(statics, src: str, proc: int, ready: float = 0.0):
    return (ready, statics.tindex[src], statics.eindex[(src, "x")], proc)


class TestRoutedTransfers:
    def test_two_hop_arrival_time(self):
        booker, st = routed_booker(line_platform(3), two_messages())
        # data 2, unit links: hop [0,2) on 0->1, hop [2,4) on 1->2
        assert booker.trial_est([parent_row(st, "u", 0)], 2) == 4.0

    def test_hop_events_recorded(self):
        plat = line_platform(3)
        g = TaskGraph()
        g.add_task("u", 1.0)
        g.add_task("v", 1.0)
        g.add_dependency("u", "v", 2.0)
        sched = FixedAllocation({"u": 0, "v": 2}).run(g, plat, RoutedOnePortModel(plat))
        validate_schedule(sched)
        hops = sched.comms_between(("u", "v"))
        assert [(h.src_proc, h.dst_proc) for h in hops] == [(0, 1), (1, 2)]
        assert hops[1].start >= hops[0].finish

    def test_relay_port_contention(self):
        """A relay's own receive port serializes two routed streams."""
        booker, st = routed_booker(line_platform(3), two_messages())
        # two messages 0 -> 2 back to back: the second waits for the
        # first on both P0's send port and P1's ports
        rows = [parent_row(st, "u", 0), parent_row(st, "v", 0)]
        booker.builder.begin_trial()
        assert booker.trial_est(rows, 2) == 6.0
        booker.builder.begin_trial()
        out = []
        assert booker.commit_est(rows, 2, out) == 6.0
        hops = [(q, r, start, start + dur, hop) for _e, q, r, start, dur, hop in out]
        assert hops == [
            (0, 1, 0.0, 2.0, 0), (1, 2, 2.0, 4.0, 1),  # a1 == 4.0
            # pipelined: second leaves P0 at 2, relays [4,6)
            (0, 1, 2.0, 4.0, 0), (1, 2, 4.0, 6.0, 1),
        ]

    def test_heft_runs_and_validates_on_ring(self):
        import repro.graphs as graphs

        p = 5
        mat = np.full((p, p), math.inf)
        np.fill_diagonal(mat, 0.0)
        for i in range(p):
            mat[i][(i + 1) % p] = 1.0
            mat[(i + 1) % p][i] = 1.0
        ring = Platform([1.0] * p, mat)
        g = graphs.lu_graph(6, comm_ratio=2.0)
        sched = HEFT().run(g, ring, RoutedOnePortModel(ring))
        validate_schedule(sched)  # multi-hop chains + one-port rules
        assert sched.is_complete()

    def test_state_copy_isolated(self):
        booker, st = routed_booker(line_platform(3), two_messages())
        dup = booker.rebind(booker.builder.copy())
        rows = [parent_row(st, "u", 0)]
        assert booker.commit_est(rows, 2, []) == 4.0
        booker.builder.begin_trial()
        assert booker.trial_est(rows, 2) == 6.0  # the original is booked
        dup.builder.begin_trial()
        assert dup.trial_est(rows, 2) == 4.0
