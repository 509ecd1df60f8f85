#!/usr/bin/env python
"""Beyond the paper's testbed: sparse topologies and routed messages.

Section 4.3 remarks that the one-port model extends to platforms where
some processor pairs have no direct link — messages are then routed
through intermediate processors, each hop individually subject to the
one-port rule.  This example builds a 6-processor *ring* (each
processor only talks to its neighbours), lets the library compute the
static routing tables, and compares HEFT schedules on the ring against
the fully-connected platform: same graph, same speeds, but multi-hop
messages and port contention on the relays stretch the makespan.

Run:  python examples/custom_platform.py
"""

import math

from repro import (FixedAllocation, HEFT, Platform, RoutedOnePortModel, TaskGraph,
                   validate_schedule)
from repro.graphs import laplace_graph
from repro.models import build_routing_table


def ring_platform(p: int, cycle_time: float = 1.0, link: float = 1.0) -> Platform:
    """A bidirectional ring: finite links only between neighbours."""
    mat = [
        [0.0 if q == r else link if (q - r) % p in (1, p - 1) else math.inf for r in range(p)]
        for q in range(p)
    ]
    return Platform([cycle_time] * p, mat)


def main() -> None:
    p = 6
    full = Platform.homogeneous(p, cycle_time=1.0, link=1.0)
    ring = ring_platform(p)
    routes = build_routing_table(ring)
    longest = max(len(route) - 1 for route in routes.values())
    print(f"ring of {p}: longest route {longest} hops "
          f"(e.g. P0 -> P3 via {routes[(0, 3)]})\n")

    # (a) Cross-ring traffic that *must* share relays: three independent
    # transfers s_i -> r_i pinned to opposite sides of the ring.  On the
    # full network the sender/receiver pairs are disjoint, so the three
    # messages fly in parallel (the one-port rule allows disjoint pairs).
    # On the ring, their routes overlap on the relays, whose single send
    # and receive ports serialize the store-and-forward traffic.
    graph = TaskGraph(name="cross-ring-pairs")
    alloc: dict[str, int] = {}
    for i in range(3):
        graph.add_task(f"s{i}", 0.5)
        graph.add_task(f"r{i}", 0.5)
        graph.add_dependency(f"s{i}", f"r{i}", 6.0)
        alloc[f"s{i}"] = i          # senders on P0, P1, P2
        alloc[f"r{i}"] = i + 3      # receivers opposite: P3, P4, P5
    direct = FixedAllocation(alloc).run(graph, full, "one-port")
    validate_schedule(direct)
    routed = FixedAllocation(alloc).run(graph, ring, RoutedOnePortModel(ring))
    validate_schedule(routed)
    hops = len(routed.comm_events)
    edges = len({(e.src_task, e.dst_task) for e in routed.comm_events})
    print("three cross-ring transfers, pinned allocation:")
    print(f"  fully connected : makespan {direct.makespan():7.1f}  "
          f"({direct.num_comms()} messages, all direct and parallel)")
    print(f"  ring, routed    : makespan {routed.makespan():7.1f}  "
          f"({edges} messages over {hops} hops)  "
          f"-> {routed.makespan() / direct.makespan():.2f}x slower\n")

    # (b) A free scheduler adapts: HEFT on the ring keeps neighbours
    # talking and pays almost nothing for the missing links.
    wave = laplace_graph(10, comm_ratio=2.0)
    free_full = HEFT().run(wave, full, "one-port")
    free_ring = HEFT().run(wave, ring, RoutedOnePortModel(ring))
    validate_schedule(free_full)
    validate_schedule(free_ring)
    print("wavefront graph, HEFT free to place tasks:")
    print(f"  fully connected : makespan {free_full.makespan():7.1f}")
    print(f"  ring, routed    : makespan {free_ring.makespan():7.1f}  "
          f"-> HEFT routes around the topology "
          f"({free_ring.makespan() / free_full.makespan():.2f}x)")


if __name__ == "__main__":
    main()
