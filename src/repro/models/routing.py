"""One-port scheduling over sparse topologies with static routing.

Section 4.3 of the paper notes that the model "can easily be extended to
the case where the interconnection network is such that messages must be
routed between some processor pairs: if there is no direct link from P2
to P1, we redo the previous step for all intermediate messages between
adjacent processors."  This module implements exactly that extension:

* the platform's link matrix may contain ``inf`` for missing links;
* a static routing table is precomputed (shortest paths by link cost,
  ties broken deterministically), matching the fully static routing of
  the related work by Sinnen & Sousa;
* a logical transfer becomes a chain of store-and-forward hops, each
  individually subject to the one-port rule on its own endpoints, and
  each hop leaving no earlier than the previous hop's arrival.

Intermediate processors relay with their ports only — relaying does not
occupy their compute timeline (communication/computation overlap).
:class:`RoutedFlatBooker` books the chain on one-port send/receive rows,
one joint window per route link.
"""

from __future__ import annotations

import heapq
import math

from ..core.exceptions import PlatformError
from ..core.platform import Platform
from ..core.validation import ONE_PORT
from .base import CommunicationModel, _JointRowsFlatBooker, register_model


def build_routing_table(platform: Platform) -> dict[tuple[int, int], list[int]]:
    """Static routes between every ordered processor pair.

    Each route is the node sequence ``[src, ..., dst]`` of a minimum
    total-link-cost path (hop count breaks ties, then lexicographic node
    order, so routes are deterministic).  Raises
    :class:`~repro.core.exceptions.PlatformError` if some pair is
    unreachable.
    """
    links = platform.link_rows()
    table: dict[tuple[int, int], list[int]] = {}
    for src in platform.processors:
        # Dijkstra with deterministic tie-breaking on (cost, hops, path).
        paths: dict[int, tuple[float, int, list[int]]] = {src: (0.0, 0, [src])}
        frontier = [(0.0, 0, [src], src)]
        while frontier:
            cost, hops, path, node = heapq.heappop(frontier)
            if paths.get(node, (math.inf,))[0] < cost:
                continue
            for nxt, link in enumerate(links[node]):
                if nxt == node or not math.isfinite(link):
                    continue
                cand = (cost + link, hops + 1, path + [nxt])
                if nxt not in paths or cand < paths[nxt]:
                    paths[nxt] = cand
                    heapq.heappush(frontier, (*cand, nxt))
        for dst in platform.processors:
            if dst == src:
                table[(src, dst)] = [src]
            elif dst in paths:
                table[(src, dst)] = paths[dst][2]
            else:
                raise PlatformError(f"no route from P{src} to P{dst}")
    return table


class RoutedFlatBooker(_JointRowsFlatBooker):
    """One-port send/recv rows; every link of a route is one hop."""

    __slots__ = ("chains",)

    def __init__(self, builder, statics, routes: dict[tuple[int, int], list[int]]) -> None:
        super().__init__(builder, statics)
        p = statics.num_procs
        send0 = builder.new_rows(p)
        recv0 = builder.new_rows(p)
        #: ``chains[q][r]``: the ``(from, to, rows)`` hops of route q -> r.
        self.chains = [
            [
                tuple(
                    (a, c, (send0 + a, recv0 + c))
                    for a, c in zip(routes[(q, r)], routes[(q, r)][1:])
                )
                for r in range(p)
            ]
            for q in range(p)
        ]

    def _rebind_extra(self, dup) -> None:
        dup.chains = self.chains

    def _hops(self, q: int, r: int):
        return self.chains[q][r]


@register_model("routed")
class RoutedOnePortModel(CommunicationModel):
    """One-port model over an arbitrary (connected) topology."""

    name = ONE_PORT

    def __init__(self, platform: Platform) -> None:
        super().__init__(platform)
        self.routes = build_routing_table(platform)

    def flat_booker(self, builder, statics) -> RoutedFlatBooker:
        return RoutedFlatBooker(builder, statics, self.routes)
