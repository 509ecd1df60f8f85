"""Booker oracle: every model's flat booker against a greedy Timeline loop.

The Section 4.3 booking rule written out the slow, obvious way: one
:class:`~repro.core.timeline.Timeline` per resource, a
:class:`~repro.core.timeline.TimelineOverlay` per touched resource for
each candidate trial, and :func:`~repro.core.timeline.earliest_joint_fit`
per transfer hop — messages in first-finished-first order, each hop as
early as its resources allow, no earlier than the previous hop's
arrival.  The oracle declares each model's hop resources itself
(:data:`HOP_RESOURCES`); it never reads them from the booker.

A seeded list schedule drives booker and oracle in lockstep on a
random DAG over a platform with non-uniform links (a sparse ring for
``routed``): every ``trial_est`` on every processor, every
``commit_est`` (arrival and event records) and, at the end, every
committed row, interval by interval, must agree exactly.
"""

import math
import random

import pytest

from repro.core import Platform
from repro.core.timeline import Timeline, TimelineOverlay, earliest_joint_fit
from repro.graphs import random_dag
from repro.kernel import FlatBuilder, compile_statics
from repro.models import available_models, build_routing_table, make_model

#: model -> the ``(kind, proc)`` resources one hop ``a -> b`` occupies.
HOP_RESOURCES = {
    "macro-dataflow": lambda a, b: (),
    "one-port": lambda a, b: (("send", a), ("recv", b)),
    "uni-port": lambda a, b: (("port", a), ("port", b)),
    "no-overlap": lambda a, b: (("send", a), ("recv", b), ("compute", a), ("compute", b)),
    "routed": lambda a, b: (("send", a), ("recv", b)),
}

#: model -> resource kind of each block of ``p`` builder rows, in
#: allocation order (block 0 holds the compute rows).
ROW_BLOCKS = {
    "macro-dataflow": ("compute",),
    "one-port": ("compute", "send", "recv"),
    "uni-port": ("compute", "port"),
    "no-overlap": ("compute", "send", "recv"),
    "routed": ("compute", "send", "recv"),
}

CYCLE_TIMES = [6.0, 10.0, 15.0, 6.0, 10.0]


def skewed_links() -> Platform:
    """Fully linked; ``link(i, j) != link(j, i)``, non-dyadic costs."""
    p = len(CYCLE_TIMES)
    return Platform(
        CYCLE_TIMES,
        [[0.0 if i == j else 0.5 + ((3 * i + 7 * j) % 5) * 0.35 for j in range(p)]
         for i in range(p)],
    )


def sparse_ring() -> Platform:
    """Neighbour links only, each direction with its own cost."""
    p = len(CYCLE_TIMES)
    links = [[0.0 if i == j else math.inf for j in range(p)] for i in range(p)]
    for i in range(p):
        links[i][(i + 1) % p] = 0.5 + 0.35 * i
        links[(i + 1) % p][i] = 1.2 - 0.15 * i
    return Platform(CYCLE_TIMES, links)


class GreedyOracle:
    """Resource timelines of one run, booked hop by hop."""

    def __init__(self, model_name: str, platform: Platform) -> None:
        self.platform = platform
        self.hop_resources = HOP_RESOURCES[model_name]
        self.routes = build_routing_table(platform) if model_name == "routed" else None
        self.timelines: dict[tuple[str, int], Timeline] = {}

    def timeline(self, resource) -> Timeline:
        return self.timelines.setdefault(resource, Timeline())

    def route(self, q: int, r: int) -> list[int]:
        return self.routes[(q, r)] if self.routes is not None else [q, r]

    def book(self, parents, proc: int, edata, commit: bool):
        """Book ``parents``' messages to ``proc``; ``(est, records)``.

        A trial books into fresh overlays (discarded with the call); a
        commit books the timelines themselves.
        """
        overlays: dict = {}

        def view(resource):
            base = self.timeline(resource)
            if commit:
                return base
            if resource not in overlays:
                overlays[resource] = TimelineOverlay(base)
            return overlays[resource]

        est = 0.0
        records = []
        for pfinish, _pi, e, pproc in parents:
            t = pfinish
            if pproc != proc:
                route = self.route(pproc, proc)
                for hop, (a, b) in enumerate(zip(route, route[1:])):
                    duration = self.platform.comm_time(edata[e], a, b)
                    views = [view(res) for res in self.hop_resources(a, b)]
                    start = earliest_joint_fit(views, t, duration) if views else t
                    for v in views:
                        v.reserve(start, start + duration)
                    records.append((e, a, b, start, duration, hop))
                    t = start + duration
            est = max(est, t)
        return est, records


def run_lockstep(model_name: str, platform: Platform, seed: int) -> int:
    """Schedule a seeded random DAG through booker and oracle side by
    side; returns the number of transfer records compared."""
    rng = random.Random(seed)
    # communication-bound (transfers about as long as tasks), so ports
    # contend and send rows keep gaps that only short transfers fit
    graph = random_dag(30, edge_prob=0.3, seed=seed, data_range=(0.0, 100.0))
    for k, (u, v) in enumerate(list(graph.edges())):
        if k % 9 == 0:
            graph.set_data(u, v, 0.0)  # zero-length transfers too
    p = platform.num_processors
    st = compile_statics(graph, platform)
    builder = FlatBuilder(p)
    booker = make_model(platform, model_name).flat_booker(builder, st)
    oracle = GreedyOracle(model_name, platform)
    proc_a: dict[int, int] = {}
    finish_a: dict[int, float] = {}
    compared = 0
    for ti in st.topo_ix:
        parents = sorted(
            (finish_a[st.esrc[e]], st.esrc[e], e, proc_a[st.esrc[e]])
            for e in st.pred_rows[ti]
        )
        trial = []
        for proc in range(p):
            builder.begin_trial()
            got = booker.trial_est(parents, proc)
            want, _ = oracle.book(parents, proc, st.edata, commit=False)
            assert got == want, (ti, proc, "trial_est")
            trial.append(got)
        proc = rng.randrange(p)  # a seeded placement visits every destination
        builder.begin_trial()
        out = []
        est = booker.commit_est(parents, proc, out)
        want, records = oracle.book(parents, proc, st.edata, commit=True)
        assert est == want == trial[proc], (ti, proc, "commit_est")
        assert out == records, (ti, proc, "commit records")
        compared += len(records)
        duration = st.exec_[ti][proc]
        compute = oracle.timeline(("compute", proc))
        start = compute.next_fit(est, duration)
        assert builder.next_fit(proc, est, duration) == start
        builder.book(proc, start, start + duration)
        compute.reserve(start, start + duration)
        proc_a[ti], finish_a[ti] = proc, start + duration
    blocks = ROW_BLOCKS[model_name]
    assert builder.num_rows == len(blocks) * p
    for k, kind in enumerate(blocks):
        for q in range(p):
            want = [(s, e) for s, e, _tag in oracle.timeline((kind, q)).intervals()]
            assert builder.committed(k * p + q) == want, (kind, q)
    return compared


def test_oracle_covers_every_model():
    assert sorted(HOP_RESOURCES) == available_models()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("model_name", sorted(HOP_RESOURCES))
def test_booker_matches_greedy_oracle(model_name, seed):
    platform = sparse_ring() if model_name == "routed" else skewed_links()
    assert run_lockstep(model_name, platform, seed) > 0
