"""Unit tests for the Section 2.3 model variants (uni-port, no-overlap)."""

import pytest

from repro import HEFT, ILHA, Platform, validate_schedule
from repro.core import TaskGraph, ValidationError
from repro.graphs import lu_graph, toy_graph, uniform_fork
from repro.kernel import FlatBuilder, compile_statics
from repro.models import (
    NoOverlapOnePortModel,
    OnePortModel,
    UniPortModel,
    validate_no_overlap,
    validate_uni_port,
)


@pytest.fixture
def platform():
    return Platform.homogeneous(3, cycle_time=1.0, link=1.0)


def relay_arrivals(model_cls, platform) -> tuple[float, float]:
    """Commit ``u -> x`` (P0 -> P1, 2 items), then probe ``v -> y``
    (P1 -> P2, 2 items) on the model's flat booker: the two arrivals."""
    g = TaskGraph.from_specs(
        [("u", 1.0), ("v", 1.0), ("x", 1.0), ("y", 1.0)],
        [("u", "x", 2.0), ("v", "y", 2.0)],
    )
    st = compile_statics(g, platform)
    builder = FlatBuilder(platform.num_processors)
    booker = model_cls(platform).flat_booker(builder, st)
    a1 = booker.commit_est([(0.0, st.tindex["u"], st.eindex[("u", "x")], 0)], 1, [])
    builder.begin_trial()
    a2 = booker.trial_est([(0.0, st.tindex["v"], st.eindex[("v", "y")], 1)], 2)
    return a1, a2


class TestUniPort:
    def test_send_blocks_receive(self, platform):
        """Uni-directional: a processor cannot send and receive at once."""
        # P0 -> P1 in [0,2); P1 -> P2 must wait for P1's single port
        assert relay_arrivals(UniPortModel, platform) == (2.0, 4.0)

    def test_bidirectional_allows_it(self, platform):
        # recv on P1 and send on P1 overlap
        assert relay_arrivals(OnePortModel, platform) == (2.0, 2.0)

    def test_schedules_validate(self, platform, paper_platform):
        for graph in (toy_graph(), lu_graph(6), uniform_fork(5)):
            sched = HEFT().run(graph, paper_platform, UniPortModel(paper_platform))
            validate_uni_port(sched)
            assert sched.is_complete()

    def test_never_faster_than_bidirectional_on_forks(self, platform):
        g = uniform_fork(6, weight=1.0, data=2.0)
        bi = HEFT(insertion=False).run(g, platform, "one-port")
        uni = HEFT(insertion=False).run(g, platform, UniPortModel(platform))
        assert uni.makespan() >= bi.makespan() - 1e-9

    def test_validator_catches_violation(self, platform):
        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 1.0)
        g.add_task("c", 1.0)
        g.add_dependency("a", "c", 2.0)
        from repro.core import Schedule

        s = Schedule(g, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 1, 0.0, 1.0)
        # P1 receives a->c relay... build: a on P0 sends to c on P1 while
        # P1 sends something to P2 in the same window
        g2 = TaskGraph()
        g2.add_task("a", 1.0)
        g2.add_task("b", 1.0)
        g2.add_task("c", 1.0)
        g2.add_task("d", 1.0)
        g2.add_dependency("a", "c", 2.0)
        g2.add_dependency("b", "d", 2.0)
        s = Schedule(g2, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 1, 0.0, 1.0)
        s.record_comm("a", "c", 0, 1, 1.0, 2.0, 2.0)  # P1 receiving [1,3)
        s.record_comm("b", "d", 1, 2, 1.0, 2.0, 2.0)  # P1 sending   [1,3)
        s.place("c", 1, 3.0, 4.0)
        s.place("d", 2, 3.0, 4.0)
        validate_schedule(s)  # fine under bi-directional one-port
        with pytest.raises(ValidationError, match="uni-port violation"):
            validate_uni_port(s)


class TestNoOverlap:
    def test_transfer_blocks_compute(self, platform):
        """A processor computing cannot simultaneously drive a transfer."""
        g = TaskGraph()
        g.add_task("src", 1.0)
        g.add_task("busy", 5.0)
        g.add_task("dst", 1.0)
        g.add_dependency("src", "dst", 2.0)
        model = NoOverlapOnePortModel(platform)
        sched = HEFT(priority_key=lambda v: ({"src": 0, "busy": 1, "dst": 2}[v],)).run(
            g, platform, model
        )
        validate_no_overlap(sched)

    def test_schedules_validate(self, paper_platform):
        for graph in (toy_graph(), lu_graph(6)):
            model = NoOverlapOnePortModel(paper_platform)
            sched = ILHA(b=5).run(graph, paper_platform, model)
            validate_no_overlap(sched)
            assert sched.is_complete()

    def test_validator_catches_overlap(self, platform):
        from repro.core import Schedule

        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 2.0)
        g.add_task("c", 1.0)
        g.add_dependency("a", "c", 2.0)
        s = Schedule(g, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 0, 1.0, 3.0)  # P0 computes b during the transfer
        s.record_comm("a", "c", 0, 1, 1.0, 2.0, 2.0)
        s.place("c", 1, 3.0, 4.0)
        validate_schedule(s)  # fine with overlap allowed
        with pytest.raises(ValidationError, match="no-overlap violation"):
            validate_no_overlap(s)

    def test_strictness_ordering_on_lu(self, paper_platform):
        """More constraints, larger (or equal) makespans — measured."""
        g = lu_graph(8)
        bi = HEFT().run(g, paper_platform, OnePortModel(paper_platform)).makespan()
        noov = HEFT().run(
            g, paper_platform, NoOverlapOnePortModel(paper_platform)
        ).makespan()
        assert noov >= bi - 1e-9

    def test_reschedule_variant_works(self, paper_platform):
        model = NoOverlapOnePortModel(paper_platform)
        sched = ILHA(b=6, reschedule=True).run(lu_graph(6), paper_platform, model)
        validate_no_overlap(sched)
