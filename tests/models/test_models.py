"""Unit tests for the communication models (macro-dataflow and one-port).

Each test drives a model's flat booker directly:
``model.flat_booker(FlatBuilder(p), compile_statics(graph, platform))``.
``trial_est`` books a candidate's incoming messages tentatively and
returns its data-ready time; ``commit_est`` commits the same bookings
and reports one ``(edge, from, to, start, duration, hop)`` record each.
"""

import pytest

from repro.core import Platform, TaskGraph
from repro.kernel import FlatBuilder, compile_statics
from repro.models import MacroDataflowModel, OnePortModel


@pytest.fixture
def platform():
    return Platform.homogeneous(3, cycle_time=1.0, link=2.0)


@pytest.fixture
def graph():
    """Two 3-item messages into ``v`` (from ``u`` and ``w``) and one
    into ``y`` (from ``u``)."""
    return TaskGraph.from_specs(
        [("u", 1.0), ("w", 1.0), ("v", 1.0), ("y", 1.0)],
        [("u", "v", 3.0), ("w", "v", 3.0), ("u", "y", 3.0)],
    )


def make_booker(model_cls, graph, platform):
    statics = compile_statics(graph, platform)
    builder = FlatBuilder(platform.num_processors)
    return model_cls(platform).flat_booker(builder, statics), builder, statics


def parents(statics, *edges):
    """Parent rows for edges ``(src, dst, src_proc, ready)``, in greedy
    (ready, parent index) order."""
    return sorted(
        (ready, statics.tindex[src], statics.eindex[(src, dst)], proc)
        for src, dst, proc, ready in edges
    )


def arrivals(out):
    return [start + dur for _e, _q, _r, start, dur, _hop in out]


class TestMacroDataflow:
    def test_local_edge_free(self, platform, graph):
        booker, _, st = make_booker(MacroDataflowModel, graph, platform)
        assert booker.trial_est(parents(st, ("u", "v", 1, 5.0)), 1) == 5.0

    def test_remote_edge_costs_data_times_link(self, platform, graph):
        booker, _, st = make_booker(MacroDataflowModel, graph, platform)
        assert booker.trial_est(parents(st, ("u", "v", 0, 5.0)), 1) == 5.0 + 6.0

    def test_no_contention_between_messages(self, platform, graph):
        booker, builder, st = make_booker(MacroDataflowModel, graph, platform)
        # identical transfers at identical times: both start immediately
        rows = parents(st, ("u", "v", 0, 0.0), ("w", "v", 0, 0.0))
        assert booker.trial_est(rows, 1) == 6.0
        out = []
        assert booker.commit_est(rows, 1, out) == 6.0
        assert arrivals(out) == [6.0, 6.0]
        assert builder.num_rows == platform.num_processors  # no port rows

    def test_commit_records_events(self, platform, graph):
        booker, _, st = make_booker(MacroDataflowModel, graph, platform)
        out = []
        booker.commit_est(parents(st, ("u", "v", 0, 5.0)), 1, out)
        assert out == [(st.eindex[("u", "v")], 0, 1, 5.0, 6.0, 0)]

    def test_commit_is_stateless(self, platform, graph):
        """Nothing to book: a repeated commit re-derives the same record."""
        booker, _, st = make_booker(MacroDataflowModel, graph, platform)
        rows = parents(st, ("u", "v", 0, 5.0))
        first, again = [], []
        booker.commit_est(rows, 1, first)
        booker.commit_est(rows, 1, again)
        assert first == again and len(first) == 1


class TestOnePort:
    def test_serializes_same_sender(self, platform, graph):
        booker, builder, st = make_booker(OnePortModel, graph, platform)
        out = []
        assert booker.commit_est(parents(st, ("u", "v", 0, 0.0)), 1, out) == 6.0
        builder.begin_trial()
        # second message waits for the send port
        assert booker.trial_est(parents(st, ("u", "y", 0, 0.0)), 2) == 12.0

    def test_serializes_same_receiver(self, platform, graph):
        booker, builder, st = make_booker(OnePortModel, graph, platform)
        rows = parents(st, ("u", "v", 0, 0.0), ("w", "v", 1, 0.0))
        builder.begin_trial()
        assert booker.trial_est(rows, 2) == 12.0  # receive port of P2 busy
        builder.begin_trial()
        out = []
        booker.commit_est(rows, 2, out)
        assert arrivals(out) == [6.0, 12.0]

    def test_disjoint_pairs_parallel(self):
        plat4 = Platform.homogeneous(4, cycle_time=1.0, link=2.0)
        g = TaskGraph.from_specs(
            [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
            [("a", "b", 3.0), ("c", "d", 3.0)],
        )
        booker, builder, st = make_booker(OnePortModel, g, plat4)
        out = []
        booker.commit_est(parents(st, ("a", "b", 0, 0.0)), 1, out)
        builder.begin_trial()
        assert booker.trial_est(parents(st, ("c", "d", 2, 0.0)), 3) == 6.0
        assert arrivals(out) == [6.0]

    def test_trials_isolated_until_commit(self, platform, graph):
        booker, builder, st = make_booker(OnePortModel, graph, platform)
        builder.begin_trial()
        both = parents(st, ("u", "v", 0, 0.0), ("w", "v", 0, 0.0))
        assert booker.trial_est(both, 1) == 12.0  # w's message waits for u's
        # discarded: a new trial starts from a clean port state
        builder.begin_trial()
        assert booker.trial_est(parents(st, ("w", "v", 0, 0.0)), 1) == 6.0

    def test_commit_persists_port_state(self, platform, graph):
        booker, builder, st = make_booker(OnePortModel, graph, platform)
        rows = parents(st, ("u", "v", 0, 0.0))
        builder.begin_trial()
        booker.commit_est(rows, 1, [])
        builder.begin_trial()
        assert booker.trial_est(rows, 1) == 12.0

    def test_copy_isolates_state(self, platform, graph):
        booker, builder, st = make_booker(OnePortModel, graph, platform)
        dup = booker.rebind(builder.copy())
        rows = parents(st, ("u", "v", 0, 0.0))
        booker.commit_est(rows, 1, [])
        dup.builder.begin_trial()
        assert dup.trial_est(rows, 1) == 6.0

    def test_local_edge_books_nothing(self, platform, graph):
        booker, builder, st = make_booker(OnePortModel, graph, platform)
        rows = parents(st, ("u", "v", 1, 4.0))
        assert booker.trial_est(rows, 1) == 4.0
        out = []
        assert booker.commit_est(rows, 1, out) == 4.0
        assert out == []
        assert all(builder.committed(r) == [] for r in range(builder.num_rows))
