"""Unit tests for the flat kernel: interning, statics cache, compile/propagate."""

import pytest

from repro import HEFT, Platform
from repro.core import SchedulingError, TaskGraph
from repro.graphs import lu_graph
from repro.kernel import KernelIneligible, TimedKernel, compile_statics
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.simulate import extract_decisions, replay_object
from repro.simulate.replay import ReplayDecisions

needs_cext = pytest.mark.skipif(not cext_available(), reason="cext extension not built")
PASSES = [pytest.param("python"), pytest.param("cext", marks=needs_cext)]


class TestStatics:
    def test_interning_roundtrip(self, paper_platform):
        g = lu_graph(6)
        st = compile_statics(g, paper_platform)
        assert st.num_tasks == g.num_tasks
        assert st.num_edges == g.num_edges
        for i, v in enumerate(st.tasks):
            assert st.tindex[v] == i
            assert st.tid_index[id(v)] == i
        for e, (u, v) in enumerate(st.edges):
            assert st.eindex[(u, v)] == e
            assert st.tasks[st.esrc[e]] == u
            assert st.tasks[st.edst[e]] == v
            assert st.edata[e] == g.data(u, v)
            assert st.hop0_node[(u, v, 0)] == st.num_tasks + e

    def test_csr_matches_graph_adjacency(self, paper_platform):
        g = lu_graph(6)
        st = compile_statics(g, paper_platform)
        for i, v in enumerate(st.tasks):
            parents = sorted(st.tasks[st.esrc[e]] for e in st.pred_rows[i])
            assert parents == sorted(g.predecessors(v))
            children = sorted(st.tasks[st.edst[e]] for e in st.succ_rows[i])
            assert children == sorted(g.successors(v))
            assert st.base_indeg[i] == g.in_degree(v)
        entries = {st.tasks[i] for i in st.base_entries}
        assert entries == set(g.entry_tasks())

    def test_cost_tables_match_platform(self, paper_platform):
        g = lu_graph(5)
        st = compile_statics(g, paper_platform)
        for i, v in enumerate(st.tasks):
            for p in paper_platform.processors:
                assert st.exec_[i][p] == paper_platform.exec_time(g.weight(v), p)
        for q in paper_platform.processors:
            for r in paper_platform.processors:
                assert st.link_rows[q][r] == paper_platform.link(q, r)
        assert st.all_links_finite == paper_platform.is_fully_connected()

    def test_comm_dur_matches_platform(self, paper_platform):
        g = lu_graph(5)
        st = compile_statics(g, paper_platform)
        for e, (u, v) in enumerate(st.edges):
            assert st.comm_dur(e, 0, 1) == paper_platform.comm_time(g.data(u, v), 0, 1)
            assert st.comm_dur(e, 2, 2) == 0.0

    def test_cache_shared_and_invalidated(self, paper_platform):
        g = lu_graph(4)
        st1 = compile_statics(g, paper_platform)
        assert compile_statics(g, paper_platform) is st1
        other = Platform.homogeneous(3)
        assert compile_statics(g, other) is not st1
        assert compile_statics(g, paper_platform) is st1
        g.add_task("fresh", 1.0)  # mutation clears the cache
        st2 = compile_statics(g, paper_platform)
        assert st2 is not st1
        assert st2.num_tasks == st1.num_tasks + 1

    def test_cost_mutation_invalidates(self, paper_platform):
        g = lu_graph(4)
        st1 = compile_statics(g, paper_platform)
        some_task = st1.tasks[0]
        g.set_weight(some_task, 123.0)
        st2 = compile_statics(g, paper_platform)
        assert st2 is not st1
        assert st2.weights[0] == 123.0


class TestTimedKernel:
    def test_from_decisions_matches_object_replay(self, paper_platform):
        g = lu_graph(8)
        dec = extract_decisions(HEFT().run(g, paper_platform, "one-port"))
        st = compile_statics(g, paper_platform)
        kern = TimedKernel.from_decisions(st, dec)
        kern.propagate_kahn()
        ref = replay_object(g, paper_platform, dec)
        for i, v in enumerate(st.tasks):
            assert kern.start[i] == ref.start_of(v)
            assert kern.finish[i] == ref.finish_of(v)
        assert kern.makespan == ref.makespan()

    @pytest.mark.parametrize("backend", PASSES)
    def test_from_point_matches_from_decisions(self, backend, paper_platform):
        """The point sweep and the one-shot Kahn pass time the same
        decision set identically, at every node."""
        from repro.search import SearchPoint

        g = lu_graph(8)
        sched = HEFT().run(g, paper_platform, "one-port")
        point = SearchPoint.from_schedule(sched)
        st = compile_statics(g, paper_platform)
        with use_backend(backend):
            kp = TimedKernel.from_point(st, point)
            kp.propagate_order()
            kd = TimedKernel.from_decisions(st, point.to_decisions(paper_platform.processors))
            kd.propagate_kahn()
        assert kp.start == kd.start
        assert kp.finish == kd.finish
        assert kp.makespan == kd.makespan
        assert kp.timed_nodes == len(kp.active_nodes())

    def test_multi_hop_is_ineligible(self, paper_platform):
        g = TaskGraph.from_specs([("u", 1.0), ("v", 1.0)], [("u", "v", 2.0)])
        st = compile_statics(g, paper_platform)
        dec = ReplayDecisions(
            alloc={"u": 0, "v": 2},
            proc_order={0: ["u"], 1: [], 2: ["v"]},
            send_order={0: [("u", "v", 0)], 1: [("u", "v", 1)], 2: []},
            recv_order={0: [], 1: [("u", "v", 0)], 2: [("u", "v", 1)]},
            hops={("u", "v", 0): (0, 1), ("u", "v", 1): (1, 2)},
        )
        with pytest.raises(KernelIneligible):
            TimedKernel.from_decisions(st, dec)

    def test_missing_task_raises_like_legacy(self, paper_platform):
        g = lu_graph(4)
        dec = extract_decisions(HEFT().run(g, paper_platform, "one-port"))
        del dec.alloc[("p", 1)]
        st = compile_statics(g, paper_platform)
        with pytest.raises(SchedulingError, match="missing task"):
            TimedKernel.from_decisions(st, dec)

    def test_out_of_range_procs_rejected(self, paper_platform):
        """Negative/overflowing processor indices must raise the same
        PlatformError the object-level replay produces — not silently
        wrap through Python negative list indexing."""
        from repro.core.exceptions import PlatformError
        from repro.simulate import replay

        g = TaskGraph.from_specs([("a", 1.0), ("b", 1.0)], [("a", "b", 2.0)])
        for bad in (-1, paper_platform.num_processors):
            dec = ReplayDecisions(
                alloc={"a": 0, "b": bad},
                proc_order={0: ["a"], 1: ["b"]},
                send_order={0: [("a", "b", 0)], 1: []},
                recv_order={0: [], 1: [("a", "b", 0)]},
                hops={("a", "b", 0): (0, bad)},
            )
            with pytest.raises(PlatformError, match="out of range"):
                replay(g, paper_platform, dec)

    def test_from_point_rejects_out_of_range_alloc(self, paper_platform):
        from repro.core.exceptions import PlatformError
        from repro.search import SearchPoint

        g = TaskGraph.from_specs([("a", 1.0), ("b", 1.0)], [("a", "b", 2.0)])
        st = compile_statics(g, paper_platform)
        point = SearchPoint(g, {"a": 0, "b": -1}, ["a", "b"])
        with pytest.raises(PlatformError, match="out of range"):
            TimedKernel.from_point(st, point)

    def test_from_point_raises_on_missing_link(self):
        """An allocation across a missing link must raise, not go inf."""
        import math

        from repro.core.exceptions import PlatformError
        from repro.search import SearchPoint

        g = TaskGraph.from_specs([("u", 1.0), ("v", 1.0)], [("u", "v", 2.0)])
        inf = math.inf
        plat = Platform([1.0, 1.0], [[0.0, inf], [inf, 0.0]])
        st = compile_statics(g, plat)
        point = SearchPoint(g, {"u": 0, "v": 1}, ["u", "v"])
        with pytest.raises(PlatformError, match="no direct link"):
            TimedKernel.from_point(st, point)

    def test_intern_identity_and_equality(self, paper_platform):
        g = lu_graph(4)
        st = compile_statics(g, paper_platform)
        for i, v in enumerate(st.tasks):
            assert st.intern(v) == i            # identity hit
            if isinstance(v, tuple):
                assert st.intern(tuple(list(v))) == i  # equality fallback

    def test_cycle_detected(self):
        g = TaskGraph.from_specs([("a", 1.0), ("b", 1.0)], [("a", "b", 0.0)])
        plat = Platform.homogeneous(1)
        st = compile_statics(g, plat)
        dec = ReplayDecisions(
            alloc={"a": 0, "b": 0},
            proc_order={0: ["b", "a"]},
            send_order={0: []},
            recv_order={0: []},
        )
        kern = TimedKernel.from_decisions(st, dec)
        with pytest.raises(SchedulingError, match="cycle"):
            kern.propagate_kahn()
