"""Unit tests for ILHA: chunking, Step-1 budgets, variants, tuning."""

import pytest

from repro import HEFT, ILHA, ILHAClassic, Platform, TunedILHA, validate_schedule
from repro.core import ConfigurationError, TaskGraph
from repro.graphs import laplace_graph, lu_graph, toy_graph, toy_priority_key
from repro.heuristics.ilha import _ChunkBudget, default_chunk_size


class TestConfiguration:
    def test_bad_b_rejected(self):
        with pytest.raises(ConfigurationError):
            ILHA(b=0)
        with pytest.raises(ConfigurationError):
            ILHAClassic(b=-3)

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ILHA(budget="magic")

    def test_default_chunk_size_paper_platform(self, paper_platform):
        assert default_chunk_size(paper_platform) == 38

    def test_default_chunk_size_non_integer_cycle_times(self):
        plat = Platform([1.5, 2.5])
        assert default_chunk_size(plat) == 2


class TestEquivalences:
    def test_b1_weights_budget_equals_heft(self, paper_platform):
        """With the continuous-share budget, a one-task chunk can never
        pass Step 1 (no share fits a whole task), so ILHA(B=1) IS HEFT."""
        g = lu_graph(12)
        heft = HEFT().run(g, paper_platform, "one-port")
        ilha = ILHA(b=1, budget="weights").run(g, paper_platform, "one-port")
        assert ilha.makespan() == heft.makespan()
        assert {t: ilha.proc_of(t) for t in g.tasks()} == {
            t: heft.proc_of(t) for t in g.tasks()
        }

    def test_b1_counts_budget_still_valid(self, paper_platform):
        """The counts budget lets Step 1 fire even at B=1 (one task per
        chunk may stay with its parents) — different from HEFT but valid."""
        g = lu_graph(12)
        sched = ILHA(b=1, budget="counts").run(g, paper_platform, "one-port")
        validate_schedule(sched)
        assert sched.is_complete()

    def test_valid_under_both_models(self, small_graphs, paper_platform):
        for graph in small_graphs:
            for model in ("one-port", "macro-dataflow"):
                sched = ILHA(b=5).run(graph, paper_platform, model)
                validate_schedule(sched)
                assert sched.is_complete()


class TestToyExample:
    """Section 4.4 / Figure 4: ILHA with B >= 8 on the toy graph."""

    def test_makespan_5(self, two_identical):
        sched = ILHA(b=8, priority_key=toy_priority_key).run(
            toy_graph(), two_identical, "one-port"
        )
        validate_schedule(sched)
        assert sched.makespan() == pytest.approx(5.0)

    def test_only_shared_children_communicate(self, two_identical):
        sched = ILHA(b=8, priority_key=toy_priority_key).run(
            toy_graph(), two_identical, "one-port"
        )
        assert sched.num_comms() == 2
        crossing = {e.dst_task for e in sched.comm_events}
        assert crossing == {"ab1", "ab2"}

    def test_private_children_stay_home(self, two_identical):
        sched = ILHA(b=8, priority_key=toy_priority_key).run(
            toy_graph(), two_identical, "one-port"
        )
        for c in ("a1", "a2", "a3"):
            assert sched.proc_of(c) == sched.proc_of("a0")
        for c in ("b1", "b2", "b3"):
            assert sched.proc_of(c) == sched.proc_of("b0")

    def test_fewer_comms_than_heft(self, two_identical):
        heft = HEFT(priority_key=toy_priority_key).run(
            toy_graph(), two_identical, "one-port"
        )
        ilha = ILHA(b=8, priority_key=toy_priority_key).run(
            toy_graph(), two_identical, "one-port"
        )
        assert ilha.num_comms() < heft.num_comms()
        assert ilha.makespan() <= heft.makespan()


class TestStepOne:
    def test_zero_comm_task_respects_budget(self):
        """With a tiny weight budget, Step 1 must refuse co-location."""
        g = TaskGraph()
        g.add_task("root", 1.0)
        for i in range(4):
            g.add_task(f"c{i}", 1.0)
            g.add_dependency("root", f"c{i}", 0.01)  # cheap comms
        plat = Platform.homogeneous(4)
        # counts budget for a 4-chunk on 4 procs is [1,1,1,1]: only one
        # child may stay with the root; the rest spread out.
        sched = ILHA(b=4).run(g, plat, "one-port")
        validate_schedule(sched)
        root_proc = sched.proc_of("root")
        local = [i for i in range(4) if sched.proc_of(f"c{i}") == root_proc]
        assert len(local) <= 2  # 1 from step 1 + possibly 1 from step 2

    def test_weights_budget_blocks_large_tasks(self, paper_platform):
        """Under the literal c_i*W rule no single equal-weight task fits
        a share when B=4, so ILHA degenerates to chunked HEFT."""
        g = lu_graph(10)
        counts = ILHA(b=4, budget="counts").run(g, paper_platform)
        weights = ILHA(b=4, budget="weights").run(g, paper_platform)
        validate_schedule(counts)
        validate_schedule(weights)
        # both valid; they generally differ in placements
        assert counts.is_complete() and weights.is_complete()


    def test_weights_budget_sums_left_to_right(self, paper_platform):
        """The chunk weight is summed left to right from 0.0, the float
        of ``sum()`` on 3.11: from 3.12 on ``sum()`` compensates its
        rounding and gives 1.0 for ten 0.1 weights, which moves every
        per-processor limit, and so Step 1's placements, by one ulp."""
        budget = _ChunkBudget("weights", [0.1] * 10, paper_platform.cycle_times, {})
        assert [x.hex() for x in budget.tracker.limits] == (
            ["0x1.0d79435e50d78p-3"] * 5
            + ["0x1.435e50d79435ep-4"] * 3
            + ["0x1.af286bca1af28p-5"] * 2
        )

    def test_counts_budget_once_per_chunk_length(self, paper_platform, monkeypatch):
        """The read-only counts budget is computed once per distinct
        chunk length in a run, not once per chunk."""
        import repro.heuristics.ilha as ilha_module

        calls = []
        real = ilha_module.optimal_distribution

        def counting(n, cycle_times):
            calls.append(n)
            return real(n, cycle_times)

        monkeypatch.setattr(ilha_module, "optimal_distribution", counting)
        sched = ILHA(b=6).run(lu_graph(10), paper_platform)
        validate_schedule(sched)
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) < len(sched.placements) / 2


class TestVariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"single_comm_scan": True},
            {"reschedule": True},
            {"single_comm_scan": True, "reschedule": True},
            {"respect_shares_step2": True},
            {"budget": "weights"},
            {"insertion": False},
        ],
    )
    def test_variants_produce_valid_schedules(self, kwargs, paper_platform):
        for graph in (lu_graph(8), laplace_graph(5), toy_graph()):
            sched = ILHA(b=6, **kwargs).run(graph, paper_platform, "one-port")
            validate_schedule(sched)
            assert sched.is_complete()

    def test_single_comm_scan_reduces_stencil_comms(self, paper_platform):
        from repro.graphs import stencil_graph

        g = stencil_graph(10)
        plain = ILHA(b=38).run(g, paper_platform)
        scanned = ILHA(b=38, single_comm_scan=True).run(g, paper_platform)
        assert scanned.num_comms() <= plain.num_comms()

    def test_reschedule_keeps_allocation(self, paper_platform):
        """The reschedule pass re-times but must keep a valid schedule."""
        g = laplace_graph(6)
        sched = ILHA(b=10, reschedule=True).run(g, paper_platform)
        validate_schedule(sched)
        assert sched.is_complete()


class TestTunedILHA:
    def test_beats_or_matches_single_b(self, paper_platform):
        g = laplace_graph(8)
        tuned = TunedILHA(b_values=(4, 10, 38), try_variants=False).run(
            g, paper_platform
        )
        for b in (4, 10, 38):
            single = ILHA(b=b).run(g, paper_platform)
            assert tuned.makespan() <= single.makespan() + 1e-9

    def test_label_records_choice(self, paper_platform):
        tuned = TunedILHA(b_values=(5,), try_variants=False).run(
            lu_graph(6), paper_platform
        )
        assert tuned.heuristic == "ilha-tuned(B=5)"

    def test_valid(self, paper_platform):
        sched = TunedILHA(b_values=(4, 38)).run(lu_graph(8), paper_platform)
        validate_schedule(sched)


class TestILHAClassic:
    def test_valid_macro(self, paper_platform, small_graphs):
        for graph in small_graphs:
            sched = ILHAClassic(b=10).run(graph, paper_platform, "macro-dataflow")
            validate_schedule(sched)
            assert sched.is_complete()

    def test_valid_one_port_too(self, paper_platform):
        sched = ILHAClassic(b=10).run(lu_graph(6), paper_platform, "one-port")
        validate_schedule(sched)

    def test_counts_respected_per_chunk(self):
        """With B = p identical processors each chunk spreads one task
        per processor (optimal distribution of B equal tasks)."""
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 1.0)
        plat = Platform.homogeneous(4)
        sched = ILHAClassic(b=4).run(g, plat, "macro-dataflow")
        assert {sched.proc_of(i) for i in range(4)} == {0, 1, 2, 3}
