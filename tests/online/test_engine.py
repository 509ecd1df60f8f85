"""Engine behavior: determinism, contention validity, policy reactions."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import TaskGraph
from repro.core.exceptions import ConfigurationError
from repro.graphs import irregular_testbed, lu_graph
from repro.kernel import TimedKernel, compile_statics
from repro.online import policies
from repro.online import (
    Job,
    OnlineEngine,
    ReactivePolicy,
    Workload,
    check_execution,
    make_workload,
    simulate_online,
)

POLICIES = [
    "static",
    "periodic:period=300",
    "reactive:threshold=0.05",
    "ready-dispatch",
]

NOISES = ["exact", "lognormal:sigma=0.3", "straggler:prob=0.1,factor=4"]


@pytest.fixture(scope="module")
def contended_workload():
    return make_workload("lu", 8, count=6, arrival="poisson:rate=0.005", seed=3)


class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_identical_seeds_identical_runs(self, policy, paper_platform,
                                            contended_workload):
        """Event logs and metrics are bit-identical across repeat runs."""
        runs = [
            simulate_online(contended_workload, paper_platform, policy=policy,
                            noise="lognormal:sigma=0.3", seed=7)
            for _ in range(2)
        ]
        assert runs[0].event_log == runs[1].event_log
        assert runs[0].jobs == runs[1].jobs
        assert runs[0].placements == runs[1].placements
        assert sorted(runs[0].transfers) == sorted(runs[1].transfers)
        assert runs[0].utilization == runs[1].utilization

    def test_noise_is_per_activity_not_per_event_order(self, paper_platform):
        """An activity's actual duration depends only on (seed, job,
        activity), so two policies observe the same luck for the work
        they both execute in the same placement."""
        wl = make_workload("fork-join", 6, count=1, arrival="trace:0.0", seed=0)
        a = simulate_online(wl, paper_platform, policy="static",
                            noise="lognormal:sigma=0.4", seed=11)
        b = simulate_online(wl, paper_platform, policy="periodic:period=1e9",
                            noise="lognormal:sigma=0.4", seed=11)
        dur_a = {t: f - s for t, _p, s, f in a.placements[0]}
        dur_b = {t: f - s for t, _p, s, f in b.placements[0]}
        assert dur_a == dur_b

    def test_event_log_independent_of_hash_seed(self):
        """String task ids hash differently in every process; nothing
        the engine or a policy iterates may follow that order.  (Re-
        planning once cancelled a task *set*, so same-time releases
        were logged in hash order.)"""
        script = (
            "import hashlib\n"
            "from repro.experiments import paper_platform\n"
            "from repro.online import make_workload, simulate_online\n"
            "wl = make_workload('lu', 10, count=6, arrival='poisson:rate=0.004', seed=1)\n"
            "r = simulate_online(wl, paper_platform(), policy='reactive:threshold=0.05',\n"
            "                    noise='lognormal:sigma=0.3', seed=1)\n"
            "assert r.aggregate()['reschedules'] > 0\n"
            "print(r.events, hashlib.sha256(repr(r.event_log).encode()).hexdigest())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_seed_changes_change_durations(self, paper_platform):
        wl = make_workload("fork-join", 6, count=1, arrival="trace:0.0", seed=0)
        a = simulate_online(wl, paper_platform, noise="lognormal:sigma=0.4", seed=1)
        b = simulate_online(wl, paper_platform, noise="lognormal:sigma=0.4", seed=2)
        assert a.jobs[0].completion != b.jobs[0].completion


class TestContention:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("noise", NOISES)
    def test_execution_always_valid(self, policy, noise, paper_platform,
                                    contended_workload):
        """Multi-job contention never violates compute or port
        exclusivity, precedence, or release causality."""
        result = simulate_online(contended_workload, paper_platform,
                                 policy=policy, noise=noise, seed=7)
        check_execution(result)
        assert all(j.completion >= j.arrival for j in result.jobs)
        assert result.events > 0

    def test_simultaneous_burst_arrivals(self, paper_platform):
        wl = make_workload("fork-join", 6, count=6, arrival="burst:size=3,gap=50",
                           seed=0)
        for policy in POLICIES:
            result = simulate_online(wl, paper_platform, policy=policy, seed=0)
            check_execution(result)

    def test_contended_stream_is_serialized(self, paper_platform):
        """Two identical jobs at t=0 cannot both finish in one job's
        standalone makespan (they share the platform)."""
        g = lu_graph(8)
        wl = Workload([Job(0, "a", g, 0.0), Job(1, "b", g, 0.0)])
        solo = simulate_online(
            Workload([Job(0, "solo", g, 0.0)]), paper_platform, policy="static",
            seed=0,
        )
        both = simulate_online(wl, paper_platform, policy="static", seed=0)
        check_execution(both)
        solo_ms = solo.jobs[0].completion
        assert max(j.completion for j in both.jobs) > solo_ms
        # ... but the engine still interleaves rather than fully
        # serializing: better than one-after-the-other
        assert max(j.completion for j in both.jobs) < 2 * solo_ms


class TestReactions:
    def test_periodic_replans(self, paper_platform, contended_workload):
        result = simulate_online(contended_workload, paper_platform,
                                 policy="periodic:period=200",
                                 noise="lognormal:sigma=0.3", seed=7)
        check_execution(result)
        assert sum(j.reschedules for j in result.jobs) > 0

    def test_reactive_replans_only_under_noise(self, paper_platform,
                                               contended_workload):
        quiet = simulate_online(contended_workload, paper_platform,
                                policy="reactive:threshold=0.05", seed=7)
        noisy = simulate_online(contended_workload, paper_platform,
                                policy="reactive:threshold=0.05",
                                noise="straggler:prob=0.2,factor=6", seed=7)
        check_execution(quiet)
        check_execution(noisy)
        assert sum(j.reschedules for j in quiet.jobs) == 0
        assert sum(j.reschedules for j in noisy.jobs) > 0

    def test_reactive_durations_match_a_full_rebuild(self, paper_platform,
                                                     contended_workload):
        """The reactive policy keeps one kernel-indexed duration list per
        plan kernel and updates one entry per event; after every event
        it must equal the kernel's estimates with *every* observed
        duration substituted afresh (translated into sub-plan kernels)."""
        checks = []

        class Checked(ReactivePolicy):
            def on_activity_finish(self, jstate, act):
                super().on_activity_finish(jstate, act)
                if jstate.complete or act.planned is None:
                    return
                kern, full = jstate.kernel, jstate.statics
                sub = kern.statics
                expected = list(kern.dur)
                for node, d in jstate.data["observed"].items():
                    if sub is full:
                        expected[node] = d
                    elif node < full.num_tasks:
                        i = sub.tindex.get(full.tasks[node])
                        if i is not None:
                            expected[i] = d
                    else:
                        e = sub.eindex.get(full.edges[node - full.num_tasks])
                        if e is not None:
                            expected[sub.num_tasks + e] = d
                assert jstate.data["plan_dur"] == expected
                checks.append(sub is full)

        result = simulate_online(contended_workload, paper_platform,
                                 policy=Checked(threshold=0.05),
                                 noise="lognormal:sigma=0.3", seed=7)
        check_execution(result)
        assert sum(j.reschedules for j in result.jobs) > 0
        assert True in checks and False in checks, "expected full and sub-plan kernels"

    def test_one_plan_kernel_per_graph_never_written(self, paper_platform,
                                                     contended_workload):
        """Every job of a graph installs the policy's one cached plan
        kernel.  Re-predictions and replans only read it, so after a
        noisy reactive stream it still equals a freshly compiled one."""
        installed = []

        class Recording(ReactivePolicy):
            def on_arrival(self, jstate):
                super().on_arrival(jstate)
                installed.append(jstate.kernel)

        policy = Recording(threshold=0.05)
        result = simulate_online(contended_workload, paper_platform, policy=policy,
                                 noise="lognormal:sigma=0.3", seed=7)
        check_execution(result)
        assert sum(j.reschedules for j in result.jobs) > 0
        graph = contended_workload.jobs[0].graph
        cached = policy.plan(graph)
        assert len(installed) == len(contended_workload)
        assert all(kern is cached for kern in installed)
        fresh = TimedKernel.from_schedule(
            compile_statics(graph, paper_platform),
            policy.scheduler.run(graph, paper_platform, policy.model),
        )
        fresh.propagate_kahn()
        assert cached.start == fresh.start
        assert cached.finish == fresh.finish
        assert cached.dur == fresh.dur
        assert cached.makespan == fresh.makespan

    def test_boundary_transfers_follow_predecessor_order(self, paper_platform,
                                                         monkeypatch):
        """A replan creates a moved task's transfers from pinned parents
        in ``graph.predecessors`` order (edge insertion), not in edge
        index order: that order fixes their sequence numbers, and so
        which of them a busy receive port serves first.  The graph's
        edges are inserted shuffled, so the two orders differ."""
        base = irregular_testbed(40, seed=3)
        edges = list(base.edges())
        random.Random(0).shuffle(edges)
        graph = TaskGraph()
        for v in base.tasks():
            graph.add_task(v, base.weight(v))
        for u, v in edges:
            graph.add_dependency(u, v, base.data(u, v))
        checked = []
        real = policies.replan_job

        def checking(engine, jstate, scheduler, model):
            moving = set(policies.movable_tasks(jstate))
            seq0 = engine._aseq
            moved = real(engine, jstate, scheduler, model)
            st = jstate.statics
            for v in moving:
                new = sorted(
                    (c for c in jstate.in_comms[st.tindex[v]]
                     if c.seq > seq0 and st.edges[c.node - st.num_tasks][0] not in moving),
                    key=lambda c: c.seq,
                )
                sources = [st.edges[c.node - st.num_tasks][0] for c in new]
                assert sources == [u for u in graph.predecessors(v) if u in sources]
                if len(sources) > 1:
                    checked.append(v)
            return moved

        monkeypatch.setattr(policies, "replan_job", checking)
        wl = Workload([Job(i, f"j{i}", graph, 40.0 * i) for i in range(4)])
        result = simulate_online(wl, paper_platform, policy="periodic:period=60",
                                 noise="straggler:prob=0.15,factor=8,sigma=0", seed=1)
        check_execution(result)
        assert checked, "expected several pinned-parent transfers into one moved task"

    def test_replanning_through_pinned_interior_tasks(self, paper_platform):
        """Regression: movability must be transitively closed.

        With in-flight transfers pinning interior tasks, a naive
        "not started and no started input" movable set hands the
        heuristic a subgraph missing dependencies that route through
        pinned tasks; the sub-plan's processor orders then contradict
        real precedence and the simulation deadlocks.  This workload
        (heavy stragglers, tight reactive threshold, deep LU chains)
        reproduced the hang before the transitive-closure fix.
        """
        wl = make_workload("lu", 14, count=6, arrival="poisson:rate=0.003",
                           seed=0)
        for policy in ["reactive:threshold=0.03", "periodic:period=120"]:
            result = simulate_online(wl, paper_platform, policy=policy,
                                     noise="straggler:prob=0.15,factor=8",
                                     seed=0, log_events=False)
            check_execution(result)
            assert sum(j.reschedules for j in result.jobs) > 0

    def test_reactive_threshold_monotone(self, paper_platform,
                                         contended_workload):
        """A looser threshold can only reduce replan triggers."""
        tight = simulate_online(contended_workload, paper_platform,
                                policy="reactive:threshold=0.02",
                                noise="lognormal:sigma=0.4", seed=7)
        loose = simulate_online(contended_workload, paper_platform,
                                policy="reactive:threshold=10.0",
                                noise="lognormal:sigma=0.4", seed=7)
        assert sum(j.reschedules for j in loose.jobs) == 0
        assert (sum(j.reschedules for j in tight.jobs)
                >= sum(j.reschedules for j in loose.jobs))


class TestEngineApi:
    def test_result_metrics_shape(self, paper_platform):
        wl = make_workload("lu", 8, count=3, arrival="poisson:rate=0.01", seed=1)
        result = simulate_online(wl, paper_platform, policy="static", seed=1)
        agg = result.aggregate()
        assert agg["jobs"] == 3
        assert agg["tasks"] == sum(j.tasks for j in result.jobs)
        for j in result.jobs:
            assert j.flow == j.completion - j.arrival
            assert j.weighted_flow == j.weight * j.flow
            assert j.stretch >= 1.0  # flow can never beat the lower bound
            assert j.makespan <= j.flow
        assert 0.0 < result.utilization <= 1.0

    def test_job_weights_flow_into_weighted_flow(self, paper_platform):
        wl = make_workload("fork-join", 6, count=4, arrival="burst:size=2,gap=100",
                           seed=0, weights=[1.0, 3.0])
        result = simulate_online(wl, paper_platform, policy="static", seed=0)
        assert result.aggregate()["weighted_flow"] == pytest.approx(
            sum(j.weight * j.flow for j in result.jobs)
        )
        assert {j.weight for j in result.jobs} == {1.0, 3.0}

    def test_engine_reusable_across_runs(self, paper_platform):
        engine = OnlineEngine(paper_platform, "static", seed=0)
        wl = make_workload("fork-join", 6, count=2, arrival="burst:size=2,gap=0",
                           seed=0)
        a = engine.run(wl)
        b = engine.run(wl)
        assert a.event_log == b.event_log

    def test_bad_policy_spec_rejected(self, paper_platform):
        with pytest.raises(ConfigurationError):
            OnlineEngine(paper_platform, "nonsense")
        with pytest.raises(ConfigurationError):
            OnlineEngine(paper_platform, "periodic:period=-5")
        with pytest.raises(ConfigurationError):
            OnlineEngine(paper_platform, "reactive:threshold=0")

    def test_macro_dataflow_plan_runs_under_one_port(self, paper_platform):
        """A macro-dataflow plan books transfers assuming unlimited port
        overlap; the engine executes it anyway, serializing the ports —
        the execution is one-port valid and no faster than the plan."""
        from repro.online import StaticPolicy
        from repro.simulate import replay_schedule

        wl = make_workload("lu", 6, count=1, arrival="trace:0.0", seed=0)
        graph = wl.jobs[0].graph
        alloc = {v: i % 3 for i, v in enumerate(graph.tasks())}
        policy = StaticPolicy(
            heuristic="fixed",
            heuristic_kwargs={"alloc": alloc},
            model="macro-dataflow",
        )
        result = simulate_online(wl, paper_platform, policy=policy, seed=0)
        check_execution(result)  # one-port exclusivity holds regardless
        plan = policy.scheduler.run(graph, paper_platform, "macro-dataflow")
        least = replay_schedule(plan)
        assert result.jobs[0].completion >= least.makespan()
