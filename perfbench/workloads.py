"""The four benchmark workloads: construct, improve, online, campaign.

Each workload is a closed loop from one process over a seeded input
stream.  It offers three entry points:

* ``inputs(seed)`` — generate the inputs (the timed part of set-up);
* ``measure(inputs, seconds, pace)`` — the untraced end-to-end run:
  repeat whole cycles over the inputs until ``seconds`` have passed,
  recording the span of every op and checking every output.  Between
  ops it lets ``pace`` (:class:`pace.Pace`) run its host-speed
  reference, so the spans can be read at the reference speed.  Each
  cycle does the same work, so the work rate is a median over cycles,
  which keeps a burst of host contention from moving it;
* ``trace_pass(seed)`` — a fixed, seed-determined op list including its
  own input generation, run untraced and traced; it returns the op
  count, the outputs and a tally.  ``fingerprint(outputs)`` digests the
  outputs outside the timed window; traced and untraced fingerprints
  must be equal.

Every op runs under the engine the benchmark pins with ``use_backend``;
an op that raises, fails its output check, or reports another engine in
``Schedule.state_impl`` is recorded as a failure and the loop goes on.
"""

from __future__ import annotations

import multiprocessing
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.campaign import CampaignSpec, HeuristicSpec, run_campaign
from repro.core.validation import validate_schedule
from repro.experiments import paper_platform
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import get_scheduler
from repro.kernel.backends import use_backend
from repro.online import check_execution, make_workload, simulate_online
from repro.online import policies as online_policies
from repro.simulate import extract_decisions, replay

from pace import NEIGHBOURS, Pace

#: The engine every op is pinned to, and the ``state_impl`` it records.
ENGINE, ENGINE_IMPL = "cext", "flat-cext"
#: The pure-Python reference tier (construct cross-check).
REF_ENGINE, REF_IMPL = "python", "flat-python"


Span = tuple[float, float]  # (start, end), perf_counter seconds


@dataclass
class Cycle:
    """One pass over a workload's inputs, as measured spans.

    A latency sample is the mean duration of one group in ``ops``
    (mostly a single op); the work rate is ``work`` over the summed
    ``busy`` spans of the workload's top-level calls.  ``span_s`` turns
    a span into seconds (:meth:`pace.Pace.seconds` or ``.raw``).
    """

    ops: list[list[Span]] = field(default_factory=list)
    busy: list[Span] = field(default_factory=list)
    work: int = 0  # work units (tasks, moves, events, cells)

    def samples(self, span_s) -> list[float]:
        return [sum(span_s(*s) for s in group) / len(group) for group in self.ops]

    def busy_s(self, span_s) -> float:
        return sum(span_s(*s) for s in self.busy)


@dataclass
class Tally:
    """What one measurement produced."""

    cycles: list[Cycle] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def cycle(self) -> Cycle:
        self.cycles.append(Cycle())
        return self.cycles[-1]

    def fail(self, what: str, problem: str) -> None:
        self.failures.append(f"{what}: {problem}")


def _subseeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _fresh(graph) -> None:
    """Drop the graph's derived caches (maps, order, kernel statics).

    Re-setting one weight to its own value goes through the public
    mutation path, so the next run pays statics compile exactly as a
    run on a never-seen graph does.
    """
    task = next(iter(graph.tasks()))
    graph.set_weight(task, graph.weight(task))


def _engine_problem(impl: str, expected: str | None = None) -> str | None:
    """Why an op that ran on engine ``impl`` does not count (or ``None``)."""
    expected = expected or ENGINE_IMPL
    return None if impl == expected else f"ran on {impl!r}, not {expected!r}"


def _engine_probe() -> str:
    """``state_impl`` of a tiny HEFT run (used in a forked pool worker)."""
    return get_scheduler("heft").run(lu_graph(4), paper_platform()).state_impl


def _placements_digest(schedule) -> int:
    return hash(tuple(sorted(
        (repr(t), p.proc, p.start, p.finish) for t, p in schedule.placements.items()
    )))


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------
class Construct:
    """Back-to-back ``Scheduler.run`` on distinct ~1000-task graphs.

    Each graph visit runs ``heft``, ``ilha`` and ``pct`` under one-port:
    the first pays statics compile, the next two reuse it.  Op: one
    ``Scheduler.run``; work: tasks scheduled.
    """

    name = "construct"
    #: Graphs per family in the measured pool and in the traced pass;
    #: the first REF_PER_FAMILY of each family are also run on the
    #: python tier in the first cycle.
    PER_FAMILY, TRACE_PER_FAMILY, REF_PER_FAMILY = 8, 2, 2
    #: Graph sizes; 228 layers of width 8 give ~1000-task layered graphs.
    IRREGULAR_SIZE, LAYERED_LAYERS, LU_SIZE = 1000, 228, 44
    HEURISTICS = ("heft", "ilha", "pct")

    def __init__(self, schedulers=None) -> None:
        #: (name, scheduler) pairs; tests inject failing schedulers here.
        self.schedulers = schedulers or [(h, get_scheduler(h)) for h in self.HEURISTICS]

    def inputs(self, seed: int, per_family: int | None = None) -> dict:
        per_family = per_family or self.PER_FAMILY
        seeds = _subseeds(seed, 2 * per_family)
        graphs = []
        for k in range(per_family):
            graphs.append((f"irregular-{self.IRREGULAR_SIZE}#{k}",
                           irregular_testbed(self.IRREGULAR_SIZE, seed=seeds[2 * k])))
            graphs.append((f"layered-{self.LAYERED_LAYERS}#{k}",
                           layered_testbed(self.LAYERED_LAYERS, seed=seeds[2 * k + 1])))
            graphs.append((f"lu-{self.LU_SIZE}#{k}", lu_graph(self.LU_SIZE)))
        return {"platform": paper_platform(), "graphs": graphs}

    def _run(self, scheduler, graph, plat):
        with use_backend(ENGINE):
            t0 = perf_counter()
            schedule = scheduler.run(graph, plat, "one-port")
            return schedule, (t0, perf_counter())

    def _first_check(self, scheduler, graph, plat, schedule, with_ref, tally) -> str | None:
        """Validate; on the reference subset also compare with the python
        tier (timed as ``ref_run``)."""
        validate_schedule(schedule, "one-port")
        if not with_ref:
            return None
        with use_backend(REF_ENGINE):
            t0 = perf_counter()
            ref = scheduler.run(graph, plat, "one-port")
            tally.extra.setdefault("ref_run", []).append(perf_counter() - t0)
        problem = _engine_problem(ref.state_impl, REF_IMPL)
        if problem is None and ref.makespan() != schedule.makespan():
            problem = f"makespan {schedule.makespan()!r} != python tier {ref.makespan()!r}"
        return problem

    def measure(self, inputs: dict, seconds: float, pace: Pace | None = None) -> Tally:
        tally, pace = Tally(), pace or Pace()
        plat = inputs["platform"]
        reference: dict[tuple, float] = {}
        deadline = perf_counter() + seconds
        while not tally.cycles or perf_counter() < deadline:
            first = not tally.cycles
            cycle = tally.cycle()
            for gi, (label, graph) in enumerate(inputs["graphs"]):
                _fresh(graph)
                for hname, scheduler in self.schedulers:
                    tally.attempted += 1
                    pace.tick()
                    try:
                        schedule, span = self._run(scheduler, graph, plat)
                        problem = _engine_problem(schedule.state_impl)
                        if problem is None and first:
                            with_ref = gi < 3 * self.REF_PER_FAMILY
                            problem = self._first_check(
                                scheduler, graph, plat, schedule, with_ref, tally)
                            reference[gi, hname] = schedule.makespan()
                        elif problem is None and schedule.makespan() != reference.get((gi, hname)):
                            problem = "makespan differs from the first visit"
                    except Exception as exc:  # a failed op is counted, not fatal
                        problem = f"raised {exc!r}"
                    if problem:
                        tally.fail(f"{hname} on {label}", problem)
                        continue
                    cycle.ops.append([span])
                    cycle.busy.append(span)
                    cycle.work += graph.num_tasks
        pace.calibrate(NEIGHBOURS)
        return tally

    def trace_pass(self, seed: int):
        inputs = self.inputs(seed, self.TRACE_PER_FAMILY)
        plat = inputs["platform"]
        outputs, tally = [], Tally()
        for label, graph in inputs["graphs"]:
            for hname, scheduler in self.schedulers:
                tally.attempted += 1
                try:
                    schedule, _ = self._run(scheduler, graph, plat)
                except Exception as exc:
                    tally.fail(f"{hname} on {label}", f"raised {exc!r}")
                    outputs.append(None)
                    continue
                outputs.append((label, hname, schedule))
        return tally.attempted, outputs, tally

    @staticmethod
    def fingerprint(outputs) -> list:
        """Comparable digest of a trace pass's schedules (untimed)."""
        return [None if out is None else
                (out[0], out[1], out[2].state_impl, out[2].makespan(),
                 len(out[2].comm_events), _placements_digest(out[2]))
                for out in outputs]


# ----------------------------------------------------------------------
# improve
# ----------------------------------------------------------------------
class Improve:
    """Fixed-budget ``ils`` runs, interleaved with sweeps replaying results.

    Op: one ``replay`` of an ILS result's extracted decisions.  A sample
    is the mean replay time of one sweep that replays every result of
    the previous cycle once, so each sample mixes all bed sizes the same
    way; the sweeps run between the ILS runs, so the samples spread over
    the whole run instead of one burst, and every replay finds the caches
    as an ILS run left them.  Work: ILS move evaluations, over the time
    of whole ``ils`` runs (base construction included).  The first cycle
    has no earlier results to sweep: it is warm-up and counts in no
    metric, and a run makes at least two cycles.
    """

    name = "improve"
    #: (label, testbed, size, ILS evaluation budget), each bed repeated
    #: PER_BED times with its own graph and search seed.
    BEDS = (("lu-20", "lu", 20, 200),
            ("irregular-300", "irregular", 300, 150),
            ("irregular-1000", "irregular", 1000, 75))
    PER_BED = 6
    #: Sweeps after each ILS run (over the previous cycle's results).
    SWEEPS_PER_RUN, TRACE_REPLAYS = 3, 5

    def inputs(self, seed: int, per_bed: int | None = None) -> dict:
        per_bed = per_bed or self.PER_BED
        seeds = iter(_subseeds(seed, 2 * per_bed * len(self.BEDS)))
        beds = []
        for k in range(per_bed):
            for label, testbed, size, budget in self.BEDS:
                graph_seed, ils_seed = next(seeds), next(seeds)
                graph = (lu_graph(size) if testbed == "lu"
                         else irregular_testbed(size, seed=graph_seed))
                beds.append((f"{label}#{k}", graph, budget, ils_seed))
        return {"platform": paper_platform(), "beds": beds}

    def _ils(self, graph, plat, budget, ils_seed):
        with use_backend(ENGINE):
            t0 = perf_counter()
            result = get_scheduler("ils", budget=budget, seed=ils_seed).run(graph, plat, "one-port")
            return result, (t0, perf_counter())

    def _sweep(self, results, plat, cycle: Cycle, tally: Tally, pace: Pace) -> None:
        """Replay every result once; one sample is their mean replay time."""
        group = []
        for label, graph, decisions, final in results:
            tally.attempted += 1
            pace.tick()
            try:
                with use_backend(ENGINE):
                    t0 = perf_counter()
                    replayed = replay(graph, plat, decisions)
                    span = (t0, perf_counter())
                if replayed.makespan() != final:
                    tally.fail(f"replay on {label}",
                               f"makespan {replayed.makespan()!r} != ils {final!r}")
                    continue
            except Exception as exc:
                tally.fail(f"replay on {label}", f"raised {exc!r}")
                continue
            group.append(span)
        if group:
            cycle.ops.append(group)

    def measure(self, inputs: dict, seconds: float, pace: Pace | None = None) -> Tally:
        tally, pace = Tally(), pace or Pace()
        plat = inputs["platform"]
        reference: dict[int, float] = {}
        previous = []  # (label, graph, decisions, final makespan) of the last cycle
        deadline = perf_counter() + seconds
        while len(tally.cycles) < 2 or perf_counter() < deadline:
            first = not tally.cycles
            cycle = tally.cycle()
            results = []
            for bi, (label, graph, budget, ils_seed) in enumerate(inputs["beds"]):
                _fresh(graph)
                tally.attempted += 1
                pace.tick()
                try:
                    result, span = self._ils(graph, plat, budget, ils_seed)
                    final = result.makespan()
                    problem = None
                    if first:
                        reference[bi] = final
                        with use_backend(ENGINE):
                            base = get_scheduler("heft").run(graph, plat, "one-port")
                        problem = _engine_problem(base.state_impl)
                    elif final != reference.get(bi):
                        problem = f"final makespan {final!r} differs for the same seed"
                    decisions = extract_decisions(result)
                except Exception as exc:
                    problem = f"raised {exc!r}"
                if problem:
                    tally.fail(f"ils on {label}", problem)
                else:
                    cycle.busy.append(span)
                    cycle.work += result.search_stats["evals"]
                    results.append((label, graph, decisions, final))
                for _ in range(self.SWEEPS_PER_RUN if previous else 0):
                    self._sweep(previous, plat, cycle, tally, pace)
            previous = results
        pace.calibrate(NEIGHBOURS)
        return tally

    def trace_pass(self, seed: int):
        inputs = self.inputs(seed, per_bed=1)
        plat = inputs["platform"]
        outputs, tally = [], Tally()
        for label, graph, budget, ils_seed in inputs["beds"]:
            tally.attempted += 1
            try:
                result, _ = self._ils(graph, plat, budget, ils_seed)
                decisions = extract_decisions(result)
                with use_backend(ENGINE):
                    replayed = [replay(graph, plat, decisions).makespan()
                                for _ in range(self.TRACE_REPLAYS)]
            except Exception as exc:
                tally.fail(f"ils on {label}", f"raised {exc!r}")
                outputs.append(None)
                continue
            outputs.append((label, result.makespan(), result.search_stats["evals"],
                            result.search_stats["accepted"], tuple(replayed)))
        return len(inputs["beds"]), outputs, tally


# ----------------------------------------------------------------------
# online
# ----------------------------------------------------------------------
class _ReplanTimer:
    """Records the span of every ``replan_job`` call of the reactive
    policy into ``cycle`` (reassigned per cycle), letting ``pace`` run
    its reference just before the call when one is due.

    The one wrapper the untraced run installs: a replan is the online
    layer's decision op (a fresh-subgraph construction), the same role
    ``Scheduler.run`` plays offline.  It costs two clock reads per
    replan (~250 per simulation), next to milliseconds of replanning;
    the reference passes it runs are left out of the simulation's span
    by :meth:`pace.Pace.seconds`.
    """

    def __init__(self, pace: Pace) -> None:
        self.pace = pace
        self.cycle = Cycle()
        self.original = online_policies.replan_job

    def __enter__(self):
        original = self.original

        def timed(*args, **kwargs):
            self.pace.tick()
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.cycle.ops.append([(t0, perf_counter())])

        online_policies.replan_job = timed
        return self

    def __exit__(self, *exc) -> None:
        online_policies.replan_job = self.original


class Online:
    """Seeded streams of 40 ``lu`` 20 jobs under reactive replanning.

    Op: one replan (policy decision); work: simulator events, over the
    ``simulate_online`` wall time.  A cycle is one simulation; streams
    take turns, and a run ends only after whole rounds over the streams,
    so every stream weighs the same in its quantiles.
    """

    name = "online"
    TESTBED, SIZE, JOBS = "lu", 20, 40
    ARRIVAL = "poisson:rate=0.002"
    NOISE = "lognormal:sigma=0.3"
    POLICY = "reactive:threshold=0.05"
    STREAMS = 3

    def inputs(self, seed: int, streams: int | None = None) -> dict:
        seeds = _subseeds(seed, streams or self.STREAMS)
        return {
            "platform": paper_platform(),
            "streams": [(make_workload(self.TESTBED, self.SIZE, self.JOBS,
                                       arrival=self.ARRIVAL, seed=s), s) for s in seeds],
        }

    def _simulate(self, workload, plat, seed):
        with use_backend(ENGINE):
            t0 = perf_counter()
            result = simulate_online(workload, plat, policy=self.POLICY,
                                     noise=self.NOISE, seed=seed, log_events=False)
            return result, (t0, perf_counter())

    def measure(self, inputs: dict, seconds: float, pace: Pace | None = None) -> Tally:
        tally, pace = Tally(), pace or Pace()
        plat = inputs["platform"]
        streams = inputs["streams"]
        reference: dict[int, dict] = {}
        deadline = perf_counter() + seconds
        with _ReplanTimer(pace) as timer:
            while (not tally.cycles or len(tally.cycles) % len(streams)
                   or perf_counter() < deadline):
                wi = len(tally.cycles) % len(streams)
                workload, seed = streams[wi]
                cycle = timer.cycle = tally.cycle()
                tally.attempted += 1
                pace.tick(force=True)
                try:
                    result, span = self._simulate(workload, plat, seed)
                    check_execution(result)
                    agg = result.aggregate()
                    problem = None
                    if wi not in reference:
                        reference[wi] = agg
                        with use_backend(ENGINE):
                            problem = _engine_problem(_engine_probe())
                    elif agg != reference[wi]:
                        problem = (f"{agg['events']} events / aggregate differ from "
                                   f"the first run of this stream")
                except Exception as exc:
                    problem = f"raised {exc!r}"
                if problem:
                    tally.fail(f"stream {wi}", problem)
                    del cycle.ops[:]
                    continue
                cycle.busy.append(span)
                cycle.work += result.events
        pace.calibrate(NEIGHBOURS)
        return tally

    def trace_pass(self, seed: int):
        inputs = self.inputs(seed, streams=1)
        workload, stream_seed = inputs["streams"][0]
        tally = Tally(attempted=1)
        try:
            result, _ = self._simulate(workload, inputs["platform"], stream_seed)
            outputs = [result.aggregate()]
        except Exception as exc:
            tally.fail("stream 0", f"raised {exc!r}")
            outputs = [None]
        return 1, outputs, tally


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def _cell_rows(result) -> dict[str, dict]:
    """Cell metrics by key, without the measured ``runtime_s``."""
    rows = {}
    for outcome in result.outcomes:
        row = outcome.result.as_dict()
        row.pop("runtime_s")
        rows[outcome.cell.key] = row
    return rows


class Campaign:
    """Cold campaign grids through the ``process`` executor (2 workers).

    Every pass (a cycle) settles the whole grid into a fresh
    ``ResultCache``.  Op: one pass (a cold ``run_campaign`` of the
    grid); work: cells, over the ``run_campaign`` wall time.  A single
    cell's ``runtime_s`` is too short and too exposed to the two workers
    sharing two cores with the parent to be a steady op; its median is
    the traced run's ``campaign.cell_ms.p50``.
    """

    name = "campaign"
    WORKERS = 2
    TESTBEDS = ("lu", "irregular", "layered")
    SIZES = (12, 20, 28)
    MODELS = ("one-port", "macro-dataflow")
    SEEDS = 3

    def __init__(self, scratch: Path) -> None:
        #: Directory for the passes' result caches (removed after each).
        self.scratch = Path(scratch)

    def spec(self, seed: int) -> CampaignSpec:
        seeds = sorted(random.Random(seed).sample(range(1_000_000), self.SEEDS))
        return CampaignSpec(
            name="perfbench",
            testbeds=list(self.TESTBEDS),
            sizes=list(self.SIZES),
            heuristics=[HeuristicSpec.of("heft"), HeuristicSpec.of("ilha", {"b": 8}),
                        HeuristicSpec.of("pct")],
            models=list(self.MODELS),
            seeds=seeds,
        )

    def inputs(self, seed: int) -> dict:
        self.scratch.mkdir(parents=True, exist_ok=True)
        spec = self.spec(seed)
        return {"spec": spec, "cells": len(spec.expand())}

    def _pass(self, spec, cache_dir: Path, executor: str = "process"):
        with use_backend(ENGINE):
            t0 = perf_counter()
            result = run_campaign(spec, workers=self.WORKERS, cache=str(cache_dir),
                                  executor=executor)
            return result, (t0, perf_counter())

    def _worker_engine(self) -> str:
        """The engine a forked pool worker runs (the executor forks too)."""
        ctx = multiprocessing.get_context("fork")
        with use_backend(ENGINE):
            pool = ctx.Pool(1)
            try:
                return pool.apply(_engine_probe)
            finally:
                pool.close()
                pool.join()

    def measure(self, inputs: dict, seconds: float, pace: Pace | None = None) -> Tally:
        tally, pace = Tally(), pace or Pace()
        spec, cells = inputs["spec"], inputs["cells"]
        reference = None
        deadline = perf_counter() + seconds
        while not tally.cycles or perf_counter() < deadline:
            cycle = tally.cycle()
            cache_dir = self.scratch / f"pass-{len(tally.cycles)}"
            tally.attempted += cells
            # the workers hold both cores during a pass: the reference
            # runs between passes only, on each side of every pass
            pace.calibrate(NEIGHBOURS)
            try:
                result, span = self._pass(spec, cache_dir)
            except Exception as exc:
                for _ in range(cells):
                    tally.fail(f"pass {len(tally.cycles)}", f"raised {exc!r}")
                continue
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            rows = _cell_rows(result)
            if result.executed != cells:
                tally.fail(f"pass {len(tally.cycles)}",
                           f"executed {result.executed} of {cells} cells")
            if reference is None:
                reference = rows
            bad = {k for k in reference.keys() | rows.keys() if rows.get(k) != reference.get(k)}
            for key in sorted(bad):
                tally.fail(f"cell {key[:12]}", "metrics differ from the first pass")
            cycle.ops.append([span])
            cycle.busy.append(span)
            cycle.work += len(rows)
        pace.calibrate(NEIGHBOURS)
        # untimed checks: a serial pass of the same grid gives the same
        # cell metrics, and pool workers run the pinned engine
        try:
            serial, _ = self._pass(spec, self.scratch / "serial", executor="serial")
            shutil.rmtree(self.scratch / "serial", ignore_errors=True)
            rows = _cell_rows(serial)
            for key in sorted(k for k in rows if reference and rows[k] != reference.get(k)):
                tally.fail(f"cell {key[:12]}", "process metrics differ from the serial pass")
            problem = _engine_problem(self._worker_engine())
        except Exception as exc:
            problem = f"raised {exc!r}"
        if problem:
            tally.fail("campaign checks", problem)
        return tally

    def trace_pass(self, seed: int):
        spec = self.spec(seed)
        cache_dir = self.scratch / "trace"
        tally = Tally()
        try:
            cold, _ = self._pass(spec, cache_dir)
            warm, _ = self._pass(spec, cache_dir)
            tally.attempted = len(cold.outcomes)
            tally.extra["cell_runtimes"] = [o.result.runtime_s for o in cold.outcomes]
            tally.extra["workers"] = self.WORKERS
            if warm.executed != 0:
                tally.fail("warm pass", f"executed {warm.executed} cells")
            outputs = [_cell_rows(cold), _cell_rows(warm)]
        except Exception as exc:
            tally.attempted = max(tally.attempted, 1)
            tally.fail("campaign", f"raised {exc!r}")
            outputs = [None]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return tally.attempted, outputs, tally
