"""Event-driven online simulator over the shared one-port platform.

The engine executes a :class:`~repro.online.workload.Workload` — jobs
arriving over time — against one platform whose resources are shared by
every in-flight job: one compute timeline per processor plus one send
and one receive port each (the paper's one-port rule, applied across
jobs).  A :class:`~repro.online.policies.Policy` decides *what* runs
where (placement, orders, reactions); the engine decides *when*, by
discrete-event simulation:

* every unit of work is an :class:`Activity` — a task execution holding
  one compute resource, or a transfer holding a send port and a receive
  port simultaneously;
* an activity is **released** when its last constraint predecessor
  finishes (precedence edges, plus whatever order edges its policy's
  plan imposes), and **starts** when all its resources are free —
  contention across jobs is arbitrated first-released-first-served with
  a deterministic tie-break;
* actual durations come from the noise model, drawn per activity from a
  seed-derived RNG, so a run is a pure function of (workload, policy,
  noise, seed) — event logs and metrics are bit-reproducible.

Exactness: with zero noise, a single job arriving at ``t = 0``, and an
open-loop plan, the event-driven start times equal the flat kernel's
least-solution propagation *bit for bit* — every start is the float
``max`` over the same predecessor finishes, every finish the same
single addition (the cross-check suite asserts this against
:func:`repro.simulate.replay` for every registered heuristic).
"""

from __future__ import annotations

import random
import time
from heapq import heappop, heappush

from ..core.exceptions import ConfigurationError, SchedulingError
from ..core.platform import Platform
from ..kernel import TimedKernel, compile_statics
from ..obs import current as _obs_current
from ..obs import span as _obs_span
from .metrics import JobMetrics, OnlineResult
from .noise import NoiseModel, make_noise
from .workload import Job, Workload

#: Activity states.
BLOCKED, RELEASED, RUNNING, DONE, CANCELLED = range(5)

#: Event kinds (heap order within a timestamp: insertion sequence).
_EV_ARRIVAL, _EV_FINISH, _EV_TICK = range(3)

TASK, COMM = "task", "comm"


class Activity:
    """One unit of simulated work (task execution or transfer)."""

    __slots__ = (
        "job",
        "kind",
        "node",
        "label",
        "seq",
        "est",
        "dur",
        "resources",
        "procs",
        "data",
        "npred",
        "succs",
        "state",
        "release",
        "start",
        "finish",
        "planned",
    )

    def __init__(self, job: int, kind: str, node: int, label, est: float,
                 resources: tuple[int, ...], seq: int) -> None:
        self.job = job
        self.kind = kind
        #: Graph-stable node id: task intern index ``i``, or ``n + e``
        #: for the transfer of edge ``e`` — the noise RNG key and the
        #: plan-kernel index, invariant across replans.
        self.node = node
        self.label = label
        self.seq = seq
        self.est = est
        self.dur = est
        self.resources = resources
        #: ``(proc,)`` for tasks, ``(from_proc, to_proc)`` for transfers.
        self.procs: tuple[int, ...] = ()
        self.data = 0.0
        self.npred = 0
        self.succs: list[Activity] = []
        self.state = BLOCKED
        self.release = 0.0
        self.start = 0.0
        self.finish = 0.0
        #: Planned absolute finish time under the job's current plan
        #: (``None`` for plan-less activities, e.g. ready-dispatch).
        self.planned: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Activity({self.kind}, {self.label!r}, job={self.job}, state={self.state})"


class _Resource:
    """One exclusive resource: a compute slot or a directional port."""

    __slots__ = ("rid", "busy", "queue")

    def __init__(self, rid: int) -> None:
        self.rid = rid
        self.busy: Activity | None = None
        self.queue: list[Activity] = []


class JobState:
    """Engine-side state of one submitted job.

    Per-task state is indexed like ``statics.tasks`` (the job graph's
    interning), so policies reach a task's activities by index and
    never re-hash task ids.
    """

    __slots__ = (
        "job",
        "statics",
        "arrived",
        "done_tasks",
        "first_start",
        "completion",
        "task_acts",
        "in_comms",
        "kernel",
        "plan_nodes",
        "topo_done",
        "plan_offset",
        "planned_ms",
        "reschedules",
        "comms_done",
        "comm_time",
        "data",
    )

    def __init__(self, job: Job, statics) -> None:
        self.job = job
        self.statics = statics
        self.arrived = False
        self.done_tasks = 0
        self.first_start: float | None = None
        self.completion: float | None = None
        n = statics.num_tasks
        #: Current activity per task index (replans swap entries;
        #: ``None`` until the task is first planned or dispatched).
        self.task_acts: list[Activity | None] = [None] * n
        #: Incoming transfer activities per destination task index
        #: (``None`` until the task is first planned or dispatched).
        self.in_comms: list[list[Activity] | None] = [None] * n
        #: The job's current plan kernel (``None`` for plan-less policies).
        self.kernel: TimedKernel | None = None
        #: Full-graph node of each node of :attr:`kernel` when it is a
        #: sub-plan (tasks, then transfer slots); ``None`` when the kernel
        #: covers the full graph, whose node ids are the job's own.
        self.plan_nodes: list[int] | None = None
        #: Length of the finished prefix of ``statics.topo_ix`` seen by
        #: the last movable-set walk (finished tasks stay finished).
        self.topo_done = 0
        #: Absolute time the current plan's clock starts at.
        self.plan_offset = 0.0
        self.planned_ms = 0.0
        self.reschedules = 0
        self.comms_done = 0
        self.comm_time = 0.0
        #: Policy-private scratch space.
        self.data: dict = {}

    @property
    def complete(self) -> bool:
        return self.completion is not None


class OnlineEngine:
    """One configured simulator: platform + policy + noise + seed."""

    def __init__(
        self,
        platform: Platform,
        policy,
        noise: str | dict | NoiseModel = "exact",
        seed: int = 0,
        log_events: bool = True,
    ) -> None:
        from .policies import Policy, make_policy

        self.platform = platform
        self.policy: Policy = (
            policy if isinstance(policy, Policy) else make_policy(policy)
        )
        self.noise = make_noise(noise)
        self.seed = seed
        self.log_events = log_events
        num = platform.num_processors
        #: Resource ids: compute ``p``, send port ``P + p``, receive
        #: port ``2P + p``.
        self._send0 = num
        self._recv0 = 2 * num
        # per-run state (reset by run())
        self.now = 0.0
        self.resources: list[_Resource] = []
        self.jobs: list[JobState] = []
        self.active_jobs = 0
        self.events = 0
        self.event_log: list[tuple] = []
        self._heap: list[tuple] = []
        self._eseq = 0
        self._aseq = 0
        self._touched: set[int] = set()
        self._all_acts: list[Activity] = []
        self._busy_compute = 0.0
        #: Active obs collector (refreshed per run; ``None`` = stats off).
        self._stats = _obs_current()

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------
    def compute_rid(self, proc: int) -> int:
        return proc

    def send_rid(self, proc: int) -> int:
        return self._send0 + proc

    def recv_rid(self, proc: int) -> int:
        return self._recv0 + proc

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> OnlineResult:
        """Simulate the whole workload; returns the aggregated result."""
        self.now = 0.0
        self.resources = [_Resource(r) for r in range(3 * self.platform.num_processors)]
        self.jobs = []
        self.active_jobs = 0
        self.events = 0
        self.event_log = []
        self._heap = []
        self._eseq = 0
        self._aseq = 0
        self._touched = set()
        self._all_acts = []
        self._busy_compute = 0.0
        stats = self._stats = _obs_current()
        self.policy.bind(self)

        for job in workload:
            jstate = JobState(job, compile_statics(job.graph, self.platform))
            self.jobs.append(jstate)
            self._push(job.arrival, _EV_ARRIVAL, jstate)

        wall0 = time.perf_counter()
        heap = self._heap
        while heap:
            t, _seq, kind, payload = heappop(heap)
            self.now = t
            self.events += 1
            if kind == _EV_FINISH:
                if stats is not None:
                    stats.inc("online.events.finish")
                if payload.state == RUNNING:
                    self._finish(payload)
            elif kind == _EV_ARRIVAL:
                if stats is not None:
                    stats.inc("online.events.arrival")
                self._arrive(payload)
            else:
                if stats is not None:
                    stats.inc("online.events.tick")
                self.policy.on_tick()
            if self._touched:
                self._dispatch()
        wall_s = time.perf_counter() - wall0
        if stats is not None:
            stats.add_time("phase.online.run", wall_s)

        incomplete = [j.job.index for j in self.jobs if not j.complete]
        if incomplete:
            raise SchedulingError(
                f"simulation drained with incomplete job(s) {incomplete[:5]}: "
                f"the policy lost activities"
            )
        return self._result(workload, wall_s)

    def _push(self, t: float, kind: int, payload) -> None:
        self._eseq += 1
        heappush(self._heap, (t, self._eseq, kind, payload))

    def push_tick(self, delay: float) -> None:
        """Policy hook: request an ``on_tick`` callback after ``delay``."""
        if delay <= 0:
            raise ConfigurationError(f"tick delay must be > 0, got {delay}")
        self._push(self.now + delay, _EV_TICK, None)

    def _arrive(self, jstate: JobState) -> None:
        jstate.arrived = True
        if self.log_events:
            self.event_log.append((self.now, "arrival", jstate.job.index, jstate.job.name))
        if jstate.job.graph.num_tasks == 0:
            jstate.completion = self.now
            return
        self.active_jobs += 1
        self.policy.on_arrival(jstate)

    def _finish(self, act: Activity) -> None:
        now = self.now
        act.state = DONE
        jstate = self.jobs[act.job]
        if self.log_events:
            self.event_log.append((now, "finish", act.job, act.kind, act.label))
        for rid in act.resources:
            self.resources[rid].busy = None
            self._touched.add(rid)
        for succ in act.succs:
            if succ.state == BLOCKED:
                succ.npred -= 1
                if not succ.npred:
                    self._release(succ)
        if act.kind == TASK:
            jstate.done_tasks += 1
            if jstate.done_tasks == jstate.job.graph.num_tasks:
                jstate.completion = now
                self.active_jobs -= 1
        else:
            jstate.comms_done += 1
            jstate.comm_time += act.dur
        self.policy.on_activity_finish(jstate, act)

    def _release(self, act: Activity) -> None:
        act.state = RELEASED
        act.release = self.now
        if self.log_events:
            self.event_log.append((self.now, "release", act.job, act.kind, act.label))
        for rid in act.resources:
            self.resources[rid].queue.append(act)
            self._touched.add(rid)

    def _dispatch(self) -> None:
        """Start every startable released activity, deterministically.

        Scans the touched resources in id order; per free resource the
        earliest-released (then lowest-sequence) waiting activity whose
        *other* resources are also free starts now.  Starting only
        consumes capacity, so one pass per touched resource suffices.
        """
        resources = self.resources
        for rid in sorted(self._touched):
            res = resources[rid]
            while res.busy is None and res.queue:
                best = None
                keep = []
                for act in res.queue:
                    if act.state != RELEASED:
                        continue  # started elsewhere or cancelled: drop
                    keep.append(act)
                    for r in act.resources:
                        if resources[r].busy is not None:
                            break
                    else:
                        if best is None or (act.release, act.seq) < (best.release, best.seq):
                            best = act
                if best is None:
                    res.queue = keep
                    break
                keep.remove(best)
                res.queue = keep
                self._start(best)
        self._touched.clear()

    def _start(self, act: Activity) -> None:
        now = self.now
        act.state = RUNNING
        act.start = now
        stats = self._stats
        if stats is not None:
            stats.inc("online.activities")
            if now > act.release:
                # the activity sat released while a resource was busy
                stats.inc("online.port_waits")
                stats.add("online.port_wait_time", now - act.release)
        est = act.est
        if self.noise.exact:
            dur = est
        else:
            rng = random.Random(f"noise:{self.seed}:{act.job}:{act.node}")
            dur = self.noise.draw(est, rng)
        act.dur = dur
        act.finish = now + dur
        for rid in act.resources:
            self.resources[rid].busy = act
        if act.kind == TASK:
            self._busy_compute += dur
            jstate = self.jobs[act.job]
            if jstate.first_start is None:
                jstate.first_start = now
        if self.log_events:
            self.event_log.append((now, "start", act.job, act.kind, act.label))
        self._push(act.finish, _EV_FINISH, act)

    # ------------------------------------------------------------------
    # activity construction (policy-facing)
    # ------------------------------------------------------------------
    def new_activity(
        self,
        jstate: JobState,
        kind: str,
        node: int,
        label,
        est: float,
        resources: tuple[int, ...],
    ) -> Activity:
        """Create a blocked activity; caller wires preds/succs, then
        calls :meth:`activate` once ``npred`` is final."""
        self._aseq += 1
        act = Activity(jstate.job.index, kind, node, label, est, resources, self._aseq)
        self._all_acts.append(act)
        return act

    def activate(self, act: Activity) -> None:
        """Release ``act`` now if it has no unfinished predecessors."""
        if act.state == BLOCKED and not act.npred:
            self._release(act)

    def build_plan_activities(
        self, jstate: JobState, kern: TimedKernel, nodes: list[int] | None = None
    ) -> dict[int, Activity]:
        """Activities for every task and booked transfer of a compiled
        kernel, keyed by kernel node index.

        Shared by :meth:`install_plan` (full-graph kernel) and the
        replanning policies (sub-plan kernels over the remaining
        subgraph): durations, in-degrees, and successor wiring come
        straight from the kernel.  For a sub-plan, ``nodes`` maps each
        kernel node to the job's *full-graph* node (tasks, then transfer
        slots; see :attr:`JobState.plan_nodes`), so activity ``node``
        ids, noise draws and drift bookkeeping stay stable across
        replans.  Registers the new activities in ``jstate.task_acts`` /
        ``jstate.in_comms`` (resetting the ``in_comms`` entry of every
        task the kernel covers); the caller adds boundary predecessors
        and then activates.
        """
        statics = kern.statics
        if nodes is None:
            if statics is not jstate.statics:
                raise ValueError("a sub-plan kernel needs its full-graph node map")
        else:
            # a sub-plan kernel means the policy replanned mid-flight
            if self._stats is not None:
                self._stats.inc("online.replans")
            if self.log_events:
                self.event_log.append((self.now, "replan", jstate.job.index))
        n = statics.num_tasks
        offset = self.now
        task_acts, in_comms = jstate.task_acts, jstate.in_comms
        tasks, edges, edst, edata = statics.tasks, statics.edges, statics.edst, statics.edata
        alloc, dur, indeg, finish = kern.alloc, kern.dur, kern.indeg, kern.finish
        acts: dict[int, Activity] = {}
        for i in range(n):
            ti = i if nodes is None else nodes[i]
            p = alloc[i]
            act = self.new_activity(jstate, TASK, ti, tasks[i], dur[i], (p,))
            act.procs = (p,)
            act.npred = indeg[i]
            act.planned = offset + finish[i]
            acts[i] = act
            task_acts[ti] = act
            in_comms[ti] = []
        for e, (a, b) in zip(kern.hop_list, kern.hop_procs):
            node = n + e
            u, v = edges[e]
            act = self.new_activity(
                jstate,
                COMM,
                node if nodes is None else nodes[node],
                f"{u}->{v}",
                dur[node],
                (self.send_rid(a), self.recv_rid(b)),
            )
            act.procs = (a, b)
            act.data = edata[e]
            act.npred = indeg[node]
            act.planned = offset + finish[node]
            acts[node] = act
            in_comms[edst[e] if nodes is None else nodes[edst[e]]].append(act)
        for node, act in acts.items():
            act.succs = [acts[s] for s in kern.one_shot_successors(node)]
        return acts

    def install_plan(self, jstate: JobState, kern: TimedKernel) -> None:
        """Install a propagated full-graph plan kernel as activities (open loop).

        The kernel's decisions (allocation + processor / port orders)
        are the constraint DAG; every task and every booked transfer
        becomes one activity whose predecessors are exactly the kernel's
        constraint predecessors.  Planned times (the kernel's least
        solution, offset to now) are stamped for drift detection.  The
        kernel is only read, so every job of one graph can share it.
        """
        with _obs_span("phase.online.install"):
            jstate.kernel = kern
            jstate.plan_nodes = None
            jstate.plan_offset = self.now
            jstate.planned_ms = kern.makespan
            acts = self.build_plan_activities(jstate, kern)
            for act in acts.values():
                self.activate(act)

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _result(self, workload: Workload, wall_s: float) -> OnlineResult:
        from ..core.bounds import makespan_lower_bound

        lb_memo: dict[int, float] = {}
        job_rows = []
        placements: dict[int, list] = {}
        for jstate in self.jobs:
            job = jstate.job
            lb = lb_memo.get(id(job.graph))
            if lb is None:
                lb = lb_memo[id(job.graph)] = makespan_lower_bound(
                    job.graph, self.platform
                )
            completion = jstate.completion if jstate.completion is not None else job.arrival
            first = jstate.first_start if jstate.first_start is not None else job.arrival
            flow = completion - job.arrival
            job_rows.append(
                JobMetrics(
                    index=job.index,
                    name=job.name,
                    tasks=job.graph.num_tasks,
                    weight=job.weight,
                    arrival=job.arrival,
                    first_start=first,
                    completion=completion,
                    flow=flow,
                    makespan=completion - first,
                    stretch=flow / lb if lb > 0 else float("inf"),
                    weighted_flow=job.weight * flow,
                    lower_bound=lb,
                    planned_makespan=jstate.planned_ms,
                    reschedules=jstate.reschedules,
                    comms=jstate.comms_done,
                    comm_time=jstate.comm_time,
                )
            )
            placements[job.index] = [
                (task, act.procs[0], act.start, act.finish)
                for task, act in sorted(
                    zip(jstate.statics.tasks, jstate.task_acts), key=lambda kv: kv[1].seq
                )
            ]
        transfers = []
        for act in self._all_acts:
            if act.kind != COMM or act.state != DONE:
                continue
            statics = self.jobs[act.job].statics
            u, v = statics.edges[act.node - statics.num_tasks]
            transfers.append(
                (act.job, u, v, act.procs[0], act.procs[1],
                 act.start, act.finish, act.data)
            )
        arrivals = [j.job.arrival for j in self.jobs]
        completions = [j.completion for j in self.jobs if j.completion is not None]
        horizon_start = min(arrivals) if arrivals else 0.0
        horizon_end = max(completions) if completions else horizon_start
        horizon = horizon_end - horizon_start
        num_procs = self.platform.num_processors
        utilization = (
            self._busy_compute / (num_procs * horizon) if horizon > 0 else 1.0
        )
        if self._stats is not None:
            self._stats.gauge("online.utilization", utilization)
        return OnlineResult(
            policy=self.policy.payload(),
            noise=self.noise.payload(),
            seed=self.seed,
            workload=workload,
            platform=self.platform,
            jobs=job_rows,
            placements=placements,
            transfers=transfers,
            horizon_start=horizon_start,
            horizon_end=horizon_end,
            utilization=utilization,
            events=self.events,
            wall_s=wall_s,
            event_log=self.event_log,
        )


def simulate_online(
    workload: Workload,
    platform: Platform,
    policy="static",
    noise: str | dict | NoiseModel = "exact",
    seed: int = 0,
    log_events: bool = True,
) -> OnlineResult:
    """One-call convenience: build the engine and run ``workload``."""
    return OnlineEngine(
        platform, policy, noise=noise, seed=seed, log_events=log_events
    ).run(workload)
