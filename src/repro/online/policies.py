"""Rescheduling policies: how a job stream is placed and reacted to.

A :class:`Policy` is the decision-making half of the online simulator
(the engine owns time and resources).  Policies are registered by name,
mirroring the heuristics registry, and are constructed from compact
specs (``"periodic:period=500"``) by :func:`make_policy`.

Built-in policies
-----------------
``static``
    Schedule each job at arrival with a registered heuristic, then
    execute the plan open loop — drift is absorbed, never corrected.
``periodic``
    Static planning plus a clairvoyance-free repair loop: every
    ``period`` time units, every in-flight job's not-yet-started tasks
    are re-planned with the same heuristic from the current state.
``reactive``
    Static planning plus drift-triggered repair: after each activity
    whose observed finish deviates from the plan, the job's completion
    is re-predicted through the flat kernel with observed durations
    (``propagate_kahn(dur=...)``), and the job is re-planned when the
    prediction drifts more than ``threshold`` (relative to the planned
    makespan).
``ready-dispatch``
    No plan at all: each task is dispatched when its last parent
    finishes, to the processor minimizing its estimated finish time
    under one-port-aware port/compute availability estimates — the
    non-clairvoyant online baseline.

Replanning never moves work the platform is already committed to: a
task is *pinned* once it has started or any of its input transfers has
started (shipped data is never re-shipped); everything else may move.
A replan costs what it moves: it walks the job's per-task state by task
index and touches the graph only around the movable tasks.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.exceptions import ConfigurationError
from ..core.taskgraph import TaskGraph
from ..heuristics import get_scheduler
from ..kernel import TimedKernel, compile_statics
from ..models import available_models
from ..obs import span as _obs_span
from .engine import (
    BLOCKED,
    CANCELLED,
    COMM,
    DONE,
    RELEASED,
    RUNNING,
    TASK,
    JobState,
    OnlineEngine,
)
from .workload import resolve_spec


class Policy:
    """Base policy: engine callbacks plus content identity."""

    name: str = ""

    def __init__(self) -> None:
        self.engine: OnlineEngine | None = None

    def bind(self, engine: OnlineEngine) -> None:
        """Attach to one engine run and reset per-run state."""
        self.engine = engine

    def on_arrival(self, jstate: JobState) -> None:
        raise NotImplementedError

    def on_activity_finish(self, jstate: JobState, act) -> None:
        pass

    def on_tick(self) -> None:
        pass

    def payload(self) -> dict:
        """JSON-able content identity (hashed into campaign cell keys)."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class PlanningPolicy(Policy):
    """Shared base of the plan-carrying policies: heuristic + model.

    Planning and re-planning run the heuristic (any registered one)
    through ``scheduler.run`` and compile its schedule straight into a
    plan kernel with :meth:`TimedKernel.from_schedule`.
    """

    def __init__(
        self,
        heuristic: str = "heft",
        heuristic_kwargs: dict | None = None,
        model="one-port",
    ) -> None:
        super().__init__()
        self.heuristic = heuristic
        self.heuristic_kwargs = dict(heuristic_kwargs or {})
        self.model = model
        # fail on a bad heuristic or model name here, not mid-simulation
        self.scheduler = get_scheduler(heuristic, **self.heuristic_kwargs)
        if isinstance(model, str) and model not in available_models():
            raise ConfigurationError(
                f"unknown communication model {model!r}; "
                f"available: {available_models()}"
            )
        self._plan_cache: dict[int, tuple] = {}

    def bind(self, engine: OnlineEngine) -> None:
        super().bind(engine)
        self._plan_cache = {}

    def plan(self, graph) -> TimedKernel:
        """The heuristic's plan for ``graph`` as a propagated kernel,
        memoized per graph.

        Workloads typically release many instances of one graph object;
        the plan is a pure function of (graph, platform, model), so one
        heuristic run, one kernel build and one propagation serve the
        whole stream.  Every job of the graph shares the kernel (and the
        graph's statics): the engine and the policies only read it, and
        re-predictions through ``propagate_kahn(dur=...)`` leave it
        untouched.  The cache entry pins the graph so an ``id()`` can
        never be recycled mid-run.
        """
        hit = self._plan_cache.get(id(graph))
        if hit is None:
            platform = self.engine.platform
            schedule = self.scheduler.run(graph, platform, self.model)
            kern = TimedKernel.from_schedule(compile_statics(graph, platform), schedule)
            kern.propagate_kahn()
            self._plan_cache[id(graph)] = (graph, kern)
            return kern
        return hit[1]

    def on_arrival(self, jstate: JobState) -> None:
        self.engine.install_plan(jstate, self.plan(jstate.job.graph))

    def payload(self) -> dict:
        model = self.model if isinstance(self.model, str) else type(self.model).__name__
        return {
            "name": self.name,
            "heuristic": {"name": self.heuristic, "kwargs": self.heuristic_kwargs},
            "model": model,
        }


class StaticPolicy(PlanningPolicy):
    """Plan at arrival, execute open loop."""

    name = "static"


# ----------------------------------------------------------------------
# replanning machinery (shared by periodic and reactive)
# ----------------------------------------------------------------------
def movable_tasks(jstate: JobState) -> list:
    """Tasks whose placement may still change, in topological order.

    A task is movable when (a) it has not started, (b) none of its
    input transfers has started or finished (shipped or in-flight data
    pins a task to its destination), and (c) every graph parent is
    either *finished* or itself movable.  Condition (c) closes
    movability transitively: a precedence path between two movable
    tasks then lies wholly inside the movable set, so the remaining
    subgraph the heuristic re-plans contains every precedence
    constraint among them — without it, the sub-plan's processor/port
    orders could contradict a dependency routed through a pinned
    in-flight task and deadlock the execution.
    """
    tasks = jstate.statics.tasks
    return [tasks[ti] for ti in _movable(jstate)]


def _movable(jstate: JobState) -> list[int]:
    """:func:`movable_tasks` as task indices."""
    statics = jstate.statics
    task_acts, in_comms = jstate.task_acts, jstate.in_comms
    esrc, pred_rows = statics.esrc, statics.pred_rows
    # finished tasks stay finished: skip the topological order's
    # finished prefix, remembered across calls
    topo = statics.topo_ix
    start = jstate.topo_done
    while start < len(topo) and task_acts[topo[start]].state == DONE:
        start += 1
    jstate.topo_done = start
    movable = bytearray(statics.num_tasks)
    out = []
    for ti in topo[start:]:
        state = task_acts[ti].state
        if state != BLOCKED and state != RELEASED:
            continue
        pinned = False
        for c in in_comms[ti]:
            state = c.state
            if state == RUNNING or state == DONE:
                pinned = True
                break
        if pinned:
            continue
        for e in pred_rows[ti]:
            u = esrc[e]
            if not movable[u] and task_acts[u].state != DONE:
                break
        else:
            movable[ti] = 1
            out.append(ti)
    return out


def replan_job(engine: OnlineEngine, jstate: JobState, scheduler, model) -> bool:
    """Re-plan a job's movable tasks with ``scheduler`` from current state.

    Cancels every not-yet-started activity of the movable set (task
    executions, their input transfers, and transfers they source), runs
    the heuristic on the *remaining subgraph*, and installs the new
    sub-plan: new activities wired with the sub-plan's order edges plus
    boundary dependencies from pinned parents (a transfer activity when
    the data must cross processors, a plain precedence edge otherwise).
    Returns False when nothing can move.

    The work is proportional to the movable set, apart from one walk
    over the job's per-task states: cancellation, the subgraph and the
    boundary wiring are all reached through the movable tasks' CSR rows.
    """
    movable_order = _movable(jstate)
    if not movable_order:
        return False
    with _obs_span("phase.online.replan"):
        _replan(engine, jstate, scheduler, model, movable_order)
    return True


def _replan(engine: OnlineEngine, jstate: JobState, scheduler, model, movable_order) -> None:
    """:func:`replan_job` once the movable set (topological order) is known."""
    graph = jstate.job.graph
    statics = jstate.statics
    n = statics.num_tasks
    tasks, esrc, edst, edata = statics.tasks, statics.esrc, statics.edst, statics.edata
    succ_rows, pred_rows = statics.succ_rows, statics.pred_rows
    task_acts, in_comms = jstate.task_acts, jstate.in_comms
    now = engine.now
    movable = bytearray(n)
    for ti in movable_order:
        movable[ti] = 1
    order = sorted(movable_order)

    # -- cancel the movable closure ------------------------------------
    # in topological order: the cancellations order the releases they
    # trigger, so a set's hash order would leak into the event log
    cancelled = []
    for ti in movable_order:
        act = task_acts[ti]
        act.state = CANCELLED
        cancelled.append(act)
        for c in in_comms[ti]:
            if c.state == BLOCKED or c.state == RELEASED:
                c.state = CANCELLED
                cancelled.append(c)
    # transfers sourced by a movable task feed pinned consumers; they
    # cannot have started (their source has not finished) and their
    # endpoints are stale once the source moves.  Consumers go in task
    # index order, the order the engine registered them in.
    consumers = sorted({edst[e] for ti in order for e in succ_rows[ti] if not movable[edst[e]]})
    for vi in consumers:
        for c in in_comms[vi]:
            if (c.state == BLOCKED or c.state == RELEASED) and movable[esrc[c.node - n]]:
                c.state = CANCELLED
                cancelled.append(c)
    # surviving blocked activities that waited on a cancelled one lose
    # that predecessor (the new plan re-adds boundary edges explicitly)
    released_now = []
    for act in cancelled:
        for succ in act.succs:
            if succ.state == BLOCKED:
                succ.npred -= 1
                if not succ.npred:
                    released_now.append(succ)

    # -- re-plan the remaining subgraph --------------------------------
    # tasks in index order, then each task's out-edges among them in
    # edge order: the order of graph.edges(), so sub-plan edge j is
    # full-graph edge sub_edges[j]
    sub = TaskGraph(name=f"{graph.name}@t{now:g}")
    weights = statics.weights
    for ti in order:
        sub.add_task(tasks[ti], weights[ti])
    sub_edges = []
    for ti in order:
        for e in succ_rows[ti]:
            if movable[edst[e]]:
                sub.add_dependency(tasks[ti], tasks[edst[e]], edata[e])
                sub_edges.append(e)
    platform = engine.platform
    schedule = scheduler.run(sub, platform, model)
    kern = TimedKernel.from_schedule(compile_statics(sub, platform), schedule)
    kern.propagate_kahn()
    nodes = order + [n + e for e in sub_edges]
    jstate.kernel = kern
    jstate.plan_nodes = nodes
    jstate.plan_offset = now
    jstate.planned_ms = kern.makespan
    jstate.reschedules += 1
    acts = engine.build_plan_activities(jstate, kern, nodes)

    # -- boundary dependencies from pinned parents ---------------------
    for i, vi in enumerate(order):
        boundary = [e for e in pred_rows[vi] if not movable[esrc[e]]]
        if not boundary:
            continue
        v = tasks[vi]
        if len(boundary) > 1:
            # graph.predecessors order (edge insertion; pred_rows go by
            # edge index): it fixes the new activities' sequence numbers
            rank = {u: k for k, u in enumerate(graph.predecessors(v))}
            boundary.sort(key=lambda e: rank[tasks[esrc[e]]])
        v_act = task_acts[vi]
        p_v = kern.alloc[i]
        for e in boundary:
            ui = esrc[e]
            u_act = task_acts[ui]
            p_u = u_act.procs[0]
            if p_u == p_v:
                if u_act.state != DONE:
                    u_act.succs.append(v_act)
                    v_act.npred += 1
                continue
            c = _boundary_comm(engine, jstate, e, p_u, p_v)
            c.succs = [v_act]
            v_act.npred += 1
            in_comms[vi].append(c)
            if u_act.state == DONE:
                engine.activate(c)
            else:
                u_act.succs.append(c)
                c.npred = 1

    # -- boundary dependencies toward pinned consumers -----------------
    # a movable task may feed a task that is pinned (e.g. its other
    # input transfer already started); the cancelled transfer between
    # them must be re-established from the source's new placement
    for ui in order:
        u_act = task_acts[ui]
        p_u = u_act.procs[0]
        for e in succ_rows[ui]:  # graph.successors order
            vi = edst[e]
            if movable[vi]:
                continue
            v_act = task_acts[vi]
            p_v = v_act.procs[0]
            if p_u == p_v:
                u_act.succs.append(v_act)
                v_act.npred += 1
                continue
            c = _boundary_comm(engine, jstate, e, p_u, p_v)
            c.npred = 1
            c.succs = [v_act]
            v_act.npred += 1
            u_act.succs.append(c)
            in_comms[vi].append(c)

    for act in acts.values():
        engine.activate(act)
    for act in released_now:
        if act.state == BLOCKED and not act.npred:
            engine.activate(act)


def _boundary_comm(engine: OnlineEngine, jstate: JobState, e: int, p_u: int, p_v: int):
    """A blocked transfer activity for full-graph edge ``e``, ``p_u -> p_v``."""
    statics = jstate.statics
    u, v = statics.edges[e]
    c = engine.new_activity(
        jstate,
        COMM,
        statics.num_tasks + e,
        f"{u}->{v}",
        statics.comm_dur(e, p_u, p_v),
        (engine.send_rid(p_u), engine.recv_rid(p_v)),
    )
    c.procs = (p_u, p_v)
    c.data = statics.edata[e]
    return c


class PeriodicPolicy(PlanningPolicy):
    """Re-plan every in-flight job every ``period`` time units."""

    name = "periodic"

    def __init__(self, period: float = 500.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if period <= 0:
            raise ConfigurationError(f"periodic policy needs period > 0, got {period}")
        self.period = period
        self._armed = False

    def bind(self, engine: OnlineEngine) -> None:
        super().bind(engine)
        self._armed = False

    def on_arrival(self, jstate: JobState) -> None:
        super().on_arrival(jstate)
        if not self._armed:
            self._armed = True
            self.engine.push_tick(self.period)

    def on_tick(self) -> None:
        if not self.engine.active_jobs:
            self._armed = False
            return
        for jstate in self.engine.jobs:
            if jstate.arrived and not jstate.complete:
                replan_job(self.engine, jstate, self.scheduler, self.model)
        self.engine.push_tick(self.period)

    def payload(self) -> dict:
        return {**super().payload(), "period": self.period}


class ReactivePolicy(PlanningPolicy):
    """Re-plan a job when its re-predicted completion drifts too far.

    After each finished activity whose observed duration deviates from
    the estimate, the job's completion is re-predicted by one flat
    kernel pass with observed durations substituted for the finished
    nodes (the ``propagate_kahn(dur=...)`` hook); a relative drift
    beyond ``threshold`` triggers a re-plan of the movable tasks.

    The substituted durations live in one kernel-indexed list per plan
    kernel, rebuilt from the observed durations at arrival and at each
    re-plan and updated by one entry per finished activity, so an event
    costs O(1) Python work plus the pass itself.
    """

    name = "reactive"

    def __init__(self, threshold: float = 0.1, **kwargs) -> None:
        super().__init__(**kwargs)
        if threshold <= 0:
            raise ConfigurationError(
                f"reactive policy needs threshold > 0, got {threshold}"
            )
        self.threshold = threshold

    def on_arrival(self, jstate: JobState) -> None:
        super().on_arrival(jstate)
        jstate.data["observed"] = {}
        self._index_plan(jstate)

    @staticmethod
    def _index_plan(jstate: JobState) -> None:
        """Durations of the current plan kernel with every observed one
        substituted, and the full-graph node -> kernel node map (``None``
        when the kernel covers the full graph: ids coincide)."""
        kern, nodes = jstate.kernel, jstate.plan_nodes
        # sub-plan kernel: activity node ids are full-graph ids
        index = None if nodes is None else {node: i for i, node in enumerate(nodes)}
        dur = list(kern.dur)
        for node, d in jstate.data["observed"].items():
            i = node if index is None else index.get(node)
            if i is not None:
                dur[i] = d
        jstate.data["plan_dur"] = dur
        jstate.data["plan_index"] = index

    def on_activity_finish(self, jstate: JobState, act) -> None:
        if jstate.complete or act.planned is None:
            return
        data = jstate.data
        data["observed"][act.node] = act.dur
        index = data["plan_index"]
        i = act.node if index is None else index.get(act.node)
        dur = data["plan_dur"]
        if i is not None:
            dur[i] = act.dur
        if act.dur == act.est:
            return
        predicted = jstate.kernel.propagate_kahn(dur=dur)
        drift = abs(predicted - jstate.planned_ms)
        if drift > self.threshold * max(jstate.planned_ms, 1.0):
            if replan_job(self.engine, jstate, self.scheduler, self.model):
                self._index_plan(jstate)

    def payload(self) -> dict:
        return {**super().payload(), "threshold": self.threshold}


class ReadyDispatchPolicy(Policy):
    """Online min-EFT over ready tasks: no plan, no clairvoyance.

    Each task is dispatched the moment its last parent finishes, to the
    processor minimizing its estimated finish time given the policy's
    running availability estimates of every compute resource and port
    (one transfer at a time per port — one-port aware).  Transfers for
    remote parents are booked first-finished-first, mirroring the
    offline EFT engine's greedy message order.
    """

    name = "ready-dispatch"

    def __init__(self) -> None:
        super().__init__()
        self._proc_est: list[float] = []
        self._send_est: list[float] = []
        self._recv_est: list[float] = []

    def bind(self, engine: OnlineEngine) -> None:
        super().bind(engine)
        num = engine.platform.num_processors
        self._proc_est = [0.0] * num
        self._send_est = [0.0] * num
        self._recv_est = [0.0] * num

    def on_arrival(self, jstate: JobState) -> None:
        graph = jstate.job.graph
        jstate.data["indeg"] = {v: graph.in_degree(v) for v in graph.tasks()}
        for v in graph.tasks():
            if not jstate.data["indeg"][v]:
                self._dispatch(jstate, v)

    def on_activity_finish(self, jstate: JobState, act) -> None:
        if act.kind != TASK:
            return
        indeg = jstate.data["indeg"]
        for child in jstate.job.graph.successors(act.label):
            indeg[child] -= 1
            if not indeg[child]:
                self._dispatch(jstate, child)

    def _dispatch(self, jstate: JobState, task) -> None:
        engine = self.engine
        statics = jstate.statics
        now = engine.now
        ti = statics.tindex[task]
        exec_row = statics.exec_[ti]
        link_rows = statics.link_rows
        # parents are all DONE (that is what made the task ready)
        parents = []
        for e in statics.pred_rows[ti]:
            p_act = jstate.task_acts[statics.esrc[e]]
            parents.append((p_act.finish, e, p_act))
        parents.sort(key=lambda it: (it[0], it[1]))

        best = None
        for p in range(engine.platform.num_processors):
            send = self._send_est
            recv_p = max(self._recv_est[p], now)
            arrival = now
            booked = []
            send_over: dict[int, float] = {}
            for pfinish, e, p_act in parents:
                pp = p_act.procs[0]
                if pp == p:
                    arr = pfinish
                else:
                    s = max(send_over.get(pp, send[pp]), recv_p, pfinish, now)
                    f = s + statics.edata[e] * link_rows[pp][p]
                    send_over[pp] = f
                    recv_p = f
                    booked.append((e, p_act, s, f))
                    arr = f
                if arr > arrival:
                    arrival = arr
            start = max(self._proc_est[p], arrival)
            finish = start + exec_row[p]
            key = (finish, start, p)
            if best is None or key < best[0]:
                best = (key, p, booked, send_over, recv_p)

        key, p, booked, send_over, recv_est = best
        act = engine.new_activity(jstate, TASK, ti, task, exec_row[p], (p,))
        act.procs = (p,)
        jstate.task_acts[ti] = act
        comms = jstate.in_comms[ti] = []
        for e, p_act, _s, _f in booked:
            pp = p_act.procs[0]
            c = engine.new_activity(
                jstate,
                COMM,
                statics.num_tasks + e,
                f"{p_act.label}->{task}",
                statics.edata[e] * link_rows[pp][p],
                (engine.send_rid(pp), engine.recv_rid(p)),
            )
            c.procs = (pp, p)
            c.data = statics.edata[e]
            c.succs = [act]
            act.npred += 1
            comms.append(c)
            engine.activate(c)
        # commit the availability estimates of the winning candidate
        for pp, f in send_over.items():
            self._send_est[pp] = f
        self._recv_est[p] = max(self._recv_est[p], recv_est)
        self._proc_est[p] = key[1] + exec_row[p]
        act.planned = None
        engine.activate(act)


_POLICIES: dict[str, Callable[..., Policy]] = {
    "static": StaticPolicy,
    "periodic": PeriodicPolicy,
    "reactive": ReactivePolicy,
    "ready-dispatch": ReadyDispatchPolicy,
}

#: Primary parameter bound by the ``name:value`` positional shorthand.
_POLICY_PRIMARY = {"periodic": "period", "reactive": "threshold"}


def available_policies() -> list[str]:
    return sorted(_POLICIES)


def make_policy(spec: str | dict | Policy, **overrides) -> Policy:
    """Build a policy from ``"periodic:period=500"`` / dict / instance.

    ``overrides`` (e.g. the campaign's heuristic axis) take precedence
    over same-named parameters in the spec.
    """
    if isinstance(spec, Policy):
        if overrides:
            raise ConfigurationError(
                "cannot apply overrides to an already-built policy instance"
            )
        return spec
    name, params = resolve_spec(
        spec,
        key="name",
        primaries=_POLICY_PRIMARY,
        available=available_policies(),
        what="policy",
    )
    params.update(overrides)
    try:
        return _POLICIES[name](**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad policy spec {spec!r}: {exc}") from None
