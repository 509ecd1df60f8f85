"""CPOP — Critical Path On a Processor (Topcuoglu, Hariri & Wu).

One of the baselines the paper's earlier comparison [3] used.  CPOP
prioritizes tasks by ``top_level + bottom_level`` (the length of the
longest path *through* the task), identifies one critical path, and
dedicates to it the processor that executes the whole path fastest;
critical tasks go to that processor, all others to the processor with
the earliest completion time.

Like every heuristic here it runs under either communication model: the
EFT machinery books messages through the model's trial mechanism.
"""

from __future__ import annotations

from ..core.platform import Platform
from ..core.ranking import bottom_levels, critical_path, top_levels
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..models.base import CommunicationModel
from .base import (
    ReadyQueue,
    Scheduler,
    SchedulerState,
    make_model,
    register_scheduler,
)


@register_scheduler
class CPOP(Scheduler):
    """Critical-path-on-a-processor list scheduling."""

    name = "cpop"

    def __init__(self, insertion: bool = True):
        self.insertion = insertion

    def run(
        self,
        graph: TaskGraph,
        platform: Platform,
        model: str | CommunicationModel = "one-port",
    ) -> Schedule:
        model = make_model(platform, model)
        state = SchedulerState(
            graph, platform, model, heuristic=self.name, insertion=self.insertion
        )
        bl = bottom_levels(graph, platform)
        tl = top_levels(graph, platform)
        priority = {v: bl[v] + tl[v] for v in graph.tasks()}

        cp = critical_path(graph, platform)
        cp_tasks = set(cp)
        cp_weight = 0.0
        for v in cp:  # path order: a set's order would follow the hash seed
            cp_weight += graph.weight(v)
        cp_proc = min(
            platform.processors,
            key=lambda p: (cp_weight * platform.cycle_time(p), p),
        )

        queue = ReadyQueue(graph, lambda v: (-priority[v],))
        while queue:
            task = queue.pop()
            if task in cp_tasks:
                state.schedule_on(task, cp_proc)
            else:
                state.commit(state.best_candidate(task))
            queue.complete(task)
        return state.schedule
