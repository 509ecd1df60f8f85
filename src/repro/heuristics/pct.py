"""PCT — minimum Partial Completion Time static priority (Maheswaran & Siegel).

Baseline from the paper's earlier comparison [3].  The *partial
completion time* of a task is the (averaged) time still needed after it
starts to finish the whole downstream chain — the bottom level with
communication costs included.  Tasks are prioritized statically by
decreasing PCT; the selected ready task is mapped to the processor with
the minimum completion time.

Following the original dynamic matching-and-scheduling formulation
(which appends tasks to machine queues rather than filling gaps), this
scheduler uses *non-insertion* compute slots by default, which is the
main behavioural difference from HEFT here.
"""

from __future__ import annotations

from ..core.platform import Platform
from ..core.ranking import bottom_levels
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..models.base import CommunicationModel
from ..obs import span as _obs_span
from .base import (
    ReadyQueue,
    Scheduler,
    SchedulerState,
    make_model,
    register_scheduler,
)


@register_scheduler
class PCT(Scheduler):
    """Static bottom-level priorities, min-EFT mapping, FIFO machines."""

    name = "pct"

    def __init__(self, insertion: bool = False):
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
        with _obs_span("phase.rank"):
            pct = bottom_levels(graph, platform)
        with _obs_span("phase.construct"):
            state.run_list(ReadyQueue(graph, lambda v: -pct[v], state.kernel).order())
        return state.schedule
