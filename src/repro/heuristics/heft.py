"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu).

The paper's Section 4.1 recalls HEFT for the macro-dataflow model and
Section 4.3 adapts it to the one-port model:

1. compute the *bottom level* of every task with heterogeneous averaging
   (harmonic-mean cycle time for weights, average link for edges);
2. repeatedly select the ready task with the highest bottom level;
3. evaluate it on every processor: schedule the eventual incoming
   communications as early as possible (under one-port, on the first
   joint free interval of the sender's send port and the receiver's
   receive port), then find the earliest compute slot;
4. commit the processor with the earliest completion time.

The *same* class serves both models — the model object encapsulates how
step 3 consumes communication resources.  Under macro-dataflow this is
textbook HEFT (with the paper's conservative all-communications bottom
levels); under the one-port model it is the paper's adapted HEFT.
"""

from __future__ import annotations

from ..core.platform import Platform
from ..core.ranking import bottom_levels
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..models.base import CommunicationModel
from ..obs import span as _obs_span
from .base import (
    PriorityKey,
    ReadyQueue,
    Scheduler,
    SchedulerState,
    make_model,
    register_scheduler,
)


@register_scheduler
class HEFT(Scheduler):
    """List scheduling by descending bottom level, min-EFT mapping.

    Parameters
    ----------
    insertion:
        Use insertion-based compute slots (classic HEFT).  With ``False``
        tasks only go after the last reservation of a processor.
    priority_key:
        Optional override of the ready-queue ordering; maps a task to a
        sortable tuple (smaller = scheduled sooner).  Defaults to
        ``-bottom_level`` with ties broken by task insertion index.
        The paper's toy example (Figure 4) fixes a specific tie order,
        which tests reproduce through this hook.
    """

    name = "heft"

    def __init__(self, insertion: bool = True, priority_key: PriorityKey | None = None):
        self.insertion = insertion
        self.priority_key = priority_key

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
        if self.priority_key is not None:
            key = self.priority_key
        else:
            with _obs_span("phase.rank"):
                bl = bottom_levels(graph, platform)
            key = lambda v: -bl[v]  # noqa: E731

        with _obs_span("phase.construct"):
            state.run_list(ReadyQueue(graph, key, state.kernel).order())
        return state.schedule
