"""Iterated local search over schedule decisions.

This package adds an *optimization layer* on top of the one-port
heuristics: instead of building schedules, it improves the **decisions**
of an existing schedule — the allocation plus the processor/send/receive
orders — and re-times each variant with the replay recurrence of
:mod:`repro.simulate.replay`.

Representation
--------------
A decision set is represented by a :class:`~repro.search.point.SearchPoint`
``(alloc, sequence)``: an allocation plus one global topological order
of all tasks.  Every resource order is derived from the sequence
(processor orders by restriction, port orders by consumer-first
``(pos(dst), pos(src))`` keys), which makes every point feasible by
construction — no move can create a circular resource order, so the
search never wastes budget on infeasible neighbors.

Move taxonomy
-------------
``MoveTask(task, proc)``
    Reallocate one task to another processor.
``SwapTasks(a, b)``
    Exchange the processors of two tasks.
``AdjacentExchange(kind, proc, index)``
    Swap two adjacent entries of a processor (``kind="proc"``), send
    (``"send"``), or receive (``"recv"``) order — realized as the
    minimal feasible reposition of a task in the global sequence.
``Reposition(task, before)``
    The underlying sequence primitive (move a task earlier), exposed
    for custom neighborhoods.

Evaluation contract
-------------------
Each move reduces to one *edit* at a point
(:meth:`~repro.search.neighborhood.Move.edit`): the reallocations it
makes plus at most one sequence reposition.  The
:class:`~repro.search.evaluate.IncrementalEvaluator` keeps the current
point in the point form of the flat kernel (:mod:`repro.kernel`: the
allocation and the sequence as int lists) and previews a move by
re-timing the edited point in one forward sweep in canonical key order
— the processor and port orders are the sequence restricted to each
resource, so the sweep needs no adjacency beyond the graph's — compiled
under the ``cext`` backend.  The previewed makespan must equal the
makespan of a full :func:`~repro.simulate.replay.replay` of the new
decision set — same constraints, same least fixed point, same float
operations — and the test suite checks this equality exactly on every
move of seeded walks.

Entry points
------------
:class:`~repro.search.ils.IteratedLocalSearch` (registry name ``ils``)
wraps any registered heuristic (``ils(heft)``, ``ils(ilha)``) and is
driven from the CLI (``python -m repro search``) or from campaign grids
via ``CampaignSpec.improve``.
"""

from .evaluate import IncrementalEvaluator, MovePreview
from .ils import IteratedLocalSearch
from .neighborhood import (
    AdjacentExchange,
    Move,
    MoveTask,
    Reposition,
    SwapTasks,
    propose,
)
from .point import SearchPoint, comm_node, task_node

__all__ = [
    "AdjacentExchange",
    "IncrementalEvaluator",
    "IteratedLocalSearch",
    "Move",
    "MovePreview",
    "MoveTask",
    "Reposition",
    "SearchPoint",
    "SwapTasks",
    "comm_node",
    "propose",
    "task_node",
]
