"""Typed moves over decision points, each reduced to one edit.

Move taxonomy
-------------
``MoveTask(task, proc)``
    Reallocate one task; its slot in every derived order follows its
    unchanged sequence position.
``SwapTasks(a, b)``
    Exchange the processors of two tasks allocated to different
    processors.
``Reposition(task, before)``
    Move ``task`` earlier in the global sequence, to just before
    ``before``.  Only generated when no predecessor of ``task`` lies in
    the crossed window, so the sequence stays topological.
``AdjacentExchange(kind, proc, index)``
    Swap the adjacent entries at ``index``/``index + 1`` of a resource
    order (``kind`` in ``{"proc", "send", "recv"}``) — realized as the
    minimal :class:`Reposition` that inverts the two entries' canonical
    keys.

Every move maps a feasible :class:`~repro.search.point.SearchPoint` to a
feasible one (see the :mod:`point <repro.search.point>` docstring).
:meth:`Move.edit` validates the move at a point and reduces it to an
:data:`Edit` — the reallocations it makes plus at most one sequence
reposition — and :meth:`Move.apply` builds the new point from that edit,
so move semantics live in one place.  The incremental evaluator interns
the same edit and re-times the edited point in one kernel sweep.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from ..core.exceptions import SchedulingError
from ..core.platform import Platform
from .point import SearchPoint

TaskId = Hashable

#: What a move changes at a point: ``(realloc, reposition)``, where
#: ``realloc`` is a tuple of ``(task, proc)`` reallocations and
#: ``reposition`` is ``None`` or ``(task, before)`` — move ``task`` to
#: just before ``before`` in the sequence.
Edit = tuple[tuple[tuple[TaskId, int], ...], tuple[TaskId, TaskId] | None]


def apply_edit(point: SearchPoint, edit: Edit) -> SearchPoint:
    """The point ``edit`` (from :meth:`Move.edit` at ``point``) leads to."""
    realloc, reposition = edit
    alloc = None
    if realloc:
        alloc = dict(point.alloc)
        alloc.update(realloc)
    sequence = None
    if reposition is not None:
        task, before = reposition
        sequence = list(point.sequence)
        sequence.remove(task)
        sequence.insert(point.pos[before], task)
    return point.replace(alloc=alloc, sequence=sequence)


class Move:
    """A transformation of one decision point into a neighboring one."""

    def edit(self, point: SearchPoint) -> Edit:
        """Validate this move at ``point`` and return its :data:`Edit`;
        raises :class:`SchedulingError` when it does not apply."""
        raise NotImplementedError

    def apply(self, point: SearchPoint) -> SearchPoint:
        return apply_edit(point, self.edit(point))


@dataclass(frozen=True)
class MoveTask(Move):
    """Reallocate ``task`` to ``proc`` (sequence unchanged)."""

    task: TaskId
    proc: int

    def edit(self, point: SearchPoint) -> Edit:
        if point.alloc[self.task] == self.proc:
            raise SchedulingError(f"task {self.task!r} is already on P{self.proc}")
        return ((self.task, self.proc),), None


@dataclass(frozen=True)
class SwapTasks(Move):
    """Exchange the processors of tasks ``a`` and ``b``."""

    a: TaskId
    b: TaskId

    def edit(self, point: SearchPoint) -> Edit:
        pa, pb = point.alloc[self.a], point.alloc[self.b]
        if pa == pb:
            raise SchedulingError(f"tasks {self.a!r}/{self.b!r} share P{pa}")
        return ((self.a, pb), (self.b, pa)), None


@dataclass(frozen=True)
class Reposition(Move):
    """Move ``task`` earlier in the sequence, to just before ``before``."""

    task: TaskId
    before: TaskId

    def feasible(self, point: SearchPoint) -> bool:
        """The sequence stays topological iff no predecessor of ``task``
        sits in the crossed window ``[pos(before), pos(task))``."""
        pos = point.pos
        lo, hi = pos[self.before], pos[self.task]
        if lo >= hi:
            return False
        return all(
            not (lo <= pos[u] < hi) for u in point.graph.as_maps().preds[self.task]
        )

    def edit(self, point: SearchPoint) -> Edit:
        if not self.feasible(point):
            raise SchedulingError(
                f"repositioning {self.task!r} before {self.before!r} "
                f"would break the topological sequence"
            )
        return (), (self.task, self.before)


@dataclass(frozen=True)
class AdjacentExchange(Move):
    """Swap the adjacent entries ``index``/``index + 1`` of one resource
    order, via the minimal sequence reposition that inverts their keys."""

    kind: str  # "proc" | "send" | "recv"
    proc: int
    index: int

    def resolve(self, point: SearchPoint) -> Reposition | None:
        """The underlying reposition, or ``None`` when out of range /
        infeasible (the entries are dependence-ordered)."""
        order = point.resource_list(self.kind, self.proc)
        if not (0 <= self.index < len(order) - 1):
            return None
        first, second = order[self.index], order[self.index + 1]
        if self.kind == "proc":
            move = Reposition(second, first)
        else:
            (u1, v1, _), (u2, v2, _) = first, second
            # Keys are (pos(dst), pos(src)): inverting them means pulling
            # the later consumer before the earlier one, or — same
            # consumer — the later source before the earlier source.
            move = Reposition(v2, v1) if v1 != v2 else Reposition(u2, u1)
        return move if move.feasible(point) else None

    def edit(self, point: SearchPoint) -> Edit:
        move = self.resolve(point)
        if move is None:
            raise SchedulingError(f"{self} is not applicable at this point")
        return move.edit(point)


# ----------------------------------------------------------------------
# move proposal
# ----------------------------------------------------------------------
#: Resource kinds an :class:`AdjacentExchange` can target.
EXCHANGE_KINDS = ("proc", "send", "recv")


def propose(point: SearchPoint, platform: Platform, rng, tries: int = 8) -> Move | None:
    """Draw one feasible move, or ``None`` after ``tries`` failed draws.

    The draw mixes the three neighborhoods (reallocation-heavy, as
    allocation dominates one-port makespans) and is a pure function of
    the ``rng`` state, so seeded searches are fully deterministic.
    """
    sequence = point.sequence
    num_tasks = len(sequence)
    num_procs = platform.num_processors
    for _ in range(tries):
        draw = rng.random()
        if draw < 0.45 and num_procs > 1:
            task = sequence[rng.randrange(num_tasks)]
            proc = rng.randrange(num_procs - 1)
            if proc >= point.alloc[task]:
                proc += 1
            return MoveTask(task, proc)
        if draw < 0.65 and num_procs > 1:
            a = sequence[rng.randrange(num_tasks)]
            b = sequence[rng.randrange(num_tasks)]
            if a != b and point.alloc[a] != point.alloc[b]:
                return SwapTasks(a, b)
            continue
        kind = EXCHANGE_KINDS[rng.randrange(len(EXCHANGE_KINDS))]
        proc = rng.randrange(num_procs)
        order = point.resource_list(kind, proc)
        if len(order) < 2:
            continue
        move = AdjacentExchange(kind, proc, rng.randrange(len(order) - 1))
        if move.resolve(point) is not None:
            return move
    return None
