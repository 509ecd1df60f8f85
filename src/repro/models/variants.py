"""The Section 2.3 model variants the paper names but does not evaluate.

"Several variants could be considered: no communication/computation
overlap, uni-directional communications, or even a combination of both
restrictions.  But the bi-directional one-port model seems closer to the
actual capabilities of modern processors."

Implemented here so the claim can be *measured* (see
``benchmarks/bench_ablation_models.py``):

* :class:`UniPortModel` — uni-directional one-port: each processor has a
  single port used for both sending and receiving, so it cannot send and
  receive simultaneously.  A transfer books the same window on the
  sender's port and the receiver's port.
* :class:`NoOverlapOnePortModel` — bi-directional ports, but no
  communication/computation overlap: a transfer also occupies both
  endpoint processors' *compute* timelines (the CPU drives the
  transfer), so computation stalls during sends and receives.

Both strictly restrict the bi-directional one-port model, so makespans
can only grow; the benchmark quantifies by how much on the paper's
testbeds.

Validation: both variants emit ordinary one-port schedules (every
one-port rule still holds), plus extra structure checked by
:func:`validate_uni_port` / :func:`validate_no_overlap`.
"""

from __future__ import annotations

from ..core.exceptions import ValidationError
from ..core.schedule import Schedule
from ..core.tolerance import time_tol
from ..core.validation import ONE_PORT, validate_schedule
from .base import CommunicationModel, _JointRowsFlatBooker, register_model


class UniPortFlatBooker(_JointRowsFlatBooker):
    """One shared send+receive port row per processor."""

    __slots__ = ("port0",)

    def __init__(self, builder, statics) -> None:
        super().__init__(builder, statics)
        self.port0 = builder.new_rows(statics.num_procs)

    def _rebind_extra(self, dup) -> None:
        dup.port0 = self.port0

    def _hops(self, q: int, r: int):
        return ((q, r, (self.port0 + q, self.port0 + r)),)


class NoOverlapFlatBooker(_JointRowsFlatBooker):
    """Send/recv ports plus both endpoints' compute rows (CPU-driven IO).

    The compute rows are the builder's own rows ``0 .. p-1`` — the same
    rows task executions occupy — so a transfer excludes computation on
    both its endpoints.
    """

    __slots__ = ("send0", "recv0")

    def __init__(self, builder, statics) -> None:
        super().__init__(builder, statics)
        self.send0 = builder.new_rows(statics.num_procs)
        self.recv0 = builder.new_rows(statics.num_procs)

    def _rebind_extra(self, dup) -> None:
        dup.send0 = self.send0
        dup.recv0 = self.recv0

    def _hops(self, q: int, r: int):
        return ((q, r, (self.send0 + q, self.recv0 + r, q, r)),)


@register_model("uni-port")
class UniPortModel(CommunicationModel):
    """Uni-directional one-port: one shared port per processor."""

    name = ONE_PORT  # schedules satisfy (and exceed) the one-port rules

    def flat_booker(self, builder, statics) -> UniPortFlatBooker:
        return UniPortFlatBooker(builder, statics)


@register_model("no-overlap")
class NoOverlapOnePortModel(CommunicationModel):
    """One-port without communication/computation overlap: a transfer
    also occupies the builder's compute rows of both its endpoints."""

    name = ONE_PORT

    def flat_booker(self, builder, statics) -> NoOverlapFlatBooker:
        return NoOverlapFlatBooker(builder, statics)


def validate_uni_port(schedule: Schedule) -> None:
    """One-port rules plus: per processor, *all* port events disjoint."""
    validate_schedule(schedule, model=ONE_PORT)
    by_proc: dict[int, list] = {}
    for e in schedule.comm_events:
        by_proc.setdefault(e.src_proc, []).append(e)
        by_proc.setdefault(e.dst_proc, []).append(e)
    for proc, events in by_proc.items():
        events.sort(key=lambda e: (e.start, e.finish))
        for a, b in zip(events, events[1:]):
            if a.finish > b.start + time_tol(a.finish, b.start):
                raise ValidationError(
                    f"uni-port violation on P{proc}: {a} overlaps {b}"
                )


def validate_no_overlap(schedule: Schedule) -> None:
    """One-port rules plus: no transfer overlaps computation on its
    endpoint processors."""
    validate_schedule(schedule, model=ONE_PORT)
    for e in schedule.comm_events:
        for proc in (e.src_proc, e.dst_proc):
            for p in schedule.tasks_on(proc):
                if (
                    e.start < p.finish - time_tol(e.start, p.finish)
                    and p.start < e.finish - time_tol(p.start, e.finish)
                ):
                    raise ValidationError(
                        f"no-overlap violation on P{proc}: transfer "
                        f"{e.src_task!r}->{e.dst_task!r} [{e.start}, {e.finish}) "
                        f"overlaps task {p.task!r} [{p.start}, {p.finish})"
                    )
