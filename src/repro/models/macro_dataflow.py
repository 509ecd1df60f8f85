"""The classical macro-dataflow model: contention-free communications.

Section 2.1 of the paper: a message of ``data`` items from processor
``q`` to ``r`` takes ``data * link(q, r)`` time, may start the instant
the source task completes, and consumes no shared resource — a processor
can send or receive arbitrarily many messages simultaneously.  This is
the model every classical heuristic (HEFT, CPOP, GDL, BIL, PCT...)
assumes; the paper argues it is unrealistic and uses it as the baseline.

Events are still recorded (one per remote edge) so that communication
counts and a Gantt view remain available, and so that a macro-dataflow
schedule can be *checked* against the one-port rules — which it will
generally violate, as the paper's Figure 1 example shows.

The flat booker is pure arithmetic (no resource rows).
"""

from __future__ import annotations

import math

from ..core.exceptions import PlatformError
from ..core.validation import MACRO_DATAFLOW
from .base import CommunicationModel, FlatBooker, register_model

_INF = float("inf")


class MacroDataflowFlatBooker(FlatBooker):
    """Contention-free bookings: ``arrival = ready + data * link``."""

    __slots__ = ("edata", "links", "check_links")

    def __init__(self, builder, statics) -> None:
        self.edata = statics.edata
        self.links = statics.link_rows
        self.check_links = not statics.all_links_finite

    def rebind(self, builder) -> "MacroDataflowFlatBooker":
        return self  # no rows: nothing is bound to a builder

    def _cost(self, q: int, r: int) -> float:
        cost = self.links[q][r]
        if self.check_links and not math.isfinite(cost):
            raise PlatformError(f"no direct link from P{q} to P{r}")
        return cost

    def trial_est(self, parents, proc: int, cutoff: float = _INF, duration: float = 0.0) -> float:
        edata = self.edata
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            if pproc == proc:
                arr = pfinish
            else:
                arr = pfinish + edata[e] * self._cost(pproc, proc)
            if arr > est:
                est = arr
        return est

    def commit_est(self, parents, proc: int, out: list) -> float:
        edata = self.edata
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            if pproc == proc:
                arr = pfinish
            else:
                dur = edata[e] * self._cost(pproc, proc)
                out.append((e, pproc, proc, pfinish, dur, 0))
                arr = pfinish + dur
            if arr > est:
                est = arr
        return est


@register_model("macro-dataflow")
class MacroDataflowModel(CommunicationModel):
    """Contention-free communications: no shared resource at all."""

    name = MACRO_DATAFLOW

    def flat_booker(self, builder, statics) -> MacroDataflowFlatBooker:
        return MacroDataflowFlatBooker(builder, statics)
