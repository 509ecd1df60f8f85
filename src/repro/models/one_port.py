"""The bi-directional one-port model (the paper's contribution, §2.3).

At any instant a processor sends to at most one processor and receives
from at most one processor; sending and receiving may overlap each other
and overlap computation.  Messages between disjoint sender/receiver
pairs proceed in parallel — the model of a switched network (Myrinet-
style permutation switches) or a multiplexed bus.

A transfer ``q -> r`` of ``data`` items books the window
``[start, start + data * link(q, r))`` on *both* ``q``'s send port and
``r``'s receive port, where ``start`` is the earliest instant at or
after the source task's completion at which that window is free on both
ports — the greedy "as early as possible" rule of Section 4.3.

:class:`OnePortFlatBooker` implements that rule over flat
:class:`~repro.kernel.builder.FlatBuilder` rows; the compiled engine
(``kernel/_cextmodule.c``) transliterates its loops.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ..core.exceptions import PlatformError
from ..obs import current as _obs_current
from ..core.validation import ONE_PORT
from .base import CommunicationModel, FlatBooker, register_model

_INF = float("inf")


class OnePortFlatBooker(FlatBooker):
    """Greedy one-port bookings over flat send/recv rows."""

    __slots__ = (
        "builder",
        "send0",
        "recv0",
        "edata",
        "links",
        "check_links",
        "seed_cache",
        "stats",
    )

    def __init__(self, builder, statics) -> None:
        p = statics.num_procs
        self.builder = builder
        self.send0 = builder.new_rows(p)
        self.recv0 = builder.new_rows(p)
        self.edata = statics.edata
        self.links = statics.link_rows
        self.check_links = not statics.all_links_finite
        #: Memo of each edge's earliest *send-committed* feasible
        #: start for one transfer duration: it lower-bounds the joint
        #: window of every destination whose transfer takes that long
        #: (the send row and ready time do not depend on the
        #: destination, but ``data * link(q, r)`` does), so later
        #: trials may start their search there.  Keyed by edge index
        #: with value ``(send-row version, source proc, ready,
        #: duration, seed)`` — an entry is live while its send row is
        #: unchanged *and* the source placement (proc, finish) and the
        #: duration still match, so seeds survive commits that touch
        #: other rows but can never leak across a re-placement (chunk
        #: rollbacks re-place parents) or to a shorter transfer, which
        #: may fit a gap the seed skipped.
        self.seed_cache: dict = {}
        #: Active obs collector, captured once (``None`` = stats off).
        self.stats = _obs_current()

    def rebind(self, builder) -> "OnePortFlatBooker":
        dup = object.__new__(OnePortFlatBooker)
        dup.builder = builder
        dup.send0 = self.send0
        dup.recv0 = self.recv0
        dup.edata = self.edata
        dup.links = self.links
        dup.check_links = self.check_links
        dup.seed_cache = {}
        dup.stats = self.stats
        return dup

    # The booking loops below are hand-inlined: one transfer costs a
    # handful of bisects and list inserts, with no helper calls.  Each
    # layer block advances ``t`` to the least feasible instant >= t for
    # that interval list; sweeping the (up to four) layers until none
    # moves reaches the unique least instant free on all of them — the
    # same value ``FlatBuilder.joint_next_fit`` computes over the send
    # and receive rows.

    def trial_est(
        self, parents, proc: int, cutoff: float = _INF, duration: float = 0.0
    ) -> float:
        b = self.builder
        gen = b.gen
        rows_s, rows_e = b.rows_s, b.rows_e
        tent_s, tent_e, tgen = b.tent_s, b.tent_e, b.tent_gen
        send0 = self.send0
        edata, links = self.edata, self.links
        check = self.check_links
        seeds = self.seed_cache
        row_ver = b.row_ver
        rr = self.recv0 + proc
        rcs, rce = rows_s[rr], rows_e[rr]
        rts = rte = None  # recv tentative layer, live after first booking
        # tentative bookings are only ever read by *later* remote
        # parents of this same candidate: everything at or after the
        # last remote parent books nothing (single-remote-parent
        # candidates — the common case — never touch tentative state)
        last_remote = -1
        for j in range(len(parents) - 1, -1, -1):
            if parents[j][3] != proc:
                last_remote = j
                break
        est = 0.0
        for j, (pfinish, _pi, e, pproc) in enumerate(parents):
            if pproc == proc:
                if pfinish > est:
                    est = pfinish
                continue
            cost = links[pproc][proc]
            if check and not math.isfinite(cost):
                raise PlatformError(f"no direct link from P{pproc} to P{proc}")
            dur = edata[e] * cost
            if dur == 0.0:
                if pfinish > est:
                    est = pfinish
                continue
            rs = send0 + pproc
            scs, sce = rows_s[rs], rows_e[rs]
            if tgen[rs] == gen:
                sts, ste = tent_s[rs], tent_e[rs]
            else:
                sts = ste = None
            # Fixed-point sweeps carry a scan cursor per layer: ``t``
            # only grows, and every interval behind a cursor has been
            # proven to end at or before the current ``t``, so a
            # re-sweep resumes scanning instead of re-bisecting.
            si = xi = ri = yi = -1
            ver = row_ver[rs]
            ent = seeds.get(e)
            if (
                ent is not None
                and ent[0] == ver
                and ent[1] == pproc
                and ent[2] == pfinish
                and ent[3] == dur
            ):
                if self.stats is not None:
                    self.stats.inc("oneport.seed.hit")
                t = ent[4]
            else:
                if self.stats is not None:
                    self.stats.inc("oneport.seed.miss")
                # first trial of this (edge, source row, ready,
                # duration) since the send row last changed: find the
                # least send-committed feasible start once — it
                # lower-bounds the joint window of every destination
                # with this transfer duration, so those candidate
                # processors' searches may begin there instead of
                # rescanning from pfinish (source proc, ready time and
                # duration are validated on lookup, so neither a
                # re-placed parent nor a shorter transfer reuses it)
                t = pfinish
                if sce and sce[-1] > t:
                    si = bisect_right(scs, t) - 1
                    if si >= 0 and sce[si] > t:
                        t = sce[si]
                    si += 1
                    n = len(scs)
                    lim = t + dur
                    while si < n and scs[si] < lim:
                        if sce[si] > t:
                            t = sce[si]
                            lim = t + dur
                        si += 1
                seeds[e] = (ver, pproc, pfinish, dur, t)
            while True:
                moved = False
                # send committed ("frontier" fast path: a layer whose
                # last end is <= t cannot block any window at or after t)
                if sce and sce[-1] > t:
                    if si < 0:
                        si = bisect_right(scs, t) - 1
                        if si >= 0 and sce[si] > t:
                            t = sce[si]
                            moved = True
                        si += 1
                    n = len(scs)
                    lim = t + dur
                    while si < n and scs[si] < lim:
                        if sce[si] > t:
                            t = sce[si]
                            lim = t + dur
                            moved = True
                        si += 1
                # send tentative (same-source siblings booked this trial)
                if sts and ste[-1] > t:
                    if xi < 0:
                        xi = bisect_right(sts, t) - 1
                        if xi >= 0 and ste[xi] > t:
                            t = ste[xi]
                            moved = True
                        xi += 1
                    n = len(sts)
                    lim = t + dur
                    while xi < n and sts[xi] < lim:
                        if ste[xi] > t:
                            t = ste[xi]
                            lim = t + dur
                            moved = True
                        xi += 1
                # recv committed
                if rce and rce[-1] > t:
                    if ri < 0:
                        ri = bisect_right(rcs, t) - 1
                        if ri >= 0 and rce[ri] > t:
                            t = rce[ri]
                            moved = True
                        ri += 1
                    n = len(rcs)
                    lim = t + dur
                    while ri < n and rcs[ri] < lim:
                        if rce[ri] > t:
                            t = rce[ri]
                            lim = t + dur
                            moved = True
                        ri += 1
                # recv tentative (other messages booked this trial)
                if rts and rte[-1] > t:
                    if yi < 0:
                        yi = bisect_right(rts, t) - 1
                        if yi >= 0 and rte[yi] > t:
                            t = rte[yi]
                            moved = True
                        yi += 1
                    n = len(rts)
                    lim = t + dur
                    while yi < n and rts[yi] < lim:
                        if rte[yi] > t:
                            t = rte[yi]
                            lim = t + dur
                            moved = True
                        yi += 1
                if not moved:
                    break
            end = t + dur
            if j < last_remote:
                # book tentatively on both rows (truncating stale layers)
                if sts is None:
                    sts, ste = tent_s[rs], tent_e[rs]
                    del sts[:]
                    del ste[:]
                    tgen[rs] = gen
                i = bisect_right(sts, t)
                sts.insert(i, t)
                ste.insert(i, end)
                if rts is None:
                    rts, rte = tent_s[rr], tent_e[rr]
                    if tgen[rr] != gen:
                        del rts[:]
                        del rte[:]
                        tgen[rr] = gen
                i = bisect_right(rts, t)
                rts.insert(i, t)
                rte.insert(i, end)
            if end > est:
                est = end
                if est + duration > cutoff:
                    return est  # partial: candidate provably loses
        return est

    def commit_est(self, parents, proc: int, out: list) -> float:
        b = self.builder
        rows_s, rows_e = b.rows_s, b.rows_e
        send0 = self.send0
        edata, links = self.edata, self.links
        check = self.check_links
        book = b.book
        rr = self.recv0 + proc
        rcs, rce = rows_s[rr], rows_e[rr]
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            if pproc == proc:
                if pfinish > est:
                    est = pfinish
                continue
            cost = links[pproc][proc]
            if check and not math.isfinite(cost):
                raise PlatformError(f"no direct link from P{pproc} to P{proc}")
            dur = edata[e] * cost
            if dur == 0.0:
                out.append((e, pproc, proc, pfinish, 0.0, 0))
                if pfinish > est:
                    est = pfinish
                continue
            rs = send0 + pproc
            scs, sce = rows_s[rs], rows_e[rs]
            # committed layers only: the caller began a fresh trial
            # generation, so no tentative interval is live
            t = pfinish
            while True:
                moved = False
                if sce and sce[-1] > t:
                    i = bisect_right(scs, t) - 1
                    if i >= 0 and sce[i] > t:
                        t = sce[i]
                        moved = True
                    i += 1
                    n = len(scs)
                    lim = t + dur
                    while i < n and scs[i] < lim:
                        if sce[i] > t:
                            t = sce[i]
                            lim = t + dur
                            moved = True
                        i += 1
                if rce and rce[-1] > t:
                    i = bisect_right(rcs, t) - 1
                    if i >= 0 and rce[i] > t:
                        t = rce[i]
                        moved = True
                    i += 1
                    n = len(rcs)
                    lim = t + dur
                    while i < n and rcs[i] < lim:
                        if rce[i] > t:
                            t = rce[i]
                            lim = t + dur
                            moved = True
                        i += 1
                if not moved:
                    break
            end = t + dur
            book(rs, t, end)
            book(rr, t, end)
            out.append((e, pproc, proc, t, dur, 0))
            if end > est:
                est = end
        return est


@register_model("one-port")
class OnePortModel(CommunicationModel):
    """Bi-directional one-port: one send and one receive port per processor."""

    name = ONE_PORT

    def flat_booker(self, builder, statics) -> OnePortFlatBooker:
        return OnePortFlatBooker(builder, statics)
