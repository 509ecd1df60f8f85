"""Numpy implementations of the kernel's hot primitives (the array backend).

Two primitives live here, both bit-identical to their pure-Python
reference in :mod:`repro.kernel.builder`:

* :func:`np_row_next_fit` — :func:`~repro.kernel.builder.row_next_fit`
  over contiguous numpy start/end arrays;
* :class:`GapRows` — gap-indexed row mirrors: per row, a block index of
  maximal free-gap lengths lets ``next_fit`` skip whole blocks that
  cannot fit the requested duration, making gap search sublinear on
  long (5k+ interval) rows.

The backend accelerates construction only: it has no propagation of its
own, so timed-kernel passes run the pure-Python loop under it.

Exactness
---------
The scalar ``next_fit`` scan can only stop (i) immediately at the probe
position, (ii) right after an interval ``k`` whose following gap
``cs[k+1] - t_k`` fits the duration, or (iii) past the last interval:
after scanning interval ``k`` the running time satisfies ``t >= ce[k]``,
so a stop at ``k+1`` implies ``cs[k+1] - ce[k] >= duration``.  The gap
index therefore enumerates *candidate* stop positions from the
(padded, conservative) static gaps ``cs[k+1] - ce[k]`` and verifies
each with the scalar comparison ``cs[k+1] >= t_k + duration`` over the
exact running maximum ``t_k`` — same comparisons over the same
operands, no new arithmetic on the returned value.  The padding
(:data:`GAP_PAD_REL`, a magnitude-relative slack far above one ulp)
only ever *adds* candidates, so a true stop position is never skipped;
see the tolerance audit in ``tests/kernel/test_array_backend.py``.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..obs import current as _obs_current
from .backends import KernelBackend, register_backend
from .builder import NO_DIRTY, row_next_fit

#: Gap-candidate padding, relative to the interval magnitudes: static
#: gaps are one float subtraction away from the scalar scan's exact
#: ``t + duration`` comparisons, so candidates are admitted with this
#: slack (>> one ulp) and verified exactly.  Padding only widens the
#: candidate set — it can cost a wasted verification, never a miss.
GAP_PAD_REL = 1e-12

#: Rows shorter than this use the scalar scan directly: building and
#: probing the index only pays off once rows are long.
GAP_MIN_LEN = 96

#: Intervals per block of the gap index.
GAP_BLOCK = 64

#: Appended intervals tolerated past a mirror's indexed prefix before
#: the index is grown over the tail: the un-indexed tail is walked
#: scalar, so it is kept short.  Appends are the overwhelmingly common
#: booking (EFT extends row frontiers) and never invalidate the prefix.
GAP_TAIL_MAX = 48

#: Candidate admission threshold factor: a gap is a candidate when
#: ``gap + |end| * GAP_PAD_REL >= duration * _GAP_THR`` — algebraically
#: ``gap + (|end| + duration) * GAP_PAD_REL >= duration``, the padded
#: test of the module docstring, with the duration term folded into the
#: threshold so the query needs no array arithmetic.
_GAP_THR = 1.0 - GAP_PAD_REL


def _gap_scan(
    cs, ce, gap_pad, blockmax, ready: float, duration: float, thr: float
):
    """Shared exact scan over a mirrored row (see module docstring).

    ``cs`` / ``ce`` are the row's interval starts/ends as float64
    arrays, ``gap_pad`` the padded static gaps ``cs[1:] - ce[:-1]``,
    ``blockmax`` their per-block maxima, and ``thr`` the candidate
    admission threshold (:data:`_GAP_THR` times the duration).

    Returns ``(found, t)``: ``found`` is True when a window fitting
    before the next mirrored interval was located (``t`` is final),
    False when the scan fell off the mirrored prefix (``t`` is the
    running maximum over every mirrored end — the caller continues on
    whatever lies beyond the mirror).
    """
    n = cs.shape[0]
    # prologue — mirrors row_next_fit: advance out of the interval
    # covering ``ready``, then check for an immediate fit
    t = ready
    i = int(np.searchsorted(cs, t, side="right")) - 1
    if i >= 0:
        e0 = float(ce[i])
        if e0 > t:
            t = e0
    i += 1
    if i >= n:
        return False, t
    if float(cs[i]) >= t + duration:
        return True, t
    # candidate stop positions: k >= i with a (padded) static gap that
    # fits; verified with the exact running maximum t_k
    nb = blockmax.shape[0]
    scan_from = i  # ends in [i, scan_from) are already folded into t
    b = i // GAP_BLOCK
    while b < nb:
        if float(blockmax[b]) < thr:
            b += 1
            continue
        lo = b * GAP_BLOCK
        if lo < i:
            lo = i
        hi = (b + 1) * GAP_BLOCK
        if hi > n - 1:
            hi = n - 1
        for off in np.nonzero(gap_pad[lo:hi] >= thr)[0]:
            k = lo + int(off)
            if k >= scan_from:
                m = float(ce[scan_from : k + 1].max())
                if m > t:
                    t = m
                scan_from = k + 1
            if float(cs[k + 1]) >= t + duration:
                return True, t
        b += 1
    # no mirrored gap fits: fold the remaining ends and hand off
    if scan_from < n:
        m = float(ce[scan_from:].max())
        if m > t:
            t = m
    return False, t


def np_row_next_fit(cs, ce, ready: float, duration: float) -> float:
    """:func:`~repro.kernel.builder.row_next_fit` over numpy arrays.

    Earliest ``t >= ready`` with ``[t, t + duration)`` free, given the
    sorted interval starts/ends ``cs`` / ``ce`` (array-likes).  Returns
    the identical float the scalar scan returns.
    """
    cs = np.ascontiguousarray(cs, dtype=np.float64)
    ce = np.ascontiguousarray(ce, dtype=np.float64)
    if duration == 0.0:
        return ready
    n = cs.shape[0]
    if n == 0 or float(ce[-1]) <= ready:
        return ready
    gap = cs[1:] - ce[:-1]
    gap_pad = gap + np.abs(ce[:-1]) * GAP_PAD_REL
    nb = (gap_pad.shape[0] + GAP_BLOCK - 1) // GAP_BLOCK
    pad_len = nb * GAP_BLOCK
    padded = np.full(pad_len, -np.inf)
    padded[: gap_pad.shape[0]] = gap_pad
    blockmax = padded.reshape(nb, GAP_BLOCK).max(axis=1)
    _found, t = _gap_scan(
        cs, ce, gap_pad, blockmax, ready, duration, duration * _GAP_THR
    )
    # the whole row is mirrored here, so a fall-off is itself final
    return t


class GapRows:
    """Gap-indexed mirrors of a builder's committed rows.

    Each mirrored row caches ``(prefix length, ce ndarray, padded gaps,
    per-block gap maxima)``.  The padded gaps and block maxima are plain
    Python lists — the probe loop reads a handful of scalars, where list
    indexing beats ndarray item access several-fold — while ``ce`` is
    kept as an ndarray for the long running-maximum segment folds.
    Interval starts are read from the builder's own row list: the
    mirror is only consulted below its validity watermark (see below),
    so no copy is needed.

    Validity is tracked by the builder's per-row *dirty watermark*
    (:attr:`~repro.kernel.builder.FlatBuilder.row_dirty`): appends — the
    dominant booking, EFT extends row frontiers — never move it, and a
    mid-row insert at position ``pos`` only invalidates the mirror from
    ``pos`` on.  EFT books mid-row near the frontier, so the indexed
    prefix below the watermark keeps serving deep scans; whatever lies
    at or past the watermark is walked scalar.

    Re-syncing (rebuilding a stale mirror, or growing one over a tail
    that outgrew :data:`GAP_TAIL_MAX`) is *debt-gated*: each row
    accumulates the scalar-walk steps its un-mirrored part cost, and a
    sync is only performed once that debt reaches the row length — i.e.
    once the O(row) sync provably amortizes against scalar work already
    paid.  This bounds total sync cost by total scalar-scan cost, so
    insert-heavy phases (which would otherwise rebuild every query)
    degrade to at most ~2x the plain scalar scan instead of O(rowˆ2).
    Short rows and short remaining scans bypass the mirror entirely
    (:data:`GAP_MIN_LEN`) — the scalar scan wins there.

    Contract: at most one ``GapRows`` consumer per builder (each resets
    the shared watermark when it syncs).  Scheduler states satisfy this
    — snapshots copy the builder and build fresh mirrors.
    """

    __slots__ = ("builder", "_rows", "_debt", "stats")

    def __init__(self, builder) -> None:
        self.builder = builder
        self._rows: dict[int, tuple] = {}
        self._debt: dict[int, int] = {}
        #: Active obs collector, captured once (``None`` = stats off).
        self.stats = _obs_current()

    def _mirror(self, r: int) -> tuple:
        if self.stats is not None:
            self.stats.inc("gap.resync")
        cs = np.array(self.builder.rows_s[r], dtype=np.float64)
        ce = np.array(self.builder.rows_e[r], dtype=np.float64)
        gap_pad = (cs[1:] - ce[:-1]) + np.abs(ce[:-1]) * GAP_PAD_REL
        nb = (gap_pad.shape[0] + GAP_BLOCK - 1) // GAP_BLOCK
        padded = np.full(nb * GAP_BLOCK, -np.inf)
        padded[: gap_pad.shape[0]] = gap_pad
        blockmax = padded.reshape(nb, GAP_BLOCK).max(axis=1)
        ent = (cs.shape[0], ce, gap_pad.tolist(), blockmax.tolist())
        self._rows[r] = ent
        self.builder.row_dirty[r] = NO_DIRTY
        return ent

    def _extend(self, r: int, ent: tuple, n: int) -> tuple:
        """Grow a mirror over a row's appended tail (no full rebuild).

        Valid whenever the watermark is at or past the mirrored prefix:
        the prefix is then untouched, and the tail gaps are recomputed
        from the builder's current rows regardless of how they got
        there.
        """
        if self.stats is not None:
            self.stats.inc("gap.resync")
        nm, ce_np, gap_pad, blockmax = ent
        cs_l = self.builder.rows_s[r]
        ce_l = self.builder.rows_e[r]
        ce_np = np.concatenate(
            (ce_np, np.asarray(ce_l[nm:n], dtype=np.float64))
        )
        for k in range(nm - 1, n - 1):
            e0 = ce_l[k]
            gap_pad.append(
                (cs_l[k + 1] - e0) + (e0 if e0 >= 0.0 else -e0) * GAP_PAD_REL
            )
        ng = n - 1
        first = ((nm - 1) // GAP_BLOCK) * GAP_BLOCK
        del blockmax[first // GAP_BLOCK :]
        for lo in range(first, ng, GAP_BLOCK):
            hi = lo + GAP_BLOCK
            blockmax.append(max(gap_pad[lo : hi if hi < ng else ng]))
        ent = (n, ce_np, gap_pad, blockmax)
        self._rows[r] = ent
        self.builder.row_dirty[r] = NO_DIRTY
        return ent

    def next_fit(self, r: int, ready: float, duration: float) -> float:
        """Earliest committed-layer window on row ``r`` (exact).

        The handoffs are exact by restart invariance: every point the
        scalar prologue or the index advances past is proven
        infeasible, so the least feasible point at or after the running
        value ``t`` is the least feasible point at or after ``ready``.
        """
        b = self.builder
        cs_l = b.rows_s[r]
        ce_l = b.rows_e[r]
        n = len(cs_l)
        stats = self.stats
        if stats is not None:
            stats.inc("gap.searches")
        if duration == 0.0 or n < GAP_MIN_LEN:
            if stats is not None:
                stats.inc("gap.scalar")
            return row_next_fit(cs_l, ce_l, ready, duration)
        t = ready
        if ce_l[-1] <= t:
            return t
        i = bisect_right(cs_l, t) - 1
        if i >= 0 and ce_l[i] > t:
            t = ce_l[i]
        i += 1
        lim = t + duration
        if i >= n or cs_l[i] >= lim:
            return t
        if n - i < GAP_MIN_LEN:
            # short remaining scan: finish scalar, skip the index
            if stats is not None:
                stats.inc("gap.scalar")
            while i < n and cs_l[i] < lim:
                if ce_l[i] > t:
                    t = ce_l[i]
                    lim = t + duration
                i += 1
            return t
        ent = self._rows.get(r)
        j = i
        if ent is not None:
            nm = ent[0]
            dirty = b.row_dirty[r]
            if dirty >= nm:
                # prefix fully valid; sync an outgrown appended tail
                if n - nm > GAP_TAIL_MAX:
                    ent = self._extend(r, ent, n)
                    nm = n
                trusted = nm
            else:
                trusted = dirty
            last = trusted - 1  # gap k sits between intervals k, k+1
            if last - i >= GAP_MIN_LEN:
                if stats is not None:
                    stats.inc("gap.indexed")
                # candidate stop positions k in [i, last): (padded)
                # static gap fits; verified with the exact running max
                ce_np, gap_pad, blockmax = ent[1], ent[2], ent[3]
                thr = duration * _GAP_THR
                nb = len(blockmax)
                scan_from = i  # ends in [i, scan_from) folded into t
                bx = i // GAP_BLOCK
                while bx < nb:
                    k = bx * GAP_BLOCK
                    if k >= last:
                        break
                    if blockmax[bx] < thr:
                        bx += 1
                        continue
                    hi = k + GAP_BLOCK
                    if k < i:
                        k = i
                    if hi > last:
                        hi = last
                    while k < hi:
                        if gap_pad[k] >= thr:
                            if k >= scan_from:
                                if k - scan_from < 32:
                                    m = max(ce_l[scan_from : k + 1])
                                else:
                                    m = float(ce_np[scan_from : k + 1].max())
                                if m > t:
                                    t = m
                                scan_from = k + 1
                            if cs_l[k + 1] >= t + duration:
                                return t
                        k += 1
                    bx += 1
                # no trusted gap fits: fold the trusted ends, hand off
                if scan_from < trusted:
                    if trusted - scan_from < 32:
                        m = max(ce_l[scan_from:trusted])
                    else:
                        m = float(ce_np[scan_from:trusted].max())
                    if m > t:
                        t = m
                j = trusted
                lim = t + duration
        # scalar walk over whatever is not (validly) mirrored; its cost
        # funds the next sync (debt gating, see class docstring)
        steps = j
        while j < n and cs_l[j] < lim:
            if ce_l[j] > t:
                t = ce_l[j]
                lim = t + duration
            j += 1
        steps = j - steps
        if steps:
            debt = self._debt
            d = debt.get(r, 0) + steps
            if d >= n:
                if stats is not None:
                    stats.inc("gap.debt_flush")
                debt[r] = 0
                if ent is not None and b.row_dirty[r] >= ent[0]:
                    self._extend(r, ent, n)
                else:
                    self._mirror(r)
            else:
                debt[r] = d
        return t


@register_backend("numpy")
class NumpyBackend(KernelBackend):
    """Vectorized construction primitives; schedules bit-identical to python."""

    def state_class(self):
        from ..heuristics.state_array import ArraySchedulerState

        return ArraySchedulerState
