"""Heterogeneous computing platforms: processors and communication links.

This implements the target model of the paper (Section 2.1): a set
``P = {P_0, ..., P_{p-1}}`` of processors where each ``P_i`` has a
*cycle time* ``t_i`` (the inverse of its relative speed — executing task
``v`` on ``P_i`` takes ``w(v) * t_i`` time units), together with a
``p x p`` communication matrix ``link`` giving the time to transfer one
data item between each processor pair (zero diagonal).

The module also provides the heterogeneous *averages* the paper uses to
compute bottom levels (Section 4.1):

* the average execution time of a task of weight ``w`` over the whole
  platform is ``w * p / sum(1/t_i)`` — i.e. ``w`` times the harmonic mean
  of the cycle times;
* the average communication factor replaces ``link(q, r)`` by the inverse
  of the harmonic mean of the link bandwidths, which is the arithmetic
  mean of the off-diagonal ``link`` entries.

Finally :meth:`Platform.speedup_bound` reproduces the paper's Section 5.2
upper bound (7.6 for the paper platform).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any

from .exceptions import PlatformError

#: Index of a processor inside a :class:`Platform`.
ProcId = int


def _lcm_of(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


def _pairwise_sum(vals: list[float]) -> float:
    """Sum ``vals`` in the order of NumPy's pairwise summation.

    Below 8 values: one running sum from 0.0.  Up to 128: eight lane
    sums over the indices congruent to ``j`` mod 8 of the largest
    multiple-of-8 prefix, combined as a balanced tree, then the rest in
    order.  Above 128: split at ``n // 2`` rounded down to a multiple
    of 8, sum each half the same way, and add the two.  Built-in
    ``sum()`` is no substitute: it compensates its rounding from Python
    3.12 on.
    """
    n = len(vals)
    if n < 8:
        res = 0.0
        for x in vals:
            res += x
        return res
    if n <= 128:
        r = vals[:8]
        m = n - n % 8
        for i in range(8, m):
            r[i & 7] += vals[i]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(m, n):
            res += vals[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(vals[:half]) + _pairwise_sum(vals[half:])


class Platform:
    """A set of heterogeneous processors joined by a communication network.

    Parameters
    ----------
    cycle_times:
        Sequence of per-processor cycle times ``t_i`` (strictly positive).
        Identical processors all use ``t_i = 1``.
    link:
        Either a scalar (fully homogeneous network: every off-diagonal
        entry equals the scalar) or a full ``p x p`` matrix with zero
        diagonal and non-negative entries.  ``link[q][r]`` is the time to
        ship one data item from ``P_q`` to ``P_r``.  An entry of
        ``math.inf`` means "no direct link" (used by the routing model).

    Notes
    -----
    Instances are immutable — and the immutability is *enforced*:
    attribute assignment raises after construction, and the one link
    table, :meth:`link_rows`, is nested tuples.  Compiled statics
    (:mod:`repro.kernel.statics`) and flat kernels hold direct
    references to these tables, so a mutable platform would silently
    poison every schedule built after the mutation; mutating
    experiments must build new platforms.
    """

    # ``_frozen`` stays last: unpickling restores slots in this order
    __slots__ = (
        "_cycle_times",
        "_link_rows",
        "_p",
        "_fully_connected",
        "_aggregate_speed",
        "_average_link_time",
        "_frozen",
    )

    def __init__(self, cycle_times: Sequence[float], link: float | Sequence[Sequence[float]] = 1.0):
        cts = tuple(float(t) for t in cycle_times)
        if not cts:
            raise PlatformError("a platform needs at least one processor")
        for i, t in enumerate(cts):
            if not (t > 0) or t == float("inf"):
                raise PlatformError(f"processor {i}: cycle time must be finite and > 0, got {t}")
        self._cycle_times = cts
        p = self._p = len(cts)

        if isinstance(link, (int, float)):
            scalar = float(link)
            if not scalar >= 0:  # NaN fails: it would read as a missing link
                raise PlatformError(f"link cost must be >= 0 or inf, got {scalar}")
            rows = tuple(tuple(0.0 if q == r else scalar for r in range(p)) for q in range(p))
        else:
            try:
                rows = tuple(tuple(float(x) for x in row) for row in link)
            except (TypeError, ValueError, OverflowError) as exc:
                raise PlatformError(f"link matrix must be {p}x{p} numbers ({exc})") from None
            if len(rows) != p or any(len(row) != p for row in rows):
                lengths = [len(row) for row in rows]
                raise PlatformError(f"link matrix must be {p}x{p}, got row lengths {lengths}")
            if any(rows[q][q] != 0.0 for q in range(p)):
                raise PlatformError("link matrix diagonal must be zero")
            if not all(x >= 0 for row in rows for x in row):
                raise PlatformError("link matrix entries must be >= 0 or inf, not NaN")
        # Tuples, because compiled statics share this reference: any
        # attempted in-place mutation is an immediate TypeError.
        self._link_rows: tuple[tuple[float, ...], ...] = rows

        # Derived constants, computed once: every statics compile and
        # every ranking reads them.
        self._fully_connected = all(math.isfinite(x) for row in rows for x in row)
        # left to right from 0.0: built-in ``sum()`` compensates its
        # rounding from Python 3.12 on, which would move this float, and
        # with it every bottom level, between interpreter versions
        total = 0.0
        for t in cts:
            total += 1.0 / t
        self._aggregate_speed = total
        # NumPy's ``mean`` of the finite off-diagonal entries, bit for
        # bit: a pairwise sum in row-major order, added to the
        # reduction's identity 0.0 (which turns a ``-0.0`` sum into 0.0)
        finite = [
            x for q, row in enumerate(rows) for r, x in enumerate(row)
            if q != r and math.isfinite(x)
        ]
        self._average_link_time = (
            (0.0 + _pairwise_sum(finite)) / len(finite) if finite else 0.0
        )
        self._frozen = True

    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise PlatformError(
                f"Platform is frozen: cannot set {name!r}. Compiled statics "
                "and flat kernels cache platform-derived tables; build a new "
                "Platform instead of mutating this one."
            )
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_processors(self) -> int:
        return self._p

    def __len__(self) -> int:
        return self._p

    @property
    def processors(self) -> range:
        """Processor indices ``0 .. p-1``."""
        return range(self._p)

    @property
    def cycle_times(self) -> tuple[float, ...]:
        return self._cycle_times

    def cycle_time(self, proc: ProcId) -> float:
        """Cycle time ``t_proc`` (inverse relative speed)."""
        self._check_proc(proc)
        return self._cycle_times[proc]

    def speed(self, proc: ProcId) -> float:
        """Relative speed ``1 / t_proc``."""
        return 1.0 / self.cycle_time(proc)

    @property
    def link_matrix(self) -> Any:
        """A new read-only ``p x p`` ndarray of :meth:`link_rows`.

        NumPy is imported here, so only callers of this property need it.
        """
        import numpy as np

        mat = np.array(self._link_rows, dtype=float)
        mat.setflags(write=False)
        return mat

    def link(self, src: ProcId, dst: ProcId) -> float:
        """Per-item transfer time from ``src`` to ``dst`` (0 when equal)."""
        self._check_proc(src)
        self._check_proc(dst)
        return self._link_rows[src][dst]

    def link_rows(self) -> tuple[tuple[float, ...], ...]:
        """The ``p x p`` link matrix as nested tuples (immutable)."""
        return self._link_rows

    def has_link(self, src: ProcId, dst: ProcId) -> bool:
        """Whether a direct (finite-cost) link exists from ``src`` to ``dst``."""
        return math.isfinite(self.link(src, dst))

    def is_fully_connected(self) -> bool:
        """True when every processor pair has a direct finite link."""
        return self._fully_connected

    def _check_proc(self, proc: ProcId) -> None:
        if not (0 <= proc < self._p):
            raise PlatformError(f"processor index {proc} out of range [0, {self._p})")

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def exec_time(self, weight: float, proc: ProcId) -> float:
        """Time to execute a task of computation cost ``weight`` on ``proc``."""
        return weight * self.cycle_time(proc)

    def comm_time(self, data: float, src: ProcId, dst: ProcId) -> float:
        """Time to transfer ``data`` items from ``src`` to ``dst``.

        Zero when ``src == dst`` (memory accesses are neglected, as in the
        paper).  Raises if the processors are not directly linked — the
        routing model handles multi-hop paths.
        """
        if src == dst:
            return 0.0
        if src < 0 or dst < 0:
            self._check_proc(src)
            self._check_proc(dst)
        try:
            cost = self._link_rows[src][dst]
        except IndexError:
            self._check_proc(src)
            self._check_proc(dst)
            raise  # pragma: no cover - _check_proc raised first
        if not math.isfinite(cost):
            raise PlatformError(f"no direct link from P{src} to P{dst}")
        return data * cost

    # ------------------------------------------------------------------
    # heterogeneous averages (Section 4.1)
    # ------------------------------------------------------------------
    def aggregate_speed(self) -> float:
        """``sum(1/t_i)`` — the platform's total relative speed.

        Summed left to right from 0.0, so the float is the same on every
        Python version (see ``__init__``).
        """
        return self._aggregate_speed

    def average_cycle_time(self) -> float:
        """Harmonic mean of the cycle times: ``p / sum(1/t_i)``.

        The paper estimates the weight of a task as
        ``p * w(T) / sum(1/t_i)`` when computing bottom levels; that is
        ``w(T) * average_cycle_time()``.
        """
        return self._p / self.aggregate_speed()

    def average_link_time(self) -> float:
        """Average per-item communication time over distinct pairs.

        The paper replaces ``link(q, r)`` by "the inverse of the harmonic
        mean" of the link bandwidths.  With bandwidth ``b = 1/link``, the
        harmonic mean of the bandwidths over the ``p(p-1)`` ordered pairs
        is ``p(p-1) / sum(link)``... inverted, this is the arithmetic mean
        of the ``link`` entries.  Missing (``inf``) links are left out;
        with no finite link (a single processor, say) the average is 0.

        The float is NumPy's ``mean`` of those entries, bit for bit (see
        ``__init__``).
        """
        return self._average_link_time

    def fastest_processor(self) -> ProcId:
        """Index of a processor with the minimal cycle time (lowest index wins)."""
        return min(self.processors, key=lambda i: (self._cycle_times[i], i))

    def min_cycle_time(self) -> float:
        return min(self._cycle_times)

    def sequential_time(self, total_weight: float) -> float:
        """Time to run ``total_weight`` of work on one fastest processor.

        This is the paper's sequential reference (Section 5.2 computes
        ``38 * 6 = 228`` for 38 unit tasks on a cycle-time-6 processor).
        """
        return total_weight * self.min_cycle_time()

    def speedup_bound(self) -> float:
        """Paper Section 5.2 upper bound on the achievable speedup.

        Ignoring communications and dependences, work distributed
        proportionally to speeds completes ``sum(1/t_i)`` units of weight
        per time unit, while the fastest sequential processor completes
        ``1/min(t_i)``; the ratio is ``min(t_i) * sum(1/t_i)``.  For the
        paper platform: ``6 * (5/6 + 3/10 + 2/15) = 7.6``.
        """
        return self.min_cycle_time() * self.aggregate_speed()

    def perfect_balance_count(self) -> int:
        """Smallest number of equal-size tasks that balances perfectly.

        Section 5.2: ``B = lcm(t_1..t_p) * sum(1/t_i)`` when the cycle
        times are integers (38 for the paper platform).  Raises
        :class:`PlatformError` when cycle times are not integral, since
        the lcm construction is only meaningful for integers.
        """
        ints = []
        for t in self._cycle_times:
            if abs(t - round(t)) > 1e-12:
                raise PlatformError("perfect_balance_count needs integer cycle times")
            ints.append(round(t))
        lcm = _lcm_of(ints)
        total = sum(lcm // t for t in ints)
        return int(total)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(cls, count: int, cycle_time: float = 1.0, link: float = 1.0) -> "Platform":
        """``count`` identical processors on a fully homogeneous network."""
        if count < 1:
            raise PlatformError(f"count must be >= 1, got {count}")
        return cls([cycle_time] * count, link)

    @classmethod
    def from_groups(
        cls, groups: Sequence[tuple[int, float]], link: float | Sequence[Sequence[float]] = 1.0
    ) -> "Platform":
        """Build from ``(count, cycle_time)`` groups.

        ``Platform.from_groups([(5, 6), (3, 10), (2, 15)])`` is the paper
        platform: five cycle-time-6, three cycle-time-10, two cycle-time-15
        processors.
        """
        cts: list[float] = []
        for count, ct in groups:
            if count < 0:
                raise PlatformError(f"group count must be >= 0, got {count}")
            cts.extend([ct] * count)
        return cls(cts, link)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Platform(p={self._p}, cycle_times={self._cycle_times})"
