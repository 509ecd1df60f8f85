"""Host-speed reference: steady timings on a shared, drifting host.

A small VM on a shared machine changes speed by 20-50% within seconds,
and the change hits the benchmark's own code as much as anything else,
so a run that happens to land in a slow minute reads slow everywhere.
:class:`Pace` measures that speed *beside* the workload: between ops it
runs a fixed reference pass (an interpreter loop of scattered reads
from a table larger than the CPU caches, each pass going on where the
last one stopped, so a pass waits on memory whatever ran before it) and
keeps when each pass ran and how long it took.  The table is a
``bytes`` object and reading it writes nothing, so the pages a forked
worker shares with the parent never fault under the reference.  Of the
references tried (a pure interpreter loop, a C sort, a cache-resident
read loop and memory-bound read loops), the memory-bound ones tracked
the drift of ``Scheduler.run``, ``replay`` and small-graph runs best or
near best: over 10-second windows of a 150-second mixed loop on a
2-vCPU VM, the spread of their medians fell from 0.32-0.43 of the
median to 0.02-0.07.  In the benchmark itself, on the same VM, scaling
cut the ten-seed spread of construct's ``op_ms.p50`` from 0.17 to 0.05.

:meth:`Pace.seconds` then turns a measured span into seconds at the
reference speed: every stretch of the span between reference passes is
scaled by ``NOMINAL_S`` over the median duration of the passes nearest
to it, and the passes that ran inside the span are left out.  A change
to the program moves the span but not the reference, so it shows in
full; a slow host moves both, so it mostly cancels.

The raw (unscaled) values are kept next to the scaled ones in the
result file, so the scaling can always be checked.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

#: What one reference pass takes at the reference speed, s.  Scaled
#: times are "seconds on a host where the pass takes this long"; it is
#: about the pass's median on a quiet 2-vCPU x86-64 VM.  Under load the
#: passes there take 2.5-3.5 ms, so scaled figures read below raw ones.
NOMINAL_S = 0.002
#: Passes on each side of a stretch whose median sets its speed.
NEIGHBOURS = 2
#: Least time between two passes that ``tick`` starts on its own, s.
MIN_GAP_S = 0.05

#: 16 MiB, larger than the caches; a power of two for the index walk.
_SIZE = 1 << 24
_TABLE = random.Random(20260).randbytes(_SIZE)
_READS = 8_000
_index = 1


def reference_pass() -> int:
    """The fixed reference work: the next ``_READS`` scattered reads.

    The index walk is a full-period linear congruential sequence modulo
    ``_SIZE``, so every pass reads positions no recent pass read.
    """
    global _index
    table, mask, i, acc = _TABLE, _SIZE - 1, _index, 0
    for _ in range(_READS):
        i = (i * 1103515245 + 12345) & mask
        acc += table[i]
    _index = i
    return acc


class Pace:
    """Reference passes run beside a workload, and the scaling they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Run a reference pass unless one ended under ``MIN_GAP_S`` ago."""
        start = perf_counter()
        if not force and self.ends and start - self.ends[-1] < MIN_GAP_S:
            return
        reference_pass()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def calibrate(self, passes: int = 3) -> None:
        """Run ``passes`` reference passes back to back."""
        for _ in range(passes):
            self.tick(force=True)

    def _speed(self, k: int) -> float:
        """Median pass duration around the stretch just before pass ``k``
        (``NEIGHBOURS`` passes on each side)."""
        window = self.durations[max(k - NEIGHBOURS, 0):k + NEIGHBOURS]
        return statistics.median(window) if window else NOMINAL_S

    def seconds(self, t0: float, t1: float) -> float:
        """Span ``[t0, t1]`` in seconds at the reference speed.

        Reference passes that ran inside the span are not counted.
        """
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        total, cursor = 0.0, t0
        for k in range(first, last):
            total += (self.starts[k] - cursor) * NOMINAL_S / self._speed(k)
            cursor = self.ends[k]
        return total + (t1 - cursor) * NOMINAL_S / self._speed(last)

    def raw(self, t0: float, t1: float) -> float:
        """Span ``[t0, t1]`` in measured seconds, reference passes left out."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        return (t1 - t0) - sum(self.durations[first:last])
