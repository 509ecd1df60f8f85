"""In-memory span recorder for the benchmark's traced run.

The traced run wraps public functions and methods of the ``repro``
layers (see :mod:`layers`) from the outside: each wrapped call records
one span ``(name, start, end, parent)`` into a flat list, with the
parent taken from a call stack, so nesting is exact.  Nothing under
``src/`` changes; :meth:`SpanRecorder.uninstall` puts every original
back.

Self time of a span is its duration minus the durations of its direct
children, so a layer called from inside another (``core.schedule``
inside ``heuristics.commit``) is charged once.  The self times of all
spans add up to the summed duration of the root spans; the rest of the
traced wall time is the *residual* — time spent in no layer at all.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: Chrome-trace process id of the benchmark's spans.  ``repro trace``
#: uses pids 1-5, so a perfbench trace never collides with them.
TRACE_PID = 6

#: One Chrome-trace track (tid) per workload, stable across runs so
#: traces of different workloads line up when viewed together.
WORKLOAD_TIDS = {"construct": 1, "improve": 2, "online": 3, "campaign": 4}


class SpanRecorder:
    """Records nested spans around wrapped callables (single thread)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[dict | type, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` as defined on ``cls`` itself (not inherited)."""
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        setattr(cls, attr, new)
        self._restore.append((cls, attr, raw))

    def patch_functions(self, targets: dict) -> None:
        """Wrap module-level functions everywhere they are referenced.

        ``targets`` maps function objects to span names.  Consumers bind
        functions by name (``from ..core.ranking import bottom_levels``),
        so every loaded module's namespace is scanned and each reference
        to a target — under any alias — is replaced by its wrapper.
        """
        wrapped = {id(fn): (fn, self.wrap(name, fn)) for fn, name in targets.items()}
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._restore.append((namespace, key, value))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def closed_spans(self) -> list[tuple]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        return list(self.spans)


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name (duration minus direct children)."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
    return totals


def residual(spans: list[tuple], wall: float) -> float:
    """Wall time covered by no span (wall minus the root spans)."""
    return wall - sum(end - start for _n, start, end, parent in spans if parent < 0)


def call_counts(spans: list[tuple]) -> dict[str, int]:
    """Calls per span name, not counting a span nested in one of its own
    name (an override calling ``super()`` is one call, not two)."""
    counts: dict[str, int] = {}
    for name, _s, _e, parent in spans:
        if parent < 0 or spans[parent][0] != name:
            counts[name] = counts.get(name, 0) + 1
    return counts


def durations(spans: list[tuple], name: str) -> list[float]:
    """Inclusive durations of the outermost spans called ``name``."""
    return [
        end - start
        for n, start, end, parent in spans
        if n == name and (parent < 0 or spans[parent][0] != name)
    ]


def chrome_trace(spans: list[tuple], workload: str, origin: float,
                 metadata: dict | None = None) -> dict:
    """Chrome trace-event JSON (opens in Perfetto): one track per workload.

    Span times are wall-clock microseconds since ``origin``; nested
    spans stack on the workload's track.
    """
    tid = WORKLOAD_TIDS.get(workload, 0)
    events = [
        {"ph": "M", "pid": TRACE_PID, "name": "process_name",
         "args": {"name": "perfbench (wall clock)"}},
        {"ph": "M", "pid": TRACE_PID, "tid": tid, "name": "thread_name",
         "args": {"name": workload}},
    ]
    for name, start, end, _parent in spans:
        events.append({
            "ph": "X", "pid": TRACE_PID, "tid": tid, "name": name,
            "cat": name.rsplit(".", 1)[0],
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": metadata or {}}
