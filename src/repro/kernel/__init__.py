"""``repro.kernel`` — the flat, integer-interned evaluation core.

Why this package exists
-----------------------
Every layer that re-times one-port schedules — :func:`repro.simulate.replay`,
the :class:`repro.search.IncrementalEvaluator` behind iterated local
search, and the list heuristics' candidate trials — used to walk Python
dict-of-object constraint graphs keyed by arbitrary hashable task ids.
Hashing id tuples dominated those profiles and capped testbed size.
The kernel compiles a ``(graph, platform, decisions)`` triple into flat,
integer-indexed arrays once and lets every layer share that compilation.

Layout
------
* **Interning** (:class:`KernelStatics`): task ids map to ``0 .. n-1``
  in graph insertion order, graph edges to ``0 .. E-1`` in
  :meth:`TaskGraph.edges` order — by source task, then by edge
  insertion within each source.  Adjacency is CSR —
  ``pred_ptr[v] : pred_ptr[v+1]`` slices ``pred_eix``, an array of
  *edge indices*, so one hop reaches both the neighbor (``esrc[e]``)
  and the edge volume (``edata[e]``).
  Cost tables are contiguous: the ``n x p`` execution-time table
  ``exec_`` and the ``p x p`` plain-list link matrix ``link_rows``.
  Statics are cached per (graph, platform) on the graph itself and
  invalidated when the graph mutates.
* **Flat construction state** (:class:`FlatBuilder`): the mutable
  counterpart of the statics for *building* schedules — per-resource
  committed interval rows (compute rows then the model's port rows),
  generation-stamped tentative layers so a candidate trial is O(1) to
  reject, and an undo journal for O(changed) scratch runs.  The
  heuristics' ``SchedulerState`` and the models' flat bookers live on
  top of it.
* **Timed constraint DAG** (:class:`TimedKernel`): node ``i < n`` is
  task ``i``; node ``n + e`` is the transfer slot of edge ``e``, active
  only while the edge is remote.  Two forms share these indices.  The
  *one-shot* form (``from_decisions``: replay decisions, or
  ``from_schedule``: a schedule's records) stores
  durations, in-degrees and one next pointer per resource order, and
  ``propagate_kahn`` runs one Kahn-order forward pass — the pass of
  replay and the online engine.  The *point* form (``from_point``: a
  search point) stores only the allocation and the global sequence as
  int lists; the point's processor and port orders are that sequence
  restricted to each resource, so ``propagate_order`` times it in one
  sweep over the sequence, ``patch`` sweeps an edited copy for its
  makespan alone, and ``apply`` folds an edit in.
* **Backends** (:mod:`repro.kernel.backends`): two tiers with
  bit-identical results — ``python``, the reference above, and
  ``cext``, the compiled engine of :mod:`repro.kernel.cext_backend`
  (construction, the one-shot pass, the point sweep and replay's
  output records), which falls back to ``python`` when the extension
  is not built.

Who routes through the kernel
-----------------------------
* :func:`repro.simulate.replay.replay` — every direct-transfer decision
  set (the one-port hot path) compiles and propagates here; only
  multi-hop routed schedules take the retained object-level path.
* :class:`repro.search.IncrementalEvaluator` — load is ``from_point`` +
  ``propagate_order``; a preview is one ``patch`` sweep of the edited
  point and a commit one ``apply``, compiled under ``cext``.
* :class:`repro.heuristics.base.SchedulerState` — the HEFT/ILHA
  EFT engine runs entirely on :class:`FlatBuilder` rows for every
  registered communication model: candidate trials, port bookings
  (routed multi-hop chains included), compute slots, placements and
  finish times are all flat arrays over the statics' interned ids,
  and the schedule is built once from the commit logs.

The kernel computes bit-identical times to the object-level replay:
same ``max`` over the same operands, same single addition per node —
the cross-check suite in ``tests/kernel`` asserts exact agreement.
"""

from . import cext_backend as _cext_backend  # noqa: F401  (registers "cext")
from .backends import (
    available_backends,
    current_backend,
    current_backend_name,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .builder import FlatBuilder
from .statics import KernelStatics, compile_statics
from .timed import KernelIneligible, TimedKernel

__all__ = [
    "FlatBuilder",
    "KernelIneligible",
    "KernelStatics",
    "TimedKernel",
    "available_backends",
    "compile_statics",
    "current_backend",
    "current_backend_name",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
