"""The compiled kernel backend (``cext``): registration and fallback.

``cext`` is the fast one of the kernel's two tiers; ``python`` is the
reference it must match and the fallback when it is not built.

:mod:`repro.kernel._cext` is a hand-written CPython extension holding
the hot sequential booking loop — the FlatBuilder primitives, the flat
bookers of the four flat models, the all-processor candidate sweep and
whole sweep-and-commit lists, with the logs a schedule is built from —
as one C engine over typed arrays, plus both timed-kernel passes:
the one-shot forward pass (``OneShot``: the packed constraint DAG of
one ``TimedKernel``, behind replay, plan install and online
re-prediction) and the point sweep (``Statics.point_pass``, behind
every load, preview and commit of the search evaluator); and
``records``, which builds replay's output tuples.
See ``_cextmodule.c``; its header states the bit-identity contract with
the pure-Python reference.

This module is the *optional* half of the bargain: the extension is
compiled opportunistically (``python setup.py build_ext --inplace``, or
transparently by ``pip install`` when a compiler is present) and the
package must work identically without it.  Importing this module never
fails — a missing or broken extension leaves :func:`cext_available`
False, the registered backend falls back to the pure-Python state class,
Kahn loop and point sweep with a single ``repro.kernel`` log warning, and the
engine that actually ran is recorded in ``Schedule.state_impl`` (and
surfaced by ``python -m repro info --json`` under ``"backends"``).
"""

from __future__ import annotations

from ..core.exceptions import PlatformError, SchedulingError, TimelineError
from ..obs import get_logger as _get_logger
from .backends import KernelBackend, register_backend

try:  # pragma: no cover - exercised via the no-compiler simulation test
    from . import _cext
except ImportError as exc:  # extension not built on this interpreter
    _cext = None
    _IMPORT_ERROR: str | None = str(exc)
else:
    _IMPORT_ERROR = None
    # Booking and propagation raise the package's own exception types from C.
    _cext._set_exceptions(SchedulingError, TimelineError, PlatformError)

#: One fallback warning per process; tests reset it directly.
_WARNED = False

_LOG = _get_logger("kernel")


def cext_available() -> bool:
    """True when the compiled engine imported on this interpreter."""
    return _cext is not None


def cext_import_error() -> str | None:
    """The import failure message when unavailable (else ``None``)."""
    return None if _cext is not None else _IMPORT_ERROR


def cext_build_info() -> dict | None:
    """Build provenance baked into the extension (``None`` if absent)."""
    return _cext.build_info() if _cext is not None else None


def _warn_fallback() -> None:
    global _WARNED
    if _WARNED:
        return
    _WARNED = True
    _LOG.warning(
        "kernel backend 'cext' selected but the compiled extension is not "
        "available (%s): scheduling and propagation fall back to pure Python. "
        "Build it with 'python setup.py build_ext --inplace'. The active "
        "implementation is recorded in Schedule.state_impl.",
        _IMPORT_ERROR,
    )


def engine_statics(kernel):
    """The kernel's statics flattened into the C engine's layout.

    Cached on the :class:`~repro.kernel.statics.KernelStatics` itself
    (slot ``_cext``), so every state built over the same (graph,
    platform) pair shares one flattened copy — same lifetime as the
    statics cache.
    """
    st = kernel._cext
    if st is None:
        exec_flat = [c for row in kernel.exec_ for c in row]
        links_flat = [c for row in kernel.link_rows for c in row]
        st = _cext.Statics(
            kernel.num_tasks,
            kernel.num_edges,
            kernel.num_procs,
            exec_flat,
            kernel.edata,
            kernel.esrc,
            kernel.pred_ptr,
            kernel.pred_eix,
            links_flat,
            bool(kernel.all_links_finite),
        )
        kernel._cext = st
    return st


@register_backend("cext")
class CextBackend(KernelBackend):
    """Compiled booking loop, one-shot propagation and point sweep;
    schedules and times bit-identical to the python reference."""

    def state_class(self, model):
        """The compiled state for models with a C booker, else ``None``
        (the pure-Python state runs them and records ``flat-python``)."""
        if _cext is None:
            _warn_fallback()
            return None
        from ..heuristics.state_cext import CextSchedulerState, _model_code

        return CextSchedulerState if _model_code(model) is not None else None

    def one_shot_pass(self, tk):
        """``tk``'s one-shot constraint DAG packed for the compiled pass.

        The successor CSR over every node, in-degrees and ready entries
        of a one-shot kernel (``from_decisions`` or ``from_schedule``);
        ``run(dur, out_start, out_finish)`` is then
        :meth:`~repro.kernel.timed.TimedKernel._kahn_loop` in C.
        """
        if _cext is None:
            _warn_fallback()
            return None
        if tk.next_proc is None:
            raise SchedulingError("propagate_kahn requires the one-shot form (from_decisions)")
        st = tk.statics
        return _cext.OneShot(
            st.num_tasks,
            st.num_edges,
            st.succ_ptr,
            st.succ_eix,
            st.edst,
            tk.active,
            tk.next_proc,
            tk.next_send,
            tk.next_recv,
            tk.indeg,
            st.base_entries,
        )

    def point_pass(self, statics):
        """``statics``' compiled point sweep: ``Statics.point_pass``.

        Same arguments, validation and results as
        :meth:`~repro.kernel.timed.TimedKernel._point_loop`.
        """
        if _cext is None:
            _warn_fallback()
            return None
        return engine_statics(statics).point_pass

    def records(self, cls, rows) -> list:
        """``_cext.records``: the same records, built in C, and left
        untracked by the cyclic collector when every field is atomic."""
        if _cext is None:
            _warn_fallback()
            return super().records(cls, rows)
        return _cext.records(cls, rows)
