"""Communication-model interface shared by all scheduling heuristics.

A :class:`CommunicationModel` encapsulates *how communications consume
resources*: the macro-dataflow model consumes none (any number of
messages flow simultaneously), the one-port model serializes messages on
per-processor send/receive ports, and the routed model additionally
forwards messages hop by hop over a sparse topology.

Heuristics never manipulate ports directly.  Every model provides
:meth:`CommunicationModel.flat_booker`: a booker bound to resource rows
of a :class:`~repro.kernel.builder.FlatBuilder`.  ``trial_est`` books a
candidate's incoming messages tentatively (generation-stamped, O(1) to
reject) and ``commit_est`` re-derives and commits them; both take the
task's parents as interned ``(parent_finish, parent_ix, edge_ix,
parent_proc)`` rows.  :class:`~repro.heuristics.base.SchedulerState`
routes every registered heuristic through this protocol.

This is the paper's Section 4.3: "since we have access to current
communication schedules for all processors, we can assign the new
communications as early as possible, in a greedy fashion" — the
tentative layer is how a candidate's communications are placed without
disturbing the committed schedules of the other candidates.

The registry
------------
Models register under their spec name with :func:`register_model`;
:func:`make_model` is the single resolution path shared by the
heuristics, the CLI, the campaign engine, and the online policies.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ..core.exceptions import ConfigurationError, PlatformError
from ..core.platform import Platform

_INF = float("inf")


class FlatBooker(ABC):
    """Flat-path message booking for one model over builder rows.

    ``parents`` rows are ``(parent_finish, parent_ix, edge_ix,
    parent_proc)`` tuples sorted by ``(parent_finish, parent_ix)`` —
    the greedy first-finished-first message order of the EFT engine.
    Local parents (``parent_proc == proc``) contribute their finish
    time directly and book nothing.
    """

    __slots__ = ()

    @abstractmethod
    def trial_est(self, parents, proc: int, cutoff: float = _INF, duration: float = 0.0) -> float:
        """Earliest data-ready time of a candidate on ``proc``.

        Books every remote parent's message *tentatively* into the
        builder's current trial generation; the caller starts the trial
        (``builder.begin_trial()``) and discards it for free.

        ``cutoff``/``duration`` enable exact early abort: the running
        ``est`` only grows, so once ``est + duration > cutoff`` the
        candidate's finish provably exceeds ``cutoff`` (float addition
        is monotone) and the booker may return the partial ``est``.
        Callers must re-test the same inequality before using the
        result as a real candidate.  Implementations may ignore the
        hint — it only skips work, never changes a kept candidate.
        """

    @abstractmethod
    def commit_est(self, parents, proc: int, out: list) -> float:
        """Commit the same greedy bookings against the committed rows.

        Appends one ``(edge_ix, from_proc, to_proc, start, duration,
        hop)`` record per booked transfer to ``out`` (in booking order;
        a routed message contributes one record per hop) for the caller
        to turn into schedule events.  Valid only when the committed
        rows are unchanged since the candidate was evaluated — the
        invariant every list heuristic satisfies.
        """

    @abstractmethod
    def rebind(self, builder) -> "FlatBooker":
        """The same booker (same row indices) over a copied builder."""


class _JointRowsFlatBooker(FlatBooker):
    """Greedy bookings along a chain of joint-window hops.

    Subclasses define :meth:`_hops` — the ``(from, to, rows)`` hops a
    transfer ``q -> r`` takes: one hop for a direct transfer, one per
    route link for a relayed one.  Each hop books, on every one of its
    rows, the earliest window free on all of them at once that starts
    at or after the previous hop's arrival (the source finish for the
    first hop) — the one-port greedy rule, applied hop by hop.
    """

    __slots__ = ("builder", "edata", "links", "check_links")

    def __init__(self, builder, statics) -> None:
        self.builder = builder
        self.edata = statics.edata
        self.links = statics.link_rows
        self.check_links = not statics.all_links_finite

    def rebind(self, builder):
        # explicit field-by-field copy (subclasses append their row
        # bases via _rebind_extra): any future mutable builder-derived
        # state must be reset here, not silently shared
        dup = object.__new__(type(self))
        dup.builder = builder
        dup.edata = self.edata
        dup.links = self.links
        dup.check_links = self.check_links
        self._rebind_extra(dup)
        return dup

    def _rebind_extra(self, dup) -> None:
        raise NotImplementedError

    def _hops(self, q: int, r: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        raise NotImplementedError

    def _cost(self, q: int, r: int) -> float:
        cost = self.links[q][r]
        if self.check_links and not math.isfinite(cost):
            raise PlatformError(f"no direct link from P{q} to P{r}")
        return cost

    def trial_est(self, parents, proc: int, cutoff: float = _INF, duration: float = 0.0) -> float:
        b = self.builder
        edata = self.edata
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            t = pfinish
            if pproc != proc:
                for a, c, rows in self._hops(pproc, proc):
                    dur = edata[e] * self._cost(a, c)
                    if dur != 0.0:
                        start = b.joint_next_fit(rows, t, dur)
                        t = start + dur
                        for r in rows:
                            b.book_tentative(r, start, t)
            if t > est:
                est = t
        return est

    def commit_est(self, parents, proc: int, out: list) -> float:
        b = self.builder
        edata = self.edata
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            t = pfinish
            if pproc != proc:
                for hop, (a, c, rows) in enumerate(self._hops(pproc, proc)):
                    dur = edata[e] * self._cost(a, c)
                    start = t
                    if dur != 0.0:
                        start = b.joint_next_fit(rows, t, dur)
                        t = start + dur
                        for r in rows:
                            b.book(r, start, t)
                    out.append((e, a, c, start, dur, hop))
            if t > est:
                est = t
        return est


class CommunicationModel(ABC):
    """Factory for per-run flat bookers; carries the model name."""

    #: Model identifier, matching :mod:`repro.core.validation` constants.
    name: str = ""
    #: Registry spec name (set by :func:`register_model`).
    registry_name: str = ""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    @abstractmethod
    def flat_booker(self, builder, statics) -> FlatBooker:
        """A :class:`FlatBooker` allocating its rows on ``builder``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(p={self.platform.num_processors})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[CommunicationModel]] = {}


def register_model(name: str):
    """Class decorator adding a model to the registry under ``name``."""

    def decorate(cls: type[CommunicationModel]) -> type[CommunicationModel]:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate model name {name!r}")
        cls.registry_name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def available_models() -> list[str]:
    """Registered model spec names."""
    return sorted(_REGISTRY)


def make_model(platform: Platform, model: str | CommunicationModel) -> CommunicationModel:
    """Resolve a registered model name (or pass an instance through).

    The single resolution path shared by heuristics, the CLI, the
    campaign engine, and the online policies.
    """
    if isinstance(model, CommunicationModel):
        return model
    try:
        cls = _REGISTRY[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown communication model {model!r}; "
            f"available: {available_models()}"
        ) from None
    return cls(platform)
