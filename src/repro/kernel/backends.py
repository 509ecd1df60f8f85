"""Kernel backend registry: the pure-Python reference and the compiled engine.

The flat kernel's hot primitives have two interchangeable
implementations: the pure-Python reference (``python``:
:mod:`repro.kernel.builder`, ``SchedulerState``'s scalar sweeps,
``TimedKernel``'s Kahn loop and point sweep) and the compiled ``cext``
backend (:mod:`repro.kernel.cext_backend`: construction and both timed
kernel passes).  Both produce **bit-identical** schedules and
times; they differ only in constant factors.

Selection follows the models-registry pattern
(:func:`repro.models.base.register_model`):

* :func:`register_backend` adds a :class:`KernelBackend` under a name;
* :func:`available_backends` lists them;
* the active backend is, in order of precedence, the one set with
  :func:`set_backend` / :func:`use_backend`, the ``REPRO_BACKEND``
  environment variable, or the default ``"python"``.  An environment
  value naming no registered backend falls back to the default with
  one ``repro.kernel`` warning.

The environment variable is the cross-process channel: the CLI's
``--backend`` flag exports it so campaign worker processes inherit the
choice.
"""

from __future__ import annotations

import os

from ..core.exceptions import ConfigurationError
from ..obs import get_logger as _get_logger

#: Environment variable naming the default backend for this process
#: (and, because it is inherited, its campaign workers).
BACKEND_ENV = "REPRO_BACKEND"

_DEFAULT = "python"


class KernelBackend:
    """One implementation of the kernel's hot primitives.

    ``state_class(model)`` returns the ``SchedulerState`` subclass that
    runs ``model``; ``one_shot_pass(tk)`` the compiled form of a
    :class:`~repro.kernel.timed.TimedKernel`'s one-shot forward pass,
    which ``TimedKernel.propagate_kahn`` builds once per kernel; and
    ``point_pass(statics)`` a callable with the signature and results
    of ``TimedKernel._point_loop`` over those statics, which a
    point-form kernel resolves at its first sweep.  ``None`` from any
    of them means the pure-Python reference.  Classes are resolved
    lazily so registering a backend never imports the heuristics layer
    at module-load time.  ``records(cls, rows)`` builds the output
    records of replay and of the python tier's ``SchedulerState.schedule``.
    """

    name = ""

    def state_class(self, model):
        return None

    def one_shot_pass(self, tk):
        return None

    def point_pass(self, statics):
        return None

    def records(self, cls, rows) -> list:
        """``[tuple.__new__(cls, row) for row in rows]``: NamedTuple
        records without the keyword machinery of ``cls(...)``."""
        new = tuple.__new__
        return [new(cls, row) for row in rows]


_REGISTRY: dict[str, KernelBackend] = {}
_ACTIVE: str | None = None  # explicit override; None -> environment/default

#: Unregistered ``REPRO_BACKEND`` values already warned about.
_WARNED_ENV: set[str] = set()

_LOG = _get_logger("kernel")


def register_backend(name: str):
    """Class decorator adding a backend to the registry under ``name``."""

    def decorate(cls: type[KernelBackend]) -> type[KernelBackend]:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate backend name {name!r}")
        cls.name = name
        _REGISTRY[name] = cls()
        return cls

    return decorate


def available_backends() -> list[str]:
    """Registered backend names."""
    return sorted(_REGISTRY)


def current_backend_name() -> str:
    """The active backend's name (override, else environment, else default)."""
    if _ACTIVE is not None:
        return _ACTIVE
    name = os.environ.get(BACKEND_ENV, _DEFAULT)
    if name in _REGISTRY:
        return name
    if name not in _WARNED_ENV:
        _WARNED_ENV.add(name)
        _LOG.warning(
            "%s=%r names no registered kernel backend (available: %s); "
            "using %r.",
            BACKEND_ENV, name, available_backends(), _DEFAULT,
        )
    return _DEFAULT


def current_backend() -> KernelBackend:
    """The active :class:`KernelBackend` instance."""
    return _REGISTRY[current_backend_name()]


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def set_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide backend override."""
    global _ACTIVE
    if name is not None:
        get_backend(name)
    _ACTIVE = name


class use_backend:
    """Context manager pinning the active backend (tests, benchmarks)."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._prev: str | None = None

    def __enter__(self) -> None:
        global _ACTIVE
        get_backend(self._name)
        self._prev = _ACTIVE
        _ACTIVE = self._name

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev


@register_backend("python")
class PythonBackend(KernelBackend):
    """The pure-Python reference implementation (the default)."""
