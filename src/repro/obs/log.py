"""``repro``-namespaced logging with the ``REPRO_LOG`` env knob.

All library diagnostics (kernel backend fallback warnings, perf notes)
flow through loggers under the ``"repro"`` root so embedding services
can capture, filter, or silence them with the standard :mod:`logging`
machinery instead of :mod:`warnings` filters.

By default the ``repro`` logger carries a :class:`logging.NullHandler`
and propagates, so applications that configure the root logger see the
records and bare CLI runs stay quiet below ``WARNING``.  Setting the
``REPRO_LOG`` environment variable to a level name (``DEBUG``,
``INFO``, ``WARNING``, ``ERROR``) or number attaches a stderr handler
at that level::

    REPRO_LOG=INFO repro schedule --testbed lu --size 20
"""

from __future__ import annotations

import logging
import os

#: Environment variable selecting the stderr log level.
ENV_VAR = "REPRO_LOG"

_ROOT = logging.getLogger("repro")
_ROOT.addHandler(logging.NullHandler())

_configured = False


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace (e.g. ``repro.heuristics``)."""
    return _ROOT.getChild(name) if name else _ROOT


def configure_logging(level: str | int | None = None) -> logging.Logger:
    """Attach a stderr handler per ``REPRO_LOG`` (or an explicit level).

    Idempotent: the handler is installed at most once per process; a
    later call with a different level re-levels the existing handler.
    With neither argument nor env var set this is a no-op and the
    namespace keeps its quiet ``NullHandler`` default.
    """
    global _configured
    if level is None:
        level = os.environ.get(ENV_VAR)
    if level is None or level == "":
        return _ROOT
    if isinstance(level, str):
        try:
            level = int(level)
        except ValueError:
            resolved = logging.getLevelName(level.upper())
            if not isinstance(resolved, int):
                raise ValueError(
                    f"{ENV_VAR}={level!r} is not a logging level name"
                ) from None
            level = resolved
    handler = next(
        (h for h in _ROOT.handlers if getattr(h, "_repro_stderr", False)), None
    )
    if handler is None:
        handler = logging.StreamHandler()
        handler._repro_stderr = True
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        _ROOT.addHandler(handler)
    handler.setLevel(level)
    _ROOT.setLevel(min(level, _ROOT.level or level))
    _configured = True
    return _ROOT
