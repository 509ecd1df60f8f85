"""Scheduling heuristics for the macro-dataflow and one-port models.

Importing this package registers every scheduler with the registry, so
``get_scheduler("ilha", b=20)`` works after ``import repro.heuristics``.
"""

from .base import (
    Candidate,
    ReadyQueue,
    Scheduler,
    SchedulerState,
    available_schedulers,
    get_scheduler,
    make_model,
    register_scheduler,
)
from .bil import BIL, best_imaginary_levels
from .cpop import CPOP
from .fixed import FixedAllocation
from .gdl import GDL
from .heft import HEFT
from .ilha import ILHA, ILHAClassic, TunedILHA, default_chunk_size
from .minmin import MaxMin, MinMin
from .pct import PCT
from .simple import RandomMapper, Serial

# imported last: repro.search builds on heuristics.base and registers the
# ``ils`` improvement wrapper as a scheduler
from ..search.ils import IteratedLocalSearch

__all__ = [
    "BIL",
    "CPOP",
    "Candidate",
    "FixedAllocation",
    "GDL",
    "HEFT",
    "ILHA",
    "ILHAClassic",
    "IteratedLocalSearch",
    "MaxMin",
    "MinMin",
    "PCT",
    "RandomMapper",
    "ReadyQueue",
    "Scheduler",
    "SchedulerState",
    "Serial",
    "TunedILHA",
    "available_schedulers",
    "best_imaginary_levels",
    "default_chunk_size",
    "get_scheduler",
    "make_model",
    "register_scheduler",
]
