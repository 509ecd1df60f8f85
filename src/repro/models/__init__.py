"""Communication models: macro-dataflow, one-port, variants, routed.

Importing this package registers every model with the registry, so
``make_model(platform, "uni-port")`` works after ``import repro.models``.
"""

from .base import (
    CommunicationModel,
    FlatBooker,
    available_models,
    make_model,
    register_model,
)
from .macro_dataflow import MacroDataflowModel
from .one_port import OnePortModel
from .routing import RoutedOnePortModel, build_routing_table
from .variants import (
    NoOverlapOnePortModel,
    UniPortModel,
    validate_no_overlap,
    validate_uni_port,
)

__all__ = [
    "CommunicationModel",
    "FlatBooker",
    "MacroDataflowModel",
    "NoOverlapOnePortModel",
    "OnePortModel",
    "RoutedOnePortModel",
    "UniPortModel",
    "available_models",
    "build_routing_table",
    "make_model",
    "register_model",
    "validate_no_overlap",
    "validate_uni_port",
]
