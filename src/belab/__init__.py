"""belab: explicit Berry-Esseen bounds for nonlinear statistics.

Core workflow: describe a statistic T = W + Delta from the model catalog,
estimate or evaluate the coupling moments the bounds consume, form the
bounds with their explicit constants, and certify measured Kolmogorov
distances against them under seeded Monte Carlo.
"""
import importlib

from . import app_bounds, bound_core, marginals, mc_engine, models
from .errors import (
    BelabError,
    ConfigError,
    DegenerateModelError,
    DomainError,
    InvalidModelError,
    NumericError,
    UnsupportedModelError,
)
from .types import BoundComponents, BoundValue, KSResult, MomentEstimate

__version__ = "0.1.0"

__all__ = [
    "BelabError", "BoundComponents", "BoundValue",
    "ConfigError", "DegenerateModelError",
    "DomainError", "InvalidModelError", "KSResult", "MomentEstimate",
    "NumericError", "UnsupportedModelError",
    "__version__", "app_bounds", "bound_core", "cli", "marginals",
    "mc_engine", "models",
]


def __getattr__(name):
    # belab.cli loads on first use, so `python -m belab.cli` runs it as
    # __main__ without finding it imported already
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
