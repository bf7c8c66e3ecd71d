"""Exact and Monte-Carlo study of integer Lipschitz functions on finite graphs."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, ConfigError, GenerationError
from .graphs import Graph, generate

__all__ = [
    "BudgetExceededError",
    "ConfigError",
    "GenerationError",
    "Graph",
    "generate",
    "__version__",
]
