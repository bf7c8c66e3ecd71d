"""Shared exception types."""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive routine exceeds its node budget; `where`
    says how far it got (for the Lipschitz DP: the layer and its width)."""

    def __init__(self, nodes: int, budget: int, what: str = "search", where: str | None = None):
        self.nodes = nodes
        self.budget = budget
        suffix = f" at {where}" if where else ""
        super().__init__(f"{what} exceeded node budget ({nodes} > {budget}){suffix}")


class GenerationError(RuntimeError):
    """Raised when a graph generator cannot produce a valid graph."""

    def __init__(self, message: str, attempts: int = 0):
        self.attempts = attempts
        super().__init__(message)


class ConfigError(ValueError):
    """Raised on invalid experiment configuration."""
