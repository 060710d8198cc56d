"""Shared error types.

Everything derives from ValueError or RuntimeError so callers who do not care
about the fine distinctions can catch broadly.
"""


class GraphParseError(ValueError):
    """Malformed graph input (edge list or graph6). Carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (trace mismatch, impossible radicand,
    ordering violation between paired bounds). Indicates a bug or bad input,
    not a user error."""


class TheoremViolationError(ConsistencyError):
    """A proven statement failed numerically far beyond tolerance. If this is
    ever raised on a valid connected graph, something is deeply wrong."""
