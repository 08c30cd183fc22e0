"""Exception types shared across the engine."""

from __future__ import annotations


class CgtError(Exception):
    """Base class for engine errors."""


class ForeignHandleError(CgtError):
    """A handle was used with a store it does not belong to."""


class ParseError(CgtError):
    """Malformed game expression or board text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"syntax error at offset {position}: {message}"
        super().__init__(message)
        self.position = position


class DomainError(CgtError):
    """Argument outside an operation's domain (e.g. cooling below -1)."""


class NotHotError(DomainError):
    """Operation requires a hot game (left stop > right stop)."""


class WrongShapeError(DomainError):
    """Operation requires a game with exactly one option per side."""


class EmptyClassError(CgtError):
    """A class scan was handed an empty position stream."""


class CeilingExceededError(CgtError):
    """Graph enumeration was asked for more vertices than its cap."""


class NodeBudgetError(CgtError):
    """The store grew past its configured node budget."""


class TimeBudgetError(CgtError):
    """A computation ran past its wall-clock budget."""
