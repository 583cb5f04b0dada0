"""Exception hierarchy shared by all ebltl modules."""
from __future__ import annotations


class EbltlError(Exception):
    """Base class for all errors raised by this package."""


class SourceError(EbltlError):
    """An error in a machine or formula source.

    Carries a 1-based line and column when the lexer, parser or checker
    knows them; `detail` is the message without that position.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.detail = message
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ParseError(SourceError):
    """Raised on malformed machine or formula sources."""


class TypecheckError(SourceError):
    """Raised when a parsed machine violates a static well-formedness rule."""


class EvalError(EbltlError):
    """Raised when expression evaluation goes wrong (indicates a typecheck gap)."""


class InvariantViolation(EbltlError):
    """A reachable state breaks the machine invariant or a declared domain."""

    def __init__(self, message: str, state: dict | None = None, path: list | None = None):
        self.state = state
        self.path = path or []
        super().__init__(message)


class ExplorationLimitError(EbltlError):
    """State or product exploration exceeded its configured bound."""


class RenamingError(EbltlError):
    """A renaming map is used outside its domain or is structurally invalid."""


class ChainError(EbltlError):
    """A refinement chain manifest is inconsistent or incomplete."""


class EnumerationBudgetError(EbltlError):
    """The brute-force oracle ran out of budget; its verdict is withheld."""


class ToolkitBug(EbltlError):
    """Internal cross-checks disagreed.  Never swallowed, always surfaced."""
