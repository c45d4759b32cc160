"""Exception types shared across the package."""


class LeechLabError(Exception):
    """Base class for every error this package raises deliberately."""


class SelfLoopError(LeechLabError, ValueError):
    pass


class DuplicateEdgeError(LeechLabError, ValueError):
    pass


class VertexOutOfRangeError(LeechLabError, ValueError):
    pass


class TooSmallError(LeechLabError, ValueError):
    pass


class FormulaDomainError(LeechLabError, ValueError):
    pass


class LabelCountMismatchError(LeechLabError, ValueError):
    pass


class NonPositiveLabelError(LeechLabError, ValueError):
    pass


class EmptyGraphError(LeechLabError, ValueError):
    pass


class ConfigInvalidError(LeechLabError, ValueError):
    pass


class UnknownPresetError(LeechLabError, KeyError):
    pass


class CatalogMissingError(LeechLabError, RuntimeError):
    pass


class ParseError(LeechLabError, ValueError):
    """Input file could not be parsed; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
