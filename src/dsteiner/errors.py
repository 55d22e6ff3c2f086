"""Exception hierarchy shared across the package."""


class DsteinerError(Exception):
    """Base class for all package errors."""


# --- instance file parsing ---

class StpError(DsteinerError):
    pass


class StpSyntaxError(StpError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CountMismatch(StpError):
    pass


class NonIntegralCost(StpError):
    pass


class TooManyTerminals(StpError):
    pass


# --- solution validation ---

class InvalidTree(DsteinerError):
    pass


class NotConnected(InvalidTree):
    pass


class ContainsCycle(InvalidTree):
    pass


class MissingTerminal(InvalidTree):
    pass


# --- solving ---

class Infeasible(DsteinerError):
    pass


class TimeLimit(DsteinerError):
    pass


class MemoryLimit(DsteinerError):
    pass


class TooManyTerminalsForOracle(DsteinerError):
    pass


class TspTableTooLarge(DsteinerError):
    pass


class GridTooLarge(DsteinerError):
    pass


class CenterRuleNeedsCoordinates(DsteinerError):
    pass


class InternalError(DsteinerError):
    """A solver invariant failed: a bug or an inconsistent bound, never bad input."""
