"""Exception hierarchy shared across the package, and the solve's limits."""

import time
from typing import Optional

# the CLI's memory limit, and the size the largest Hanan grid is held to
DEFAULT_MEM_LIMIT = 4 << 30


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


class Limits:
    """One solve's time and memory limits; the only raiser of TimeLimit and
    MemoryLimit.

    ``time_limit`` (seconds) starts counting at construction; ``mem_limit``
    (bytes) is compared with the estimate a phase makes of what it is about
    to hold.  None means no limit; NaN, zero and negative values are refused.
    """

    __slots__ = ("deadline", "mem_limit")

    def __init__(self, time_limit: Optional[float] = None,
                 mem_limit: Optional[int] = None):
        # written so that NaN fails too: a NaN limit is never exceeded
        if time_limit is not None and not time_limit > 0:
            raise ValueError(f"time limit {time_limit} is not positive")
        if mem_limit is not None and not mem_limit > 0:
            raise ValueError(f"memory limit {mem_limit} is not positive")
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit
        self.mem_limit = mem_limit

    def check_time(self, where: str) -> None:
        """Raise TimeLimit once the deadline has passed; ``where`` names the phase."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise TimeLimit(f"time limit exceeded {where}")

    def check_memory(self, est: int, what: str) -> None:
        """Raise MemoryLimit if ``est`` bytes of ``what`` exceed the limit."""
        if self.mem_limit is not None and est > self.mem_limit:
            raise MemoryLimit(
                f"estimated {what} memory {est} exceeds limit {self.mem_limit}")


NO_LIMITS = Limits()


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
