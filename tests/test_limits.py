"""The solve's time and memory limits: validation, checks and messages."""

import time

import pytest

from dsteiner.errors import NO_LIMITS, Limits, MemoryLimit, TimeLimit


@pytest.mark.parametrize("bad", [float("nan"), 0, -1])
def test_nan_zero_and_negative_limits_are_refused(bad):
    with pytest.raises(ValueError, match=f"time limit {bad} is not positive"):
        Limits(time_limit=bad)
    with pytest.raises(ValueError, match=f"memory limit {bad} is not positive"):
        Limits(mem_limit=bad)


def test_check_time_raises_once_the_deadline_has_passed():
    Limits(time_limit=3600).check_time("in the label loop")
    limits = Limits(time_limit=1e-9)
    while time.perf_counter() <= limits.deadline:
        pass
    with pytest.raises(TimeLimit) as info:
        limits.check_time("while building the distance oracle")
    assert str(info.value) == "time limit exceeded while building the distance oracle"


def test_deadline_starts_at_construction():
    before = time.perf_counter()
    limits = Limits(time_limit=5.0)
    assert before + 5.0 <= limits.deadline <= time.perf_counter() + 5.0


def test_check_memory_raises_above_the_limit_not_at_it():
    limits = Limits(mem_limit=100)
    limits.check_memory(100, "label")
    with pytest.raises(MemoryLimit) as info:
        limits.check_memory(101, "label")
    assert str(info.value) == "estimated label memory 101 exceeds limit 100"


def test_no_limits_never_raises():
    assert NO_LIMITS.deadline is None and NO_LIMITS.mem_limit is None
    NO_LIMITS.check_time("in the label loop")
    NO_LIMITS.check_memory(1 << 80, "TSP table")
