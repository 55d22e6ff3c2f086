"""Terminal sets as plain int bitmasks, plus the subset-walking tricks.

Terminals of an instance are numbered 0..k-1 in file order; a terminal set
is the int with those bits set.  Label sets never contain the root's bit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_subsets_of_size_at_most(mask: int, limit: int) -> Iterator[int]:
    """Yield subsets of ``mask`` (including 0) with at most ``limit`` bits,
    by increasing size."""
    singles = [1 << b for b in iter_bits(mask)]
    for size in range(min(limit, len(singles)) + 1):
        for combo in combinations(singles, size):
            yield sum(combo)
