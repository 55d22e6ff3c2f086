"""Terminal sets as plain int bitmasks, plus the subset-walking tricks.

Terminals of an instance are numbered 0..k-1 in file order; a terminal set
is the int with those bits set.  Label sets never contain the root's bit.
Masks fit in 63 bits (instances are capped below 64 terminals).
"""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_subsets_of_size_at_most(mask: int, limit: int) -> Iterator[int]:
    """Yield subsets of ``mask`` (including 0) with at most ``limit`` bits."""
    bits = list(iter_bits(mask))

    def rec(prefix: int, start: int, left: int) -> Iterator[int]:
        yield prefix
        if left == 0:
            return
        for i in range(start, len(bits)):
            yield from rec(prefix | (1 << bits[i]), i + 1, left - 1)

    yield from rec(0, 0, limit)
