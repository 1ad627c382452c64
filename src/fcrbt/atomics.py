"""Lock-free atomic counter.

CPython's GIL already makes single attribute loads and stores atomic; this
class exists for read-modify-write sequences (+=), which are not. The count
is the length of a deque holding one token per unit: ``deque.extend`` and
``deque.pop`` are single C calls that the GIL does not interleave, so an add
needs no lock. The value never goes below zero: taking away more units than
are there raises IndexError.
"""

from __future__ import annotations

from collections import deque


class AtomicInt:
    __slots__ = ("_tokens",)

    def __init__(self, value: int = 0):
        if value < 0:
            raise ValueError("an AtomicInt counts from zero up")
        self._tokens = deque((None,) * value)

    def load(self) -> int:
        return len(self._tokens)  # single read, GIL-atomic

    def add(self, delta: int = 1) -> int:
        """Add ``delta`` and return the count read right after. Each unit
        moves atomically, so concurrent adds never lose one; the value read
        back may already include other threads' adds made since."""
        tokens = self._tokens
        if delta > 0:
            tokens.extend((None,) * delta)
        else:
            for _ in range(-delta):
                tokens.pop()
        return len(tokens)
