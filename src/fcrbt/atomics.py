"""Lock-backed atomic counter.

CPython's GIL already makes single attribute loads and stores atomic; this
class exists for read-modify-write sequences (+=), which are not.
"""

from __future__ import annotations

import threading


class AtomicInt:
    __slots__ = ("_lock", "_value")

    def __init__(self, value: int = 0):
        self._lock = threading.Lock()
        self._value = value

    def load(self) -> int:
        return self._value  # single read, GIL-atomic

    def add(self, delta: int = 1) -> int:
        with self._lock:
            self._value += delta
            return self._value
