"""AtomicInt: concurrent adds lose no unit."""

import sys
import threading

import pytest

from fcrbt.atomics import AtomicInt

THREADS = 4
PAIRS = 20_000


def run_threads(target):
    threads = [threading.Thread(target=target, daemon=True) for _ in range(THREADS)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "worker did not finish"


def test_concurrent_add_pairs_return_to_zero():
    counter = AtomicInt()

    def worker():
        for _ in range(PAIRS):
            counter.add(1)
            counter.add(-1)

    run_threads(worker)
    assert counter.load() == 0


def test_concurrent_increments_read_back_exactly():
    counter = AtomicInt(3)

    def worker():
        for _ in range(PAIRS):
            counter.add(1)

    run_threads(worker)
    assert counter.load() == 3 + THREADS * PAIRS
    assert counter.add(-3) == THREADS * PAIRS
    assert counter.add(2) == THREADS * PAIRS + 2


def test_counter_never_starts_below_zero():
    with pytest.raises(ValueError):
        AtomicInt(-1)
