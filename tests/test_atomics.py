"""AtomicInt: concurrent adds lose no unit."""

import sys
import threading
import time

import pytest

from fcrbt import atomics
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


def test_adds_interleaved_between_opcodes_lose_no_unit():
    # CPython 3.11 switches threads only at calls and backward jumps, so a
    # plain run never splits an add between its read and its store. Here a
    # tracer gives up the interpreter between every two opcodes inside the
    # atomics module: an unguarded read-add-store then loses units.
    counter = AtomicInt()
    adds = 300

    def yield_between_opcodes(frame, event, arg):
        if frame.f_code.co_filename != atomics.__file__:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            time.sleep(0)
        return yield_between_opcodes

    def worker():
        old = sys.gettrace()
        sys.settrace(yield_between_opcodes)
        try:
            for _ in range(adds):
                counter.add(1)
        finally:
            sys.settrace(old)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads), "worker did not finish"
    assert counter.load() == THREADS * adds


def test_counter_never_starts_below_zero():
    with pytest.raises(ValueError):
        AtomicInt(-1)
