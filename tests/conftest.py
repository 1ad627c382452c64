import time

import pytest

from fcrbt.runtime import CALLER_EXECUTES
from fcrbt.variants import make_variant


def in_flight(engine):
    """Delegated ops in flight: registrations whose record is at
    CALLER_EXECUTES."""
    return sum(reg.record.status == CALLER_EXECUTES for reg in engine._regs)


@pytest.fixture
def managed_map():
    """Factory for variant maps that are always shut down, pass or fail."""
    created = []

    def factory(which, max_nodes=64, max_threads=8, **kw):
        m = make_variant(which, max_nodes, max_threads, **kw)
        created.append(m)
        return m

    yield factory
    for m in created:
        m.shutdown()


@pytest.fixture
def poll():
    """Bounded busy-wait; fails the test instead of hanging it."""

    def wait_for(predicate, timeout=10.0, what="condition"):
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() > deadline:
                pytest.fail(f"timed out after {timeout}s waiting for {what}")
            time.sleep(0.001)

    return wait_for
