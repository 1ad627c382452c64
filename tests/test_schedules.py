"""Deterministic interleavings: soft-write visibility points, the bypass-get
vs stop-world race, pending-get gating of writes, and stop-world draining."""

import threading
from types import SimpleNamespace

import pytest

from fcrbt.schedules import (
    SCENARIOS,
    GateTimeout,
    run_scenario,
    soft_delete_visibility,
    soft_insert_visibility,
    v6_mark_flag_race,
)

GATE = 20.0


def run_in_thread(fn):
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    return t, box


def join_get(t, box, timeout=GATE):
    t.join(timeout)
    assert not t.is_alive(), "worker stuck"
    if "error" in box:
        raise box["error"]
    return box["result"]


# ---------------------------------------------------------------------------
# catalog scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["V5", "V6", "FutureWork"])
def test_soft_insert_visibility(variant):
    assert soft_insert_visibility(variant) is True


@pytest.mark.parametrize("variant", ["V5", "V6", "FutureWork"])
def test_soft_delete_visibility(variant):
    assert soft_delete_visibility(variant) is True


def test_v6_mark_flag_race():
    assert v6_mark_flag_race() is True


def test_scenarios_run_by_name():
    assert set(SCENARIOS) == {
        "soft-insert-visibility",
        "soft-delete-visibility",
        "v6-mark-flag-race",
    }
    assert run_scenario("soft-insert-visibility", "V6") is True
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope")


def test_scenarios_repeat_deterministically():
    for _ in range(25):
        assert soft_insert_visibility("V5") is True
        assert soft_delete_visibility("V6") is True


# ---------------------------------------------------------------------------
# write/get gating in the plain variants
# ---------------------------------------------------------------------------


def test_v1_write_waits_until_no_get_is_in_flight(managed_map, poll):
    m = managed_map("V1", max_threads=8)
    engine = m.engine
    m.register_thread()
    m.insert(1, 10)
    m.insert(2, 20)

    reader_gates = [threading.Event(), threading.Event()]
    readers_held = [threading.Event(), threading.Event()]
    held = []

    def on_get_start(key):
        if key in (1, 2) and len(held) < 2:
            i = len(held)
            held.append(key)
            readers_held[i].set()
            assert reader_gates[i].wait(GATE)

    m.tree.test_hooks = SimpleNamespace(on_get_start=on_get_start)

    def reader(key):
        m.register_thread()
        return m.get(key)

    r1, b1 = run_in_thread(lambda: reader(1))
    poll(readers_held[0].is_set, what="first reader executing")
    r2, b2 = run_in_thread(lambda: reader(2))
    poll(readers_held[1].is_set, what="second reader executing")
    assert engine.pending_ops.load() == 2  # both delegated and in flight

    def writer():
        m.register_thread()
        return m.delete(1)

    w, wb = run_in_thread(writer)
    poll(
        lambda: engine._seq == 5 and not engine.queue,
        what="combiner to claim the delete",
    )
    # the write is claimed but must not run while either get is in flight
    assert "result" not in wb
    reader_gates[0].set()
    poll(lambda: engine.pending_ops.load() == 1, what="first get released")
    assert "result" not in wb
    reader_gates[1].set()

    assert join_get(r1, b1) == 10
    assert join_get(r2, b2) == 20
    assert join_get(w, wb) is True
    assert engine.pending_ops.load() == 0
    assert m.get(1) is None


# ---------------------------------------------------------------------------
# stop-world draining and holding (global scope)
# ---------------------------------------------------------------------------


def test_v5_stop_world_waits_for_all_pending_ops(managed_map, poll):
    m = managed_map("V5", max_nodes=8, max_threads=8)
    engine = m.engine
    m.register_thread()
    m.insert(5, 50)

    gates = [threading.Event() for _ in range(3)]
    held = []

    def on_get_start(key):
        if key == 5 and len(held) < 3:
            i = len(held)
            held.append(key)
            assert gates[i].wait(GATE)

    m.tree.test_hooks = SimpleNamespace(on_get_start=on_get_start)

    def reader():
        m.register_thread()
        return m.get(5)

    readers = [run_in_thread(reader) for _ in range(3)]
    poll(lambda: engine.pending_ops.load() == 3, what="three delegated gets")

    sw0 = m.stats.stop_worlds

    def writer():
        m.register_thread()
        return m.insert(7, 70)  # physically absent: needs a stop-world

    w, wb = run_in_thread(writer)
    poll(lambda: m.stats.stop_worlds == sw0 + 1, what="stop-world entry")

    # drain must hold the writer until the last delegated op retires
    for i, expect_left in [(0, 2), (1, 1)]:
        gates[i].set()
        poll(
            lambda n=expect_left: engine.pending_ops.load() == n,
            what=f"{expect_left} ops left",
        )
        assert "result" not in wb
    gates[2].set()

    assert join_get(w, wb) is True
    for t, box in readers:
        assert join_get(t, box) == 50
    assert engine.pending_ops.load() == 0
    assert m.get(7) == 70


def test_ops_arriving_during_stop_world_complete_after_it(managed_map, poll):
    m = managed_map("V5", max_nodes=4, max_threads=8)
    engine = m.engine
    m.register_thread()
    for k in range(4):
        m.insert(k, k * 10 + 7)
    m.delete(1)  # soft: physical count stays 4

    sw_held = threading.Event()
    sw_resume = threading.Event()

    def on_stop_world_exit(tree):
        if not sw_held.is_set():
            sw_held.set()
            assert sw_resume.wait(GATE)

    engine.test_hooks = SimpleNamespace(on_stop_world_exit=on_stop_world_exit)

    def trigger():
        m.register_thread()
        return m.insert(9, 90)  # absent + budget full: stop-world + compaction

    trig, trig_box = run_in_thread(trigger)
    poll(sw_held.is_set, what="stop-world held open at exit")
    assert m.stats.compactions >= 1  # compaction already ran inside the hold

    def late_reader():
        m.register_thread()
        return m.get(0)

    def late_writer():
        m.register_thread()
        return m.insert(10, 100)

    lr, lr_box = run_in_thread(late_reader)
    lw, lw_box = run_in_thread(late_writer)
    poll(lambda: len(engine.queue) == 2, what="late ops queued")
    # combiner is inside the held stop-world: neither op may complete
    assert "result" not in lr_box and "result" not in lw_box

    sw_resume.set()
    assert join_get(trig, trig_box) is True
    assert join_get(lr, lr_box) == 7  # post-compaction read
    assert join_get(lw, lw_box) is False  # budget already full again
    assert m.tree.physical_count <= 4
    assert m.validate().ok
    assert sorted(m.tree.live_keys()) == [0, 2, 3, 9]  # key 10 hit the budget


def test_gate_timeout_is_loud():
    with pytest.raises(GateTimeout):
        raise GateTimeout("example")
