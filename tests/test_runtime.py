"""Engine-level behavior: registration, submission, dispatch order, wait
strategies, counters and shutdown. Variant-specific dispatch rules live in
test_variants.py; cross-thread interleavings in test_schedules.py."""

import os
import random
import threading
import time
from types import SimpleNamespace

import pytest

from fcrbt import runtime
from fcrbt.ops import OpKind
from fcrbt.oracle import OracleMap
from fcrbt.runtime import (
    ACT_GET,
    ACT_SOFT_INSERT,
    BACKOFF_MS,
    CALLER_EXECUTES,
    DONE,
    PENDING,
    RegistrationError,
    ShutdownError,
    ThreadRegistration,
    WaitStrategy,
    backoff_timeout,
)


class CondRecorder:
    """Wraps a park slot, recording every wait timeout passed through it."""

    def __init__(self, real):
        self._real = real
        self.timeouts = []

    def wait(self, timeout=None):
        self.timeouts.append(timeout)
        return self._real.wait(timeout)

    def post(self):
        self._real.post()


def run_in_thread(fn, *args):
    out = {}

    def target():
        try:
            out["result"] = fn(*args)
        except BaseException as exc:  # re-raised by join_and_get
            out["error"] = exc

    # daemon, so a worker a failed test leaves stuck cannot hang the session
    t = threading.Thread(target=target, daemon=True)
    t.start()
    return t, out


def join_and_get(t, out, timeout=10.0):
    t.join(timeout)
    assert not t.is_alive(), "worker did not finish"
    if "error" in out:
        raise out["error"]
    return out["result"]


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


def test_first_registration_succeeds(managed_map):
    m = managed_map("V1", max_threads=8)
    reg = m.register_thread()
    assert reg.thread is threading.current_thread()
    assert m.get(1) is None  # registered thread may submit


def test_dead_thread_ident_reuse_reclaims_slot(managed_map):
    m = managed_map("V1", max_threads=2)
    engine = m.engine
    dead = threading.Thread(target=lambda: None)
    dead.start()
    dead.join()

    # Plant a stale registration under our own ident, as if the OS had handed
    # this thread a dead worker's id.
    ident = threading.get_ident()
    stale = ThreadRegistration(ident, dead)
    engine.registrations[ident] = stale
    engine._reg_list.append(stale)

    reg = m.register_thread()
    assert reg is not stale
    assert reg.thread is threading.current_thread()
    assert stale not in engine._reg_list
    assert len(engine.registrations) == 1
    with pytest.raises(RegistrationError, match="already registered"):
        m.register_thread()  # a live double registration is still an error
    assert m.get(5) is None


def test_ninth_registration_on_eight_thread_config_rejected(managed_map):
    m = managed_map("V1", max_threads=8)
    release = threading.Event()
    outcomes = []

    def worker(registered):
        try:
            m.register_thread()
            outcomes.append("ok")
        except RegistrationError:
            outcomes.append("rejected")
        registered.set()
        # stay alive so thread idents are not recycled mid-test
        release.wait(30.0)

    threads = []
    for _ in range(9):
        registered = threading.Event()
        t = threading.Thread(target=worker, args=(registered,))
        t.start()
        # serialize registrations so the 9th is deterministically last
        assert registered.wait(10.0)
        threads.append(t)
    release.set()
    for t in threads:
        t.join(10.0)
    assert outcomes == ["ok"] * 8 + ["rejected"]


def test_duplicate_registration_rejected(managed_map):
    m = managed_map("V2")
    m.register_thread()
    with pytest.raises(RegistrationError):
        m.register_thread()


def test_submit_without_registration_rejected(managed_map):
    m = managed_map("V3")
    with pytest.raises(RegistrationError):
        m.get(1)


def test_registration_after_shutdown_rejected(managed_map):
    m = managed_map("V1")
    m.shutdown()
    with pytest.raises(ShutdownError):
        m.register_thread()


# ---------------------------------------------------------------------------
# submit semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["V1", "V4", "V5", "V6", "FutureWork"])
def test_submit_get_returns_stored_value(managed_map, which):
    m = managed_map(which)
    m.register_thread()
    assert m.insert(5, 50) is True
    assert m.get(5) == 50


def test_delete_twice_matches_oracle(managed_map):
    script = [
        (OpKind.INSERT, 5, 50),
        (OpKind.DELETE, 5, 0),
        (OpKind.DELETE, 5, 0),
    ]
    oracle = OracleMap()
    expected = [oracle.apply(op) for op in script]
    assert expected == [True, True, False]

    m = managed_map("V1")
    m.register_thread()
    assert [m.apply(op) for op in script] == expected


# ---------------------------------------------------------------------------
# combiner loop: FIFO dispatch and idling
# ---------------------------------------------------------------------------


def test_sequence_stamps_increase_in_dispatch_order(managed_map):
    m = managed_map("V4")
    m.register_thread()
    seqs = []
    m.engine.test_hooks = SimpleNamespace(on_claim=lambda rec: seqs.append(rec.seq))
    for i in range(20):
        m.insert(i, i)
    assert seqs == list(range(20))


def test_fifo_dispatch_matches_enqueue_order(managed_map, poll):
    m = managed_map("V4", max_threads=8)
    engine = m.engine
    gate = threading.Event()
    claimed = []

    def on_claim(rec):
        claimed.append((rec.kind, rec.key))
        if not gate.is_set():
            gate.wait(10.0)

    engine.test_hooks = SimpleNamespace(on_claim=on_claim)

    def op(key):
        m.register_thread()
        m.insert(key, key)

    # first record occupies the combiner inside its claim hook
    t0, o0 = run_in_thread(op, 100)
    poll(lambda: len(claimed) == 1, what="combiner to claim the first record")

    # now enqueue three more in a controlled order
    workers = []
    for i, key in enumerate((7, 8, 9), start=1):
        t, o = run_in_thread(op, key)
        poll(lambda i=i: len(engine.queue) == i, what=f"record {i} queued")
        workers.append((t, o))

    gate.set()
    join_and_get(t0, o0)
    for t, o in workers:
        join_and_get(t, o)
    assert claimed == [
        (OpKind.INSERT, 100),
        (OpKind.INSERT, 7),
        (OpKind.INSERT, 8),
        (OpKind.INSERT, 9),
    ]


def test_idle_combiner_consumes_nothing_and_stays_responsive(managed_map):
    m = managed_map("V2")
    m.register_thread()
    claimed = []
    m.engine.test_hooks = SimpleNamespace(on_claim=lambda rec: claimed.append(rec.seq))
    # let the combiner park on its empty queue, then wake it with work
    import time

    time.sleep(0.2)
    assert claimed == []
    assert m.insert(1, 10) is True
    assert claimed == [0]


@pytest.mark.skipif(
    not hasattr(os, "sched_getscheduler"), reason="no scheduling policies here"
)
def test_combiner_runs_under_the_batch_policy(managed_map):
    m = managed_map("V1")
    m.register_thread()
    assert m.insert(1, 10) is True  # the combiner loop has started
    assert os.sched_getscheduler(m.engine._thread.native_id) == os.SCHED_BATCH


@pytest.mark.skipif(
    not hasattr(os, "sched_getscheduler"), reason="no scheduling policies here"
)
@pytest.mark.parametrize("which", ["V1", "V6", "FutureWork"])
def test_registered_caller_runs_under_the_batch_policy(managed_map, which):
    m = managed_map(which)

    def register():
        # a new thread inherits its creator's policy; start from the normal one
        os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        before = os.sched_getscheduler(0)
        m.register_thread()
        assert m.insert(1, 10) is True
        return before, os.sched_getscheduler(0)

    assert join_and_get(*run_in_thread(register)) == (os.SCHED_OTHER, os.SCHED_BATCH)


@pytest.mark.skipif(
    not hasattr(os, "sched_getscheduler"), reason="no scheduling policies here"
)
def test_registration_leaves_an_idle_policy_alone(managed_map):
    m = managed_map("V1")

    def register():
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        m.register_thread()
        assert m.insert(1, 10) is True
        return os.sched_getscheduler(0)

    assert join_and_get(*run_in_thread(register)) == os.SCHED_IDLE


@pytest.mark.parametrize("which", ["V1", "V6", "FutureWork"])
def test_refused_batch_policy_leaves_the_map_correct(managed_map, monkeypatch, which):
    real_set = getattr(os, "sched_setscheduler", None)
    has_policies = real_set is not None and hasattr(os, "sched_getscheduler")
    refused = []

    def refuse(*args):
        refused.append(threading.get_ident())
        raise OSError("policy refused")

    monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
    rng = random.Random(7)
    script = []
    for _ in range(600):
        r = rng.randrange(100)
        kind = OpKind.INSERT if r < 20 else OpKind.DELETE if r < 40 else OpKind.GET
        script.append((kind, rng.randrange(24), rng.randrange(1000)))
    oracle = OracleMap(max_live=8)
    expected = [oracle.apply(op) for op in script]
    m = managed_map(which, max_nodes=8)

    def worker():
        # A worker that would move to the batch policy registers while the
        # move is refused, then runs the first half of the script.
        if has_policies:
            real_set(0, os.SCHED_OTHER, os.sched_param(0))
        m.register_thread()
        return threading.get_ident(), [m.apply(op) for op in script[:300]]

    ident, first = join_and_get(*run_in_thread(worker))
    if has_policies:
        assert ident in refused
    m.register_thread()
    assert first + [m.apply(op) for op in script[300:]] == expected
    assert m.validate().ok


# ---------------------------------------------------------------------------
# wait strategies
# ---------------------------------------------------------------------------


def test_backoff_schedule_single_sleeps():
    # frozen from the published schedule: failed checks 1, 2, 3 sleep
    # 1 ms, 3 ms, 10 ms; from the 11th failed check on, always 5000 ms
    expected_ms = [1, 3, 10, 20, 50, 100, 200, 500, 1000, 3033] + [5000] * 5
    got = [backoff_timeout(BACKOFF_MS, i) for i in range(15)]
    assert got == [ms / 1000.0 for ms in expected_ms]


def test_backoff_waiter_walks_the_schedule(managed_map, poll):
    m = managed_map("V3")
    gate = threading.Event()
    m.engine.test_hooks = SimpleNamespace(on_claim=lambda rec: gate.wait(10.0))
    recorder_box = {}

    def op():
        reg = m.register_thread()
        recorder_box["rec"] = rec = reg.record
        rec.cond = CondRecorder(rec.cond)
        return m.insert(3, 30)

    t, out = run_in_thread(op)
    poll(
        lambda: 0.010 in recorder_box["rec"].cond.timeouts
        if "rec" in recorder_box
        else False,
        what="three backoff naps",
    )
    gate.set()
    assert join_and_get(t, out) is True
    # the pickup wait may park once before the backoff phase begins, so
    # anchor at the schedule's first entry
    timeouts = recorder_box["rec"].cond.timeouts
    start = timeouts.index(0.001)
    assert timeouts[start : start + 3] == [0.001, 0.003, 0.010]


@pytest.mark.parametrize(
    "strategy",
    [
        WaitStrategy.SPIN,
        WaitStrategy.SLEEP_AWAKE,
        WaitStrategy.BACKOFF_SPIN,
    ],
)
def test_wait_returns_immediately_when_already_complete(managed_map, strategy):
    m = managed_map("V1")
    reg = m.register_thread()
    rec = reg.record
    rec.status = DONE
    rec.cond = CondRecorder(rec.cond)
    m.engine._wait_phase2(strategy, rec)
    assert rec.cond.timeouts == []


def test_delegated_get_is_executed_by_the_caller(managed_map):
    m = managed_map("V1")
    reg = m.register_thread()
    m.insert(9, 90)
    caller_ident = threading.get_ident()
    seen = []
    m.tree.test_hooks = SimpleNamespace(
        on_get_start=lambda key: seen.append((key, threading.get_ident()))
    )
    assert m.get(9) == 90
    assert seen == [(9, caller_ident)]
    assert reg.record.action == ACT_GET


@pytest.mark.parametrize("which", ["V1", "V5", "V6"])
def test_gate_release_posts_the_parked_combiner(managed_map, poll, monkeypatch, which):
    # A get holds the accounting a write's gate waits on: V1 and V5
    # pending_ops, V6 the reader's pending mark. With the backstop at 10 s
    # only the releasing caller's post can end the combiner's gate park in
    # time.
    monkeypatch.setattr(runtime, "BACKSTOP_MS", (10_000,))
    m = managed_map(which, max_nodes=4)
    engine = m.engine
    engine._wake = CondRecorder(engine._wake)
    m.register_thread()
    m.insert(0, 7)
    held = threading.Event()
    release = threading.Event()

    def on_get_start(key):
        held.set()
        assert release.wait(10.0)

    m.tree.test_hooks = SimpleNamespace(on_get_start=on_get_start)

    def reader():
        m.register_thread()
        return m.get(0)

    def writer():
        m.register_thread()
        return m.insert(1, 10)  # absent key: structural, behind the gate

    r, r_out = run_in_thread(reader)
    poll(held.is_set, what="get held inside the tree")
    w, w_out = run_in_thread(writer)
    poll(lambda: 10.0 in engine._wake.timeouts, what="combiner parked on the gate")
    assert "result" not in w_out
    start = time.monotonic()
    release.set()
    assert join_and_get(w, w_out, timeout=5.0) is True
    assert time.monotonic() - start < 1.0
    assert join_and_get(r, r_out) == 7


def test_bypass_get_back_out_posts_the_parked_combiner(managed_map, poll, monkeypatch):
    # A V6 reader publishes its mark, then a physical insert raises the stop
    # flags and parks on that mark before the reader re-reads its flag. The
    # reader must back out and post; with the backstop at 10 s nothing else
    # ends the combiner's gate park in time.
    monkeypatch.setattr(runtime, "BACKSTOP_MS", (10_000,))
    m = managed_map("V6", max_nodes=4)
    engine = m.engine
    engine._wake = CondRecorder(engine._wake)
    m.register_thread()
    m.insert(0, 7)
    held = threading.Event()
    release = threading.Event()

    def before_recheck(reg):
        if not held.is_set():
            held.set()
            assert release.wait(10.0)

    engine.test_hooks = SimpleNamespace(before_recheck=before_recheck)

    def reader():
        m.register_thread()
        return m.get(0)

    def writer():
        m.register_thread()
        return m.insert(1, 10)  # absent key: a physical insert behind stop-world

    r, r_out = run_in_thread(reader)
    poll(held.is_set, what="reader between its mark and its flag re-check")
    w, w_out = run_in_thread(writer)
    poll(lambda: 10.0 in engine._wake.timeouts, what="combiner parked on the mark")
    assert "result" not in w_out
    start = time.monotonic()
    release.set()
    assert join_and_get(w, w_out, timeout=5.0) is True
    assert time.monotonic() - start < 1.0
    assert join_and_get(r, r_out) == 7
    assert engine.stats.get_retries == 1


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_claim_crash_aborts_the_waiting_caller(managed_map):
    m = managed_map("V1")
    engine = m.engine

    def on_claim(rec):
        raise RuntimeError("deliberate claim failure")

    engine.test_hooks = SimpleNamespace(on_claim=on_claim)

    def op():
        m.register_thread()
        return m.insert(1, 10)

    t, out = run_in_thread(op)
    with pytest.raises(ShutdownError):
        join_and_get(t, out, timeout=5.0)
    assert isinstance(engine.crashed, RuntimeError)
    assert engine.join_combiner(5.0)


def test_lowered_stop_flag_posts_the_parked_reader(managed_map, poll, monkeypatch):
    # A V6 reader that finds its stop flag raised parks on its registration's
    # slot. With the backstop at 10 s only the post that lowers the flag can
    # wake it in time.
    monkeypatch.setattr(runtime, "BACKSTOP_MS", (10_000,))
    m = managed_map("V6", max_nodes=4)
    engine = m.engine
    m.register_thread()
    m.insert(0, 7)
    registered = threading.Event()
    go = threading.Event()
    release = threading.Event()
    regs = []

    def reader():
        regs.append(m.register_thread())
        registered.set()
        assert go.wait(10.0)
        return m.get(0)

    r, r_out = run_in_thread(reader)
    assert registered.wait(10.0)
    stop = regs[0]
    stop.cond = CondRecorder(stop.cond)

    def on_stop_world_exit(tree):
        go.set()  # the reader enters bypass_get with its flag still raised
        assert release.wait(10.0)

    engine.test_hooks = SimpleNamespace(on_stop_world_exit=on_stop_world_exit)

    def writer():
        m.register_thread()
        return m.insert(1, 10)  # absent key: a physical insert behind stop-world

    w, w_out = run_in_thread(writer)
    poll(lambda: 10.0 in stop.cond.timeouts, what="reader parked on its raised flag")
    assert "result" not in r_out
    start = time.monotonic()
    release.set()
    assert join_and_get(r, r_out, timeout=5.0) == 7
    assert time.monotonic() - start < 1.0
    assert join_and_get(w, w_out) is True


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_bypass_get_aborts_after_a_crash_inside_stop_world(managed_map, monkeypatch):
    # The combiner dies inside a stop-world, so the reader's stop flag is
    # never lowered; the reader must give up once the engine is down. With
    # the backstop at 10 s only the shutdown drain's post wakes it in time.
    monkeypatch.setattr(runtime, "BACKSTOP_MS", (10_000,))
    m = managed_map("V6", max_nodes=4)
    engine = m.engine
    m.register_thread()
    for k in range(4):
        m.insert(k, k)
    m.delete(3)  # soft: the physical insert below takes the tree over budget
    registered = threading.Event()
    go = threading.Event()
    regs = []

    def reader():
        regs.append(m.register_thread())
        registered.set()
        assert go.wait(10.0)
        return m.get(0)

    r, r_out = run_in_thread(reader)
    assert registered.wait(10.0)
    stop = regs[0]
    stop.cond = CondRecorder(stop.cond)

    def on_stop_world_exit(tree):
        go.set()  # the reader enters bypass_get with its flag still raised
        deadline = time.monotonic() + 10.0
        while not stop.cond.timeouts and time.monotonic() < deadline:
            time.sleep(0.001)
        raise RuntimeError("deliberate stop-world failure")

    engine.test_hooks = SimpleNamespace(on_stop_world_exit=on_stop_world_exit)

    def writer():
        m.register_thread()
        return m.insert(9, 90)

    w, w_out = run_in_thread(writer)
    with pytest.raises(ShutdownError):
        join_and_get(r, r_out, timeout=5.0)
    assert stop.cond.timeouts, "reader never slept on its raised stop flag"
    assert isinstance(engine.crashed, RuntimeError)
    w.join(5.0)
    assert not w.is_alive()
    assert engine.join_combiner(5.0)


# ---------------------------------------------------------------------------
# counter balance at quiescence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["V1", "V5", "V6"])
def test_counters_return_to_zero_at_quiescence(managed_map, which):
    m = managed_map(which, max_nodes=16)
    m.register_thread()
    for i in range(200):
        m.insert(i % 24, i)
        m.get(i % 24)
        if i % 3 == 0:
            m.delete((i + 5) % 24)
    engine = m.engine
    assert engine.pending_ops.load() == 0
    assert all(not reg.pending_mark for reg in engine.registrations.values())


# ---------------------------------------------------------------------------
# shutdown
# ---------------------------------------------------------------------------


def test_shutdown_with_empty_queue_joins_combiner(managed_map):
    m = managed_map("V1")
    m.shutdown()
    assert m.engine.join_combiner(5.0)


def test_shutdown_rejects_queued_records(managed_map, poll):
    m = managed_map("V1", max_threads=8)
    engine = m.engine
    gate = threading.Event()
    engine.test_hooks = SimpleNamespace(on_claim=lambda rec: gate.wait(10.0))

    def first_op():
        m.register_thread()
        return m.insert(0, 0)

    t0, o0 = run_in_thread(first_op)
    poll(lambda: engine._seq == 1, what="combiner busy on the first record")

    def queued_op(key):
        m.register_thread()
        return m.insert(key, key)

    workers = [run_in_thread(queued_op, k) for k in range(1, 6)]
    poll(lambda: len(engine.queue) == 5, what="five records queued")

    t_down, o_down = run_in_thread(m.shutdown)
    gate.set()
    # the in-flight record completes; the five queued ones are rejected
    assert join_and_get(t0, o0) is True
    for t, o in workers:
        with pytest.raises(ShutdownError):
            join_and_get(t, o)
    join_and_get(t_down, o_down)
    assert engine.join_combiner(5.0)


def test_double_shutdown_is_idempotent(managed_map):
    m = managed_map("V5")
    m.shutdown()
    m.shutdown()
    assert m.engine.join_combiner(5.0)


def test_submit_after_shutdown_raises_immediately(managed_map):
    m = managed_map("V2")
    m.register_thread()
    m.insert(1, 1)
    m.shutdown()
    with pytest.raises(ShutdownError):
        m.get(1)


# ---------------------------------------------------------------------------
# record lifecycle sanity
# ---------------------------------------------------------------------------


def test_status_constants_are_strictly_increasing():
    assert PENDING < CALLER_EXECUTES < DONE


def test_soft_insert_delegated_to_caller(managed_map):
    m = managed_map("V5")
    reg = m.register_thread()
    m.insert(4, 40)
    m.delete(4)  # soft: leaves the physical node behind
    assert m.insert(4, 44) is True  # revival runs as a delegated soft insert
    assert reg.record.action == ACT_SOFT_INSERT
    assert m.get(4) == 44
