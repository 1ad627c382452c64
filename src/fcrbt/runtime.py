"""Flat-combining engine: publication queue, combiner loop, caller wait
strategies, pending-operation accounting and stop-world signalling.

One dedicated combiner thread owns all structural tree mutation. Callers
publish an OpRecord and wait in one loop, _wait_phase2, that reads a row of
data from their WaitStrategy: how many yield-polls to make, which stop flag
to sleep out while raised (none, the engine's or their own), and whether the
park naps along the backoff schedule or on the fixed backstop. The handoff
ack is that loop with the SPIN row up to CLAIMED; the future-work variant
parks once until DONE. Delegated operations (gets, soft writes) are executed
by their callers; the combiner gates any structural mutation on the matching
pending-operation accounting so no delegated op overlaps it. The soft
variants classify each write once, then delegate its action or, in the
future-work variant, have the combiner run the same action.

Every spin loop yields with time.sleep(0): on a single core under the GIL,
an unyielding spinner would otherwise hold the interpreter for a whole
switch interval per iteration.

Visibility notes, used throughout instead of per-field locks: plain attribute
loads and stores are GIL-atomic, and the GIL serializes them into a single
total order, so flag/mark/status handshakes (store A then read B vs. store B
then read A) cannot both miss. Read-modify-write counters use AtomicInt.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .atomics import AtomicInt
from .ops import OpKind
from .rbtree import Node, RBTree

# OpRecord.status values; strictly increasing along the record's lifecycle.
PENDING = 0
CLAIMED = 1
CALLER_EXECUTES = 2
DONE = 3

# How many yield-polls a spinning caller makes before parking on its record
# condition. Spins are only productive here while the combiner actively works;
# a runnable-but-descheduled peer needs the core free, so park past this.
SPIN_BUDGET = 16


def backoff_timeout(schedule_ms, attempt: int) -> float:
    """Seconds to wait after the given 0-based failed status check.

    Walks the schedule one entry per failed check and clamps at the last
    entry once the schedule is exhausted.
    """
    last = len(schedule_ms) - 1
    return schedule_ms[attempt if attempt < last else last] / 1000.0

# Delegated-action codes the combiner attaches before CALLER_EXECUTES.
ACT_GET = 0
ACT_SOFT_INSERT = 1
ACT_SOFT_DELETE = 2

# Which accounting the delegated caller must release when finished.
REL_NONE = 0
REL_GETS = 1
REL_OPS = 2
REL_MARK = 3

# Backoff sleep schedule, milliseconds; index clamps at the last entry.
BACKOFF_MS = (1, 3, 10, 20, 50, 100, 200, 500, 1000, 3033, 5000)

# Nap of every park that does not back off. It is a backstop against a missed
# notify, not a correctness requirement.
BACKSTOP_MS = (50,)


class StopWorldScope(Enum):
    NONE = "none"
    GLOBAL = "global"
    PER_THREAD = "per-thread"


class WaitStrategy(Enum):
    """How a caller waits, as one row per member: ``spins`` yield-polls
    before parking; ``sleeps_out``, the scope whose raised stop flag it sleeps
    out (GLOBAL: the engine's, PER_THREAD: its own); ``backoff``, whether its
    park naps along ``backoff_ms`` rather than ``BACKSTOP_MS``."""

    SLEEP_AWAKE = ("sleep-awake", 0, StopWorldScope.NONE, False)
    SPIN = ("spin", SPIN_BUDGET, StopWorldScope.NONE, False)
    BACKOFF_SPIN = ("backoff-spin", 0, StopWorldScope.NONE, True)
    STOP_WORLD_SLEEP = ("stop-world-sleep", SPIN_BUDGET, StopWorldScope.GLOBAL, False)
    PER_THREAD_FLAG = ("per-thread-flag", SPIN_BUDGET, StopWorldScope.PER_THREAD, False)

    def __new__(cls, value: str, spins: int, sleeps_out: StopWorldScope, backoff: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.spins = spins
        member.sleeps_out = sleeps_out
        member.backoff = backoff
        return member


@dataclass(frozen=True)
class VariantConfig:
    """One engine, many shapes: each variant is a row of this table."""

    id: str
    get_wait: WaitStrategy
    write_wait: WaitStrategy
    soft_ops: bool
    gets_bypass_queue: bool
    stop_world_scope: StopWorldScope
    future_work: bool = False
    backoff_ms: Tuple[int, ...] = BACKOFF_MS

    def __post_init__(self):
        scope = self.stop_world_scope
        if not self.backoff_ms:
            raise ValueError("backoff schedule must be non-empty")
        if self.soft_ops and scope is StopWorldScope.NONE:
            raise ValueError("soft ops require a stop-world scope")
        # A bypassing get is fenced off a stop-world mutation only by its
        # caller's stop flag and pending mark.
        if self.gets_bypass_queue and scope is not StopWorldScope.PER_THREAD:
            raise ValueError("gets that bypass the queue require a per-thread stop-world")
        if self.future_work and not self.soft_ops:
            raise ValueError("the future-work variant requires soft ops")
        for wait in (self.get_wait, self.write_wait):
            if wait.sleeps_out not in (StopWorldScope.NONE, scope):
                raise ValueError(f"{wait.value} wait needs a {wait.sleeps_out.value} stop-world")


def insert_refused(tree: RBTree, node: Optional[Node], budget: int) -> bool:
    """The live budget rule: an insert that would add a live key (its node is
    absent or soft-deleted) fails once ``live_count`` has reached ``budget``."""
    return (node is None or node.is_deleted) and tree.live_count >= budget


class RegistrationError(RuntimeError):
    pass


class ShutdownError(RuntimeError):
    pass


class OpRecord:
    __slots__ = (
        "kind",
        "key",
        "value",
        "status",
        "action",
        "release",
        "result",
        "seq",
        "shutdown",
        "parked",
        "cond",
        "owner",
    )

    def __init__(self, owner: "ThreadRegistration"):
        self.kind = OpKind.GET
        self.key = 0
        self.value = 0
        self.status = DONE
        self.action = -1
        self.release = REL_NONE
        self.result: Optional[int] = None
        self.seq = -1
        self.shutdown = False
        self.parked = 0  # caller is (about to be) waiting on cond
        self.cond = threading.Condition()
        self.owner = owner


class StopSignal:
    """A stop-world flag plus the condition its waiters sleep on. The flag is
    raised bare and lowered under the lock with a notify, so no waiter that
    saw it raised can miss the lowering."""

    __slots__ = ("flag", "cond")

    def __init__(self):
        self.flag = False
        self.cond = threading.Condition()


class ThreadRegistration(StopSignal):
    """A registered caller; a per-thread stop-world raises its own signal."""

    __slots__ = ("thread_id", "thread", "pending_mark", "record")

    def __init__(self, thread_id: int, thread: threading.Thread):
        super().__init__()
        self.thread_id = thread_id
        self.thread = thread  # liveness disambiguates reused thread ids
        self.pending_mark = False
        # one in-flight op per thread, so the record is reusable
        self.record = OpRecord(self)


@dataclass
class EngineStats:
    stop_worlds: int = 0
    compactions: int = 0
    get_retries: int = 0  # bypass-get fast-path aborts (stop flag races)


class CombinerEngine:
    """The publication queue plus its dedicated combiner thread.

    `max_live` is the logical budget: an insert that would create or revive a
    key when live_count is already at the budget fails (returns False). It
    defaults to the tree's physical budget, which keeps the physical count
    bounded across compactions.
    """

    def __init__(
        self,
        tree: RBTree,
        config: VariantConfig,
        max_threads: int,
        max_live: Optional[int] = None,
        record_effects: bool = False,
        check_exclusion: bool = False,
    ):
        if max_threads <= 0:
            raise ValueError("max_threads must be positive")
        self.tree = tree
        self.config = config
        self.max_threads = max_threads
        self.max_live = tree.max_nodes if max_live is None else max_live
        self.queue: deque = deque()
        self.registrations: dict = {}
        self._reg_list: List[ThreadRegistration] = []
        self._reg_lock = threading.Lock()

        self.pending_gets = AtomicInt()  # gate for plain-variant writes
        self.pending_ops = AtomicInt()  # global stop-world drain counter
        self.stop = StopSignal()  # raised by a global stop-world
        self._per_thread = config.stop_world_scope is StopWorldScope.PER_THREAD
        soft_release = REL_MARK if self._per_thread else REL_OPS
        self._release = soft_release if config.soft_ops else REL_GETS  # see _delegate
        # Combiner parking. A timed nap in the combiner is poison here: the
        # kernel delays its wakeup by multiple ms while caller threads spin,
        # so the combiner either yields (queue recently active) or parks on
        # this condition, which producers notify.
        self._qcond = threading.Condition()
        self._parked = False
        self._sw_active = False  # guarded by _reg_lock; covers late registration
        # Incremented when a stop-world mutation begins and again when it
        # ends, so odd values mean "combiner is mutating".
        self.epoch = 0

        self.stats = EngineStats()
        self.effect_log: Optional[List[Tuple[OpKind, int, Optional[int], bool]]] = (
            [] if record_effects else None
        )
        self.exclusion_violations: Optional[List[Tuple[int, int]]] = (
            [] if check_exclusion else None
        )
        self.test_hooks = None

        self._seq = 0
        self.crashed: Optional[BaseException] = None
        self.running = True
        self._thread = threading.Thread(
            target=self._combiner_loop, name=f"combiner-{config.id}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # registration and submission (caller side)
    # ------------------------------------------------------------------

    def register(self) -> ThreadRegistration:
        ident = threading.get_ident()
        thread = threading.current_thread()
        with self._reg_lock:
            if not self.running:
                raise ShutdownError("engine is shut down")
            stale = self.registrations.get(ident)
            if stale is not None:
                if stale.thread is thread or stale.thread.is_alive():
                    raise RegistrationError("thread already registered")
                # The OS reused a dead worker's thread id: free its slot. A
                # dead owner has no op in flight, so dropping the reg is safe.
                del self.registrations[ident]
                self._reg_list.remove(stale)
            if len(self.registrations) >= self.max_threads:
                raise RegistrationError(
                    f"capacity {self.max_threads} reached, registration rejected"
                )
            reg = ThreadRegistration(ident, thread)
            # A thread that registers mid-stop-world must start out halted.
            reg.flag = self._sw_active
            self.registrations[ident] = reg
            self._reg_list.append(reg)
        return reg

    def _own_registration(self) -> ThreadRegistration:
        reg = self.registrations.get(threading.get_ident())
        if reg is None:
            raise RegistrationError("submit from unregistered thread")
        return reg

    def submit(self, kind: OpKind, key: int, value: int = 0):
        if not self.running:
            raise ShutdownError("engine is shut down")
        reg = self._own_registration()
        rec = reg.record
        rec.kind = kind
        rec.key = key
        rec.value = value
        rec.result = None
        rec.action = -1
        rec.release = REL_NONE
        rec.shutdown = False
        rec.status = PENDING
        self.queue.append(rec)
        if self._parked:
            with self._qcond:
                self._qcond.notify()

        cfg = self.config
        if cfg.future_work:
            # Single synchronization episode: no pickup poll, straight to sleep.
            self._park_until(rec, DONE)
        else:
            self._wait_claimed(rec)
            self._wait_phase2(
                cfg.get_wait if kind == OpKind.GET else cfg.write_wait, rec, reg
            )
            if rec.status == CALLER_EXECUTES:
                self._execute_delegated(rec, reg)
        if rec.shutdown:
            raise ShutdownError("operation aborted by shutdown")
        return rec.result

    # ------------------------------------------------------------------
    # wait phases (caller side)
    # ------------------------------------------------------------------

    def _park_until(self, rec: OpRecord, threshold: int, naps=BACKSTOP_MS) -> None:
        # Blocking tail of every caller wait; each failed status check naps
        # the next entry of `naps` (clamped), cut short by a notify. Pairs
        # with _advance on the combiner side: parked is set inside the lock
        # before re-checking status, so the combiner either observes parked
        # and notifies, or we observe its status store and never wait.
        cond = rec.cond
        attempt = 0
        with cond:
            rec.parked = 1
            try:
                while rec.status < threshold:
                    if not self.running and rec.status == PENDING:
                        # Combiner already drained and exited; settle our own
                        # record if still queued, else the drain owns it.
                        try:
                            self.queue.remove(rec)
                        except ValueError:
                            pass
                        else:
                            rec.shutdown = True
                            rec.status = DONE
                            return
                    cond.wait(backoff_timeout(naps, attempt))
                    attempt += 1
            finally:
                rec.parked = 0

    def _wait_claimed(self, rec: OpRecord) -> None:
        # Handoff ack: every queue variant polls for the combiner's pickup,
        # then parks. Yield-polling past the budget is counterproductive: a
        # runnable-but-descheduled peer needs us off the core to finish.
        self._wait_phase2(WaitStrategy.SPIN, rec, None, CLAIMED)

    def _wait_phase2(
        self, strategy: WaitStrategy, rec: OpRecord, reg, threshold: int = CALLER_EXECUTES
    ) -> None:
        # The one caller wait loop, driven by the strategy's row: yield-poll
        # up to its budget, sleep out its stop flag whenever that is raised
        # (the polls start over afterwards), then park along its nap schedule.
        scope = strategy.sleeps_out
        stop = None if scope is StopWorldScope.NONE else (
            self.stop if scope is StopWorldScope.GLOBAL else reg)
        spins = strategy.spins
        polls = 0
        sleep = time.sleep
        while rec.status < threshold:
            if stop is not None and stop.flag:
                self._sleep_out(stop, lambda: rec.status < threshold)
                polls = 0
            elif polls < spins:
                polls += 1
                sleep(0)
            else:
                naps = self.config.backoff_ms if strategy.backoff else BACKSTOP_MS
                self._park_until(rec, threshold, naps)
                return

    def _sleep_out(self, stop: StopSignal, waiting) -> None:
        # Sleep while the stop flag is raised and waiting() holds. Pairs with
        # _exit_stop_world, which lowers the flag and notifies under the lock.
        cond = stop.cond
        with cond:
            while stop.flag and waiting():
                cond.wait(BACKSTOP_MS[0] / 1000.0)

    # ------------------------------------------------------------------
    # delegated execution (caller side)
    # ------------------------------------------------------------------

    def _execute_delegated(self, rec: OpRecord, reg: ThreadRegistration) -> None:
        checking = self.exclusion_violations is not None
        e1 = self.epoch if checking else 0
        try:
            rec.result = self._run_action(rec.action, rec, None)
            if checking:
                self._note_epochs(e1)
        finally:
            # The release must happen even if the op blew up, or the combiner
            # would wait on this accounting forever.
            release = rec.release
            if release == REL_GETS:
                self.pending_gets.add(-1)
            elif release == REL_OPS:
                self.pending_ops.add(-1)
            elif release == REL_MARK:
                reg.pending_mark = False
            rec.status = DONE

    def _run_action(self, action: int, rec: OpRecord, node: Optional[Node]):
        # One delegated action, run by its caller or, in the future-work
        # variant, by the combiner, which passes the node it already found.
        tree = self.tree
        key = rec.key
        if action == ACT_GET:
            return tree.get(key)
        with tree.mark_lock:
            if action == ACT_SOFT_DELETE:
                result = tree.soft_delete(key)
                self._log(OpKind.DELETE, key, None, result)
                return result
            if node is None:
                node = tree.find_node(key)
            if insert_refused(tree, node, self.max_live):
                result = False
            else:
                result = tree.soft_insert(key, rec.value)
            self._log(OpKind.INSERT, key, rec.value, result)
            return result

    def _note_epochs(self, e1: int) -> None:
        e2 = self.epoch
        if (e1 | e2) & 1 or e2 - e1 >= 2:
            self.exclusion_violations.append((e1, e2))

    def _log(self, kind: OpKind, key: int, value: Optional[int], outcome: bool) -> None:
        # caller holds tree.mark_lock, so append order == effect order
        log = self.effect_log
        if log is not None:
            log.append((kind, key, value, outcome))

    # ------------------------------------------------------------------
    # direct get path (V6 / future-work: no queue traffic)
    # ------------------------------------------------------------------

    def bypass_get(self, key: int) -> Optional[int]:
        if not self.running:
            raise ShutdownError("engine is shut down")
        reg = self._own_registration()
        hooks = self.test_hooks
        while True:
            if reg.flag:
                self._sleep_out(reg, lambda: self.running)
            if hooks is not None:
                cb = getattr(hooks, "before_mark", None)
                if cb is not None:
                    cb(reg)
            reg.pending_mark = True
            # Recheck after publishing the mark: a flag raised in the window
            # since the first check means the combiner may already have seen
            # our mark clear, so back out and wait.
            if reg.flag:
                reg.pending_mark = False
                with self._reg_lock:  # callers race on this rare count
                    self.stats.get_retries += 1
                continue
            break
        checking = self.exclusion_violations is not None
        e1 = self.epoch if checking else 0
        result = self.tree.get(key)
        if checking:
            self._note_epochs(e1)
        reg.pending_mark = False
        return result

    # ------------------------------------------------------------------
    # combiner side
    # ------------------------------------------------------------------

    def _combiner_loop(self) -> None:
        queue = self.queue
        popleft = queue.popleft
        dispatch = self._dispatch_soft if self.config.soft_ops else self._dispatch_plain
        while True:
            if not self.running:
                self._drain()
                return
            try:
                rec = popleft()
            except IndexError:
                # Park at once on an empty queue. Yield-spinning here starves
                # callers polling for their status for a full timeslice; a
                # park/notify handoff costs single-digit microseconds.
                with self._qcond:
                    self._parked = True
                    if not queue and self.running:
                        self._qcond.wait(0.05)
                    self._parked = False
                continue
            rec.seq = self._seq
            self._seq += 1
            self._advance(rec, CLAIMED)
            hooks = self.test_hooks
            if hooks is not None:
                cb = getattr(hooks, "on_claim", None)
                if cb is not None:
                    cb(rec)
            try:
                dispatch(rec)
            except BaseException as exc:  # protocol violation: abort loudly
                self.crashed = exc
                traceback.print_exc()
                rec.shutdown = True
                self._finish(rec, None)
                self.running = False
                self._drain()
                raise

    def _gate_wait(self, ready) -> None:
        # Combiner-side wait for caller-held accounting to drain. The holder
        # is executing real work, so first yields are cheap; past the budget
        # a short timed sleep guarantees the holder gets the core.
        sleep = time.sleep
        spins = 0
        while not ready():
            spins += 1
            if spins < SPIN_BUDGET:
                sleep(0)
            else:
                sleep(0.0002)

    # V1-V4: delegated gets behind a counter, combiner-executed writes.
    def _dispatch_plain(self, rec: OpRecord) -> None:
        if rec.kind == OpKind.GET:
            self._delegate(rec, ACT_GET)
            return
        pg = self.pending_gets
        if pg.load():  # writes wait until no delegated get is in flight
            self._gate_wait(lambda: not pg.load())
        tree = self.tree
        with tree.mark_lock:
            if rec.kind == OpKind.INSERT:
                if insert_refused(tree, tree.find_node(rec.key), self.max_live):
                    outcome = False
                else:
                    outcome = tree.insert(rec.key, rec.value)
                self._log(OpKind.INSERT, rec.key, rec.value, outcome)
            else:
                outcome = tree.delete(rec.key)
                self._log(OpKind.DELETE, rec.key, None, outcome)
        self._finish(rec, outcome)

    # V5, V6 and future-work: each op is classified once. A present key's soft
    # write is delegated to its caller, or in the future-work variant run by
    # the combiner itself, so the sleeping caller gets exactly one wakeup.
    def _dispatch_soft(self, rec: OpRecord) -> None:
        kind = rec.kind
        node = None
        if kind == OpKind.GET:
            action = ACT_GET
        else:
            # only the combiner mutates structure, so presence is stable here
            node = self.tree.find_node(rec.key)
            if node is not None:
                action = ACT_SOFT_INSERT if kind == OpKind.INSERT else ACT_SOFT_DELETE
            elif kind == OpKind.INSERT:
                self._physical_insert(rec)
                return
            else:
                # logical no-op, but stamped so the effect log lists every
                # write attempt in serialization order
                with self.tree.mark_lock:
                    self._log(OpKind.DELETE, rec.key, None, False)
                self._finish(rec, False)
                return
        if self.config.future_work:
            self._finish(rec, self._run_action(action, rec, node))
        else:
            self._delegate(rec, action)

    # Soft variants: a physically absent key is inserted behind stop-world,
    # and the tree compacted if the new node takes it over its budget.
    def _physical_insert(self, rec: OpRecord) -> None:
        tree = self.tree
        # Reject without stopping the world if the budget is already full;
        # the check is final once taken under mark_lock (concurrent soft ops
        # serialize on the same lock).
        with tree.mark_lock:
            full = insert_refused(tree, None, self.max_live)
            if full:
                self._log(OpKind.INSERT, rec.key, rec.value, False)
        if full:
            self._finish(rec, False)
            return
        self._enter_stop_world()
        with tree.mark_lock:  # uncontended now; taken for log stamping
            if insert_refused(tree, None, self.max_live):
                outcome = False  # a concurrent revive filled the budget
            else:
                outcome = tree.insert(rec.key, rec.value)
            self._log(OpKind.INSERT, rec.key, rec.value, outcome)
        if tree.physical_count > tree.max_nodes:
            tree.compact()
            self.stats.compactions += 1
        self._finish(rec, outcome)
        self._exit_stop_world()

    def _advance(self, rec: OpRecord, status: int) -> None:
        # Store-then-check pairs with _park_until's set-then-check under the
        # record lock; sequential consistency makes missing both impossible.
        rec.status = status
        if rec.parked:
            with rec.cond:
                rec.cond.notify()

    def _delegate(self, rec: OpRecord, action: int) -> None:
        # Take the accounting the caller releases (see _execute_delegated)
        # before CALLER_EXECUTES becomes visible, so a later drain is
        # guaranteed to wait for this op.
        release = self._release
        if release == REL_GETS:
            self.pending_gets.add(1)
        elif release == REL_OPS:
            self.pending_ops.add(1)
        else:
            rec.owner.pending_mark = True
        rec.action = action
        rec.release = release
        self._advance(rec, CALLER_EXECUTES)

    def _finish(self, rec: OpRecord, result) -> None:
        rec.result = result
        self._advance(rec, DONE)

    # ------------------------------------------------------------------
    # stop-world (combiner side only)
    # ------------------------------------------------------------------

    def _stop_signals(self, active: bool) -> List[StopSignal]:
        # The engine's own signal, or every registration's; _sw_active halts
        # a thread that registers while the world is stopped.
        if not self._per_thread:
            return [self.stop]
        with self._reg_lock:
            self._sw_active = active
            return list(self._reg_list)

    def _enter_stop_world(self) -> None:
        self.stats.stop_worlds += 1
        signals = self._stop_signals(True)
        for signal in signals:
            signal.flag = True
        if self._per_thread:
            self._gate_wait(lambda: not any(reg.pending_mark for reg in signals))
        else:
            po = self.pending_ops
            self._gate_wait(lambda: not po.load())
        self.epoch += 1  # odd: exclusive mutation phase begins

    def _exit_stop_world(self) -> None:
        self.epoch += 1  # even again
        hooks = self.test_hooks
        if hooks is not None:
            cb = getattr(hooks, "on_stop_world_exit", None)
            if cb is not None:
                cb(self.tree)
        for signal in self._stop_signals(False):
            with signal.cond:
                signal.flag = False
                signal.cond.notify_all()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def _drain(self) -> None:
        while True:
            try:
                rec = self.queue.popleft()
            except IndexError:
                break
            rec.shutdown = True
            with rec.cond:
                rec.status = DONE
                rec.cond.notify_all()
        # release anyone asleep on a stop signal
        with self._reg_lock:
            signals = [self.stop] + self._reg_list
        for signal in signals:
            with signal.cond:
                signal.cond.notify_all()

    def shutdown(self) -> None:
        self.running = False
        with self._qcond:
            self._qcond.notify()
        self._thread.join()

    def join_combiner(self, timeout: Optional[float] = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()
