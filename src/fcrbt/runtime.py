"""Flat-combining engine: publication queue, combiner loop, caller wait
strategies, pending-operation accounting and stop-world signalling.

One dedicated combiner thread owns all structural tree mutation. Callers
publish an OpRecord, spin until the combiner claims it (the handoff ack),
then wait out the rest per the variant's strategy. Delegated operations
(gets, soft writes) are executed by their callers; the combiner gates any
structural mutation on the matching pending-operation accounting so no
delegated op overlaps it.

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
from .rbtree import RBTree

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


class WaitStrategy(Enum):
    SLEEP_AWAKE = "sleep-awake"
    SPIN = "spin"
    BACKOFF_SPIN = "backoff-spin"
    STOP_WORLD_SLEEP = "stop-world-sleep"
    PER_THREAD_FLAG = "per-thread-flag"


class StopWorldScope(Enum):
    NONE = "none"
    GLOBAL = "global"
    PER_THREAD = "per-thread"


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
        if not self.backoff_ms:
            raise ValueError("backoff schedule must be non-empty")
        if self.soft_ops and self.stop_world_scope is StopWorldScope.NONE:
            raise ValueError("soft ops require a stop-world scope")


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


class ThreadRegistration:
    __slots__ = ("thread_id", "thread", "stop_flag", "pending_mark", "cond", "record")

    def __init__(self, thread_id: int, thread: threading.Thread):
        self.thread_id = thread_id
        self.thread = thread  # liveness disambiguates reused thread ids
        self.stop_flag = False
        self.pending_mark = False
        self.cond = threading.Condition()
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
        self.sw_flag = False
        self.sw_cond = threading.Condition()
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
            reg.stop_flag = self._sw_active
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

        if self.config.future_work:
            self._wait_done_sleeping(rec)
        else:
            self._wait_claimed(rec)
            if kind == OpKind.GET:
                self._wait_phase2(self.config.get_wait, rec, reg)
            else:
                self._wait_phase2(self.config.write_wait, rec, reg)
            if rec.status == CALLER_EXECUTES:
                self._execute_delegated(rec, reg)
        if rec.shutdown:
            raise ShutdownError("operation aborted by shutdown")
        return rec.result

    # ------------------------------------------------------------------
    # wait phases (caller side)
    # ------------------------------------------------------------------

    def _park_until(self, rec: OpRecord, threshold: int) -> None:
        # Blocking tail of every caller wait. Pairs with _advance on the
        # combiner side: parked is set inside the lock before re-checking
        # status, so the combiner either observes parked and notifies, or we
        # observe its status store and never wait. The timeout is a backstop,
        # not a correctness requirement.
        cond = rec.cond
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
                    cond.wait(0.05)
            finally:
                rec.parked = 0

    def _wait_claimed(self, rec: OpRecord) -> None:
        # Handoff ack: every queue variant polls for the combiner's pickup,
        # then parks. Yield-polling past the budget is counterproductive: a
        # runnable-but-descheduled peer needs us off the core to finish.
        sleep = time.sleep
        for _ in range(SPIN_BUDGET):
            if rec.status != PENDING:
                return
            sleep(0)
        self._park_until(rec, CLAIMED)

    def _wait_done_sleeping(self, rec: OpRecord) -> None:
        # Single synchronization episode: no pickup spin, straight to sleep.
        self._park_until(rec, DONE)

    def _wait_phase2(self, strategy: WaitStrategy, rec: OpRecord, reg) -> None:
        sleep = time.sleep
        if strategy is WaitStrategy.SPIN:
            for _ in range(SPIN_BUDGET):
                if rec.status >= CALLER_EXECUTES:
                    return
                sleep(0)
            self._park_until(rec, CALLER_EXECUTES)
        elif strategy is WaitStrategy.SLEEP_AWAKE:
            self._park_until(rec, CALLER_EXECUTES)
        elif strategy is WaitStrategy.BACKOFF_SPIN:
            # Each failed check sleeps the next schedule entry (clamped), as
            # a timeout-bounded wait so completion can cut the nap short.
            sched = self.config.backoff_ms
            i = 0
            cond = rec.cond
            with cond:
                rec.parked = 1
                try:
                    while rec.status < CALLER_EXECUTES:
                        cond.wait(backoff_timeout(sched, i))
                        i += 1
                finally:
                    rec.parked = 0
        elif strategy is WaitStrategy.STOP_WORLD_SLEEP:
            # Poll, but sleep out any stop-world on the shared condition.
            spins = 0
            while rec.status < CALLER_EXECUTES:
                if self.sw_flag:
                    with self.sw_cond:
                        while self.sw_flag and rec.status < CALLER_EXECUTES:
                            self.sw_cond.wait(0.05)
                    spins = 0
                elif spins < SPIN_BUDGET:
                    spins += 1
                    sleep(0)
                else:
                    self._park_until(rec, CALLER_EXECUTES)
        else:  # PER_THREAD_FLAG
            spins = 0
            while rec.status < CALLER_EXECUTES:
                if reg.stop_flag:
                    with reg.cond:
                        while reg.stop_flag and rec.status < CALLER_EXECUTES:
                            reg.cond.wait(0.05)
                    spins = 0
                elif spins < SPIN_BUDGET:
                    spins += 1
                    sleep(0)
                else:
                    self._park_until(rec, CALLER_EXECUTES)

    # ------------------------------------------------------------------
    # delegated execution (caller side)
    # ------------------------------------------------------------------

    def _execute_delegated(self, rec: OpRecord, reg: ThreadRegistration) -> None:
        tree = self.tree
        checking = self.exclusion_violations is not None
        e1 = self.epoch if checking else 0
        try:
            act = rec.action
            if act == ACT_GET:
                result = tree.get(rec.key)
            elif act == ACT_SOFT_DELETE:
                with tree.mark_lock:
                    result = tree.soft_delete(rec.key)
                    self._log(OpKind.DELETE, rec.key, None, result)
            else:  # ACT_SOFT_INSERT
                with tree.mark_lock:
                    node = tree.find_node(rec.key)
                    if node.is_deleted and tree.live_count >= self.max_live:
                        result = False  # revive would bust the live budget
                    else:
                        result = tree.soft_insert(rec.key, rec.value)
                    self._log(OpKind.INSERT, rec.key, rec.value, result)
            if checking:
                self._note_epochs(e1)
            rec.result = result
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
            if reg.stop_flag:
                with reg.cond:
                    while reg.stop_flag and self.running:
                        reg.cond.wait(0.05)
            if hooks is not None:
                cb = getattr(hooks, "before_mark", None)
                if cb is not None:
                    cb(reg)
            reg.pending_mark = True
            # Recheck after publishing the mark: a flag raised in the window
            # since the first check means the combiner may already have seen
            # our mark clear, so back out and wait.
            if reg.stop_flag:
                reg.pending_mark = False
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
        dispatch = self._dispatch
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

    def _dispatch(self, rec: OpRecord) -> None:
        cfg = self.config
        if cfg.future_work:
            self._dispatch_combiner_executes(rec)
        elif cfg.soft_ops:
            self._dispatch_soft(rec)
        else:
            self._dispatch_plain(rec)

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
            self.pending_gets.add(1)
            self._delegate(rec, ACT_GET, REL_GETS)
            return
        pg = self.pending_gets
        if pg.load():  # writes wait until no delegated get is in flight
            self._gate_wait(lambda: not pg.load())
        tree = self.tree
        with tree.mark_lock:
            if rec.kind == OpKind.INSERT:
                if (
                    tree.find_node(rec.key) is None
                    and tree.live_count >= self.max_live
                ):
                    outcome = False
                else:
                    outcome = tree.insert(rec.key, rec.value)
                self._log(OpKind.INSERT, rec.key, rec.value, outcome)
            else:
                outcome = tree.delete(rec.key)
                self._log(OpKind.DELETE, rec.key, None, outcome)
        self._finish(rec, outcome)

    # V5/V6: soft writes delegated, physical inserts behind stop-world.
    def _dispatch_soft(self, rec: OpRecord) -> None:
        tree = self.tree
        per_thread = self.config.stop_world_scope is StopWorldScope.PER_THREAD
        kind = rec.kind
        if kind == OpKind.GET:
            self._count_delegation(rec, per_thread)
            self._delegate(rec, ACT_GET, REL_MARK if per_thread else REL_OPS)
        elif kind == OpKind.DELETE:
            if tree.find_node(rec.key) is None:
                # logical no-op, but stamped so the effect log lists every
                # write attempt in serialization order
                with tree.mark_lock:
                    self._log(OpKind.DELETE, rec.key, None, False)
                self._finish(rec, False)
            else:
                self._count_delegation(rec, per_thread)
                self._delegate(rec, ACT_SOFT_DELETE,
                               REL_MARK if per_thread else REL_OPS)
        else:  # INSERT
            if tree.find_node(rec.key) is None:
                self._physical_insert(rec)
            else:
                self._count_delegation(rec, per_thread)
                self._delegate(rec, ACT_SOFT_INSERT,
                               REL_MARK if per_thread else REL_OPS)

    # Future-work variant: the combiner executes writes itself; callers are
    # already asleep and get exactly one wakeup.
    def _dispatch_combiner_executes(self, rec: OpRecord) -> None:
        tree = self.tree
        kind = rec.kind
        if kind == OpKind.GET:  # normally bypasses the queue; serve anyway
            self._finish(rec, tree.get(rec.key))
            return
        if kind == OpKind.DELETE:
            with tree.mark_lock:
                node = tree.find_node(rec.key)
                outcome = tree.soft_delete(rec.key) if node is not None else False
                self._log(OpKind.DELETE, rec.key, None, outcome)
            self._finish(rec, outcome)
            return
        # INSERT; only the combiner mutates, so presence is stable here
        node = tree.find_node(rec.key)
        if node is None:
            self._physical_insert(rec)
            return
        with tree.mark_lock:
            if node.is_deleted and tree.live_count >= self.max_live:
                outcome = False
            else:
                outcome = tree.soft_insert(rec.key, rec.value)
            self._log(OpKind.INSERT, rec.key, rec.value, outcome)
        self._finish(rec, outcome)

    # Soft variants: a physically absent key is inserted behind stop-world,
    # and the tree compacted if the new node takes it over its budget.
    def _physical_insert(self, rec: OpRecord) -> None:
        tree = self.tree
        # Reject without stopping the world if the budget is already full;
        # the check is final once taken under mark_lock (concurrent soft ops
        # serialize on the same lock).
        with tree.mark_lock:
            full = tree.live_count >= self.max_live
            if full:
                self._log(OpKind.INSERT, rec.key, rec.value, False)
        if full:
            self._finish(rec, False)
            return
        self._enter_stop_world()
        with tree.mark_lock:  # uncontended now; taken for log stamping
            if tree.live_count >= self.max_live:
                outcome = False  # a concurrent revive filled the budget
            else:
                outcome = tree.insert(rec.key, rec.value)
            self._log(OpKind.INSERT, rec.key, rec.value, outcome)
        if tree.physical_count > tree.max_nodes:
            tree.compact()
            self.stats.compactions += 1
        self._finish(rec, outcome)
        self._exit_stop_world()

    def _count_delegation(self, rec: OpRecord, per_thread: bool) -> None:
        # Accounting happens before CALLER_EXECUTES becomes visible, so a
        # later stop-world drain is guaranteed to wait for this op.
        if per_thread:
            rec.owner.pending_mark = True
        else:
            self.pending_ops.add(1)

    def _advance(self, rec: OpRecord, status: int) -> None:
        # Store-then-check pairs with _park_until's set-then-check under the
        # record lock; sequential consistency makes missing both impossible.
        rec.status = status
        if rec.parked:
            with rec.cond:
                rec.cond.notify()

    def _delegate(self, rec: OpRecord, action: int, release: int) -> None:
        rec.action = action
        rec.release = release
        self._advance(rec, CALLER_EXECUTES)

    def _finish(self, rec: OpRecord, result) -> None:
        rec.result = result
        self._advance(rec, DONE)

    # ------------------------------------------------------------------
    # stop-world (combiner side only)
    # ------------------------------------------------------------------

    def _enter_stop_world(self) -> None:
        self.stats.stop_worlds += 1
        if self.config.stop_world_scope is StopWorldScope.GLOBAL:
            with self.sw_cond:
                self.sw_flag = True
            po = self.pending_ops
            if po.load():
                self._gate_wait(lambda: not po.load())
        else:
            with self._reg_lock:
                self._sw_active = True
                regs = list(self._reg_list)
            for reg in regs:
                reg.stop_flag = True
            if any(reg.pending_mark for reg in regs):
                self._gate_wait(
                    lambda: not any(reg.pending_mark for reg in regs)
                )
        self.epoch += 1  # odd: exclusive mutation phase begins

    def _exit_stop_world(self) -> None:
        self.epoch += 1  # even again
        hooks = self.test_hooks
        if hooks is not None:
            cb = getattr(hooks, "on_stop_world_exit", None)
            if cb is not None:
                cb(self.tree)
        if self.config.stop_world_scope is StopWorldScope.GLOBAL:
            with self.sw_cond:
                self.sw_flag = False
                self.sw_cond.notify_all()
        else:
            with self._reg_lock:
                self._sw_active = False
                regs = list(self._reg_list)
            for reg in regs:
                with reg.cond:
                    reg.stop_flag = False
                    reg.cond.notify_all()

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
        # release anyone parked on stop-world machinery
        with self.sw_cond:
            self.sw_cond.notify_all()
        with self._reg_lock:
            regs = list(self._reg_list)
        for reg in regs:
            with reg.cond:
                reg.cond.notify_all()

    def shutdown(self) -> None:
        self.running = False
        with self._qcond:
            self._qcond.notify()
        self._thread.join()

    def join_combiner(self, timeout: Optional[float] = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()
