"""Flat-combining engine: publication queue, combiner loop, caller wait
strategies, the delegated-op drain and per-thread stop flags.

One dedicated combiner thread owns all structural tree mutation. Callers
publish an OpRecord, park until the combiner claims it, then wait in one
loop, _wait_phase2, that reads a row of data from their WaitStrategy: how
many yield-polls to make, and whether the park naps along the backoff
schedule or on the fixed backstop. The future-work variant parks once until
DONE. The combiner classifies each op once, in _dispatch: a get is delegated
to its caller, a delete of an absent key is a logged no-op, a soft variant's
write to a present key becomes a soft action (delegated, or in the
future-work variant run by the combiner), and every other write is
structural. A delegated op is in flight exactly while its record's status
reads CALLER_EXECUTES, so the records are the count; a get that bypasses
the queue counts itself in its caller's pending mark. Every structural
write takes one path, _structural_write: where gets bypass the queue raise
every caller's stop flag, wait until _drained(), then mutate with epoch
odd. So V1-V4 writes advance epoch too, and the exclusion check covers
their gets. A stop flag is kept only where a reader checks it: a get that
bypasses the queue reads its own. A queued op needs none, since the
combiner delegates nothing while it runs a structural write.

Every caller<->combiner handoff is one park and one post on a ParkSlot owned
by the waiter: a caller parks on its record's slot, or on its registration's
slot while its stop flag is raised, and the combiner on its own slot,
whether its queue is empty or a gate waits for a delegated op to finish.
A yield-poll is no cheaper: under the GIL the polling thread queues on the
interpreter lock, and waking it from there costs more than waking a parked
thread. Only the phase-2 rows with a poll budget still yield-poll, each with
time.sleep(0), since an unyielding spinner would hold the interpreter for a
whole switch interval per iteration, and a caller whose pickup wake already
finds its record delegated or done skips phase 2. Every park that does not
back off times out after BACKSTOP_MS, read at each park, as a backstop
against a lost post. Both sides of a handoff run under the batch scheduling
policy where the OS has one: the combiner thread moves itself there, and so
does every thread that registers, for the rest of its life (threads it
starts later inherit the policy). A post then never preempts the thread that
makes it. A caller's post leaves the caller running until it parks and drops
the interpreter lock; the combiner's post leaves the combiner running until
its turn ends and it parks, so the woken caller runs then, and the
combiner's next wake finds every record queued meanwhile. A thread under any
other policy (real-time, idle, deadline) is left alone, and one the OS
refuses stays as it was.

Visibility notes, used throughout instead of per-field locks: plain attribute
loads and stores are GIL-atomic, and the GIL serializes them into a single
total order, so flag/mark/status handshakes (store A then read B vs. store B
then read A) cannot both miss. The registrations are a tuple replaced
whole under _reg_lock, so the combiner scans it without the lock.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .ops import OpKind
from .rbtree import Node, RBTree

# The op kinds as module globals: reading an enum member off its class costs
# about 0.1 us in CPython 3.11, several times in every combiner turn.
GET, INSERT, DELETE = OpKind.GET, OpKind.INSERT, OpKind.DELETE

# OpRecord.status values; strictly increasing along the record's lifecycle.
PENDING = 0
CLAIMED = 1
CALLER_EXECUTES = 2
DONE = 3

# How many yield-polls a phase-2 wait with a spinning row makes before it
# parks on its record's slot. Past that budget a runnable-but-descheduled
# peer needs the core free, so the caller parks.
SPIN_BUDGET = 16


def backoff_timeout(schedule_ms, attempt: int) -> float:
    """Seconds to wait after the given 0-based failed status check.

    Walks the schedule one entry per failed check and clamps at the last
    entry once the schedule is exhausted.
    """
    last = len(schedule_ms) - 1
    return schedule_ms[attempt if attempt < last else last] / 1000.0


def batch_policy() -> None:
    """Move the calling thread from the normal scheduling policy to the batch
    one. A batch thread never preempts the thread that wakes it (sched(7)):
    a preempting thread would find the interpreter lock held and block again,
    two more context switches per handoff. The move needs no privilege; a
    thread under any other policy keeps it, and a refusal changes nothing."""
    try:
        if os.sched_getscheduler(0) == os.SCHED_OTHER:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):  # no such call or policy here, or refused
        pass


# Delegated-action codes the combiner attaches before CALLER_EXECUTES.
ACT_GET = 0
ACT_SOFT_INSERT = 1
ACT_SOFT_DELETE = 2

# Backoff sleep schedule, milliseconds; index clamps at the last entry.
BACKOFF_MS = (1, 3, 10, 20, 50, 100, 200, 500, 1000, 3033, 5000)

# Nap of every park that does not back off. It is a backstop against a missed
# post, not a correctness requirement; parks read it when they start.
BACKSTOP_MS = (50,)


class WaitStrategy(Enum):
    """How a caller waits, as one row per member: ``spins`` yield-polls
    before parking; ``backoff``, whether its park naps along ``BACKOFF_MS``
    rather than ``BACKSTOP_MS``."""

    SLEEP_AWAKE = ("sleep-awake", 0, False)
    SPIN = ("spin", SPIN_BUDGET, False)
    BACKOFF_SPIN = ("backoff-spin", 0, True)

    def __new__(cls, value: str, spins: int, backoff: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.spins = spins
        member.backoff = backoff
        return member


@dataclass(frozen=True)
class VariantConfig:
    """One engine, many shapes: each variant is a row of this table. Where
    gets bypass the queue, every structural write raises the callers' stop
    flags, the only fence such a get has."""

    id: str
    get_wait: WaitStrategy
    write_wait: WaitStrategy
    soft_ops: bool
    gets_bypass_queue: bool
    future_work: bool = False

    def __post_init__(self):
        if self.future_work and not self.soft_ops:
            raise ValueError("the future-work variant requires soft ops")


def insert_refused(tree: RBTree, node: Optional[Node], budget: int) -> bool:
    """The live budget rule: an insert that would add a live key (its node is
    absent or soft-deleted) fails once ``live_count`` has reached ``budget``."""
    return (node is None or node.is_deleted) and tree.live_count >= budget


class RegistrationError(RuntimeError):
    pass


class ShutdownError(RuntimeError):
    pass


class ParkSlot:
    """One waiter's wake-up: a lock used as a binary semaphore. ``post``
    releases it, and a post that finds it already posted is dropped; ``wait``
    takes the post or times out. A post made before the wait is kept, so the
    pairing needs no lock: the waiter stores its parked flag, re-checks what it
    waits for, then waits; the waker stores its change, then posts if it sees
    the flag. Under the GIL one of the two sees the other's store. A stale post
    only makes the next wait return early, and every waiter re-checks."""

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()
        self._lock.acquire()

    def post(self) -> None:
        lock = self._lock
        if lock.locked():  # not posted yet; a raise would cost more
            try:
                lock.release()
            except RuntimeError:  # another waker posted first
                pass

    def wait(self, timeout: float) -> bool:
        return self._lock.acquire(True, timeout)


class OpRecord:
    __slots__ = (
        "kind",
        "key",
        "value",
        "status",
        "action",
        "result",
        "seq",
        "shutdown",
        "parked",
        "cond",
        "owner",
    )

    def __init__(self, owner: "ThreadRegistration"):
        self.kind = GET
        self.key = 0
        self.value = 0
        self.status = DONE
        self.action = -1
        self.result: Optional[int] = None
        self.seq = -1
        self.shutdown = False
        self.parked = 0  # caller is (about to be) waiting on cond
        self.cond = ParkSlot()
        self.owner = owner


class ThreadRegistration:
    """A registered caller. A structural write raises its ``flag`` where gets
    bypass the queue; its bypassing get, the flag's one reader, parks on
    ``cond`` while the flag is raised and holds ``pending_mark`` while it
    reads the tree."""

    __slots__ = ("thread_id", "thread", "flag", "parked", "cond", "pending_mark",
                 "record")

    def __init__(self, thread_id: int, thread: threading.Thread):
        self.thread_id = thread_id
        self.thread = thread  # liveness disambiguates reused thread ids
        self.flag = False
        self.parked = False  # the get is (about to be) waiting on cond
        self.cond = ParkSlot()
        self.pending_mark = False
        # one in-flight op per thread, so the record is reusable
        self.record = OpRecord(self)


@dataclass
class EngineStats:
    stop_worlds: int = 0  # structural writes of a soft variant
    compactions: int = 0
    get_retries: int = 0  # bypass-get fast-path aborts (stop flag races)


class CombinerEngine:
    """The publication queue plus its dedicated combiner thread.

    The tree's ``max_nodes`` is the logical budget: an insert that would
    create or revive a key when live_count is already at the budget fails
    (returns False), which keeps the physical count bounded across
    compactions.
    """

    def __init__(
        self,
        tree: RBTree,
        config: VariantConfig,
        max_threads: int,
        record_effects: bool = False,
        check_exclusion: bool = False,
    ):
        if max_threads <= 0:
            raise ValueError("max_threads must be positive")
        self.tree = tree
        self.config = config
        self.max_threads = max_threads
        self.queue: deque = deque()
        self.registrations: dict = {}
        # Replaced whole under _reg_lock, never changed in place: the combiner
        # scans it without the lock for records at CALLER_EXECUTES, the one
        # count of delegated ops in flight.
        self._regs: Tuple[ThreadRegistration, ...] = ()
        self._reg_lock = threading.Lock()

        # The combiner's own slot. It parks there on an empty queue (_parked;
        # a producer posts) or in a gate (_gate_parked; a caller that ends a
        # delegated op or clears its pending mark posts). A timed nap instead
        # would delay it by milliseconds while callers wait on it.
        self._wake = ParkSlot()
        self._parked = False
        self._gate_parked = False
        self._sw_active = False  # guarded by _reg_lock; covers late registration
        # Incremented when a structural write begins and again when it
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
                self._regs = tuple(r for r in self._regs if r is not stale)
            if len(self.registrations) >= self.max_threads:
                raise RegistrationError(
                    f"capacity {self.max_threads} reached, registration rejected"
                )
            reg = ThreadRegistration(ident, thread)
            # A thread that registers mid-stop-world must start out halted.
            reg.flag = self._sw_active
            self.registrations[ident] = reg
            self._regs += (reg,)
        batch_policy()  # so a combiner's post never preempts the combiner
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
        rec.shutdown = False
        rec.status = PENDING
        self.queue.append(rec)
        if self._parked:
            self._wake.post()

        cfg = self.config
        if cfg.future_work:
            # Single synchronization episode: no pickup poll, straight to sleep.
            self._park_until(rec, DONE)
        else:
            self._wait_claimed(rec)
            if rec.status < CALLER_EXECUTES:  # the pickup wake often finds more
                self._wait_phase2(cfg.get_wait if kind == GET else cfg.write_wait, rec)
            if rec.status == CALLER_EXECUTES:
                self._execute_delegated(rec)
        if rec.shutdown:
            raise ShutdownError("operation aborted by shutdown")
        return rec.result

    # ------------------------------------------------------------------
    # wait phases (caller side)
    # ------------------------------------------------------------------

    def _park_until(self, rec: OpRecord, threshold: int, naps=None) -> None:
        # Blocking tail of every caller wait; each failed status check naps
        # the next entry of `naps` (clamped; BACKSTOP_MS by default), cut
        # short by a post. Pairs with _advance on the combiner side: parked is
        # stored before status is re-checked, so the combiner either observes
        # parked and posts, or we observe its status store and never wait.
        if naps is None:
            naps = BACKSTOP_MS
        slot = rec.cond
        attempt = 0
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
                slot.wait(backoff_timeout(naps, attempt))
                attempt += 1
        finally:
            rec.parked = 0

    def _wait_claimed(self, rec: OpRecord) -> None:
        # Handoff ack: every queue variant parks at once until the combiner's
        # pickup. The combiner has not started on the record yet, so a
        # yield-poll cannot see it claimed; it only delays the wake-up.
        self._park_until(rec, CLAIMED)

    def _wait_phase2(self, strategy: WaitStrategy, rec: OpRecord) -> None:
        # The one caller wait loop, driven by the strategy's row: yield-poll
        # up to its budget, then park along its nap schedule.
        sleep = time.sleep
        for _ in range(strategy.spins):
            if rec.status >= CALLER_EXECUTES:
                return
            sleep(0)
        naps = BACKOFF_MS if strategy.backoff else BACKSTOP_MS
        self._park_until(rec, CALLER_EXECUTES, naps)

    # ------------------------------------------------------------------
    # delegated execution (caller side)
    # ------------------------------------------------------------------

    def _execute_delegated(self, rec: OpRecord) -> None:
        checking = self.exclusion_violations is not None
        e1 = self.epoch if checking else 0
        try:
            rec.result = self._run_action(rec.action, rec, None)
            if checking:
                self._note_epochs(e1)
        finally:
            # DONE must be stored even if the op blew up: leaving
            # CALLER_EXECUTES is what ends this op's count, and a combiner
            # parked in _gate_wait would wait on it forever. The store comes
            # before the read of _gate_parked, as in _park_until: either the
            # combiner's re-check sees DONE, or we see it parked and post.
            rec.status = DONE
            if self._gate_parked:
                self._wake.post()

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
                self._log(DELETE, key, None, result)
                return result
            if node is None:
                node = tree.find_node(key)
            if insert_refused(tree, node, tree.max_nodes):
                result = False
            else:
                result = tree.soft_insert(key, rec.value)
            self._log(INSERT, key, rec.value, result)
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
                # Park until the stop-world lowers the flag. parked is stored
                # before the flag is re-read, and _halt_registrations lowers
                # it before reading parked, as in _park_until.
                reg.parked = True
                while reg.flag and self.running:
                    reg.cond.wait(BACKSTOP_MS[0] / 1000.0)
                reg.parked = False
                if not self.running:
                    # A combiner that crashed mid-stop-world never lowers it.
                    raise ShutdownError("engine is shut down")
            if hooks is None:
                reg.pending_mark = True
            else:
                cb = getattr(hooks, "before_mark", None)
                if cb is not None:
                    cb(reg)
                reg.pending_mark = True
                cb = getattr(hooks, "before_recheck", None)
                if cb is not None:
                    cb(reg)
            # Recheck after publishing the mark: a flag raised in the window
            # since the first check means the combiner may already have seen
            # our mark clear, so back out and wait.
            if reg.flag:
                reg.pending_mark = False
                if self._gate_parked:
                    self._wake.post()
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
        if self._gate_parked:
            self._wake.post()
        return result

    # ------------------------------------------------------------------
    # combiner side
    # ------------------------------------------------------------------

    def _combiner_loop(self) -> None:
        batch_policy()
        queue = self.queue
        popleft = queue.popleft
        wake = self._wake
        dispatch = self._dispatch
        while True:
            if not self.running:
                self._drain()
                return
            if not queue:
                # Park at once on an empty queue; a producer that sees _parked
                # after its append posts (store-then-check, as in _park_until).
                self._parked = True
                if not queue and self.running:
                    wake.wait(BACKSTOP_MS[0] / 1000.0)
                self._parked = False
                continue
            try:
                rec = popleft()
            except IndexError:  # a caller withdrew it after shutdown began
                continue
            try:
                rec.seq = self._seq
                self._seq += 1
                self._advance(rec, CLAIMED)
                hooks = self.test_hooks
                if hooks is not None:
                    cb = getattr(hooks, "on_claim", None)
                    if cb is not None:
                        cb(rec)
                dispatch(rec)
            except BaseException as exc:  # protocol violation: abort loudly
                self.crashed = exc
                traceback.print_exc()
                rec.shutdown = True
                self._finish(rec, None)
                self.running = False
                self._drain()
                raise

    def _drained(self) -> bool:
        # No delegated op in flight and no bypassing get marked. The combiner
        # delegates nothing while it drains, and a get that marks itself
        # under a raised stop flag backs out, so a true result holds until
        # the write ends. A thread that registers meanwhile has no record
        # delegated, and starts out halted (_sw_active).
        for reg in self._regs:
            if reg.record.status == CALLER_EXECUTES or reg.pending_mark:
                return False
        return True

    def _gate_wait(self) -> None:
        # Combiner-side wait until _drained(): park, and each caller that
        # ends a delegated op or clears its mark posts. _gate_parked is
        # stored before the re-check, and each caller stores its change
        # before reading _gate_parked, as in _park_until.
        if self._drained():
            return
        wake = self._wake
        self._gate_parked = True
        while not self._drained():
            wake.wait(BACKSTOP_MS[0] / 1000.0)
        self._gate_parked = False

    # Each op is classified once. A get, or a soft variant's write to a
    # present key, becomes an action: delegated to its caller, or in the
    # future-work variant run by the combiner itself, so the sleeping caller
    # gets exactly one wakeup. Only the combiner mutates structure, so the
    # node found here stays in place until the write is done.
    def _dispatch(self, rec: OpRecord) -> None:
        kind = rec.kind
        node = None
        if kind == GET:
            action = ACT_GET
        else:
            node = self.tree.find_node(rec.key)
            if node is None and kind == DELETE:
                # logical no-op, but stamped so the effect log lists every
                # write attempt in serialization order
                with self.tree.mark_lock:
                    self._log(DELETE, rec.key, None, False)
                self._finish(rec, False)
                return
            if node is None or not self.config.soft_ops:
                self._structural_write(rec, node)
                return
            action = ACT_SOFT_INSERT if kind == INSERT else ACT_SOFT_DELETE
        if self.config.future_work:
            self._finish(rec, self._run_action(action, rec, node))
        else:
            self._delegate(rec, action)

    def _structural_write(self, rec: OpRecord, node: Optional[Node]) -> None:
        # The one path that changes the tree's shape: raise the stop flags
        # if gets bypass the queue, drain the delegated ops in flight, mutate
        # with epoch odd, compact if the physical budget overflowed, then
        # lower the flags.
        tree = self.tree
        key = rec.key
        budget = tree.max_nodes
        insert = rec.kind == INSERT
        if insert and insert_refused(tree, node, budget):
            # Reject without stopping the world if the budget is already full;
            # the check is final once repeated under mark_lock (concurrent
            # soft ops serialize on the same lock).
            with tree.mark_lock:
                full = insert_refused(tree, node, budget)
                if full:
                    self._log(INSERT, key, rec.value, False)
            if full:
                self._finish(rec, False)
                return
        cfg = self.config
        if cfg.soft_ops:
            self.stats.stop_worlds += 1
        halt = cfg.gets_bypass_queue
        if halt:
            self._halt_registrations(True)
        self._gate_wait()
        self.epoch += 1  # odd: exclusive mutation phase begins
        with tree.mark_lock:  # uncontended now; taken for log stamping
            if insert:
                # refused now only if a concurrent revive filled the budget
                outcome = not insert_refused(tree, node, budget) and tree.insert(
                    key, rec.value)
                self._log(INSERT, key, rec.value, outcome)
            else:
                tree.delete_node(node)
                outcome = True
                self._log(DELETE, key, None, True)
        if tree.physical_count > budget:
            tree.compact()
            self.stats.compactions += 1
        self._finish(rec, outcome)
        self.epoch += 1  # even again
        hooks = self.test_hooks
        if hooks is not None:
            cb = getattr(hooks, "on_stop_world_exit", None)
            if cb is not None:
                cb(tree)
        if halt:
            self._halt_registrations(False)

    def _advance(self, rec: OpRecord, status: int) -> None:
        # Store-then-check pairs with _park_until's set-then-check; sequential
        # consistency makes missing both impossible.
        rec.status = status
        if rec.parked:
            rec.cond.post()

    def _delegate(self, rec: OpRecord, action: int) -> None:
        # CALLER_EXECUTES counts the op in flight until its caller stores
        # DONE (see _execute_delegated); only the combiner stores it, so no
        # op is delegated while a drain runs.
        rec.action = action
        self._advance(rec, CALLER_EXECUTES)

    def _finish(self, rec: OpRecord, result) -> None:
        rec.result = result
        self._advance(rec, DONE)

    def _halt_registrations(self, halt: bool) -> None:
        # Raise or lower every registration's stop flag, posting each get
        # parked on a lowered one; _sw_active halts a thread that registers
        # while the world is stopped.
        with self._reg_lock:
            self._sw_active = halt
            regs = self._regs
        for reg in regs:
            reg.flag = halt
            if reg.parked and not halt:
                reg.cond.post()

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
            self._advance(rec, DONE)
        # release any get parked on a stop flag the combiner will not lower
        for reg in self._regs:
            reg.cond.post()

    def shutdown(self) -> None:
        self.running = False
        self._wake.post()
        self._thread.join()

    def join_combiner(self, timeout: Optional[float] = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()
