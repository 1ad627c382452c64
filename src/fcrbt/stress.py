"""Stress harness: randomized concurrent runs guarded by a deadlock
watchdog, with post-run structural validation and effect-log replay checks,
plus small recorded histories for the linearizability checker."""

from __future__ import annotations

import random
import sys
import threading
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Tuple

from .history import HistoryEvent, HistoryRecorder
from .oracle import replay_writes
from .ops import Op, OpKind
from .variants import make_variant
from .workload import WorkloadSpec, generate_ops, mix_seed


class DeadlockError(RuntimeError):
    pass


def run_workers(
    worker_fns: List[Callable[[], None]], watchdog_secs: float
) -> List[Tuple[int, BaseException]]:
    """Run one thread per function; raise with a stack dump on deadlock."""
    errors: List[Tuple[int, BaseException]] = []
    barrier = threading.Barrier(len(worker_fns))

    def wrap(index: int, fn: Callable[[], None]):
        def target():
            try:
                barrier.wait(watchdog_secs)
                fn()
            except BaseException as exc:
                errors.append((index, exc))

        return target

    threads = [
        threading.Thread(target=wrap(i, fn), daemon=True, name=f"stress-{i}")
        for i, fn in enumerate(worker_fns)
    ]
    deadline = perf_counter() + watchdog_secs
    for t in threads:
        t.start()
    for t in threads:
        t.join(max(0.0, deadline - perf_counter()))
    stuck = [t for t in threads if t.is_alive()]
    if stuck:
        frames = sys._current_frames()
        dump = []
        for t in stuck:
            stack = frames.get(t.ident)
            trace = "".join(traceback.format_stack(stack)) if stack else "<gone>"
            dump.append(f"--- {t.name} ---\n{trace}")
        raise DeadlockError(
            f"{len(stuck)} worker(s) still running after {watchdog_secs}s:\n"
            + "\n".join(dump)
        )
    return errors


@dataclass
class StressReport:
    variant: str
    threads: int
    total_ops: int
    elapsed: float
    validate_ok: bool
    violations: List[str]
    replay_ok: bool
    stop_worlds: int
    compactions: int
    exclusion_violations: int
    budget_after_stop_world: List[int]  # physical count as each structural write ends
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.validate_ok and self.replay_ok and not self.errors


def run_stress(
    variant: str,
    threads: int,
    ops_per_thread: int,
    seed: int,
    max_nodes: int = 64,
    key_min: int = 0,
    key_max: int = 128,
    watchdog_secs: float = 120.0,
) -> StressReport:
    """Mixed random workload on a fresh map; verifies structure and replay.

    The effect log is the combiner-observed serialization of all logical
    writes; replaying it through the sequential oracle must reproduce both
    every logged outcome and the final live key set.
    """
    spec = WorkloadSpec(
        key_min=key_min,
        key_max=key_max,
        max_nodes=max_nodes,
        total_ops=threads * ops_per_thread,
        thread_counts=(threads,),
        seed=seed,
        variants=(variant,),
        watchdog_secs=watchdog_secs,
    )
    m = make_variant(
        variant, max_nodes, threads, record_effects=True, check_exclusion=True
    )
    budget_after = []
    engine = getattr(m, "engine", None)
    if engine is not None:
        from types import SimpleNamespace

        engine.test_hooks = SimpleNamespace(
            on_stop_world_exit=lambda tree: budget_after.append(tree.physical_count)
        )

    def worker(index: int) -> Callable[[], None]:
        ops = generate_ops(spec, index, ops_per_thread)

        def run():
            m.register_thread()
            for op in ops:
                m.apply(op)

        return run

    start = perf_counter()
    # On a DeadlockError the map is left un-shut-down: joining a wedged
    # combiner hangs.
    errors = run_workers([worker(i) for i in range(threads)], watchdog_secs)
    elapsed = perf_counter() - start

    report = m.validate()
    log = m.effect_log
    replay_results, replay_keys = replay_writes(log, max_live=max_nodes)
    replay_ok = replay_results == [entry[3] for entry in log] and replay_keys == set(
        m.tree.live_keys()
    )
    excl = getattr(m, "exclusion_violations", None) or []
    stats = m.stats
    m.shutdown()
    return StressReport(
        variant=variant,
        threads=threads,
        total_ops=threads * ops_per_thread,
        elapsed=elapsed,
        validate_ok=report.ok,
        violations=list(report.violations),
        replay_ok=replay_ok,
        stop_worlds=stats.stop_worlds,
        compactions=stats.compactions,
        exclusion_violations=len(excl),
        budget_after_stop_world=budget_after,
        errors=[f"worker {i}: {exc!r}" for i, exc in errors],
    )


def run_recorded_history(
    variant: str,
    threads: int = 3,
    ops_per_thread: int = 3,
    key_range: int = 4,
    seed: int = 0,
    watchdog_secs: float = 60.0,
) -> List[HistoryEvent]:
    """Small concurrent run with per-op timing, for the brute-force checker.

    The map gets a node budget wider than the key range so budget rejections
    never enter the recorded semantics.
    """
    m = make_variant(variant, max_nodes=2 * key_range + 2, max_threads=threads)
    recorder = HistoryRecorder()
    logs = [recorder.thread_log(i) for i in range(threads)]

    def worker(index: int) -> Callable[[], None]:
        rng = random.Random(mix_seed(seed, index))
        ops: List[Op] = []
        for _ in range(ops_per_thread):
            r = rng.randrange(3)
            kind = (OpKind.INSERT, OpKind.DELETE, OpKind.GET)[r]
            ops.append((kind, rng.randrange(key_range), rng.randrange(100)))
        log = logs[index]

        def run():
            m.register_thread()
            for op in ops:
                log.record(m, op)

        return run

    # On a DeadlockError the map is left un-shut-down, as in run_stress.
    errors = run_workers([worker(i) for i in range(threads)], watchdog_secs)
    m.shutdown()
    if errors:
        raise RuntimeError(f"history workers failed: {errors!r}")
    return recorder.merged()
