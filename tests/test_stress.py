"""Concurrent stress runs: deadlock watchdog, post-run validation, effect-log
replay, determinism, and the physical-budget invariant under churn."""

import sys
import threading
import time

import pytest

from fcrbt import runtime
from fcrbt.stress import DeadlockError, run_stress, run_workers
from fcrbt.variants import ENGINE_VARIANTS, OPTIONAL_VARIANTS, make_variant
from fcrbt.workload import WorkloadSpec, generate_ops


def test_v1_four_threads_completes_and_validates():
    report = run_stress("V1", threads=4, ops_per_thread=10_000, seed=1)
    assert report.ok, (report.violations, report.errors)
    assert report.total_ops == 40_000
    assert report.exclusion_violations == 0
    assert report.stop_worlds == 0  # no soft ops, no stop-world machinery


def test_v6_churn_keeps_physical_budget_after_every_stop_world():
    report = run_stress(
        "V6", threads=8, ops_per_thread=1500, seed=2, max_nodes=64, key_max=128
    )
    assert report.ok, (report.violations, report.errors)
    assert report.stop_worlds >= 1
    assert report.compactions >= 1
    assert report.budget_after_stop_world, "stop-world exits were not observed"
    assert all(p <= 64 for p in report.budget_after_stop_world)


@pytest.mark.parametrize("variant", ["V2", "V3", "V5", "CoarseLock", "FutureWork"])
def test_stress_replay_matches_for_every_variant(variant):
    report = run_stress(variant, threads=4, ops_per_thread=2500, seed=3)
    assert report.ok, (report.violations, report.errors)
    assert report.exclusion_violations == 0


def run_stress_fast_switching(variant, **kw):
    # run_stress at a 10 us switch interval, on a helper thread so that no
    # join, the combiner's included, is unbounded.
    outcome = []

    def run():
        try:
            outcome.append(run_stress(variant, watchdog_secs=60.0, **kw))
        except Exception as exc:  # handed to the test thread below
            outcome.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(90.0)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive(), "stress run did not finish within 90 s"
    report = outcome[0]
    assert not isinstance(report, Exception), repr(report)
    return report


@pytest.mark.parametrize("variant", ["V5", "V6", "FutureWork"])
def test_marked_set_survives_fast_switching(variant):
    # Callers flip marks (and the tree's marked-key set) while the combiner
    # compacts; a 10 us switch interval interleaves them finely.
    report = run_stress_fast_switching(variant, threads=4, ops_per_thread=3000,
                                       seed=13, max_nodes=16, key_max=32)
    assert report.validate_ok, report.violations
    assert report.replay_ok and not report.errors, report.errors
    assert report.compactions >= 1
    assert report.exclusion_violations == 0


@pytest.mark.parametrize("variant", ["V1", "V2", "V3", "V4"])
def test_plain_writes_exclude_delegated_gets_under_fast_switching(variant):
    # Every structural write drains the delegated gets in flight before it
    # mutates, so no get overlaps an odd epoch. At a 10 us switch interval a
    # write that skipped the drain overlaps several of the run's 64,000 gets.
    report = run_stress_fast_switching(variant, threads=4, ops_per_thread=20_000,
                                       seed=1, max_nodes=64, key_max=128)
    assert report.ok, (report.violations, report.errors)
    assert report.budget_after_stop_world, "structural writes were not observed"
    assert report.exclusion_violations == 0


@pytest.mark.parametrize("variant", ENGINE_VARIANTS + OPTIONAL_VARIANTS)
def test_closed_loop_never_waits_on_a_backstop(variant, monkeypatch):
    # Every park times out only after BACKSTOP_MS; at 10 s a lost post shows
    # as an operation that takes seconds instead of microseconds.
    monkeypatch.setattr(runtime, "BACKSTOP_MS", (10_000,))
    spec = WorkloadSpec(insert_pct=30, delete_pct=30, get_pct=40, key_min=0,
                        key_max=32, max_nodes=16, seed=21)
    m = make_variant(variant, 16, 2)
    worst = [0.0, 0.0]

    def caller(index):
        m.register_thread()
        apply = m.apply
        clock = time.perf_counter
        slowest = 0.0
        for op in generate_ops(spec, index, 20_000):
            start = clock()
            apply(op)
            slowest = max(slowest, clock() - start)
        worst[index] = slowest

    try:
        errors = run_workers([lambda: caller(0), lambda: caller(1)], watchdog_secs=120.0)
    finally:
        m.shutdown()
    assert not errors, errors
    assert max(worst) < 2.0, f"slowest operation took {max(worst):.3f} s"
    assert m.validate().ok


def test_same_seed_single_thread_is_bit_identical():
    spec = WorkloadSpec(key_min=0, key_max=64, max_nodes=32, seed=9)
    script = generate_ops(spec, 0, 5000)
    runs = []
    for _ in range(2):
        m = make_variant("V5", 32, 1)
        m.register_thread()
        runs.append([m.apply(op) for op in script])
        m.shutdown()
    assert runs[0] == runs[1]


def test_coarse_lock_and_v5_serializations_agree_single_threaded():
    spec = WorkloadSpec(key_min=0, key_max=48, max_nodes=24, seed=4)
    script = generate_ops(spec, 0, 4000)
    logs, keys = [], []
    for which in ("CoarseLock", "V5"):
        m = make_variant(which, 24, 1, record_effects=True)
        m.register_thread()
        for op in script:
            m.apply(op)
        logs.append(list(m.effect_log))
        keys.append(sorted(m.tree.live_keys()))
        m.shutdown()
    # identical serialization logs force identical final key sets
    assert logs[0] == logs[1]
    assert keys[0] == keys[1]


def test_watchdog_raises_with_a_stack_dump():
    release = threading.Event()

    def stuck():
        release.wait(30.0)

    with pytest.raises(DeadlockError, match="stress-0"):
        run_workers([stuck], watchdog_secs=0.3)
    release.set()


def test_worker_exceptions_are_collected_not_raised():
    def boom():
        raise ValueError("deliberate")

    def fine():
        pass

    errors = run_workers([boom, fine], watchdog_secs=10.0)
    assert len(errors) == 1
    index, exc = errors[0]
    assert index == 0
    assert isinstance(exc, ValueError)
