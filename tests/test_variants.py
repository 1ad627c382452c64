"""Variant assembly: the configuration table, per-variant dispatch rules,
the queue-bypass get path, and the future-work (enqueue-then-sleep) variant."""

import dataclasses
import threading
from types import SimpleNamespace

import pytest
from conftest import in_flight

from fcrbt.ops import OpKind
from fcrbt.oracle import OracleMap
from fcrbt.runtime import (
    ACT_SOFT_DELETE,
    ACT_SOFT_INSERT,
    WaitStrategy,
)
from fcrbt.variants import (
    ALL_VARIANTS,
    ENGINE_VARIANTS,
    OPTIONAL_VARIANTS,
    VARIANTS,
    CoarseLockMap,
    FlatCombiningMap,
    make_variant,
)


# ---------------------------------------------------------------------------
# configuration table
# ---------------------------------------------------------------------------


def test_variant_table_wait_strategies():
    S = WaitStrategy
    expected = {
        # (get wait, write wait, soft ops, gets bypass queue)
        "V1": (S.SLEEP_AWAKE, S.SLEEP_AWAKE, False, False),
        "V2": (S.SPIN, S.SLEEP_AWAKE, False, False),
        "V3": (S.SPIN, S.BACKOFF_SPIN, False, False),
        "V4": (S.SPIN, S.SPIN, False, False),
        "V5": (S.SPIN, S.SLEEP_AWAKE, True, False),
        "V6": (S.SPIN, S.SLEEP_AWAKE, True, True),
    }
    for vid, row in expected.items():
        cfg = VARIANTS[vid]
        got = (cfg.get_wait, cfg.write_wait, cfg.soft_ops, cfg.gets_bypass_queue)
        assert got == row, vid
        assert cfg.future_work is False


def test_future_work_config():
    cfg = VARIANTS["FutureWork"]
    assert cfg.future_work is True
    assert cfg.soft_ops is True
    assert cfg.gets_bypass_queue is True


def test_variant_name_tuples():
    assert ENGINE_VARIANTS == ("V1", "V2", "V3", "V4", "V5", "V6")
    assert ALL_VARIANTS == ENGINE_VARIANTS + ("CoarseLock",)
    assert OPTIONAL_VARIANTS == ("FutureWork",)


@pytest.mark.parametrize(
    "base,changes",
    [
        # the combiner executes soft actions only
        ("FutureWork", dict(soft_ops=False)),
    ],
    ids=["future-work-hard"],
)
def test_config_rejects_unsafe_shapes(base, changes):
    with pytest.raises(ValueError):
        dataclasses.replace(VARIANTS[base], id="bad", **changes)


# ---------------------------------------------------------------------------
# make_variant
# ---------------------------------------------------------------------------


def test_make_variant_rejects_unknown_id():
    with pytest.raises(ValueError):
        make_variant("V9", 100, 4)


@pytest.mark.parametrize("max_nodes,max_threads", [(0, 4), (-1, 4), (10, 0), (10, -2)])
def test_make_variant_rejects_invalid_sizes(max_nodes, max_threads):
    with pytest.raises(ValueError):
        make_variant("V1", max_nodes, max_threads)


def test_coarse_lock_is_a_plain_locked_tree(managed_map):
    m = managed_map("CoarseLock")
    assert isinstance(m, CoarseLockMap)
    assert not hasattr(m, "engine")
    m.register_thread()  # no-op, same surface as the engine variants
    assert m.insert(1, 10) is True
    assert m.get(1) == 10
    assert m.delete(1) is True
    assert m.get(1) is None


@pytest.mark.parametrize("which", list(ENGINE_VARIANTS) + ["FutureWork"])
def test_engine_variants_are_flat_combining_maps(managed_map, which):
    m = managed_map(which)
    assert isinstance(m, FlatCombiningMap)
    assert m.name == which


# ---------------------------------------------------------------------------
# V1 dispatch rules
# ---------------------------------------------------------------------------


def test_v1_structural_write_advances_epoch_without_a_stop_world(managed_map):
    m = managed_map("V1")
    m.register_thread()
    engine = m.engine
    exits = []
    engine.test_hooks = SimpleNamespace(on_stop_world_exit=exits.append)
    assert m.insert(4, 40) is True
    assert engine.epoch == 2  # odd while the combiner mutated, even again
    assert exits == [m.tree]
    assert m.delete(5) is False  # absent: a logged no-op, no mutation
    assert engine.epoch == 2
    assert m.delete(4) is True
    assert engine.epoch == 4
    assert m.stats.stop_worlds == 0  # no stop flag was raised


# ---------------------------------------------------------------------------
# V5 dispatch rules
# ---------------------------------------------------------------------------


def test_v5_insert_at_physical_budget_stops_world_and_compacts(managed_map):
    m = managed_map("V5", max_nodes=4)
    m.register_thread()
    for k in range(4):
        m.insert(k, k * 10)
    assert m.delete(2) is True  # soft: physical count stays 4
    assert m.tree.physical_count == 4
    sw0 = m.stats.stop_worlds
    comp0 = m.stats.compactions

    assert m.insert(9, 90) is True  # physically absent, budget full
    assert m.stats.stop_worlds == sw0 + 1
    assert m.stats.compactions == comp0 + 1
    assert m.tree.physical_count <= 4
    assert m.validate().ok
    assert sorted(m.tree.live_keys()) == [0, 1, 3, 9]


def test_v5_delete_absent_key_answers_without_delegation(managed_map):
    m = managed_map("V5")
    reg = m.register_thread()
    sw0 = m.stats.stop_worlds
    assert m.delete(77) is False
    assert reg.record.action == -1  # combiner answered; nothing delegated
    assert m.stats.stop_worlds == sw0
    assert in_flight(m.engine) == 0


def test_v5_insert_on_soft_deleted_key_is_delegated_soft_insert(managed_map):
    m = managed_map("V5")
    reg = m.register_thread()
    m.insert(13, 130)
    m.delete(13)
    assert m.get(13) is None
    assert m.insert(13, 131) is True
    assert reg.record.action == ACT_SOFT_INSERT
    assert m.get(13) == 131


def test_v5_delete_present_key_is_delegated_soft_delete(managed_map):
    m = managed_map("V5")
    reg = m.register_thread()
    m.insert(13, 130)
    assert m.delete(13) is True
    assert reg.record.action == ACT_SOFT_DELETE
    assert m.tree.physical_count == 1  # still there, only marked


def test_v5_gets_are_delegated_and_counted(managed_map):
    m = managed_map("V5")
    reg = m.register_thread()
    m.insert(5, 50)
    assert m.get(5) == 50
    assert in_flight(m.engine) == 0  # released on completion


# ---------------------------------------------------------------------------
# V6 dispatch rules
# ---------------------------------------------------------------------------


def test_v6_gets_never_enqueue(managed_map):
    m = managed_map("V6")
    m.register_thread()
    claimed = []
    m.engine.test_hooks = SimpleNamespace(on_claim=lambda rec: claimed.append(rec.kind))
    m.insert(3, 30)
    for _ in range(10):
        assert m.get(3) == 30
    assert m.get(99) is None
    assert claimed == [OpKind.INSERT]  # only the write went through the queue


def test_v6_writes_are_delegated_with_per_thread_marks(managed_map):
    m = managed_map("V6")
    reg = m.register_thread()
    m.insert(8, 80)
    assert m.delete(8) is True
    assert reg.record.action == ACT_SOFT_DELETE
    assert reg.pending_mark is False  # cleared after execution


def test_v6_insert_at_budget_compacts_like_v5(managed_map):
    m = managed_map("V6", max_nodes=4)
    m.register_thread()
    for k in range(4):
        m.insert(k, k)
    m.delete(0)
    assert m.insert(50, 500) is True
    assert m.stats.compactions >= 1
    assert m.tree.physical_count <= 4
    assert m.validate().ok


# ---------------------------------------------------------------------------
# future-work variant: enqueue then sleep, combiner executes writes
# ---------------------------------------------------------------------------


def test_future_work_skips_the_pickup_spin(managed_map, monkeypatch):
    m = managed_map("FutureWork")
    m.register_thread()

    def boom(rec):
        raise AssertionError("future-work submit must not wait for pickup")

    monkeypatch.setattr(m.engine, "_wait_claimed", boom)
    assert m.insert(1, 10) is True
    assert m.delete(1) is True
    assert m.get(1) is None  # bypasses the queue entirely


def test_future_work_combiner_executes_writes_itself(managed_map):
    m = managed_map("FutureWork")
    reg = m.register_thread()
    flip_threads = []
    m.tree.test_hooks = SimpleNamespace(
        before_mark_flip=lambda key, to_deleted: flip_threads.append(
            threading.get_ident()
        )
    )
    m.insert(2, 20)
    assert m.delete(2) is True  # soft delete: a mark flip
    assert reg.record.action == -1  # never delegated back to the caller
    assert flip_threads == [m.engine._thread.ident]


def test_future_work_enqueue_never_blocks_producers(managed_map, poll):
    m = managed_map("FutureWork", max_threads=8)
    engine = m.engine
    gate = threading.Event()
    engine.test_hooks = SimpleNamespace(on_claim=lambda rec: gate.wait(10.0))
    results = []

    def producer(key):
        m.register_thread()
        results.append(m.insert(key, key))

    threads = [threading.Thread(target=producer, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    # all four records are published although the combiner is stuck on the
    # first; a blocking handoff would cap the queue at one
    poll(lambda: len(engine.queue) >= 3, what="producers enqueue while blocked")
    gate.set()
    for t in threads:
        t.join(10.0)
    assert results == [True, True, True, True]


# ---------------------------------------------------------------------------
# cross-variant equivalence (short form; the full-size run is an acceptance
# criterion)
# ---------------------------------------------------------------------------


def test_all_variants_agree_with_oracle_on_a_mixed_script(managed_map):
    import random

    rng = random.Random(11)
    script = []
    for _ in range(2000):
        r = rng.randrange(100)
        kind = (
            OpKind.INSERT if r < 10 else OpKind.DELETE if r < 20 else OpKind.GET
        )
        script.append((kind, rng.randrange(48), rng.randrange(1000)))

    oracle = OracleMap(max_live=16)
    expected = [oracle.apply(op) for op in script]

    for which in list(ALL_VARIANTS) + ["FutureWork"]:
        m = managed_map(which, max_nodes=16, check_exclusion=True)
        m.register_thread()
        got = [m.apply(op) for op in script]
        assert got == expected, which
        assert m.validate().ok, which
        assert sorted(m.tree.live_keys()) == sorted(oracle.keys()), which
        if getattr(m, "exclusion_violations", None) is not None:
            assert m.exclusion_violations == []
