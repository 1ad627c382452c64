"""The named tree variants behind one concurrent-map interface.

Six flat-combining configurations of the same engine, a coarse-grained-lock
baseline, and an optional future-work configuration (non-blocking publish,
callers sleep immediately, combiner executes writes itself).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Union

from .ops import Op, OpResult
from .rbtree import RBTree
from .runtime import (
    DELETE,
    GET,
    INSERT,
    CombinerEngine,
    EngineStats,
    StopWorldScope,
    VariantConfig,
    WaitStrategy,
    insert_refused,
)

S = WaitStrategy

VARIANTS = {
    "V1": VariantConfig("V1", S.SLEEP_AWAKE, S.SLEEP_AWAKE, False, False,
                        StopWorldScope.NONE),
    "V2": VariantConfig("V2", S.SPIN, S.SLEEP_AWAKE, False, False,
                        StopWorldScope.NONE),
    "V3": VariantConfig("V3", S.SPIN, S.BACKOFF_SPIN, False, False,
                        StopWorldScope.NONE),
    "V4": VariantConfig("V4", S.SPIN, S.SPIN, False, False, StopWorldScope.NONE),
    "V5": VariantConfig("V5", S.SPIN, S.SLEEP_AWAKE, True, False,
                        StopWorldScope.GLOBAL),
    # V6 gets never touch the queue, so its get_wait slot is inert.
    "V6": VariantConfig("V6", S.SPIN, S.SLEEP_AWAKE, True, True,
                        StopWorldScope.PER_THREAD),
    "FutureWork": VariantConfig("FutureWork", S.SLEEP_AWAKE, S.SLEEP_AWAKE, True,
                                True, StopWorldScope.PER_THREAD, future_work=True),
}

ENGINE_VARIANTS = ("V1", "V2", "V3", "V4", "V5", "V6")
ALL_VARIANTS = ENGINE_VARIANTS + ("CoarseLock",)
OPTIONAL_VARIANTS = ("FutureWork",)


class FlatCombiningMap:
    """A combining engine plus its tree, exposing the map operations."""

    def __init__(
        self,
        config: VariantConfig,
        max_nodes: int,
        max_threads: int,
        record_effects: bool = False,
        check_exclusion: bool = False,
    ):
        self.config = config
        self.tree = RBTree(max_nodes)
        self.engine = CombinerEngine(
            self.tree,
            config,
            max_threads,
            record_effects=record_effects,
            check_exclusion=check_exclusion,
        )
        self._bypass = config.gets_bypass_queue

    @property
    def name(self) -> str:
        return self.config.id

    def register_thread(self):
        return self.engine.register()

    def get(self, key: int) -> Optional[int]:
        if self._bypass:
            return self.engine.bypass_get(key)
        return self.engine.submit(GET, key)

    def insert(self, key: int, value: int) -> bool:
        return self.engine.submit(INSERT, key, value)

    def delete(self, key: int) -> bool:
        return self.engine.submit(DELETE, key)

    def apply(self, op: Op) -> OpResult:
        kind, key, value = op
        if kind == GET:
            return self.get(key)
        if kind == INSERT:
            return self.insert(key, value)
        return self.delete(key)

    @property
    def stats(self) -> EngineStats:
        return self.engine.stats

    @property
    def effect_log(self):
        return self.engine.effect_log

    @property
    def exclusion_violations(self):
        return self.engine.exclusion_violations

    def validate(self):
        return self.tree.validate()

    def shutdown(self) -> None:
        self.engine.shutdown()


class CoarseLockMap:
    """Baseline: the sequential tree behind one exclusive lock."""

    name = "CoarseLock"

    def __init__(self, max_nodes: int, max_threads: int = 0,
                 record_effects: bool = False, check_exclusion: bool = False):
        self.tree = RBTree(max_nodes)
        self._lock = threading.Lock()
        self.stats = EngineStats()
        self.effect_log: Optional[List] = [] if record_effects else None
        self.exclusion_violations: Optional[List] = [] if check_exclusion else None

    def register_thread(self):
        return None  # nothing per-thread to set up

    def get(self, key: int) -> Optional[int]:
        with self._lock:
            return self.tree.get(key)

    def insert(self, key: int, value: int) -> bool:
        tree = self.tree
        with self._lock:
            if insert_refused(tree, tree.find_node(key), tree.max_nodes):
                outcome = False
            else:
                outcome = tree.insert(key, value)
            if self.effect_log is not None:
                self.effect_log.append((INSERT, key, value, outcome))
            return outcome

    def delete(self, key: int) -> bool:
        with self._lock:
            outcome = self.tree.delete(key)
            if self.effect_log is not None:
                self.effect_log.append((DELETE, key, None, outcome))
            return outcome

    apply = FlatCombiningMap.apply

    def validate(self):
        return self.tree.validate()

    def shutdown(self) -> None:
        pass


ConcurrentMap = Union[FlatCombiningMap, CoarseLockMap]


def make_variant(
    which: Union[str, VariantConfig],
    max_nodes: int,
    max_threads: int,
    record_effects: bool = False,
    check_exclusion: bool = False,
) -> ConcurrentMap:
    if max_nodes <= 0 or max_threads <= 0:
        raise ValueError("max_nodes and max_threads must be positive")
    if isinstance(which, VariantConfig):
        config = which
    elif which == "CoarseLock":
        return CoarseLockMap(max_nodes, max_threads, record_effects=record_effects,
                             check_exclusion=check_exclusion)
    elif which in VARIANTS:
        config = VARIANTS[which]
    else:
        raise ValueError(f"unknown variant {which!r}")
    return FlatCombiningMap(
        config,
        max_nodes,
        max_threads,
        record_effects=record_effects,
        check_exclusion=check_exclusion,
    )
