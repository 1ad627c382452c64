"""Benchmark workload: validated configuration plus deterministic per-thread
operation streams drawn from a percentage mix over a uniform key range."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .ops import Op, OpKind
from .variants import ALL_VARIANTS

VALUE_SPACE = 1 << 20


@dataclass(frozen=True)
class WorkloadSpec:
    insert_pct: int = 10
    delete_pct: int = 10
    get_pct: int = 80
    key_min: int = 0
    key_max: int = 2000
    max_nodes: int = 1000
    total_ops: int = 640_000
    thread_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 48, 64)
    seed: int = 42
    variants: Tuple[str, ...] = ALL_VARIANTS
    warmup: bool = True
    watchdog_secs: float = 600.0

    def __post_init__(self):
        problems = []
        if self.insert_pct + self.delete_pct + self.get_pct != 100:
            problems.append(
                "insert_pct + delete_pct + get_pct must total 100, got "
                f"{self.insert_pct}+{self.delete_pct}+{self.get_pct}"
            )
        if min(self.insert_pct, self.delete_pct, self.get_pct) < 0:
            problems.append("percentages must be non-negative")
        if self.key_min >= self.key_max:
            problems.append(f"key_min {self.key_min} must be < key_max {self.key_max}")
        if self.max_nodes <= 0:
            problems.append("max_nodes must be positive")
        if self.total_ops <= 0:
            problems.append("total_ops must be positive")
        if not self.thread_counts or min(self.thread_counts) <= 0:
            problems.append("thread_counts must be positive integers")
        if not self.variants:
            problems.append("at least one variant required")
        if self.watchdog_secs <= 0:
            problems.append("watchdog_secs must be positive")
        if problems:
            raise ValueError("; ".join(problems))


def mix_seed(seed: int, thread_index: int) -> int:
    """Stable per-thread seed; avoids correlated streams across threads."""
    x = (seed * 0x9E3779B97F4A7C15 + (thread_index + 1) * 0xBF58476D1CE4E5B9)
    return x & 0xFFFFFFFFFFFFFFFF


def generate_ops(spec: WorkloadSpec, thread_index: int, count: int) -> List[Op]:
    """Deterministic stream for one thread: kind by percentage, key uniform."""
    rng = random.Random(mix_seed(spec.seed, thread_index))
    insert_cut = spec.insert_pct
    delete_cut = spec.insert_pct + spec.delete_pct
    key_span = spec.key_max - spec.key_min + 1
    ops: List[Op] = []
    for _ in range(count):
        r = rng.randrange(100)
        if r < insert_cut:
            kind = OpKind.INSERT
        elif r < delete_cut:
            kind = OpKind.DELETE
        else:
            kind = OpKind.GET
        key = spec.key_min + rng.randrange(key_span)
        ops.append((kind, key, rng.randrange(VALUE_SPACE)))
    return ops


def split_ops(total: int, threads: int) -> List[int]:
    """Even split of the op budget; any remainder lands on thread 0."""
    base = total // threads
    counts = [base] * threads
    counts[0] += total - base * threads
    return counts


def warmup_keys(spec: WorkloadSpec) -> List[Tuple[int, int]]:
    """Pre-population for a half-full tree: max_nodes/2 distinct random keys."""
    rng = random.Random(mix_seed(spec.seed, -1))
    want = min(spec.max_nodes // 2, spec.key_max - spec.key_min + 1)
    keys = rng.sample(range(spec.key_min, spec.key_max + 1), want)
    return [(k, rng.randrange(VALUE_SPACE)) for k in keys]
