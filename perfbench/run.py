#!/usr/bin/env python3
"""Benchmark of the eight map variants on three closed-loop workloads.

    python3 perfbench/run.py --workload two-callers --seed 1 --seconds 50 --trace 0

One process builds every variant's map, registers its caller threads with
each, loads the warm-up keys, then measures the variants in short slices
that take turns with the frozen reference tree (``reftree.py``) for
``--seconds`` seconds. Every result is checked apart from the program
(``checks.py``). ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
times the calls into each layer and prints the per-layer ones. The last line
of standard output is one JSON object; README.md explains every metric.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: a cold start

import argparse
import gc
import json
import os
import random
import statistics
import sys
import threading

import selftest
from checks import DictModel, Ledger, budget_violation, rb_violations
from reftree import LockedRefTree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

VARIANTS = ("V1", "V2", "V3", "V4", "V5", "V6", "FutureWork", "CoarseLock")
SOFT = ("V5", "V6", "FutureWork")
QUEUED_GETS = ("V1", "V2", "V3", "V4", "V5")
QUEUED_WRITES = ("V1", "V2", "V3", "V4", "V5", "V6", "FutureWork")

ROUNDS = 24  # each round gives every variant and the reference one slice
# Slice length in units. The soft variants' rates follow their compaction
# rate, which wanders with the live-key count over ~10K ops, and their
# operations stall now and then; a longer share of the run averages both.
# CoarseLock and the reference tree get two units each, the queue variants,
# which hold steady on less, one.
SLICE_UNITS = {"V5": 10, "V6": 10, "FutureWork": 10, "CoarseLock": 2, "ref": 2}
BLOCK = 4096  # ops generated at a time; fixed, so a seed fixes the sequence
AHEAD = 16 * BLOCK  # least number of ops ready before a slice
CHUNK = 8  # ops between two looks at the clock
SLICE_TIMEOUT = 60.0  # a slice that has not ended by then is a hang
GET, INSERT = 0, 1  # the OpKind values


class Workload:
    def __init__(self, callers, get_pct, insert_pct, key_max, budget, r0):
        self.callers = callers
        self.get_pct = get_pct
        self.insert_pct = insert_pct
        self.key_max = key_max  # keys are 0..key_max inclusive
        self.budget = budget
        # R0: the reference tree's rate (ops/s) taken as the reference host
        # speed, the rounded median R of the runs made when the benchmark
        # was defined (README.md, "Host gauge").
        self.r0 = r0


WORKLOADS = {
    "single-caller": Workload(1, 80, 10, 2000, 1000, r0=4.8e5),
    "two-callers": Workload(2, 80, 10, 2000, 1000, r0=5.1e5),
    "write-churn": Workload(2, 20, 40, 128, 64, r0=5.2e5),
}


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"Failed({self.exc!r})"


class EngineHooks:
    """Observer for ``CombinerEngine.test_hooks``; unset slots cost one
    class-attribute lookup in the engine."""

    before_mark = None
    on_claim = None
    on_stop_world_exit = None


class TreeHooks:
    """Observer for ``RBTree.test_hooks``."""

    before_mark_flip = None
    on_get_start = None


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def warmup_items(wl, seed):
    """The population the mix holds in equilibrium: its inserts and deletes
    balance at half the key range, which the budget caps. Starting there
    keeps the timed phase stationary; from a smaller tree the soft variants'
    compaction rate would climb through the whole run."""
    rng = random.Random(f"warmup-{seed}")
    keys = rng.sample(range(wl.key_max + 1), min(wl.budget, (wl.key_max + 1) // 2))
    return [(k, rng.randrange(1 << 20)) for k in keys]


class OpSource:
    """One caller's endless operation sequence: kind by percentage, key
    uniform, never replayed. Every variant gets its own source built from the
    same seed, so all of them see the same sequence. Ops are generated in
    fixed blocks ahead of each slice and dropped once checked."""

    def __init__(self, wl, seed, caller, op_kind):
        self._rng = random.Random(f"ops-{seed}-{caller}")
        self._kinds = (op_kind.GET, op_kind.INSERT, op_kind.DELETE)
        self._weights = (wl.get_pct, wl.insert_pct, 100 - wl.get_pct - wl.insert_pct)
        self._keys = range(wl.key_max + 1)
        self.ops = []

    def ready(self, n):
        """The pending ops, at least ``n`` of them."""
        rng = self._rng
        while len(self.ops) < n:
            self.ops += zip(rng.choices(self._kinds, self._weights, k=BLOCK),
                            rng.choices(self._keys, k=BLOCK),
                            rng.choices(VALUES, k=BLOCK))
        return self.ops

    def take(self, n):
        """Remove and return the first ``n`` pending ops."""
        done = self.ops[:n]
        del self.ops[:n]
        return done


VALUES = range(1 << 20)


# ----------------------------------------------------------------------
# timed loops
# ----------------------------------------------------------------------


def plain_loop(apply, ops, deadline):
    """Closed loop over ``ops`` until ``deadline`` or until they run out;
    returns (start, end, results)."""
    clock = time.perf_counter
    last = len(ops) - CHUNK
    out = []
    append = out.append
    i = 0
    start = clock()
    while True:
        for j in range(i, i + CHUNK):
            try:
                append(apply(ops[j]))
            except Exception as exc:
                append(Failed(exc))
        i += CHUNK
        end = clock()
        if end >= deadline or i > last:
            return start, end, out


class Trace:
    """Per-call spans of one variant, timed from outside the program.

    ``claims`` and ``get_starts`` are filled by the engine's ``on_claim`` and
    the tree's ``on_get_start`` hooks, keyed by caller registration and by
    thread; each caller pops its own entry after every call.
    """

    def __init__(self):
        self.get_us = []
        self.write_us = []
        self.get_claim_us = []
        self.get_wake_us = []
        self.write_claim_us = []
        self.write_serve_us = []
        self.claims = {}
        self.get_starts = {}

    def on_claim(self, rec):
        self.claims[rec.owner] = time.perf_counter_ns()

    def on_get_start(self, key):
        self.get_starts[threading.get_ident()] = time.perf_counter_ns()

    def loop(self, apply, ops, deadline, reg):
        """``plain_loop`` with every call timed and its hook stamps kept."""
        clock = time.perf_counter
        ns = time.perf_counter_ns
        claims = self.claims
        get_starts = self.get_starts
        ident = threading.get_ident()
        last = len(ops) - CHUNK
        out = []
        append = out.append
        i = 0
        start = clock()
        while True:
            for j in range(i, i + CHUNK):
                op = ops[j]
                t0 = ns()
                try:
                    append(apply(op))
                except Exception as exc:
                    append(Failed(exc))
                t1 = ns()
                claimed = claims.pop(reg, None) if reg is not None else None
                got = get_starts.pop(ident, None)
                if op[0] == GET:
                    self.get_us.append((t1 - t0) / 1e3)
                    if claimed is not None:
                        self.get_claim_us.append((claimed - t0) / 1e3)
                        if got is not None:
                            self.get_wake_us.append((got - claimed) / 1e3)
                else:
                    self.write_us.append((t1 - t0) / 1e3)
                    if claimed is not None:
                        self.write_claim_us.append((claimed - t0) / 1e3)
                        self.write_serve_us.append((t1 - claimed) / 1e3)
            i += CHUNK
            end = clock()
            if end >= deadline or i > last:
                return start, end, out


def rbtree_loop(tree, ops, deadline, budget, samples):
    """Direct ``RBTree`` calls on the workload's mix, each timed apart; the
    budget is kept the way CoarseLock keeps it. Returns the ops consumed."""
    clock = time.perf_counter
    ns = time.perf_counter_ns
    get, insert, delete, find = tree.get, tree.insert, tree.delete, tree.find_node
    gets, inserts, deletes = samples
    last = len(ops) - CHUNK
    i = 0
    while True:
        for j in range(i, i + CHUNK):
            kind, key, value = ops[j]
            if kind == GET:
                t0 = ns()
                get(key)
                gets.append(ns() - t0)
            elif kind == INSERT:
                if find(key) is None and tree.live_count >= budget:
                    continue
                t0 = ns()
                insert(key, value)
                inserts.append(ns() - t0)
            else:
                t0 = ns()
                delete(key)
                deletes.append(ns() - t0)
        i += CHUNK
        if clock() >= deadline or i > last:
            return i


def compact_sample(rbtree_cls, wl, rng):
    """Seconds for one ``compact()`` of a budget-full tree, a quarter of it
    soft-deleted."""
    tree = rbtree_cls(wl.budget)
    keys = rng.sample(range(wl.key_max + 1), wl.budget)
    for k in keys:
        tree.insert(k, k)
    for k in keys[: wl.budget // 4]:
        tree.soft_delete(k)
    t0 = time.perf_counter()
    tree.compact()
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# callers
# ----------------------------------------------------------------------


class Callers:
    """Caller threads, each registered with every map, that run one slice
    at a time on the main thread's signal."""

    def __init__(self, count, maps):
        self.count = count
        self.regs = [None] * count
        self.job = None
        self.results = [None] * count
        self.errors = []
        self._start = threading.Barrier(count + 1)
        self._end = threading.Barrier(count + 1)
        self._threads = [
            threading.Thread(target=self._serve, args=(i, maps), daemon=True,
                             name=f"caller-{i}")
            for i in range(count)
        ]
        for t in self._threads:
            t.start()
        self._end.wait(SLICE_TIMEOUT)  # every caller has registered

    def _serve(self, index, maps):
        try:
            self.regs[index] = {name: m.register_thread() for name, m in maps.items()}
        except Exception as exc:
            self.errors.append(f"caller {index} registration: {exc!r}")
        self._end.wait(SLICE_TIMEOUT)
        while True:
            self._start.wait(SLICE_TIMEOUT)
            job = self.job
            if job is None:
                return
            self.results[index] = job(index)
            self._end.wait(SLICE_TIMEOUT)

    def run(self, job):
        """Run ``job(caller_index)`` on every caller; returns their results."""
        self.job = job
        self._start.wait(SLICE_TIMEOUT)
        self._end.wait(SLICE_TIMEOUT)
        return list(self.results)

    def stop(self):
        self.job = None
        self._start.wait(SLICE_TIMEOUT)
        for t in self._threads:
            t.join(SLICE_TIMEOUT)


# ----------------------------------------------------------------------
# one variant in one run
# ----------------------------------------------------------------------


class Cell:
    """One map in one run: its op sources, slice rates and checker."""

    def __init__(self, m, wl, seed, op_kind, checker):
        self.map = m
        self.sources = [OpSource(wl, seed, c, op_kind) for c in range(wl.callers)]
        self.rates = []
        self.last_count = 0
        self.attempted = 0
        self.failed = 0
        self.trace = Trace()
        self.sw_problems = []
        self.checker = checker

    def ready(self):
        """Each caller's pending ops, twice the last slice's count or more."""
        return [src.ready(max(AHEAD, 2 * self.last_count)) for src in self.sources]

    def absorb(self, outcomes):
        """Check one slice's results and keep its rate. A result that raised
        or that the checks dispute counts as a failed operation."""
        batches = [(src.take(len(results)), results)
                   for src, (_, _, results) in zip(self.sources, outcomes)]
        self.last_count = max(len(results) for _, results in batches)
        total = sum(len(results) for _, results in batches)
        self.attempted += total
        span = max(o[1] for o in outcomes) - min(o[0] for o in outcomes)
        self.rates.append(total / span)
        if isinstance(self.checker, DictModel):
            step = self.checker.step
            ops, results = batches[0]
            self.failed += sum(not step(op, r) for op, r in zip(ops, results))
        elif self.checker is not None:
            self.failed += self.checker.absorb(batches)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The p99, or with fewer than 1000 samples the highest percentile that
    still has ten samples beyond it (the median below 40 samples)."""
    n = len(values)
    if n == 0:
        return 0.0
    ordered = sorted(values)
    if n < 40:
        return statistics.median(ordered)
    q = 0.99 if n >= 1000 else 1 - 10 / n
    return ordered[min(n - 1, int(q * n))]


def pin_to_one_cpu():
    """Keep every thread of this process on one CPU.

    On a shared two-vCPU virtual machine, waking a thread on the other vCPU
    waits for the hypervisor to run that vCPU; in phases of heavy load
    elsewhere that adds tens of milliseconds to a handoff and halves the
    queue variants' rates. On one CPU a handoff is a plain context switch, as
    on the single-core host the engine's wait strategies were tuned for.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(2)  # caller or combiner threads may be wedged; do not join them


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "fcrbt", "__init__.py")):
        fail(f"no fcrbt sources under {SRC}; run from a checkout of the repository")
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    from fcrbt import make_variant
    from fcrbt.ops import OpKind
    from fcrbt.rbtree import RED, RBTree

    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    items = warmup_items(wl, args.seed)

    # --- set-up: every map, its combiner, its callers, its warm-up keys ---
    maps = {name: make_variant(name, wl.budget, wl.callers + 1) for name in VARIANTS}
    callers = Callers(wl.callers, maps)
    if callers.errors:
        fail("; ".join(callers.errors))
    for m in maps.values():
        m.register_thread()
        for k, v in items:
            m.insert(k, v)
    setup_s = time.perf_counter() - _T0

    def checker():
        if wl.callers == 1:
            return DictModel(wl.budget, items)
        return Ledger(wl.budget, items)

    cells = {name: Cell(m, wl, args.seed, OpKind, checker())
             for name, m in maps.items()}
    base_stats = {name: (m.stats.stop_worlds, m.stats.compactions, m.stats.get_retries)
                  for name, m in maps.items()}
    for name in SOFT:
        cell = cells[name]
        hooks = EngineHooks()

        def on_exit(tree, cell=cell):
            problem = budget_violation(tree.live_count, tree.physical_count,
                                       wl.budget)
            if problem:
                cell.sw_problems.append(problem)

        hooks.on_stop_world_exit = on_exit
        maps[name].engine.test_hooks = hooks
    if traced:
        for name, m in maps.items():
            tree_hooks = TreeHooks()
            tree_hooks.on_get_start = cells[name].trace.on_get_start
            m.tree.test_hooks = tree_hooks
            if name != "CoarseLock":
                m.engine.test_hooks = m.engine.test_hooks or EngineHooks()
                m.engine.test_hooks.on_claim = cells[name].trace.on_claim

    # The reference tree is driven exactly like CoarseLock; the direct tree
    # calls replay caller 0's ops.
    ref_map = LockedRefTree(wl.budget)
    direct = RBTree(wl.budget)
    for k, v in items:
        ref_map.apply((OpKind.INSERT, k, v))
        direct.insert(k, v)
    ref = Cell(ref_map, wl, args.seed, OpKind, None)
    direct_src = OpSource(wl, args.seed, 0, OpKind)
    direct_samples = ([], [], [])
    compact_s = []
    compact_rng = random.Random(f"compact-{args.seed}")
    gc.collect()
    gc.freeze()

    # --- timed phase: rounds of slices, order reversed every other round ---
    order = list(VARIANTS) + ["ref"] + (["rbtree"] if traced else [])
    unit_s = args.seconds / (ROUNDS * sum(SLICE_UNITS.get(n, 1) for n in order))
    for rnd in range(ROUNDS):
        for name in order if rnd % 2 == 0 else order[::-1]:
            slice_s = unit_s * SLICE_UNITS.get(name, 1)
            if name == "rbtree":
                ops = direct_src.ready(AHEAD)
                direct_src.take(rbtree_loop(direct, ops, time.perf_counter() + slice_s,
                                            wl.budget, direct_samples))
                continue
            cell = ref if name == "ref" else cells[name]
            ops = cell.ready()
            apply = cell.map.apply
            deadline = time.perf_counter() + slice_s
            if traced and cell is not ref:

                def job(c, apply=apply, ops=ops, deadline=deadline, name=name,
                        trace=cell.trace):
                    return trace.loop(apply, ops[c], deadline, callers.regs[c][name])
            else:

                def job(c, apply=apply, ops=ops, deadline=deadline):
                    return plain_loop(apply, ops[c], deadline)

            try:
                outcomes = callers.run(job)
            except threading.BrokenBarrierError:
                fail(f"{name} slice did not end within {SLICE_TIMEOUT:.0f} s")
            cell.absorb(outcomes)
        if traced:
            compact_s.append(compact_sample(RBTree, wl, compact_rng))

    # --- checks of the final state, read back through get ---
    problems = []
    attempted = failed = 0
    for name, cell in cells.items():
        m = cell.map
        read_back = {}
        for key in range(wl.key_max + 1):
            try:
                read_back[key] = m.get(key)
            except Exception as exc:
                failed += 1
                problems.append(f"{name}: get({key}) raised {exc!r}")
        attempted += wl.key_max + 1
        if isinstance(cell.checker, DictModel):
            found = cell.checker.mismatches(read_back)
        else:
            found = cell.checker.finish(read_back)
        found += rb_violations(m.tree.root, RED) + cell.sw_problems
        problems += [f"{name}: {p}" for p in found[:5]]
        attempted += cell.attempted
        failed += cell.failed
    stats = {name: m.stats for name, m in maps.items()}
    callers.stop()
    for m in maps.values():
        m.shutdown()
    problems += [f"check self-test: {p}" for p in selftest.failures()]
    for p in problems:
        print("CHECK FAILED", p)

    # --- metrics ---
    host_r = median(ref.rates)
    out = {}
    for name in VARIANTS:
        cell = cells[name]
        print(f"{name:>10}: {median(cell.rates):12.1f} ops/s median over "
              f"{len(cell.rates)} slices, {cell.attempted} ops")
    print(f"{'reference':>10}: {host_r:12.1f} ops/s median over "
          f"{len(ref.rates)} slices (R0 {wl.r0:.0f})")
    print(f"set-up: {setup_s:.4f} s")

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    coarse = cells["CoarseLock"]
    pairs = list(zip(coarse.rates, ref.rates))
    if not traced:
        for name in VARIANTS[:-1]:
            put(f"{name}.ops_per_sec", median(cells[name].rates), "1/s")
        put("CoarseLock.ops_per_sec",
            median([c / r for c, r in pairs]) * wl.r0, "1/s")
        put("setup_s", setup_s, "s")
    else:
        norm = host_r / wl.r0
        for kind, samples in zip(("get", "insert", "delete"), direct_samples):
            put(f"rbtree.{kind}_ns", median(samples) * norm, "ns")
            print(f"rbtree.{kind}: {len(samples)} samples")
        put("rbtree.compact_us", median(compact_s) * 1e6 * norm, "us")
        put("host.ref_ops_per_sec", host_r, "1/s")
        put("CoarseLock.wall_ops_per_sec", median(coarse.rates), "1/s")
        for name in VARIANTS:
            t = cells[name].trace
            put(f"{name}.get_p50_us", median(t.get_us), "us")
            put(f"{name}.get_p99_us", tail(t.get_us), "us")
            put(f"{name}.write_p50_us", median(t.write_us), "us")
            put(f"{name}.write_p99_us", tail(t.write_us), "us")
            print(f"{name}: {len(t.get_us)} get and {len(t.write_us)} write "
                  "latency samples")
        for name in QUEUED_GETS:
            t = cells[name].trace
            put(f"{name}.get.claim_wait_us", median(t.get_claim_us), "us")
            put(f"{name}.get.wake_us", median(t.get_wake_us), "us")
        for name in QUEUED_WRITES:
            t = cells[name].trace
            put(f"{name}.write.claim_wait_us", median(t.write_claim_us), "us")
            put(f"{name}.write.serve_us", median(t.write_serve_us), "us")
        for name in SOFT:
            kops = cells[name].attempted / 1000
            s = stats[name]
            for field, now, base in zip(
                    ("stop_worlds", "compactions", "get_retries"),
                    (s.stop_worlds, s.compactions, s.get_retries), base_stats[name]):
                put(f"{name}.{field}", (now - base) / kops, "count/kop")
        for name in VARIANTS:
            put(f"{name}.traced_ops_per_sec", median(cells[name].rates), "1/s")
    write_trace(args, out, cells, ref.rates)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))


def write_trace(args, metrics, cells, ref_rates):
    """Keep the run's summary, slice rates included, under results/."""
    folder = os.path.join(ROOT, "results", "perfbench")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(
        folder, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": metrics,
        "slice_rates": {name: cell.rates for name, cell in cells.items()},
        "ref_rates": ref_rates,
        "ops": {name: cell.attempted for name, cell in cells.items()},
        "engine_stats": {name: vars(cell.map.stats) for name, cell in cells.items()},
        "samples": {
            name: {key: len(val) for key, val in vars(cell.trace).items()
                   if isinstance(val, list)}
            for name, cell in cells.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
