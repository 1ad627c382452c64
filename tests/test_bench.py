"""Benchmark plumbing: per-cell measurement, sweep resilience, CSV shape."""

import io
import os

import pytest

from fcrbt.bench import (
    CSV_HEADER,
    BenchResult,
    emit_csv,
    fold_result,
    run_bench,
    run_cell,
)
from fcrbt.variants import ALL_VARIANTS, OPTIONAL_VARIANTS
from fcrbt.workload import WorkloadSpec

TINY = dict(key_min=0, key_max=32, max_nodes=16, total_ops=400, seed=7,
            watchdog_secs=60.0)


def tiny_spec(**overrides):
    merged = {**TINY, **overrides}
    return WorkloadSpec(**merged)


def test_single_cell_coarse_lock():
    spec = tiny_spec(variants=("CoarseLock",), thread_counts=(1,))
    res = run_cell(spec, "CoarseLock", 1)
    assert res.ok and res.error == ""
    assert res.total_ops == 400
    assert res.gets + res.inserts + res.deletes == 400
    assert res.wall_ns > 0
    assert res.ops_per_sec > 0


def test_sweep_produces_one_row_per_cell():
    spec = tiny_spec(variants=ALL_VARIANTS, thread_counts=(1, 2, 4, 8))
    results = run_bench(spec)
    assert len(results) == len(ALL_VARIANTS) * 4  # 28 under the full grid
    assert all(r.ok for r in results)
    seen = {(r.variant, r.threads) for r in results}
    assert len(seen) == len(results)


def test_mix_columns_depend_only_on_threads_and_seed():
    spec = tiny_spec(variants=("V1", "V6", "CoarseLock"), thread_counts=(1, 4))
    results = run_bench(spec)
    by_threads = {}
    for r in results:
        mix = (r.gets, r.inserts, r.deletes)
        assert by_threads.setdefault(r.threads, mix) == mix
    rerun = run_bench(spec)
    assert [(r.gets, r.inserts, r.deletes) for r in rerun] == [
        (r.gets, r.inserts, r.deletes) for r in results
    ]


def test_soft_variant_reports_stop_worlds_and_compactions():
    spec = tiny_spec(variants=("V6",), thread_counts=(2,))
    res = run_cell(spec, "V6", 2)
    assert res.ok
    assert res.stop_worlds > 0  # physical inserts over a tight budget
    assert res.compactions > 0


def test_warmup_flag_controls_prepopulation():
    # A single GET cannot insert anything, so any stop-world must come from
    # the warmup inserts.
    base = dict(variants=("V6",), thread_counts=(1,), total_ops=1,
                insert_pct=0, delete_pct=0, get_pct=100)
    warm = run_cell(tiny_spec(**base, warmup=True), "V6", 1)
    cold = run_cell(tiny_spec(**base, warmup=False), "V6", 1)
    assert warm.stop_worlds > 0
    assert cold.stop_worlds == 0


def test_single_thread_checksums_identical_across_variants():
    spec = tiny_spec(total_ops=1500)
    folds = {
        v: run_cell(spec, v, 1, fold_results=True).checksums
        for v in ALL_VARIANTS + OPTIONAL_VARIANTS
    }
    reference = folds["V1"]
    assert len(reference) == 1 and reference[0] != 0
    assert all(f == reference for f in folds.values()), folds


def test_checksums_off_by_default_and_deterministic_single_threaded():
    spec = tiny_spec(variants=("V5",), thread_counts=(1, 2))
    assert run_cell(spec, "V5", 2).checksums == ()
    multi = run_cell(spec, "V5", 2, fold_results=True).checksums
    assert len(multi) == 2  # one fold per worker; values interleaving-bound
    a = run_cell(spec, "V5", 1, fold_results=True).checksums
    b = run_cell(spec, "V5", 1, fold_results=True).checksums
    assert a == b  # single-threaded runs replay exactly


def test_fold_distinguishes_result_kinds():
    seen = {fold_result(0, r) for r in (None, True, False, 0, 1, 2)}
    assert len(seen) == 6
    # order sensitivity: swapping two results must change the chain
    assert fold_result(fold_result(0, True), False) != fold_result(
        fold_result(0, False), True
    )


def test_oversubscribed_sweep_warns_but_runs(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    spec = tiny_spec(variants=("CoarseLock",), thread_counts=(2,))
    with pytest.warns(RuntimeWarning, match="2 threads on 1"):
        results = run_bench(spec)
    assert results[0].ok


def test_unknown_variant_marks_row_failed_and_sweep_continues():
    spec = tiny_spec(variants=("V9", "CoarseLock"), thread_counts=(1,))
    results = run_bench(spec)
    assert [r.ok for r in results] == [False, True]
    assert "ValueError" in results[0].error
    assert results[0].ops_per_sec == 0.0


def test_csv_has_ten_columns_per_row_and_skips_failures():
    spec = tiny_spec(variants=("V9", "V2", "CoarseLock"), thread_counts=(1,))
    results = run_bench(spec)
    buf = io.StringIO()
    rows = emit_csv(results, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER.count(",") == 9  # 10 columns
    assert rows == 2 and len(lines) == 3
    for line in lines[1:]:
        assert line.count(",") == 9
    v2 = lines[1].split(",")
    assert v2[0] == "V2" and int(v2[2]) == 400
    assert int(v2[5]) + int(v2[6]) + int(v2[7]) == 400


def test_ops_per_sec_guards_zero_wall():
    res = BenchResult("V1", 1, 10, 0, 8, 1, 1, 0, 0)
    assert res.ops_per_sec == 0.0
