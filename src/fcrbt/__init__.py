"""Flat-combined concurrent red-black tree variants and their harness.

Public surface: build a map with :func:`make_variant`, drive it with the
``get/insert/delete/apply`` interface, and judge it with the oracle, the
linearizability checker, the stress harness, or the benchmark sweep.
"""

from importlib import import_module

# Each public name and the submodule that defines it. A name is imported on
# first access (PEP 562), so a map user does not pay for the harness modules
# (bench, stress, claims, linearizability, schedules, ...) at import time.
_SOURCES = {
    "bench": ("BenchResult", "emit_csv", "parse_csv", "run_bench", "run_cell"),
    "claims": ("ClaimCheck", "evaluate_claims", "format_report"),
    "history": ("HistoryEvent", "HistoryRecorder"),
    "linearizability": ("LinResult", "check_linearizable", "illegal_history_catalog"),
    "ops": ("Op", "OpKind", "OpResult"),
    "oracle": ("BisectOracle", "OracleMap", "replay_sequential", "replay_writes"),
    "runtime": (
        "CombinerEngine",
        "EngineStats",
        "RegistrationError",
        "ShutdownError",
        "WaitStrategy",
    ),
    "schedules": ("SCENARIOS", "run_scenario"),
    "stress": ("DeadlockError", "StressReport", "run_recorded_history", "run_stress"),
    "variants": (
        "ALL_VARIANTS",
        "ENGINE_VARIANTS",
        "OPTIONAL_VARIANTS",
        "CoarseLockMap",
        "FlatCombiningMap",
        "VariantConfig",
        "make_variant",
    ),
    "workload": ("WorkloadSpec", "generate_ops", "mix_seed", "split_ops", "warmup_keys"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF) + ["__version__"]
