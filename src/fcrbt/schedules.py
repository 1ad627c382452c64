"""Gated-schedule scenarios: named, deterministic cross-thread interleavings
driven by explicit gates at the library's test hooks.

Each scenario freezes one thread at a hook, lets another thread observe the
map, then releases the first and re-observes. The mark-flip scenarios pin
the visibility point of soft writes: a reader gated before the flip must see
the old logical state, a reader after it the new one. The race scenario pins
the bypass-get fast path against a concurrent stop-world.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

from .variants import make_variant

GATE_SECS = 20.0


class GateTimeout(RuntimeError):
    pass


def _await(event: threading.Event, what: str) -> None:
    if not event.wait(GATE_SECS):
        raise GateTimeout(f"gate timed out waiting for {what}")


def _run_thread(fn):
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    return t, box


def _join(t, box, what: str):
    t.join(GATE_SECS)
    if t.is_alive():
        raise GateTimeout(f"{what} did not finish")
    if "error" in box:
        raise box["error"]
    return box["result"]


def _soft_write_visibility(variant, prepare, write, before, after) -> bool:
    """Freeze ``write`` at its mark flip: a reader sees ``before`` until the
    flip lands and ``after`` once it has."""
    key = 13
    m = make_variant(variant, max_nodes=8, max_threads=4)
    try:
        m.register_thread()
        prepare(m, key)
        assert m.get(key) == before

        at_flip = threading.Event()
        resume = threading.Event()
        gated = []

        def before_mark_flip(k, to_deleted):
            if not gated:  # freeze only the scenario's own flip
                gated.append((k, to_deleted))
                at_flip.set()
                _await(resume, "release of the gated writer")

        m.tree.test_hooks = SimpleNamespace(before_mark_flip=before_mark_flip)

        def writer():
            m.register_thread()
            return write(m, key)

        t, box = _run_thread(writer)
        _await(at_flip, "writer to reach the mark flip")
        assert gated == [(key, after is None)]
        # an insert has already written the value slot, but until the flip
        # lands the key must still read as before
        assert m.get(key) == before
        resume.set()
        assert _join(t, box, "writer") is True
        assert m.get(key) == after
        return True
    finally:
        m.shutdown()


def _insert_then_soft_delete(m, key) -> None:
    m.insert(key, 1)
    m.delete(key)  # soft: node stays, marked deleted


def soft_insert_visibility(variant: str = "V5") -> bool:
    """A reader before the mark flip sees absence; after it, the new value."""
    return _soft_write_visibility(variant, _insert_then_soft_delete,
                                  lambda m, key: m.insert(key, 2), None, 2)


def soft_delete_visibility(variant: str = "V5") -> bool:
    """A reader before the mark flip sees the value; after it, absence."""
    return _soft_write_visibility(variant, lambda m, key: m.insert(key, 7),
                                  lambda m, key: m.delete(key), 7, None)


def v6_mark_flag_race() -> bool:
    """A bypass get whose mark lands after the stop flag is raised must back
    out, wait the stop-world out, and retry against the settled tree."""
    m = make_variant("V6", max_nodes=8, max_threads=4, check_exclusion=True)
    try:
        m.register_thread()
        m.insert(1, 11)
        engine = m.engine

        reader_at_hook = threading.Event()
        reader_resume = threading.Event()
        sw_held = threading.Event()
        sw_resume = threading.Event()
        reader_gated = []

        def before_mark(reg):
            if not reader_gated:
                reader_gated.append(reg)
                reader_at_hook.set()
                _await(reader_resume, "release of the gated reader")

        def on_stop_world_exit(tree):
            if not sw_held.is_set():
                sw_held.set()
                _await(sw_resume, "release of the held stop-world")

        engine.test_hooks = SimpleNamespace(
            before_mark=before_mark, on_stop_world_exit=on_stop_world_exit
        )

        def reader():
            m.register_thread()
            return m.get(1)

        def writer():
            m.register_thread()
            return m.insert(2, 22)  # physically absent: forces a stop-world

        rt, rbox = _run_thread(reader)
        _await(reader_at_hook, "reader to reach its pre-mark hook")

        wt, wbox = _run_thread(writer)
        _await(sw_held, "combiner to finish the stop-world mutation")
        # flags are up and the mutation is done; un-freeze the reader so its
        # mark lands after the flag was raised
        reader_resume.set()
        deadline = time.monotonic() + GATE_SECS
        while engine.stats.get_retries < 1:
            if time.monotonic() > deadline:
                raise GateTimeout("reader never backed out of its fast path")
            time.sleep(0.001)
        sw_resume.set()

        assert _join(rt, rbox, "reader") == 11
        assert _join(wt, wbox, "writer") is True
        assert engine.stats.get_retries >= 1
        assert m.exclusion_violations == []
        assert m.get(2) == 22
        assert m.validate().ok
        return True
    finally:
        m.shutdown()


SCENARIOS = {
    "soft-insert-visibility": soft_insert_visibility,
    "soft-delete-visibility": soft_delete_visibility,
    "v6-mark-flag-race": v6_mark_flag_race,
}


def run_scenario(name: str, *args, **kwargs) -> bool:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    return SCENARIOS[name](*args, **kwargs)
