"""Concurrent-history recording: per-thread append-only logs of timed
invocation/response pairs, merged after quiescence for the linearizability
checker."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from .ops import Op, OpKind, OpResult


@dataclass(frozen=True)
class HistoryEvent:
    thread_id: int
    kind: OpKind
    key: int
    value: int
    result: OpResult
    start_ns: int
    end_ns: int


class ThreadLog:
    """Append-only event log owned by a single worker thread."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.events: List[HistoryEvent] = []

    def record(self, target, op: Op) -> OpResult:
        kind, key, value = op
        start = time.monotonic_ns()
        result = target.apply(op)
        end = time.monotonic_ns()
        if end <= start:  # clock tick coarser than the op; keep start < end
            end = start + 1
        self.events.append(
            HistoryEvent(self.thread_id, kind, key, value, result, start, end)
        )
        return result


class HistoryRecorder:
    """Hands out per-thread logs and merges them once all workers joined."""

    def __init__(self):
        self._logs: List[ThreadLog] = []
        self._lock = threading.Lock()

    def thread_log(self, thread_id: Optional[int] = None) -> ThreadLog:
        with self._lock:
            log = ThreadLog(len(self._logs) if thread_id is None else thread_id)
            self._logs.append(log)
        return log

    def merged(self) -> List[HistoryEvent]:
        events: List[HistoryEvent] = []
        for log in self._logs:
            events.extend(log.events)
        events.sort(key=lambda e: (e.start_ns, e.end_ns))
        return events
