"""Brute-force linearizability checking for small complete histories.

The checker searches for a sequential order of the recorded events that
(a) respects real-time precedence (an event that finished strictly before
another started must come first) and (b) replays legally under the
sequential map specification. Memoized depth-first search over
(remaining-events, map-state) pairs keeps desk-scale histories cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from .history import HistoryEvent
from .ops import OpKind

# Brute force only: beyond this the search space is no longer trustworthy
# desk-scale, so refuse rather than silently crawl.
MAX_EVENTS = 20


@dataclass
class LinResult:
    ok: bool
    witness: Optional[List[HistoryEvent]]  # a legal sequential order if ok
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def step(
    state: FrozenSet[Tuple[int, int]], event: HistoryEvent, max_live: Optional[int]
) -> Optional[FrozenSet[Tuple[int, int]]]:
    """Apply one event to a map state; None if its result is illegal there.

    State is the set of live (key, value) pairs. Insert updates the value of
    a live key and reports False; it reports True only when the key goes
    live, which a full budget (max_live) refuses.
    """
    kind = event.kind
    current = dict(state)
    if kind == OpKind.GET:
        expected = current.get(event.key)
        if event.result != expected:
            return None
        return state
    if kind == OpKind.INSERT:
        if event.key in current:
            if event.result is not False:
                return None
            return frozenset((state - {(event.key, current[event.key])}) | {(event.key, event.value)})
        if max_live is not None and len(current) >= max_live:
            if event.result is not False:
                return None
            return state
        if event.result is not True:
            return None
        return state | {(event.key, event.value)}
    # DELETE
    if event.key in current:
        if event.result is not True:
            return None
        return state - {(event.key, current[event.key])}
    if event.result is not False:
        return None
    return state


def check_linearizable(
    events: List[HistoryEvent], max_live: Optional[int] = None
) -> LinResult:
    """Search for a legal sequential witness of a complete history."""
    n = len(events)
    if n > MAX_EVENTS:
        raise ValueError(
            f"history has {n} events; brute-force bound is {MAX_EVENTS}"
        )
    if n == 0:
        return LinResult(True, [])

    # precedence[i] = bitmask of events that must come before event i
    precedence = [0] * n
    for i, a in enumerate(events):
        for j, b in enumerate(events):
            if i != j and a.end_ns < b.start_ns:
                precedence[j] |= 1 << i

    empty: FrozenSet[Tuple[int, int]] = frozenset()
    dead: set = set()  # (remaining-mask, state) pairs proven unwitnessable
    order: List[int] = []

    def dfs(remaining: int, state: FrozenSet[Tuple[int, int]]) -> bool:
        if remaining == 0:
            return True
        key = (remaining, state)
        if key in dead:
            return False
        mask = remaining
        while mask:
            low = mask & -mask
            mask ^= low
            i = low.bit_length() - 1
            # i is schedulable only once all its real-time predecessors ran
            if precedence[i] & remaining:
                continue
            nxt = step(state, events[i], max_live)
            if nxt is None:
                continue
            order.append(i)
            if dfs(remaining ^ low, nxt):
                return True
            order.pop()
        dead.add(key)
        return False

    if dfs((1 << n) - 1, empty):
        return LinResult(True, [events[i] for i in order])
    return LinResult(False, None, "no legal sequential order exists")


def ev(
    thread_id: int,
    kind: OpKind,
    key: int,
    result,
    start_ns: int,
    end_ns: int,
    value: int = 0,
) -> HistoryEvent:
    """Terse constructor for hand-built histories."""
    return HistoryEvent(thread_id, kind, key, value, result, start_ns, end_ns)


def illegal_history_catalog() -> List[Tuple[str, List[HistoryEvent]]]:
    """Hand-built non-linearizable histories the checker must reject."""
    G, I, D = OpKind.GET, OpKind.INSERT, OpKind.DELETE
    return [
        (
            "read of a value never written",
            [ev(0, G, 1, 5, 0, 10)],
        ),
        (
            "read misses a completed insert",
            [ev(0, I, 1, True, 0, 10, value=7), ev(1, G, 1, None, 20, 30)],
        ),
        (
            "second insert of a live key claims creation",
            [ev(0, I, 1, True, 0, 10, value=1), ev(0, I, 1, True, 20, 30, value=2)],
        ),
        (
            "delete of a never-inserted key succeeds",
            [ev(0, D, 1, True, 0, 10)],
        ),
        (
            "later read travels back to the overwritten value",
            [
                ev(0, I, 1, True, 0, 10, value=1),
                ev(0, I, 1, False, 20, 30, value=2),
                ev(1, G, 1, 2, 40, 50),
                ev(1, G, 1, 1, 60, 70),
            ],
        ),
        (
            "overlapping reads disagree with no write in flight",
            [
                ev(0, I, 1, True, 0, 10, value=1),
                ev(1, G, 1, 1, 20, 40),
                ev(2, G, 1, 2, 25, 45),
                ev(0, I, 1, False, 50, 60, value=2),
            ],
        ),
    ]
