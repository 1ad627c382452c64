"""Output checks computed apart from the program under test.

Nothing here imports ``fcrbt``: each check restates the map semantics (a
budgeted dict) or a property that every linearizable run of such a map has,
so a fault in the program cannot also hide in its checker. ``selftest.py``
feeds every check a corrupted input and asserts that it fires.
"""

from __future__ import annotations

from collections import defaultdict

GET, INSERT, DELETE = 0, 1, 2


class DictModel:
    """Sequential model of one map: a dict holding at most ``budget`` keys.

    Predicts every result of a single caller exactly. ``step`` returns False
    on a mismatch and then follows the map's reported outcome, so one wrong
    answer is counted once instead of poisoning every later prediction.
    """

    def __init__(self, budget: int, items):
        self.budget = budget
        self.data = dict(items)

    def step(self, op, result) -> bool:
        kind, key, value = op
        data = self.data
        if kind == GET:
            expected = data.get(key)
        elif kind == INSERT:
            if key in data:
                data[key] = value
                expected = False
            elif len(data) >= self.budget:
                expected = False
            else:
                data[key] = value
                expected = True
        else:
            expected = data.pop(key, None) is not None
        if type(result) is type(expected) and result == expected:
            return True
        if kind == INSERT:
            if result is True:
                data[key] = value
            elif expected is True:
                del data[key]  # the map claims it refused the key
        return False

    def mismatches(self, read_back) -> list:
        """Keys whose final value, read through ``get``, the model disputes."""
        return [
            f"key {key}: map holds {got!r}, model holds {self.data.get(key)!r}"
            for key, got in read_back.items()
            if got != self.data.get(key)
        ]


class Ledger:
    """Properties every linearizable run of a budgeted map has, whatever the
    interleaving of its callers:

    - per-key conservation: final presence equals initial presence plus
      successful inserts minus successful deletes, and lies in {0, 1};
    - value provenance: ``get`` returns only the warm-up value or a value
      some insert offered for that key;
    - the live-key bound at every quiescent point: after each slice, when
      no call is in flight, the live count is the initial one plus all
      successful inserts minus all successful deletes.
    """

    def __init__(self, budget: int, items):
        self.budget = budget
        self.initial = dict(items)
        self.live = len(self.initial)
        self.net = defaultdict(int)
        self.offered = defaultdict(set)
        for key, value in items:
            self.offered[key].add(value)
        self.violations: list = []

    def absorb(self, batches) -> int:
        """Take one slice of ``(ops, results)`` per caller, all of whose calls
        have returned; returns the number of results that are not even of the
        right type.

        Insert values of the whole slice are offered before any get of it is
        judged, since a get may read an insert that overlaps it.
        """
        offered = self.offered
        for ops, _ in batches:
            for kind, key, value in ops:
                if kind == INSERT:
                    offered[key].add(value)
        bad = 0
        net = self.net
        for ops, results in batches:
            for (kind, key, _), result in zip(ops, results):
                if kind == GET:
                    if result is None:
                        continue
                    if type(result) is not int:
                        bad += 1
                    elif result not in offered[key]:
                        self.violations.append(
                            f"get({key}) returned {result}, never written")
                elif type(result) is not bool:
                    bad += 1
                elif result:
                    step = 1 if kind == INSERT else -1
                    net[key] += step
                    self.live += step
        if self.live > self.budget:
            self.violations.append(
                f"{self.live} live keys after a slice exceed the budget {self.budget}")
        return bad

    def finish(self, read_back) -> list:
        """Judge the final state, read through ``get`` for every key."""
        out = list(self.violations)
        for key in set(self.net) | set(self.initial):
            if key not in read_back:
                out.append(f"key {key} was not read back")
        live = 0
        for key, got in read_back.items():
            count = (key in self.initial) + self.net[key]
            present = got is not None
            live += present
            if count not in (0, 1) or count != present:
                out.append(
                    f"key {key}: present={present} but initial + inserts - "
                    f"deletes = {count}")
            if present and got not in self.offered[key]:
                out.append(f"key {key} holds {got}, never written")
        if live > self.budget:
            out.append(f"{live} live keys exceed the budget {self.budget}")
        return out


def rb_violations(root, red) -> list:
    """Red-black and search-order faults of the tree under ``root``.

    Reads only ``key``, ``left``, ``right`` and ``color``; ``red`` is the
    colour value that means red.
    """
    out: list = []
    if root is None:
        return out
    if root.color == red:
        out.append("root is red")

    def walk(node, lo, hi) -> int:
        if node is None:
            return 1
        key = node.key
        if (lo is not None and key <= lo) or (hi is not None and key >= hi):
            out.append(f"search order broken at key {key}")
        is_red = node.color == red
        if is_red and any(c is not None and c.color == red
                          for c in (node.left, node.right)):
            out.append(f"red node {key} has a red child")
        left = walk(node.left, lo, key)
        right = walk(node.right, key, hi)
        if left != right:
            out.append(f"black heights differ under key {key}: {left} vs {right}")
        return left + (not is_red)

    walk(root, None, None)
    return out


def budget_violation(live: int, physical: int, budget: int):
    """The bound every stop-world exit must leave behind, or None."""
    if live > budget or physical > budget:
        return f"stop-world exit with {live} live / {physical} nodes > {budget}"
    return None
