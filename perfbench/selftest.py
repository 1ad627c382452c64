"""Self-tests of the output checks: each check passes its clean input and
fires on a corrupted copy of it.

    python3 perfbench/selftest.py

``run.py`` also runs these at the end of every run and reports its outputs
as incorrect if a check has gone blind.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from checks import DELETE, GET, INSERT, DictModel, Ledger, budget_violation, rb_violations

RED, BLACK = "r", "b"


def _model_mismatches(ops, results) -> int:
    model = DictModel(budget=2, items=[(9, 90)])
    return sum(not model.step(op, res) for op, res in zip(ops, results))


def _flipped_result():
    ops = [(INSERT, 1, 10), (GET, 1, 0), (INSERT, 2, 20), (DELETE, 1, 0),
           (GET, 1, 0), (GET, 9, 0)]
    results = [True, 10, False, True, None, 90]  # 2 is refused: budget 2
    flipped = list(results)
    flipped[2] = True
    return _model_mismatches(ops, results) == 0, _model_mismatches(ops, flipped) > 0


def _ledger_verdict(batches, read_back) -> list:
    ledger = Ledger(budget=4, items=[(7, 70)])
    bad = ledger.absorb(batches)
    return ledger.finish(read_back) + ["bad type"] * bad


def _dropped_delete():
    a_ops = [(INSERT, 5, 50), (DELETE, 5, 0), (INSERT, 5, 51)]
    a_res = [True, True, True]
    b_ops = [(DELETE, 5, 0), (GET, 7, 0)]
    b_res = [True, 70]
    read_back = {5: None, 7: 70}
    clean = _ledger_verdict([(a_ops, a_res), (b_ops, b_res)], read_back)
    dropped = _ledger_verdict([(a_ops, a_res), (b_ops[1:], b_res[1:])], read_back)
    return not clean, bool(dropped)


def _foreign_value():
    ops = [(INSERT, 3, 30), (GET, 3, 0), (GET, 7, 0)]
    read_back = {3: 30, 7: 70}
    clean = _ledger_verdict([(ops, [True, 30, 70])], read_back)
    foreign = _ledger_verdict([(ops, [True, 31, 70])], read_back)
    return not clean, bool(foreign)


def _node(key, color, left=None, right=None):
    return SimpleNamespace(key=key, color=color, left=left, right=right)


def _red_red_tree():
    clean = _node(2, BLACK, _node(1, BLACK, _node(0, RED)), _node(3, BLACK))
    red_red = _node(2, BLACK, _node(1, RED, _node(0, RED)), _node(3, RED))
    return not rb_violations(clean, RED), bool(rb_violations(red_red, RED))


def _budget_bust():
    fits = [((DELETE, 7, 0), True), ((INSERT, 1, 10), True), ((INSERT, 2, 20), True)]
    busts = [((INSERT, 1, 10), True), ((INSERT, 2, 20), True), ((GET, 7, 0), 70)]
    read_back = {1: 10, 2: 20, 7: None}
    ledger = Ledger(budget=2, items=[(7, 70)])
    ledger.absorb([([op for op, _ in fits], [res for _, res in fits])])
    clean = not ledger.finish(read_back)
    ledger = Ledger(budget=2, items=[(7, 70)])
    ledger.absorb([([op for op, _ in busts], [res for _, res in busts])])
    bust = bool(ledger.finish({**read_back, 7: 70}))
    return (clean and budget_violation(64, 64, 64) is None,
            bust and budget_violation(64, 65, 64) is not None)


CASES = {
    "flipped result": _flipped_result,
    "dropped successful delete": _dropped_delete,
    "foreign value": _foreign_value,
    "red-red tree": _red_red_tree,
    "budget bust": _budget_bust,
}


def failures() -> list:
    """Names of the cases whose check misjudged its clean or corrupted input."""
    out = []
    for name, case in CASES.items():
        clean_passes, corrupt_fails = case()
        if not clean_passes:
            out.append(f"{name}: clean input rejected")
        if not corrupt_fails:
            out.append(f"{name}: corrupted input accepted")
    return out


if __name__ == "__main__":
    bad = failures()
    for line in bad:
        print("FAIL", line)
    print(f"{len(CASES) - len(bad)}/{len(CASES)} check self-tests behave")
    sys.exit(1 if bad else 0)
