"""Frozen reference tree: the host-speed gauge of the benchmark.

A copy of the sequential red-black get/insert/delete as the program had it
when the benchmark was defined, kept here so that later changes to
``fcrbt.rbtree`` cannot move the gauge. Timing this tree in slices next to
CoarseLock and the direct tree calls gives R, the rate the host delivers for
this kind of pointer-chasing Python code at that moment; dividing by R
removes host phases from the CPU-bound metrics. Do not edit the algorithm:
the constant R0 in ``run.py`` was measured with it.
"""

from __future__ import annotations

import threading

RED = True
BLACK = False

GET, INSERT, DELETE = 0, 1, 2


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent", "is_deleted")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.color = RED
        self.left = None
        self.right = None
        self.parent = None
        self.is_deleted = False


def _is_red(node):
    return node is not None and node.color == RED


class RefTree:
    """Budgeted sequential map with the program's original tree code."""

    def __init__(self, budget: int):
        self.root = None
        self.count = 0
        self.budget = budget

    def apply(self, op):
        kind, key, value = op
        if kind == GET:
            return self.get(key)
        if kind == INSERT:
            if self.find_node(key) is None and self.count >= self.budget:
                return False
            return self.insert(key, value)
        return self.delete(key)

    def find_node(self, key):
        node = self.root
        while node is not None:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def get(self, key):
        node = self.root
        while node is not None:
            if key == node.key:
                if node.is_deleted:
                    return None
                return node.value
            node = node.left if key < node.key else node.right
        return None

    def insert(self, key, value) -> bool:
        parent = None
        node = self.root
        while node is not None:
            if key == node.key:
                node.value = value
                return False
            parent = node
            node = node.left if key < node.key else node.right
        fresh = _Node(key, value)
        fresh.parent = parent
        if parent is None:
            self.root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self.count += 1
        self._fix_insert(fresh)
        return True

    def delete(self, key) -> bool:
        node = self.find_node(key)
        if node is None:
            return False
        self._delete_node(node)
        return True

    def _rotate_left(self, x):
        y = x.right
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x.parent.left is x:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x):
        y = x.left
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x.parent.right is x:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _fix_insert(self, z):
        while z.parent is not None and z.parent.color == RED:
            parent = z.parent
            grand = parent.parent
            if grand.left is parent:
                uncle = grand.right
                if _is_red(uncle):
                    parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if parent.right is z:
                        z = parent
                        self._rotate_left(z)
                        parent = z.parent
                    parent.color = BLACK
                    grand.color = RED
                    self._rotate_right(grand)
            else:
                uncle = grand.left
                if _is_red(uncle):
                    parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if parent.left is z:
                        z = parent
                        self._rotate_right(z)
                        parent = z.parent
                    parent.color = BLACK
                    grand.color = RED
                    self._rotate_left(grand)
        self.root.color = BLACK

    def _delete_node(self, z):
        if z.left is not None and z.right is not None:
            y = z.right
            while y.left is not None:
                y = y.left
            z.key = y.key
            z.value = y.value
            z.is_deleted = y.is_deleted
        else:
            y = z
        x = y.left if y.left is not None else y.right
        parent = y.parent
        if x is not None:
            x.parent = parent
        if parent is None:
            self.root = x
        elif parent.left is y:
            parent.left = x
        else:
            parent.right = x
        self.count -= 1
        if y.color == BLACK:
            self._fix_delete(x, parent)

    def _fix_delete(self, x, parent):
        while x is not self.root and not _is_red(x):
            if parent is None:
                break
            if parent.left is x:
                w = parent.right
                if w.color == RED:
                    w.color = BLACK
                    parent.color = RED
                    self._rotate_left(parent)
                    w = parent.right
                if not _is_red(w.left) and not _is_red(w.right):
                    w.color = RED
                    x = parent
                    parent = x.parent
                else:
                    if not _is_red(w.right):
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = parent.right
                    w.color = parent.color
                    parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(parent)
                    x = self.root
                    parent = None
            else:
                w = parent.left
                if w.color == RED:
                    w.color = BLACK
                    parent.color = RED
                    self._rotate_right(parent)
                    w = parent.left
                if not _is_red(w.left) and not _is_red(w.right):
                    w.color = RED
                    x = parent
                    parent = x.parent
                else:
                    if not _is_red(w.left):
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = parent.left
                    w.color = parent.color
                    parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(parent)
                    x = self.root
                    parent = None
        if x is not None:
            x.color = BLACK


class LockedRefTree:
    """The reference tree behind one lock, driven the way CoarseLock is: on
    a two-caller workload it sees the same lock and interpreter-lock
    handoffs, not only the host's speed."""

    def __init__(self, budget: int):
        self.tree = RefTree(budget)
        self._lock = threading.Lock()

    def apply(self, op):
        with self._lock:
            return self.tree.apply(op)
