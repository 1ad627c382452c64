"""Sequential red-black tree with soft-deletion marks and compaction.

The tree keeps the set of its soft-deleted keys, so compaction unlinks just
those nodes with the ordinary delete rebalancing, O(d log n) for d marked
nodes, instead of rebuilding the whole tree.

Structural mutation (insert, delete, compact) assumes exclusive mutation
rights: exactly one writer thread and no concurrent readers. That exclusion is
the job of the combining runtime, never of this module. ``get``,
``soft_delete`` and ``soft_insert`` may run concurrently with each other: the
per-node deletion mark is the only mutable state they touch, and mark flips
(plus the live counter and the marked-key set) are serialized by
``mark_lock``. Readers never acquire the lock; they rely on the mark write
becoming visible no earlier than the value write that precedes it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

RED = True
BLACK = False

Color = bool


class MissingNodeError(RuntimeError):
    """A soft operation addressed a key with no physical node.

    The combiner verifies physical existence before delegating, so reaching
    this is a protocol violation, not a user error.
    """


class Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent", "is_deleted")

    def __init__(self, key: int, value: int, color: Color = RED):
        self.key = key
        self.value = value
        self.color = color
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.parent: Optional[Node] = None
        self.is_deleted = False

    def __repr__(self) -> str:  # debugging aid
        c = "R" if self.color == RED else "B"
        d = "!" if self.is_deleted else ""
        return f"<{c}{d} {self.key}:{self.value}>"


@dataclass
class ValidationReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.violations)


def _is_red(node: Optional[Node]) -> bool:
    return node is not None and node.color == RED


class RBTree:
    """Red-black tree mapping int keys to int values, with soft-delete marks.

    ``physical_count`` counts all nodes, ``live_count`` the unmarked ones.
    ``max_nodes`` is carried here as the physical-node budget but never
    enforced by this class; budget policy belongs to the caller.
    """

    def __init__(self, max_nodes: int = 2**63 - 1):
        if max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        self.root: Optional[Node] = None
        self.physical_count = 0
        self.live_count = 0
        self.max_nodes = max_nodes
        # Keys of the soft-deleted nodes; every mark flip keeps it current.
        self._marked: set = set()
        # Reentrant so callers can bundle a policy decision with the flip it
        # guards (budget check + soft insert, stamping, ...).
        self.mark_lock = threading.RLock()
        self.test_hooks = None

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def find_node(self, key: int) -> Optional[Node]:
        """Physical lookup; returns the node even if soft-deleted."""
        node = self.root
        while node is not None:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def get(self, key: int) -> Optional[int]:
        """Value for a live key, None otherwise. Safe alongside soft ops."""
        h = self.test_hooks
        if h is not None:
            cb = getattr(h, "on_get_start", None)
            if cb is not None:
                cb(key)
        node = self.root
        while node is not None:
            if key == node.key:
                if node.is_deleted:
                    return None
                return node.value
            node = node.left if key < node.key else node.right
        return None

    # ------------------------------------------------------------------
    # soft operations (concurrent with gets and each other)
    # ------------------------------------------------------------------

    def soft_delete(self, key: int) -> bool:
        """Mark a physically present key as logically absent.

        Returns True iff the mark transitioned live -> deleted.
        """
        node = self.find_node(key)
        if node is None:
            raise MissingNodeError(f"soft_delete({key}): no physical node")
        with self.mark_lock:
            if node.is_deleted:
                return False
            self._flip_hook(key, True)
            node.is_deleted = True
            self._marked.add(key)
            self.live_count -= 1
            return True

    def soft_insert(self, key: int, value: int) -> bool:
        """Revive (or update) a physically present key.

        The value slot is written before the mark is cleared, so a reader that
        observes the node as live also observes the new value. Returns True
        iff the mark transitioned deleted -> live.
        """
        node = self.find_node(key)
        if node is None:
            raise MissingNodeError(f"soft_insert({key}): no physical node")
        with self.mark_lock:
            if node.is_deleted:
                node.value = value
                self._flip_hook(key, False)
                node.is_deleted = False
                self._marked.discard(key)
                self.live_count += 1
                return True
            node.value = value
            return False

    def _flip_hook(self, key: int, to_deleted: bool) -> None:
        h = self.test_hooks
        if h is not None:
            cb = getattr(h, "before_mark_flip", None)
            if cb is not None:
                cb(key, to_deleted)

    # ------------------------------------------------------------------
    # structural operations (exclusive mutation rights required)
    # ------------------------------------------------------------------

    def insert(self, key: int, value: int) -> bool:
        """Physical insert. Returns True iff a new node was created.

        If the key already has a physical node, its value is updated and any
        soft-delete mark cleared.
        """
        parent = None
        node = self.root
        while node is not None:
            if key == node.key:
                with self.mark_lock:
                    node.value = value
                    if node.is_deleted:
                        node.is_deleted = False
                        self._marked.discard(key)
                        self.live_count += 1
                return False
            parent = node
            node = node.left if key < node.key else node.right

        fresh = Node(key, value, RED)
        fresh.parent = parent
        if parent is None:
            self.root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self.physical_count += 1
        self.live_count += 1
        self._fix_insert(fresh)
        return True

    def delete(self, key: int) -> bool:
        """Physical unlink, ignoring the soft-delete mark. True iff removed."""
        node = self.find_node(key)
        if node is None:
            return False
        self.delete_node(node)
        return True

    def delete_node(self, node: Node) -> None:
        """Physical unlink of a node that ``find_node`` returned."""
        self._marked.discard(node.key)
        self._delete_node(node)

    def compact(self) -> int:
        """Unlink every soft-deleted node; returns the number removed.

        Each marked key is deleted in place with the ordinary rebalancing, so
        d marked nodes cost O(d log n) and no node is allocated. Runs inside
        stop-the-world: no concurrent readers or mark flips exist.
        """
        marked, self._marked = self._marked, set()
        for key in marked:
            self._delete_node(self.find_node(key))
        return len(marked)

    # ------------------------------------------------------------------
    # traversal / inspection
    # ------------------------------------------------------------------

    def live_items(self) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        stack: List[Node] = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            if not node.is_deleted:
                out.append((node.key, node.value))
            node = node.right
        return out

    def live_keys(self) -> set:
        return {k for k, _ in self.live_items()}

    def height(self) -> int:
        def depth(node: Optional[Node]) -> int:
            if node is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self.root)

    def black_height(self) -> int:
        h = 0
        node = self.root
        while node is not None:
            if node.color == BLACK:
                h += 1
            node = node.left
        return h

    def validate(self) -> ValidationReport:
        """Check every red-black invariant plus count consistency."""
        report = ValidationReport()
        if self.root is None:
            if self.physical_count != 0:
                report.violations.append(
                    f"empty tree but physical_count={self.physical_count}"
                )
            if self.live_count != 0:
                report.violations.append(f"empty tree but live_count={self.live_count}")
            self._check_marked(set(), report)
            return report

        if self.root.color != BLACK:
            report.violations.append("root is red")
        if self.root.parent is not None:
            report.violations.append("root has a parent")

        counts = [0, 0]  # physical, live
        marked = set()

        def walk(node: Node, lo: Optional[int], hi: Optional[int]) -> int:
            counts[0] += 1
            if node.is_deleted:
                marked.add(node.key)
            else:
                counts[1] += 1
            if lo is not None and node.key <= lo:
                report.violations.append(f"BST order broken at key {node.key}")
            if hi is not None and node.key >= hi:
                report.violations.append(f"BST order broken at key {node.key}")
            if node.color == RED and (_is_red(node.left) or _is_red(node.right)):
                report.violations.append(f"red node {node.key} has a red child")
            bh_left = 1
            bh_right = 1
            if node.left is not None:
                if node.left.parent is not node:
                    report.violations.append(f"bad parent link under key {node.key}")
                bh_left = walk(node.left, lo, node.key)
            if node.right is not None:
                if node.right.parent is not node:
                    report.violations.append(f"bad parent link under key {node.key}")
                bh_right = walk(node.right, node.key, hi)
            if bh_left != bh_right:
                report.violations.append(
                    f"black height differs under key {node.key}: {bh_left} vs {bh_right}"
                )
            return bh_left + (1 if node.color == BLACK else 0)

        walk(self.root, None, None)
        if counts[0] != self.physical_count:
            report.violations.append(
                f"physical_count={self.physical_count} but {counts[0]} reachable"
            )
        if counts[1] != self.live_count:
            report.violations.append(
                f"live_count={self.live_count} but {counts[1]} live reachable"
            )
        self._check_marked(marked, report)
        return report

    def _check_marked(self, reachable: set, report: ValidationReport) -> None:
        stray = self._marked ^ reachable
        if stray:
            report.violations.append(
                f"marked set and soft-deleted nodes differ on keys {sorted(stray)}"
            )

    # ------------------------------------------------------------------
    # rebalancing internals
    # ------------------------------------------------------------------

    def _rotate_left(self, x: Node) -> None:
        y = x.right
        assert y is not None
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

    def _rotate_right(self, x: Node) -> None:
        y = x.left
        assert y is not None
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

    def _fix_insert(self, z: Node) -> None:
        while z.parent is not None and z.parent.color == RED:
            parent = z.parent
            grand = parent.parent
            assert grand is not None  # red parent is never the root
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

    def _delete_node(self, z: Node) -> None:
        # Whatever the shape, the logical entry that disappears is z's own.
        removed_live = not z.is_deleted
        if z.left is not None and z.right is not None:
            # Two children: splice out the in-order successor instead and move
            # its payload (key, value, mark) into z.
            y = z.right
            while y.left is not None:
                y = y.left
            z.key = y.key
            z.value = y.value
            z.is_deleted = y.is_deleted
        else:
            y = z

        # y has at most one child
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

        self.physical_count -= 1
        if removed_live:
            self.live_count -= 1
        if y.color == BLACK:
            self._fix_delete(x, parent)

    def _fix_delete(self, x: Optional[Node], parent: Optional[Node]) -> None:
        # x carries an extra black; None counts as black.
        while x is not self.root and not _is_red(x):
            if parent is None:
                break
            if parent.left is x:
                w = parent.right
                assert w is not None  # sibling of a double-black exists
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
                assert w is not None
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


def _build_balanced(items: List[Tuple[int, int]]) -> Optional[Node]:
    """Bulk-build a valid red-black tree from sorted (key, value) pairs.

    Median split gives leaf depths on at most two adjacent levels; coloring
    exactly the deepest level red then yields a uniform black height.
    """
    n = len(items)
    if n == 0:
        return None
    max_depth = n.bit_length() - 1

    def build(lo: int, hi: int, depth: int) -> Optional[Node]:
        if lo >= hi:
            return None
        mid = (lo + hi) // 2
        key, value = items[mid]
        color = RED if (depth == max_depth and max_depth > 0) else BLACK
        node = Node(key, value, color)
        node.left = build(lo, mid, depth + 1)
        if node.left is not None:
            node.left.parent = node
        node.right = build(mid + 1, hi, depth + 1)
        if node.right is not None:
            node.right.parent = node
        return node

    return build(0, n, 0)
