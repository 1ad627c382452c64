import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrbt.oracle import OracleMap
from fcrbt.rbtree import BLACK, RED, MissingNodeError, Node, RBTree, _build_balanced


# ---------------------------------------------------------------------------
# independent references used as oracles below
# ---------------------------------------------------------------------------


def _ref_insert(root, key):
    """Insert-only red-black reference on dict nodes, written separately from
    the implementation under test (textbook recolor/rotate cases)."""

    def rot(node, left):
        a, b = ("r", "l") if left else ("l", "r")
        child = node[a]
        node[a] = child[b]
        if child[b]:
            child[b]["p"] = node
        child["p"] = node["p"]
        if node["p"] is None:
            pass
        elif node["p"]["l"] is node:
            node["p"]["l"] = child
        else:
            node["p"]["r"] = child
        child[b] = node
        node["p"] = child
        return child

    fresh = {"k": key, "c": "R", "l": None, "r": None, "p": None}
    if root is None:
        fresh["c"] = "B"
        return fresh
    cur = root
    while True:
        side = "l" if key < cur["k"] else "r"
        if cur[side] is None:
            cur[side] = fresh
            fresh["p"] = cur
            break
        cur = cur[side]
    z = fresh
    while z["p"] and z["p"]["c"] == "R":
        p, g = z["p"], z["p"]["p"]
        left_side = g["l"] is p
        uncle = g["r"] if left_side else g["l"]
        if uncle and uncle["c"] == "R":
            p["c"] = uncle["c"] = "B"
            g["c"] = "R"
            z = g
        else:
            inner = p["r"] if left_side else p["l"]
            if inner is z:
                z = p
                top = rot(z, left=left_side)
                p = top
            p["c"] = "B"
            g["c"] = "R"
            top = rot(g, left=not left_side)
            if top["p"] is None:
                root = top
    while root["p"]:
        root = root["p"]
    root["c"] = "B"
    return root


def _ref_shape(node):
    if node is None:
        return None
    return (node["k"], node["c"], _ref_shape(node["l"]), _ref_shape(node["r"]))


def _shape(node):
    if node is None:
        return None
    return (
        node.key,
        "R" if node.color == RED else "B",
        _shape(node.left),
        _shape(node.right),
    )


def _enumerate_valid_rb_trees(keys):
    """Brute force: every BST shape on `keys` x every coloring, filtered by a
    from-scratch invariant check. Returns shape tuples as in _shape()."""
    shapes = set()
    for order in itertools.permutations(keys):
        root = None
        for k in order:  # plain unbalanced BST insert
            if root is None:
                root = [k, None, None]
                continue
            cur = root
            while True:
                i = 1 if k < cur[0] else 2
                if cur[i] is None:
                    cur[i] = [k, None, None]
                    break
                cur = cur[i]
        shapes.add(_plain_shape(root))

    def colorings(shape):
        if shape is None:
            yield None
            return
        k, l, r = shape
        for c in "RB":
            for cl in colorings(l):
                for cr in colorings(r):
                    yield (k, c, cl, cr)

    def black_heights(t):
        if t is None:
            return {1}
        _, c, l, r = t
        add = 1 if c == "B" else 0
        return {h + add for h in black_heights(l) | black_heights(r)}

    def no_red_red(t):
        if t is None:
            return True
        _, c, l, r = t
        for child in (l, r):
            if child is not None and c == "R" and child[1] == "R":
                return False
        return no_red_red(l) and no_red_red(r)

    valid = set()
    for shape in shapes:
        for colored in colorings(shape):
            if colored[1] == "B" and no_red_red(colored) and len(black_heights(colored)) == 1:
                valid.add(colored)
    return valid


def _plain_shape(n):
    if n is None:
        return None
    return (n[0], _plain_shape(n[1]), _plain_shape(n[2]))


def _assert_valid(tree):
    report = tree.validate()
    assert report.ok, str(report)


# ---------------------------------------------------------------------------
# insert
# ---------------------------------------------------------------------------


def test_insert_into_empty():
    t = RBTree()
    assert t.insert(5, 50) is True
    assert t.root.key == 5 and t.root.color == BLACK
    assert (t.physical_count, t.live_count) == (1, 1)
    _assert_valid(t)


def test_ascending_three_keys_rebalances():
    # Enumeration oracle: every valid red-black tree on {1,2,3} is rooted at 2
    # with children 1 and 3, so the chain 1->2->3 must have been rotated.
    valid = _enumerate_valid_rb_trees([1, 2, 3])
    assert valid and all(s[0] == 2 for s in valid)

    t = RBTree()
    for k in (1, 2, 3):
        t.insert(k, k * 10)
    assert _shape(t.root) in valid
    assert t.root.key == 2 and t.root.color == BLACK
    assert t.root.left.key == 1 and t.root.right.key == 3
    # reference simulation agrees on the exact coloring (red leaves)
    ref = None
    for k in (1, 2, 3):
        ref = _ref_insert(ref, k)
    assert _shape(t.root) == _ref_shape(ref)
    assert t.root.left.color == RED and t.root.right.color == RED


def test_insert_duplicate_updates_in_place():
    t = RBTree()
    t.insert(7, 1)
    assert t.insert(7, 99) is False
    assert t.get(7) == 99
    assert t.physical_count == 1


def test_insert_matches_reference_simulation():
    rng = random.Random(11)
    for trial in range(40):
        keys = rng.sample(range(1000), rng.randint(1, 60))
        t = RBTree()
        ref = None
        for k in keys:
            t.insert(k, 0)
            ref = _ref_insert(ref, k)
        assert _shape(t.root) == _ref_shape(ref)
        _assert_valid(t)


# ---------------------------------------------------------------------------
# delete
# ---------------------------------------------------------------------------


def test_delete_from_empty():
    assert RBTree().delete(4) is False


def test_delete_middle_of_ten():
    t = RBTree()
    oracle = OracleMap()
    for k in range(1, 11):
        t.insert(k, k)
        oracle.insert(k, k)
    assert t.delete(5) is True
    assert oracle.delete(5) is True
    _assert_valid(t)
    assert t.live_count == 9
    assert t.live_keys() == oracle.keys()


def test_delete_ignores_soft_mark():
    t = RBTree()
    for k in (1, 2, 3):
        t.insert(k, k)
    t.soft_delete(2)
    assert t.delete(2) is True
    assert t.find_node(2) is None
    assert (t.physical_count, t.live_count) == (2, 2)
    _assert_valid(t)


def test_delete_two_children_with_marked_successor():
    # Successor payload (including its mark) moves into the deleted slot.
    t = RBTree()
    for k in range(1, 8):
        t.insert(k, k * 10)
    t.soft_delete(6)
    assert t.delete(5) is True
    _assert_valid(t)
    assert t.get(6) is None  # mark survived the move
    assert t.find_node(6) is not None
    assert t.live_keys() == {1, 2, 3, 4, 7}


# ---------------------------------------------------------------------------
# get / soft ops
# ---------------------------------------------------------------------------


def test_get_empty_and_present():
    t = RBTree()
    assert t.get(1) is None
    t.insert(7, 70)
    assert t.get(7) == 70


def test_soft_delete_transitions():
    t = RBTree()
    t.insert(3, 30)
    assert t.soft_delete(3) is True
    assert t.get(3) is None
    assert t.soft_delete(3) is False  # already marked
    assert (t.physical_count, t.live_count) == (1, 0)
    with pytest.raises(MissingNodeError):
        t.soft_delete(4)


def test_soft_insert_transitions():
    t = RBTree()
    t.insert(3, 30)
    t.soft_delete(3)
    assert t.soft_insert(3, 99) is True
    assert t.get(3) == 99
    # live key: value updated, no transition
    assert t.soft_insert(3, 7) is False
    assert t.get(3) == 7
    assert t.physical_count == 1
    with pytest.raises(MissingNodeError):
        t.soft_insert(4, 1)


def test_insert_revives_marked_node():
    t = RBTree()
    t.insert(3, 30)
    t.soft_delete(3)
    assert t.insert(3, 31) is False  # physically present
    assert t.get(3) == 31
    assert t.live_count == 1


@given(st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=40))
def test_soft_ops_never_change_shape(steps):
    t = RBTree()
    for k in range(13):
        t.insert(k, 0)
    before = _shape(t.root)
    marked = set()
    for k, deleting in steps:
        if deleting:
            t.soft_delete(k)
            marked.add(k)
        else:
            t.soft_insert(k, 1)
            marked.discard(k)
    assert _shape(t.root) == before
    assert t.live_keys() == set(range(13)) - marked
    _assert_valid(t)


# ---------------------------------------------------------------------------
# compact
# ---------------------------------------------------------------------------


def test_compact_drops_marked_nodes():
    t = RBTree()
    for k in range(1, 6):
        t.insert(k, k)
    t.soft_delete(2)
    t.soft_delete(4)
    live_before = t.live_items()
    assert t.compact() == 2
    assert t.physical_count == 3 and t.live_count == 3
    assert t.live_items() == live_before == [(1, 1), (3, 3), (5, 5)]
    _assert_valid(t)


def test_compact_noop_without_marks():
    t = RBTree()
    for k in range(10):
        t.insert(k, k)
    items = t.live_items()
    assert t.compact() == 0
    assert t.live_items() == items
    assert t.physical_count == 10
    _assert_valid(t)


def test_compact_all_marked_gives_empty_tree():
    t = RBTree()
    for k in range(5):
        t.insert(k, k)
    for k in range(5):
        t.soft_delete(k)
    assert t.compact() == 5
    assert t.root is None and t.physical_count == 0
    _assert_valid(t)


def test_compact_after_physical_delete_of_marked_key_removes_nothing():
    t = RBTree()
    for k in range(8):
        t.insert(k, k)
    t.soft_delete(3)
    assert t.delete(3) is True
    _assert_valid(t)
    assert t.compact() == 0
    assert t.physical_count == t.live_count == 7
    _assert_valid(t)


def test_key_revived_by_insert_survives_compact():
    t = RBTree()
    for k in range(8):
        t.insert(k, k)
    t.soft_delete(5)
    t.soft_delete(6)
    assert t.insert(5, 55) is False
    _assert_valid(t)
    assert t.compact() == 1
    assert t.get(5) == 55
    assert t.find_node(6) is None
    _assert_valid(t)


def test_compact_one_marked_key_of_many_keeps_the_rest():
    rng = random.Random(7)
    keys = list(range(1000))
    rng.shuffle(keys)
    t = RBTree()
    for k in keys:
        t.insert(k, k * 3)
    t.soft_delete(keys[500])
    assert t.compact() == 1
    assert t.physical_count == t.live_count == 999
    assert t.live_items() == [(k, k * 3) for k in range(1000) if k != keys[500]]
    _assert_valid(t)


def test_bulk_build_every_size():
    for n in list(range(513)) + [1000, 1024, 1500, 2048]:
        t = RBTree()
        t.root = _build_balanced([(k, k) for k in range(n)])
        t.physical_count = n
        t.live_count = n
        _assert_valid(t)
        assert t.live_items() == [(k, k) for k in range(n)]


# ---------------------------------------------------------------------------
# validator
# ---------------------------------------------------------------------------


def test_validator_empty_tree():
    assert RBTree().validate().ok


def test_validator_flags_red_root():
    t = RBTree()
    t.root = Node(1, 1, RED)
    t.physical_count = 1
    t.live_count = 1
    assert any("root is red" in v for v in t.validate().violations)


def test_validator_flags_red_red_and_black_height():
    t = RBTree()
    a, b, c = Node(2, 0, BLACK), Node(1, 0, RED), Node(3, 0, RED)
    t.root, a.left, a.right, b.parent, c.parent = a, b, c, a, a
    t.physical_count = t.live_count = 3
    assert t.validate().ok
    b.color = BLACK  # one black child only: black heights diverge
    assert any("black height" in v for v in t.validate().violations)
    b.color = RED
    b.left = Node(0, 0, RED)
    b.left.parent = b
    t.physical_count = t.live_count = 4
    assert any("red child" in v for v in t.validate().violations)


def test_validator_flags_count_drift():
    t = RBTree()
    t.insert(1, 1)
    t.live_count = 5
    assert not t.validate().ok


def test_validator_flags_marked_set_drift():
    t = RBTree()
    for k in (1, 2, 3):
        t.insert(k, 0)
    t.soft_delete(2)
    assert t.validate().ok
    t.find_node(2).is_deleted = False  # a flip that bypasses the set
    t.live_count += 1
    assert any("marked set" in v for v in t.validate().violations)


def test_validator_flags_order_violation():
    t = RBTree()
    for k in (2, 1, 3):
        t.insert(k, 0)
    t.root.left.key = 9
    assert any("order" in v for v in t.validate().violations)


# ---------------------------------------------------------------------------
# randomized differential runs
# ---------------------------------------------------------------------------


def test_random_churn_validates_after_every_op():
    rng = random.Random(2024)
    t = RBTree()
    oracle = OracleMap()
    for i in range(10_000):
        k = rng.randrange(64)
        if rng.random() < 0.5:
            assert t.insert(k, i) == oracle.insert(k, i)
        else:
            assert t.delete(k) == oracle.delete(k)
        _assert_valid(t)
    assert t.live_keys() == oracle.keys()


def test_height_stays_logarithmic():
    t = RBTree()
    rng = random.Random(5)
    keys = list(range(4096))
    rng.shuffle(keys)
    for k in keys:
        t.insert(k, 0)
    assert t.height() <= 2 * math.log2(4096 + 1)


@given(
    st.lists(
        st.tuples(st.sampled_from(["ins", "del", "get", "sdel", "sins", "compact"]),
                  st.integers(0, 15), st.integers(0, 99)),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_mixed_ops_against_model(steps):
    t = RBTree()
    model = {}  # key -> [value, marked]
    for op, k, v in steps:
        if op == "ins":
            expected_new = k not in model
            assert t.insert(k, v) == expected_new
            model[k] = [v, False]
        elif op == "del":
            assert t.delete(k) == (k in model)
            model.pop(k, None)
        elif op == "get":
            want = model[k][0] if k in model and not model[k][1] else None
            assert t.get(k) == want
        elif op == "sdel":
            if k not in model:
                with pytest.raises(MissingNodeError):
                    t.soft_delete(k)
            else:
                assert t.soft_delete(k) == (not model[k][1])
                model[k][1] = True
        elif op == "sins":
            if k not in model:
                with pytest.raises(MissingNodeError):
                    t.soft_insert(k, v)
            else:
                assert t.soft_insert(k, v) == model[k][1]
                model[k] = [v, False]
        else:
            marked = sum(1 for val in model.values() if val[1])
            assert t.compact() == marked
            model = {k: val for k, val in model.items() if not val[1]}
        assert t.physical_count == len(model)
        assert t.live_count == sum(1 for val in model.values() if not val[1])
        _assert_valid(t)
    assert t.live_items() == sorted(
        (k, val[0]) for k, val in model.items() if not val[1]
    )
