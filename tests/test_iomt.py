from __future__ import annotations

import hashlib
import random
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_root, remove_placeholder
from tcr.iomt import (
    Geometry,
    IndexPresentError,
    Iomt,
    IomtError,
    Leaf,
    TreeFullError,
    counter_digest,
    counter_value,
    encloses,
    leaf_digest,
)
from tcr.merkle import Side, ZERO_DIGEST, compute_root

W = {i: hashlib.sha256(f"w{i}".encode()).digest() for i in (1, 3, 4, 7)}

# The running four-leaf example: (3,4,w3) -> (4,7,w4) -> (7,1,w7) -> (1,3,w1).
FOUR_LEAVES = [Leaf(3, 4, W[3]), Leaf(1, 3, W[1]), Leaf(4, 7, W[4]), Leaf(7, 1, W[7])]


def four_leaf_tree() -> Iomt:
    tree = Iomt(2)
    for slot, leaf in enumerate(FOUR_LEAVES):
        tree.set_leaf(slot, leaf)
    return tree


class TestLeafDigest:
    def test_matches_independent_hash(self):
        leaf = Leaf(3, 4, W[3])
        expected = hashlib.sha256(struct.pack(">QQ", 3, 4) + W[3]).digest()
        assert leaf_digest(leaf) == expected
        assert leaf_digest(leaf) == leaf_digest(Leaf(3, 4, W[3]))

    def test_absent_slot_is_zero(self):
        assert leaf_digest(None) == ZERO_DIGEST

    def test_self_linked_placeholder_is_nonzero(self):
        assert leaf_digest(Leaf(9, 9, ZERO_DIGEST)) != ZERO_DIGEST


class TestCounters:
    def test_round_trip(self):
        for value in (0, 1, 2, 255, 2**64 - 1):
            assert counter_value(counter_digest(value)) == value

    def test_zero_counter_is_zero_digest(self):
        assert counter_digest(0) == ZERO_DIGEST

    def test_non_counter_digest(self):
        assert counter_value(hashlib.sha256(b"x").digest()) is None


class TestEncloses:
    def test_simple_gap(self):
        assert encloses(4, 7, 5)

    def test_wrap_around(self):
        assert encloses(7, 1, 9)
        assert encloses(7, 1, 0)

    def test_adjacent_and_self(self):
        assert not encloses(3, 4, 5)
        assert not encloses(3, 4, 3)
        assert not encloses(3, 4, 4)
        for b in (0, 5, 77):
            assert encloses(9, 9, b) or b == 9


class TestGeometry:
    def test_node_count(self):
        # The breadth-first array holds 2 * leaf_count - 1 nodes; the last is the last leaf.
        assert Geometry(3).leaf_node(7) == 14
        assert Geometry(0).leaf_node(0) == 0

    def test_children_and_parent(self):
        from tcr.iomt import left_child, parent_index, right_child

        assert (left_child(0), right_child(0)) == (1, 2)
        assert parent_index(5) == 2
        with pytest.raises(ValueError):
            parent_index(0)

    def test_leaf_node_range(self):
        geo = Geometry(2)
        assert geo.leaf_node(0) == 3
        assert geo.leaf_node(3) == 6
        with pytest.raises(Exception):
            geo.leaf_node(4)


class TestComplementPath:
    def test_figure_one_structure(self):
        # Sixteen occupied slots; slot 6's complement set is its sibling, then
        # the neighbouring pair, then the far quarter, then the far half.
        tree = Iomt(4)
        leaves = [Leaf(i + 1, i + 2, hashlib.sha256(bytes([i])).digest()) for i in range(16)]
        for slot, leaf in enumerate(leaves):
            tree.set_leaf(slot, leaf)
        node = {s: leaf_digest(l) for s, l in enumerate(leaves)}
        v45 = hashlib.sha256(node[4] + node[5]).digest()
        v01 = hashlib.sha256(node[0] + node[1]).digest()
        v23 = hashlib.sha256(node[2] + node[3]).digest()
        v03 = hashlib.sha256(v01 + v23).digest()
        v89 = hashlib.sha256(node[8] + node[9]).digest()
        vab = hashlib.sha256(node[10] + node[11]).digest()
        vcd = hashlib.sha256(node[12] + node[13]).digest()
        vef = hashlib.sha256(node[14] + node[15]).digest()
        v8b = hashlib.sha256(v89 + vab).digest()
        vcf = hashlib.sha256(vcd + vef).digest()
        v8f = hashlib.sha256(v8b + vcf).digest()

        path = tree.complement_path(6)
        assert path == [
            (node[7], Side.RIGHT),
            (v45, Side.LEFT),
            (v03, Side.LEFT),
            (v8f, Side.RIGHT),
        ]
        siblings = [p[0] for p in path]
        sides = [p[1] for p in path]
        assert compute_root(leaf_digest(leaves[6]), siblings, sides) == tree.root

    def test_empty_tree_paths_are_zero(self):
        tree = Iomt(3)
        for slot in range(8):
            assert all(d == ZERO_DIGEST for d, _ in tree.complement_path(slot))

    def test_all_slots_reproduce_root(self):
        rng = random.Random(1)
        tree = Iomt(3)
        leaves: dict[int, Leaf] = {}
        indices = rng.sample(range(100), 8)
        for slot, idx in enumerate(indices):
            leaf = Leaf(idx, rng.randrange(100), hashlib.sha256(bytes([slot])).digest())
            leaves[slot] = leaf
            tree.set_leaf(slot, leaf)
        assert tree.root == oracle_root(leaves, 3)
        for slot, leaf in leaves.items():
            path = tree.complement_path(slot)
            got = compute_root(leaf_digest(leaf), [p[0] for p in path], [p[1] for p in path])
            assert got == tree.root

    def test_every_height_every_slot_matches_oracle(self):
        rng = random.Random(9)
        for height in range(5):
            tree = Iomt(height)
            leaves: dict[int, Leaf] = {}
            for slot in rng.sample(range(1 << height), max(1, (1 << height) * 3 // 4)):
                leaf = Leaf(rng.randrange(512), rng.randrange(512), counter_digest(rng.randrange(1, 9)))
                leaves[slot] = leaf
                tree.set_leaf(slot, leaf)
            expected = oracle_root(leaves, height)
            for slot in range(1 << height):
                path = tree.complement_path(slot)
                got = compute_root(
                    leaf_digest(leaves.get(slot)), [p[0] for p in path], [p[1] for p in path]
                )
                assert got == expected, (height, slot)


class TestSetLeaf:
    def test_round_trip(self):
        tree = four_leaf_tree()
        assert dict(tree.leaves())[2] == Leaf(4, 7, W[4])

    def test_slot_order_irrelevant_for_fixed_assignment(self):
        assignment = dict(enumerate(FOUR_LEAVES))
        roots = set()
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            tree = Iomt(2)
            for slot in order:
                tree.set_leaf(slot, assignment[slot])
            roots.add(tree.root)
        assert len(roots) == 1
        assert roots.pop() == oracle_root(assignment, 2)

    def test_idempotent(self):
        tree = four_leaf_tree()
        before = tree.root
        tree.set_leaf(1, Leaf(1, 3, W[1]))
        assert tree.root == before

    def test_out_of_range(self):
        with pytest.raises(Exception):
            four_leaf_tree().set_leaf(4, Leaf(9, 9, ZERO_DIGEST))


class TestInsert:
    @staticmethod
    def roomy_four_leaf_tree() -> Iomt:
        tree = Iomt(3)  # same four leaves, with slots to spare
        for slot, leaf in enumerate(FOUR_LEAVES):
            tree.set_leaf(slot, leaf)
        return tree

    def test_four_leaf_gap(self):
        tree = self.roomy_four_leaf_tree()
        encloser, _, _ = tree.insert(5, ZERO_DIGEST, tree.locate(5))
        assert encloser == Leaf(4, 7, W[4])
        leaves = dict(tree.leaves())
        assert leaves[2] == Leaf(4, 5, W[4])
        assert leaves[4] == Leaf(5, 7, ZERO_DIGEST)

    def test_empty_tree_self_link(self):
        tree = Iomt(2)
        encloser, path, _ = tree.insert(9, ZERO_DIGEST, tree.locate(9))
        assert encloser is None and path is None
        assert dict(tree.leaves()) == {0: Leaf(9, 9, ZERO_DIGEST)}

    def test_low_gap_and_oracle_root(self):
        tree = self.roomy_four_leaf_tree()
        encloser, _, _ = tree.insert(2, ZERO_DIGEST, tree.locate(2))
        assert encloser == Leaf(1, 3, W[1])
        leaves = dict(tree.leaves())
        assert leaves[1] == Leaf(1, 2, W[1])
        assert leaves[4] == Leaf(2, 3, ZERO_DIGEST)
        assert tree.root == oracle_root(leaves, 3)

    def test_present_index_rejected(self):
        tree = four_leaf_tree()
        with pytest.raises(IndexPresentError):
            tree.insert(4, ZERO_DIGEST, tree.locate(4))

    def test_full_tree_rejected(self):
        tree = four_leaf_tree()  # height 2: all four slots used
        with pytest.raises(TreeFullError):
            tree.insert(5, ZERO_DIGEST, tree.locate(5))

    def test_refusals_come_before_any_write(self):
        broken = Iomt(3)
        broken.set_leaf(0, Leaf(1, 3, W[1]))  # links to an absent 3: nothing encloses 5
        cases = [(four_leaf_tree(), 4, IndexPresentError), (four_leaf_tree(), 5, TreeFullError),
                 (broken, 5, IomtError)]
        for tree, idx, error in cases:
            before = (tree.root, list(tree.leaves()))
            with pytest.raises(error):
                tree.insert(idx, ZERO_DIGEST, tree.locate(idx))
            assert (tree.root, list(tree.leaves())) == before

    def test_returns_the_encloser_path_and_the_new_slot_path(self):
        tree = self.roomy_four_leaf_tree()
        encloser_path = tree.complement_path(2)
        _, path, slot_path = tree.insert(5, counter_digest(1), tree.locate(5))
        assert path == encloser_path
        assert slot_path == tree.complement_path(4)  # the new slot, after the relink

    def test_remove_is_inverse(self):
        tree = Iomt(3)
        for slot, leaf in enumerate(FOUR_LEAVES):
            tree.set_leaf(slot, leaf)
        before = tree.root
        tree.upsert(5, ZERO_DIGEST)
        assert tree.root != before
        remove_placeholder(tree, 5)
        assert tree.root == before


def _slot_sets():
    return st.integers(0, 8).flatmap(
        lambda height: st.tuples(st.just(height), st.sets(st.integers(0, (1 << height) - 1)))
    )


@settings(max_examples=80, deadline=None)
@example((0, set()))
@example((0, {0}))
@example((8, set()))
@example((8, set(range(256))))
@given(_slot_sets())
def test_from_leaves_matches_incremental_writes(case):
    height, slots = case
    leaves = {
        slot: Leaf(slot * 7 + 1, slot * 7 + 8, hashlib.sha256(struct.pack(">I", slot)).digest())
        for slot in slots
    }
    with mock.patch.object(Iomt, "complement_path", side_effect=AssertionError) as path_reads:
        built = Iomt.from_leaves(height, leaves.items())
    assert not path_reads.called
    assert built.root == oracle_root(leaves, height)
    incremental = Iomt(height)
    for slot, leaf in leaves.items():
        incremental.set_leaf(slot, leaf)
    positions = range(2 * incremental.geometry.leaf_count - 1)
    assert built.store.get_nodes(positions) == incremental.store.get_nodes(positions)
    assert list(built.leaves()) == list(incremental.leaves())


def test_from_leaves_rejects_out_of_range_slots():
    with pytest.raises(IomtError):
        Iomt.from_leaves(2, [(4, Leaf(1, 1, counter_digest(1)))])


class TestOracleRoot:
    def test_empty(self):
        assert oracle_root({}, 3) == ZERO_DIGEST

    def test_matches_incremental_small(self):
        rng = random.Random(7)
        for height in range(5):
            tree = Iomt(height)
            leaves: dict[int, Leaf] = {}
            for slot in rng.sample(range(1 << height), (1 << height) // 2 or 1):
                leaf = Leaf(rng.randrange(256), rng.randrange(256), counter_digest(rng.randrange(9)))
                leaves[slot] = leaf
                tree.set_leaf(slot, leaf)
            assert tree.root == oracle_root(leaves, height)

    def test_four_leaf_complement_agreement(self):
        tree = four_leaf_tree()
        expected = oracle_root(dict(enumerate(FOUR_LEAVES)), 2)
        assert tree.root == expected
        for slot, leaf in tree.leaves():
            path = tree.complement_path(slot)
            assert compute_root(leaf_digest(leaf), [p[0] for p in path], [p[1] for p in path]) == expected


def _walk_cycle(leaves: dict[int, Leaf]) -> list[int]:
    by_idx = {leaf.idx: leaf for leaf in leaves.values()}
    start = min(by_idx)
    seen = [start]
    cursor = by_idx[start].next_idx
    while cursor != start and len(seen) <= len(by_idx):
        seen.append(cursor)
        cursor = by_idx[cursor].next_idx
    return seen


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=8, unique=True))
def test_circular_linkage_after_inserts(indices):
    tree = Iomt(3)
    for idx in indices:
        tree.upsert(idx, ZERO_DIGEST)
    leaves = dict(tree.leaves())
    cycle = _walk_cycle(leaves)
    assert sorted(cycle) == sorted(indices)
    assert len(cycle) == len(indices)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=2, max_size=8, unique=True))
def test_placeholder_insert_never_touches_values(indices):
    tree = Iomt(3)
    *existing, newcomer = indices
    for idx in existing:
        tree.upsert(idx, ZERO_DIGEST)
    for slot, leaf in list(tree.leaves()):
        tree.set_leaf(slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(leaf.idx + 1)))
    before = {leaf.idx: leaf.val for _, leaf in tree.leaves()}
    tree.upsert(newcomer, ZERO_DIGEST)
    after = {leaf.idx: leaf.val for _, leaf in tree.leaves()}
    assert all(after[idx] == val for idx, val in before.items())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=8, unique=True))
def test_absent_index_has_exactly_one_encloser(indices):
    tree = Iomt(3)
    for idx in indices:
        tree.upsert(idx, ZERO_DIGEST)
    leaves = [leaf for _, leaf in tree.leaves()]
    present = set(indices)
    for candidate in range(256):
        hits = [l for l in leaves if encloses(l.idx, l.next_idx, candidate)]
        if candidate in present:
            assert hits == []
        else:
            assert len(hits) == 1


def test_upsert_sets_present_index_in_place():
    tree = four_leaf_tree()  # full: a present index needs no free slot
    root = tree.upsert(4, counter_digest(2))
    expected = dict(enumerate(FOUR_LEAVES))
    expected[2] = Leaf(4, 7, counter_digest(2))
    assert dict(tree.leaves()) == expected
    assert root == tree.root == oracle_root(expected, 2)


def test_upsert_inserts_new_index_after_its_encloser():
    tree = Iomt(3)
    tree.set_leaf(0, Leaf(3, 20, counter_digest(3)))
    tree.set_leaf(2, Leaf(20, 3, counter_digest(5)))
    root = tree.upsert(10, counter_digest(1))
    expected = {  # the new leaf takes slot 1, the lowest free one
        0: Leaf(3, 10, counter_digest(3)),
        1: Leaf(10, 20, counter_digest(1)),
        2: Leaf(20, 3, counter_digest(5)),
    }
    assert dict(tree.leaves()) == expected
    assert root == tree.root == oracle_root(expected, 3)
