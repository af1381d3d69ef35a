"""Index-ordered Merkle tree (IOMT).

Leaves carry ``(idx, next_idx, val)`` and form a virtual circular linked
list ordered by ``idx``.  Proving that a leaf ``(b, b_next)`` exists under a
root implicitly proves that no leaf exists for any index the pair encloses,
which is what makes authenticated denial possible.

A leaf whose value is the zero digest is a *placeholder*: the index is
initialized but holds no record yet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .merkle import DIGEST_SIZE, Side, ZERO_DIGEST, encode_fields, parent, sha256

LEAF_SCHEMA = ("u64", "u64", "d32")


class IomtError(Exception):
    pass


class TreeFullError(IomtError):
    """No free leaf slot remains."""


class IndexPresentError(IomtError):
    """The index is already occupied by a leaf."""


@dataclass(frozen=True)
class Leaf:
    idx: int
    next_idx: int
    val: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.idx < 1 << 64 or not 0 <= self.next_idx < 1 << 64:
            raise ValueError("leaf indices must be u64")
        if len(self.val) != DIGEST_SIZE:
            raise ValueError("leaf value must be a 32-byte digest")

    def encode(self) -> bytes:
        return encode_fields(LEAF_SCHEMA, (self.idx, self.next_idx, self.val))


def leaf_digest(leaf: Optional[Leaf]) -> bytes:
    """Node value of a leaf record; an absent slot hashes to the zero digest."""
    if leaf is None:
        return ZERO_DIGEST
    return sha256(leaf.encode())


def counter_digest(value: int) -> bytes:
    """Counter stored as a digest: 64-bit big-endian in the low-order bytes."""
    if not 0 <= value < 1 << 64:
        raise ValueError("counter must be u64")
    return bytes(24) + value.to_bytes(8, "big")


def counter_value(digest: bytes) -> Optional[int]:
    """Inverse of :func:`counter_digest`; ``None`` if the digest is not a counter."""
    if len(digest) != DIGEST_SIZE or digest[:24] != bytes(24):
        return None
    return int.from_bytes(digest[24:], "big")


def encloses(b: int, b_next: int, a: int) -> bool:
    """True iff the span of leaf ``(b, b_next)`` covers the absent index ``a``.

    The second and third clauses handle the wrap-around link from the
    greatest index back to the least; a single self-linked leaf (b == b_next)
    encloses every other index.
    """
    return (b < a < b_next) or (b_next <= b < a) or (a < b_next <= b)


def left_child(pos: int) -> int:
    return 2 * pos + 1


def right_child(pos: int) -> int:
    return 2 * pos + 2


def parent_index(pos: int) -> int:
    if pos == 0:
        raise ValueError("root has no parent")
    return (pos - 1) // 2


@dataclass(frozen=True)
class Geometry:
    """Shape of a fixed-height tree stored as a breadth-first array, root at 0."""

    height: int

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("height must be non-negative")

    @property
    def leaf_count(self) -> int:
        return 1 << self.height

    def leaf_node(self, slot: int) -> int:
        """Node position of a leaf slot."""
        if not 0 <= slot < self.leaf_count:
            raise IomtError(f"slot {slot} out of range for height {self.height}")
        return self.leaf_count - 1 + slot


def node_levels(height: int, items: Iterable[tuple[int, Leaf]]) -> Iterator[dict[int, bytes]]:
    """The non-zero nodes of the tree holding the ``(slot, leaf)`` pairs of
    ``items``, one ``{pos: digest}`` level at a time, leaves first.

    Empty subtrees are never visited, so the cost follows the leaf count,
    not 2^height.
    """
    geo = Geometry(height)
    level = {geo.leaf_node(slot): leaf_digest(leaf) for slot, leaf in items}
    yield level
    for _ in range(height):
        level = {
            up: parent(
                level.get(left_child(up), ZERO_DIGEST),
                level.get(right_child(up), ZERO_DIGEST),
                Side.LEFT,
            )
            for up in {parent_index(pos) for pos in level}
        }
        yield level


@dataclass(frozen=True)
class PlaceholderPlan:
    """The two-step edit that introduces a placeholder for a new index.

    The encloser fields are ``None`` when the tree is empty and the new leaf
    is simply self-linked.
    """

    encloser_slot: Optional[int]
    encloser_leaf: Optional[Leaf]
    updated_encloser: Optional[Leaf]
    placeholder_slot: int
    placeholder_leaf: Leaf


class MemoryTreeStore:
    """Dict-backed node/leaf store; zero nodes and absent leaves are not kept."""

    def __init__(self) -> None:
        self._nodes: dict[int, bytes] = {}
        self._leaves: dict[int, Leaf] = {}

    def get_nodes(self, positions: Sequence[int]) -> list[bytes]:
        return [self._nodes.get(pos, ZERO_DIGEST) for pos in positions]

    def set_nodes(self, nodes: Sequence[tuple[int, bytes]]) -> None:
        for pos, digest in nodes:
            if digest == ZERO_DIGEST:
                self._nodes.pop(pos, None)
            else:
                self._nodes[pos] = digest

    def set_leaf(self, slot: int, leaf: Optional[Leaf]) -> None:
        if leaf is None:
            self._leaves.pop(slot, None)
        else:
            self._leaves[slot] = leaf

    def leaf_items(self) -> Iterator[tuple[int, Leaf]]:
        return iter(sorted(self._leaves.items()))

    def has_leaves(self) -> bool:
        return bool(self._leaves)

    def find_leaf(self, idx: int) -> Optional[tuple[int, Leaf]]:
        return next(((s, l) for s, l in self._leaves.items() if l.idx == idx), None)

    def find_encloser(self, idx: int) -> Optional[tuple[int, Leaf]]:
        return next(
            ((s, l) for s, l in self._leaves.items() if encloses(l.idx, l.next_idx, idx)), None
        )

    def first_free_slot(self) -> int:
        return next(s for s in itertools.count() if s not in self._leaves)


class Iomt:
    """An IOMT bound to a node/leaf store.

    Instances are single-writer; concurrent readers are safe between edits.
    The store (:class:`MemoryTreeStore`, ``storage.SqliteTreeStore``) provides:

    - ``get_nodes(positions)`` and ``set_nodes([(pos, digest), ...])``: node
      digests in one batch each way, the zero digest where none is stored;
    - ``set_leaf(slot, leaf)``, ``leaf_items()`` in slot order, and
      ``has_leaves()``: leaf records;
    - ``find_leaf(idx)``: the ``(slot, leaf)`` holding ``idx``, or ``None``;
    - ``find_encloser(idx)``: the ``(slot, leaf)`` enclosing an absent
      ``idx``, or ``None``;
    - ``first_free_slot()``: the lowest empty slot, with no upper bound.

    The sqlite store never removes a leaf, so its ``first_free_slot()`` is
    one past the highest occupied slot.  Only :class:`MemoryTreeStore`
    accepts ``set_leaf(slot, None)`` and refills the hole it leaves.
    """

    def __init__(self, height: int, store=None) -> None:
        self.geometry = Geometry(height)
        self.store = store if store is not None else MemoryTreeStore()

    @classmethod
    def from_leaves(cls, height: int, items: Iterable[tuple[int, Leaf]]) -> "Iomt":
        """A memory-backed tree holding the ``(slot, leaf)`` pairs of ``items``.

        Built by :func:`node_levels`, so no complement path is read.
        """
        tree = cls(height)
        items = list(items)
        for slot, leaf in items:
            tree.store.set_leaf(slot, leaf)
        for level in node_levels(height, items):
            tree.store.set_nodes(list(level.items()))
        return tree

    @property
    def root(self) -> bytes:
        return self.store.get_nodes([0])[0]

    def leaves(self) -> Iterator[tuple[int, Leaf]]:
        return self.store.leaf_items()

    def set_leaf(
        self, slot: int, leaf: Optional[Leaf], path: Optional[list[tuple[bytes, Side]]] = None
    ) -> list[tuple[bytes, Side]]:
        """Write a leaf and the h+1 nodes from it to the root in one batch.

        Returns the slot's complement path, which the write leaves unchanged,
        so the module can fold the edit's path with no second read.  A caller that
        already holds that path passes it as ``path`` and nothing is read.
        """
        if path is None:
            path = self.complement_path(slot)
        pos = self.geometry.leaf_node(slot)
        value = leaf_digest(leaf)
        nodes = [(pos, value)]
        for sibling, side in path:
            value = parent(sibling, value, side)
            pos = parent_index(pos)
            nodes.append((pos, value))
        self.store.set_leaf(slot, leaf)
        self.store.set_nodes(nodes)
        return path

    def complement_path(self, slot: int) -> list[tuple[bytes, Side]]:
        """Sibling digests from the leaf level up, tagged with the sibling's side.

        The siblings are read in one batch from the store.
        """
        pos = self.geometry.leaf_node(slot)
        siblings: list[tuple[int, Side]] = []
        while pos != 0:
            siblings.append(self._sibling(pos))
            pos = parent_index(pos)
        digests = self.store.get_nodes([sibling for sibling, _ in siblings])
        return [(digest, side) for digest, (_, side) in zip(digests, siblings)]

    @staticmethod
    def _sibling(pos: int) -> tuple[int, Side]:
        if pos % 2 == 1:  # left child: sibling sits on the right
            return pos + 1, Side.RIGHT
        return pos - 1, Side.LEFT

    def find_leaf(self, idx: int) -> Optional[tuple[int, Leaf]]:
        return self.store.find_leaf(idx)

    def find_encloser(self, idx: int) -> Optional[tuple[int, Leaf]]:
        """The unique leaf enclosing an absent index; ``None`` if none qualifies."""
        return self.store.find_encloser(idx)

    def placeholder_plan(self, new_idx: int) -> PlaceholderPlan:
        """Plan the encloser edit plus placeholder insertion for an absent ``new_idx``.

        Callers look ``new_idx`` up first; the plan looks it up again only to
        explain why no leaf encloses it.
        """
        found = self.store.find_encloser(new_idx)
        if found is None and self.store.has_leaves():
            if self.store.find_leaf(new_idx) is not None:
                raise IndexPresentError(f"index {new_idx} already present")
            raise IomtError(f"no encloser for {new_idx}: circular linkage broken")
        slot = self.store.first_free_slot()
        if slot >= self.geometry.leaf_count:
            raise TreeFullError(f"all {self.geometry.leaf_count} slots used")
        if found is None:
            return PlaceholderPlan(None, None, None, slot, Leaf(new_idx, new_idx, ZERO_DIGEST))
        enc_slot, enc = found
        return PlaceholderPlan(
            encloser_slot=enc_slot,
            encloser_leaf=enc,
            updated_encloser=Leaf(enc.idx, new_idx, enc.val),
            placeholder_slot=slot,
            placeholder_leaf=Leaf(new_idx, enc.next_idx, ZERO_DIGEST),
        )

    def upsert(self, idx: int, val: bytes) -> bytes:
        """Set the value of ``idx``, inserting its leaf if absent; returns the new root.

        A new index follows :meth:`placeholder_plan`: the encloser is relinked
        to it, and its leaf takes the lowest free slot.
        """
        found = self.store.find_leaf(idx)
        if found is not None:
            slot, leaf = found
            self.set_leaf(slot, Leaf(idx, leaf.next_idx, val))
        else:
            plan = self.placeholder_plan(idx)
            if plan.encloser_slot is not None:
                self.set_leaf(plan.encloser_slot, plan.updated_encloser)
            self.set_leaf(plan.placeholder_slot, Leaf(idx, plan.placeholder_leaf.next_idx, val))
        return self.root

