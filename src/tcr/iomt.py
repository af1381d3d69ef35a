"""Index-ordered Merkle tree (IOMT).

Leaves carry ``(idx, next_idx, val)`` and form a virtual circular linked
list ordered by ``idx``.  Proving that a leaf ``(b, b_next)`` exists under a
root implicitly proves that no leaf exists for any index the pair encloses,
which is what makes authenticated denial possible.

A leaf whose value is the zero digest is a *placeholder*: the index is
initialized but holds no record yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .merkle import DIGEST_SIZE, Side, ZERO_DIGEST, encode_fields, parent, sha256

LEAF_SCHEMA = ("u64", "u64", "d32")
LEAF_BYTES = 8 + 8 + DIGEST_SIZE  # a leaf's canonical encoding

# Sibling digests from the leaf level up, each tagged with the sibling's side.
ComplementPath = list[tuple[bytes, Side]]


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

    @classmethod
    def decode(cls, raw: bytes) -> "Leaf":
        """Inverse of :meth:`encode` on ``LEAF_BYTES`` bytes."""
        return cls(int.from_bytes(raw[:8], "big"), int.from_bytes(raw[8:16], "big"), raw[16:])


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


class MemoryTreeStore:
    """Dict-backed, append-only node/leaf store; zero nodes and absent leaves are not kept."""

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

    def set_leaf(self, slot: int, leaf: Leaf) -> None:
        self._leaves[slot] = leaf

    def leaf_items(self) -> Iterator[tuple[int, Leaf]]:
        return iter(sorted(self._leaves.items()))

    def locate(self, idx: int) -> Optional[tuple[int, Leaf]]:
        # In a well-formed linkage one leaf at most holds or encloses ``idx``.
        return next(
            ((s, l) for s, l in self._leaves.items()
             if l.idx == idx or encloses(l.idx, l.next_idx, idx)),
            None,
        )

    def first_free_slot(self) -> int:
        return max(self._leaves, default=-1) + 1


class Iomt:
    """An IOMT bound to a node/leaf store.

    Instances are single-writer; concurrent readers are safe between edits.
    The one structural edit is :meth:`insert`, which places a new index
    between its encloser and that encloser's successor.  The store
    (:class:`MemoryTreeStore`, ``storage.SqliteTreeStore``) provides:

    - ``get_nodes(positions)`` and ``set_nodes([(pos, digest), ...])``: node
      digests in one batch each way, the zero digest where none is stored;
    - ``set_leaf(slot, leaf)`` and ``leaf_items()`` in slot order: leaf
      records, written or overwritten, never removed;
    - ``locate(idx)``: the ``(slot, leaf)`` holding ``idx``, or else the one
      enclosing it, or ``None`` (an empty tree, or a broken linkage);
    - ``first_free_slot()``: one past the highest occupied slot, with no
      upper bound; 0 exactly when the store is empty.

    Both stores are append-only and a new leaf only ever takes
    ``first_free_slot()``, so the occupied slots are always ``0..n-1``.
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

    def set_leaf(self, slot: int, leaf: Leaf) -> ComplementPath:
        """Write a leaf and the h+1 nodes from it to the root in one batch.

        Returns the slot's complement path, which the write leaves unchanged,
        so the module can fold the edit's path with no second read.
        """
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

    def complement_path(self, slot: int) -> ComplementPath:
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

    def locate(self, idx: int) -> Optional[tuple[int, Leaf]]:
        """The ``(slot, leaf)`` holding ``idx``, or else the one enclosing it;
        ``None`` if none does.  A caller that needs the holder checks the
        leaf's index."""
        return self.store.locate(idx)

    def insert(
        self, idx: int, val: bytes, encloser: Optional[tuple[int, Leaf]]
    ) -> tuple[Optional[Leaf], Optional[ComplementPath], ComplementPath]:
        """Insert the absent ``idx`` with value ``val`` after ``encloser``, the
        ``(slot, leaf)`` :meth:`locate` returned for it.

        The encloser is relinked to ``idx``, and the new leaf is written once,
        in the first free slot, with its final value.  Returns the encloser
        as it was (``None`` in an empty tree), its complement path, and the
        new slot's path as read after the relink: the evidence the module
        folds for a creation.  Every refusal is raised before any write.
        """
        slot = self.store.first_free_slot()
        if encloser is None:
            if slot:  # only an empty tree has no encloser
                raise IomtError(f"no encloser for {idx}: circular linkage broken")
        elif encloser[1].idx == idx:
            raise IndexPresentError(f"index {idx} already present")
        if slot >= self.geometry.leaf_count:
            raise TreeFullError(f"all {self.geometry.leaf_count} slots used")
        if encloser is None:
            return None, None, self.set_leaf(slot, Leaf(idx, idx, val))
        enc_slot, enc = encloser
        enc_path = self.set_leaf(enc_slot, Leaf(enc.idx, idx, enc.val))
        return enc, enc_path, self.set_leaf(slot, Leaf(idx, enc.next_idx, val))

    def upsert(self, idx: int, val: bytes) -> bytes:
        """Set the value of ``idx``, inserting its leaf if absent; returns the new root."""
        found = self.store.locate(idx)
        if found is not None and found[1].idx == idx:
            slot, leaf = found
            self.set_leaf(slot, Leaf(idx, leaf.next_idx, val))
        else:
            self.insert(idx, val, found)
        return self.root
