from __future__ import annotations

import dataclasses
import random
import secrets
from pathlib import Path
from typing import Mapping, Optional, Sequence

import pytest

import tcr.client
from tcr.client import UserCredential
from tcr.iomt import Geometry, Iomt, IomtError, Leaf, leaf_digest, left_child, right_child
from tcr.merkle import Side, ZERO_DIGEST, parent
from tcr.module import ContainerRecord, ModuleState, TrustedModule, VersionRecord
from tcr.service import Service
from tcr.storage import Storage


def remove_placeholder(tree: Iomt, idx: int) -> bytes:
    """Undo ``tree.upsert(idx, ZERO_DIGEST)`` on an index that was absent.

    The tree stores are append-only, so the deletion is done here: the
    predecessor is relinked past ``idx``, the leaf in the highest slot moves
    into the freed one so the slots stay ``0..n-1``, and ``tree`` gets a
    memory store rebuilt from the remaining leaves.  Returns the new root,
    the one before the upsert whenever ``idx`` took the highest slot.
    """
    found = tree.locate(idx)
    if found is None or found[1].idx != idx:
        raise IomtError(f"index {idx} not present")
    slot, leaf = found
    if leaf.val != ZERO_DIGEST:
        raise IomtError(f"index {idx} is not a placeholder")
    leaves = dict(tree.leaves())
    del leaves[slot]
    if leaf.idx != leaf.next_idx:
        pred_slot = next((s for s, pred in leaves.items() if pred.next_idx == idx), None)
        if pred_slot is None:
            raise IomtError(f"no predecessor links to {idx}: circular linkage broken")
        pred = leaves[pred_slot]
        leaves[pred_slot] = Leaf(pred.idx, leaf.next_idx, pred.val)
    top = max(leaves, default=slot)
    if top > slot:
        leaves[slot] = leaves.pop(top)
    tree.store = Iomt.from_leaves(tree.geometry.height, leaves.items()).store
    return tree.root


# The version-1 container-tree layout, which also kept a free-slot table.
V1_TREE_LAYOUT = """
CREATE TABLE nodes(pos INTEGER PRIMARY KEY, digest BLOB NOT NULL);
CREATE TABLE leaves(slot INTEGER PRIMARY KEY, idx BLOB NOT NULL, next_idx BLOB NOT NULL,
    val BLOB NOT NULL);
CREATE TABLE free_slots(slot INTEGER PRIMARY KEY);
INSERT INTO leaves VALUES(1, zeroblob(8), zeroblob(8), zeroblob(32));
INSERT INTO free_slots VALUES(0);
PRAGMA user_version=1;
"""

# The version-2 layout of the version tables: a version's blob addresses sat
# in a table of their own.
V2_LAYOUT = """
CREATE TABLE versions(idx BLOB NOT NULL, version INTEGER NOT NULL,
    secret_commitment BLOB NOT NULL, wrapped_secret BLOB NOT NULL,
    content_digest BLOB NOT NULL, seal BLOB NOT NULL,
    PRIMARY KEY(idx, version)) WITHOUT ROWID;
CREATE TABLE blob_sets(idx BLOB NOT NULL, version INTEGER NOT NULL, image_hash BLOB NOT NULL,
    build_hash BLOB NOT NULL, compose_hash BLOB NOT NULL,
    PRIMARY KEY(idx, version)) WITHOUT ROWID;
INSERT INTO blob_sets VALUES(zeroblob(8), 1, zeroblob(32), zeroblob(32), zeroblob(32));
PRAGMA user_version=2;
"""

# The version-3 layout: these tables, but each blob sat at ``<hex>/payload``
# in a directory of its own under the data directory.
V3_LAYOUT = """
CREATE TABLE versions(idx BLOB NOT NULL, version INTEGER NOT NULL,
    secret_commitment BLOB NOT NULL, wrapped_secret BLOB NOT NULL,
    content_digest BLOB NOT NULL, seal BLOB NOT NULL, image_hash BLOB NOT NULL,
    build_hash BLOB NOT NULL, compose_hash BLOB NOT NULL,
    PRIMARY KEY(idx, version)) WITHOUT ROWID;
INSERT INTO versions VALUES(zeroblob(8), 1, zeroblob(32), zeroblob(32), zeroblob(32),
    zeroblob(32), zeroblob(32), zeroblob(32), zeroblob(32));
PRAGMA user_version=3;
"""


def stored_files(storage: Storage) -> list[Path]:
    """Every file under ``storage``'s data directory, at any depth and under any name."""
    return sorted(p for p in storage.data_dir.rglob("*") if p.is_file())


def oracle_root(leaves: Mapping[int, Leaf] | Sequence[Optional[Leaf]], height: int) -> bytes:
    """Root by full bottom-up recomputation, with no incremental shortcuts.

    Test oracle: independent of the path-update code in :class:`Iomt`.
    """
    geo = Geometry(height)
    if isinstance(leaves, Mapping):
        slots = dict(leaves)
    else:
        if len(leaves) > geo.leaf_count:
            raise IomtError("more leaves than slots")
        slots = {i: leaf for i, leaf in enumerate(leaves) if leaf is not None}
    nodes = [ZERO_DIGEST] * (2 * geo.leaf_count - 1)
    for slot, leaf in slots.items():
        nodes[geo.leaf_node(slot)] = leaf_digest(leaf)
    for pos in range(geo.leaf_count - 2, -1, -1):
        nodes[pos] = parent(nodes[left_child(pos)], nodes[right_child(pos)], Side.LEFT)
    return nodes[0]


def mutate_proof(rng: random.Random, proof):
    """``proof``, a leaf and its complement path, with one bit flipped.

    The bit is in one of the leaf's fields or in one sibling digest, or it is
    the side of a non-zero sibling: ``parent`` ignores the side of a zero
    sibling, so flipping that side would be no tamper.
    """
    leaf, path = proof
    path = list(path)
    spots = [("leaf", name) for name in ("idx", "next_idx", "val") if leaf is not None]
    spots += [("digest", i) for i in range(len(path))]
    spots += [("side", i) for i, (digest, _) in enumerate(path) if digest != ZERO_DIGEST]
    kind, at = rng.choice(spots)
    if kind == "leaf":
        value = getattr(leaf, at)
        if isinstance(value, int):
            value ^= 1 << rng.randrange(64)
        else:
            value = _flip_bit(rng, value)
        return dataclasses.replace(leaf, **{at: value}), path
    digest, side = path[at]
    path[at] = (_flip_bit(rng, digest), side) if kind == "digest" else (digest, Side(1 - side))
    return leaf, path


# The fields under each sealed row's MAC.
SEALED_FIELDS = {
    ContainerRecord: ("idx", "counter", "version_count", "acl_root"),
    VersionRecord: ("idx", "version", "content_digest"),
}


def mutate_row(rng: random.Random, row):
    """A sealed ``row`` with one bit flipped in one of its sealed fields or in its seal."""
    name = rng.choice(SEALED_FIELDS[type(row)] + ("seal",))
    value = getattr(row, name)
    if isinstance(value, int):
        value ^= 1 << rng.randrange(64)
    else:
        value = _flip_bit(rng, value)
    return dataclasses.replace(row, **{name: value})


def _flip_bit(rng: random.Random, raw: bytes) -> bytes:
    out = bytearray(raw)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def acl_hints(service: Service, idx: int) -> dict:
    """The hints an INFO reply carries for container ``idx``: its ACL leaves."""
    return service._hints(service.acl_tree(idx))


def attested_acl_root(service: Service, idx: int) -> bytes:
    """The ACL root a full INFO answer about container ``idx`` attests: the one
    its sealed record names."""
    return service.storage.record_get(idx).acl_root


class RecordingFile:
    """File proxy that appends every chunk written and every line read to a list."""

    def __init__(self, fp, transcript: list[bytes]) -> None:
        self._fp, self._transcript = fp, transcript

    def write(self, data: bytes) -> int:
        self._transcript.append(data)
        return self._fp.write(data)

    def flush(self) -> None:
        self._fp.flush()

    def readline(self, *args) -> bytes:
        line = self._fp.readline(*args)
        self._transcript.append(line)
        return line


@pytest.fixture
def wire_transcript(monkeypatch) -> list[bytes]:
    """Every line the client sends or receives, newline included, as it crossed the socket.

    Recorded around ``tcr.client``'s ``write_message`` and ``read_message``,
    the hooks the benchmark's client tracing wraps as well; servers in the
    same process read and write through their own, unrecorded, names.
    """
    transcript: list[bytes] = []
    for name in ("write_message", "read_message"):

        def recorded(fp, *args, _hook=getattr(tcr.client, name)):
            return _hook(RecordingFile(fp, transcript), *args)

        monkeypatch.setattr(tcr.client, name, recorded)
    return transcript


@pytest.fixture
def user_keys():
    return {i: secrets.token_bytes(32) for i in (1, 2, 3, 4)}


@pytest.fixture
def credentials(user_keys):
    return {i: UserCredential(i, key) for i, key in user_keys.items()}


@pytest.fixture
def storage(tmp_path):
    store = Storage(tmp_path / "repo.db", tmp_path / "blobs")
    yield store
    store.close()


@pytest.fixture
def module(user_keys):
    return TrustedModule(ModuleState.fresh(user_keys))


@pytest.fixture
def service(storage, module):
    return Service(storage, module, height=6)
