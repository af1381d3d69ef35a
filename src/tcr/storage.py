"""SQLite-backed persistence for trees, records, and content blobs.

The node and leaf tables hold the container tree only.  They are sparse: a
missing node row reads back as the zero digest, and every node a write
touches lies above a stored leaf, so none written is zero.  The tree is
append-only, as every ``Iomt`` store is: a leaf row is inserted or
overwritten, never deleted, so the occupied slots are always ``0..n-1``.
Each container's ACL tree (at most 2^8 leaves) is kept as its leaf rows
alone, in ``acl_leaves``; the service rebuilds the tree in memory from one
query.  Indices are stored as 8-byte big-endian blobs so the full u64
domain sorts correctly, which ``locate`` relies on.

The layout's version is stamped in ``PRAGMA user_version``; a store written
under another version is refused, not migrated.

Blobs are content-addressed files, one flat file per distinct blob named by
its hex digest in the data directory; identical content is stored once
regardless of how many versions reference it.  A version's row holds the
addresses of its three blobs.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .iomt import Geometry, Leaf, counter_digest, encloses, leaf_digest, node_levels
from .merkle import ZERO_DIGEST, sha256
from .module import ContainerRecord, ModuleState, VersionRecord

SCHEMA_VERSION = 4

# The tallest container tree the node table can address: a taller tree's node
# positions pass sqlite's signed 64-bit integer key.
MAX_HEIGHT = 62


def check_height(name: str, height: int) -> int:
    """``height`` if the store can address a tree that tall, else a
    :class:`ValueError` that calls it ``name``."""
    if not 0 <= height <= MAX_HEIGHT:
        raise ValueError(f"{name} {height} is outside 0..{MAX_HEIGHT}")
    return height

# Names the cipher an encrypted version's blobs were written under: ChaCha20
# (RFC 8439) keyed by the version's secret.  Every encrypted version's content
# digest covers it, so bytes sealed under another cipher (v1's SHAKE-256 pad,
# or the untagged HMAC pad before it) never verify.
CIPHER_ID = b"tcr/chacha20/v2"


class StorageError(Exception):
    pass


class VersionExistsError(StorageError):
    """Version records are immutable once written."""


class StoreNotEmptyError(StorageError):
    pass


@dataclass(frozen=True)
class BlobSet:
    image: bytes
    build: bytes
    compose: bytes

    def hashes(self) -> tuple[bytes, bytes, bytes]:
        return sha256(self.image), sha256(self.build), sha256(self.compose)


def content_digest(hashes: Sequence[bytes], commitment: bytes) -> bytes:
    """Per-version commitment over the blob hashes and the secret commitment.

    An encrypted version (a non-zero commitment) also covers :data:`CIPHER_ID`;
    a plain version's digest does not depend on the cipher.
    """
    tag = CIPHER_ID if commitment != ZERO_DIGEST else b""
    return sha256(b"".join(hashes) + commitment + tag)


ACL_HEIGHT = 8  # every container's ACL tree has 2^8 leaf slots


def initial_acl_leaf(user_idx: int) -> Leaf:
    """The one leaf of a new container's ACL: its creator, at owner level 3."""
    return Leaf(user_idx, user_idx, counter_digest(3))


def _key(idx: int) -> bytes:
    return idx.to_bytes(8, "big")


def _leaf(idx: bytes, next_idx: bytes, val: bytes) -> Leaf:
    return Leaf(int.from_bytes(idx, "big"), int.from_bytes(next_idx, "big"), val)


_SCHEMA = """
CREATE TABLE nodes(
    pos INTEGER PRIMARY KEY,
    digest BLOB NOT NULL
);
CREATE TABLE leaves(
    slot INTEGER PRIMARY KEY,
    idx BLOB NOT NULL,
    next_idx BLOB NOT NULL,
    val BLOB NOT NULL
);
CREATE INDEX leaves_by_idx ON leaves(idx);
CREATE TABLE acl_leaves(
    container BLOB NOT NULL,
    slot INTEGER NOT NULL,
    idx BLOB NOT NULL,
    next_idx BLOB NOT NULL,
    val BLOB NOT NULL,
    PRIMARY KEY(container, slot)
) WITHOUT ROWID;
CREATE TABLE containers(
    idx BLOB PRIMARY KEY,
    counter INTEGER NOT NULL,
    version_count INTEGER NOT NULL,
    acl_root BLOB NOT NULL,
    seal BLOB NOT NULL
) WITHOUT ROWID;
CREATE TABLE versions(
    idx BLOB NOT NULL,
    version INTEGER NOT NULL,
    secret_commitment BLOB NOT NULL,
    wrapped_secret BLOB NOT NULL,
    content_digest BLOB NOT NULL,
    seal BLOB NOT NULL,
    image_hash BLOB NOT NULL,
    build_hash BLOB NOT NULL,
    compose_hash BLOB NOT NULL,
    PRIMARY KEY(idx, version)
) WITHOUT ROWID;
"""


class Storage:
    """One sqlite connection plus a content-addressed blob directory.

    Not thread-safe: its one owner (the :class:`~tcr.service.Service`, under
    its lock) serializes every access.  Writers group a request's writes
    inside :meth:`transaction` so they commit or roll back as a unit.

    An empty database gets the current layout; a non-empty one must carry
    :data:`SCHEMA_VERSION`, or opening it raises :class:`StorageError`.
    """

    def __init__(self, db_path: str | Path, data_dir: str | Path) -> None:
        self.db_path = str(db_path)
        self.data_dir = Path(data_dir)
        self._conn = None
        self._created: list[Path] = []  # blob files made since the last BEGIN
        try:
            self._conn = sqlite3.connect(self.db_path, isolation_level=None, check_same_thread=False)
            (version,) = self._conn.execute("PRAGMA user_version").fetchone()
        except sqlite3.Error as exc:  # a missing directory, or a file that is not sqlite
            if self._conn is not None:
                self._conn.close()
            raise StorageError(str(exc)) from exc
        fresh = self._conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchone() is None
        if version != SCHEMA_VERSION and not fresh:
            self._conn.close()
            raise StorageError(
                f"store has schema version {version}, this build needs {SCHEMA_VERSION}: "
                "provision a fresh store"
            )
        try:
            self.data_dir.mkdir(parents=True, exist_ok=True)  # once a store is taken, not per blob
        except OSError as exc:
            self._conn.close()
            raise StorageError(f"data directory {self.data_dir}: {exc.strerror}") from exc
        if self.db_path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA wal_autocheckpoint=10000")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA cache_size=-65536")
        if fresh:
            self._conn.executescript(
                f"BEGIN; {_SCHEMA} PRAGMA user_version={SCHEMA_VERSION}; COMMIT;"
            )

    def close(self) -> None:
        self._conn.close()

    @contextmanager
    def transaction(self, commit_timer=nullcontext()) -> Iterator[None]:
        """Group writes; ``commit_timer`` (a context manager) may bracket the
        commit so step timings attribute the flush to the persisting step.
        A rollback also removes each blob file the transaction created."""
        self._conn.execute("BEGIN IMMEDIATE")
        self._created = []
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            for path in self._created:  # never a file that was there before
                with suppress(OSError):
                    path.unlink(missing_ok=True)
            raise
        else:
            with commit_timer:
                self._conn.execute("COMMIT")

    def tree(self) -> "SqliteTreeStore":
        return SqliteTreeStore(self._conn)

    # -- ACL leaf rows --------------------------------------------------------------

    def acl_leaves(self, idx: int) -> list[tuple[int, Leaf]]:
        """Container ``idx``'s ACL leaves in slot order, from one query."""
        rows = self._conn.execute(
            "SELECT slot, idx, next_idx, val FROM acl_leaves WHERE container=? ORDER BY slot",
            (_key(idx),),
        ).fetchall()
        return [(slot, _leaf(*fields)) for slot, *fields in rows]

    def acl_put(self, idx: int, items: Iterable[tuple[int, Leaf]]) -> None:
        """Upsert ``(slot, leaf)`` pairs of container ``idx``'s ACL in one statement.

        ACL leaves are never removed (a revocation writes level 0), so the
        rows written are always a superset of the rows stored.
        """
        container = _key(idx)
        rows = [
            (container, slot, _key(leaf.idx), _key(leaf.next_idx), leaf.val) for slot, leaf in items
        ]
        if rows:
            self._conn.execute(
                "INSERT INTO acl_leaves(container, slot, idx, next_idx, val) VALUES "
                f"{','.join(['(?,?,?,?,?)'] * len(rows))} "
                "ON CONFLICT(container, slot) DO UPDATE SET "
                "idx=excluded.idx, next_idx=excluded.next_idx, val=excluded.val",
                [field for row in rows for field in row],
            )

    # -- container and version records -------------------------------------------

    def record_put(self, record: ContainerRecord) -> None:
        self._conn.execute(
            "INSERT INTO containers(idx, counter, version_count, acl_root, seal) "
            "VALUES(?,?,?,?,?) ON CONFLICT(idx) DO UPDATE SET "
            "counter=excluded.counter, version_count=excluded.version_count, "
            "acl_root=excluded.acl_root, seal=excluded.seal",
            (_key(record.idx), record.counter, record.version_count, record.acl_root, record.seal),
        )

    def record_get(self, idx: int) -> Optional[ContainerRecord]:
        row = self._conn.execute(
            "SELECT counter, version_count, acl_root, seal FROM containers WHERE idx=?",
            (_key(idx),),
        ).fetchone()
        if row is None:
            return None
        return ContainerRecord(idx, row[0], row[1], row[2], row[3])

    def version_put(self, record: VersionRecord) -> None:
        # A failed statement leaves the enclosing transaction open.
        try:
            self._conn.execute(
                "INSERT INTO versions VALUES(?,?,?,?,?,?,?,?,?)",
                (
                    _key(record.idx),
                    record.version,
                    record.secret_commitment,
                    record.wrapped_secret,
                    record.content_digest,
                    record.seal,
                    *record.hashes,
                ),
            )
        except sqlite3.IntegrityError as exc:
            raise VersionExistsError(
                f"version {record.version} of {record.idx} already stored"
            ) from exc

    def version_get(self, idx: int, version: int) -> Optional[VersionRecord]:
        row = self._conn.execute(
            "SELECT secret_commitment, wrapped_secret, content_digest, seal, "
            "image_hash, build_hash, compose_hash FROM versions WHERE idx=? AND version=?",
            (_key(idx), version),
        ).fetchone()
        if row is None:
            return None
        return VersionRecord(idx, version, *row[:4], hashes=row[4:])

    # -- content blobs ------------------------------------------------------------

    def _blob_path(self, digest: bytes) -> Path:
        return self.data_dir / digest.hex()

    def _write_blob(self, content: bytes, digest: bytes) -> None:
        path = self._blob_path(digest)
        existed = path.exists()
        if not existed or path.read_bytes() != content:
            # The caller checked that ``content`` hashes to ``digest``, so a file
            # holding other bytes is damaged and is rewritten, which repairs
            # every version sharing it.  The bytes are renamed into place whole,
            # so a torn write never sits under the address.
            if not existed:
                self._created.append(path)  # before the write, which may fail midway
            partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")  # never an address
            try:
                partial.write_bytes(content)
                os.replace(partial, path)
            finally:
                partial.unlink(missing_ok=True)

    def blob_put(self, blobs: BlobSet, hashes: Sequence[bytes]) -> None:
        """Write the three blob files at ``hashes``, the ``blobs.hashes()`` the
        caller has already checked, so no blob is hashed twice on the way in."""
        for content, digest in zip((blobs.image, blobs.build, blobs.compose), hashes):
            self._write_blob(content, digest)

    def blob_get(self, hashes: Sequence[bytes]) -> BlobSet:
        """The blobs at the addresses a version row names."""
        try:
            return BlobSet(*(self._blob_path(h).read_bytes() for h in hashes))
        except OSError as exc:
            # The message reaches clients: name the failure, not the path.
            raise StorageError(f"content blob unreadable ({exc.strerror})") from exc

    def is_empty(self) -> bool:
        for table in ("nodes", "leaves", "acl_leaves", "containers", "versions"):
            if self._conn.execute(f"SELECT 1 FROM {table} LIMIT 1").fetchone():
                return False
        return True


class SqliteTreeStore:
    """Node/leaf store of the container tree: every statement on the node and
    leaf tables, for the :class:`~tcr.iomt.Iomt` store protocol.

    Append-only: leaves are inserted or overwritten, never removed, so the
    free slot is one past the highest occupied one, and 0 in an empty tree.
    """

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def get_nodes(self, positions: Sequence[int]) -> list[bytes]:
        """Digests at ``positions`` from one query; missing rows read as zero."""
        if not positions:
            return []
        found = dict(
            self._conn.execute(
                f"SELECT pos, digest FROM nodes WHERE pos IN ({','.join('?' * len(positions))})",
                positions,
            ).fetchall()
        )
        return [found.get(pos, ZERO_DIGEST) for pos in positions]

    def set_nodes(self, nodes: Sequence[tuple[int, bytes]]) -> None:
        """One upsert for all ``nodes``."""
        if nodes:
            self._conn.execute(
                f"INSERT INTO nodes(pos, digest) VALUES {','.join(['(?,?)'] * len(nodes))} "
                "ON CONFLICT(pos) DO UPDATE SET digest=excluded.digest",
                [field for row in nodes for field in row],
            )

    def set_leaf(self, slot: int, leaf: Leaf) -> None:
        self._conn.execute(
            "INSERT INTO leaves(slot, idx, next_idx, val) VALUES(?,?,?,?) "
            "ON CONFLICT(slot) DO UPDATE SET "
            "idx=excluded.idx, next_idx=excluded.next_idx, val=excluded.val",
            (slot, _key(leaf.idx), _key(leaf.next_idx), leaf.val),
        )

    def leaf_items(self) -> Iterator[tuple[int, Leaf]]:
        rows = self._conn.execute(
            "SELECT slot, idx, next_idx, val FROM leaves ORDER BY slot"
        ).fetchall()
        for slot, *fields in rows:
            yield slot, _leaf(*fields)

    def locate(self, idx: int) -> Optional[tuple[int, Leaf]]:
        # In a well-formed circular linkage the leaf holding or enclosing
        # ``idx`` is the one with the greatest index at or below it, or the
        # overall greatest index when none is (wrap-around).
        row = self._conn.execute(
            "SELECT slot, idx, next_idx, val FROM leaves WHERE idx<=? ORDER BY idx DESC LIMIT 1",
            (_key(idx),),
        ).fetchone() or self._conn.execute(
            "SELECT slot, idx, next_idx, val FROM leaves ORDER BY idx DESC LIMIT 1"
        ).fetchone()
        leaf = _leaf(*row[1:]) if row else None
        if leaf is None or (leaf.idx != idx and not encloses(leaf.idx, leaf.next_idx, idx)):
            return None
        return row[0], leaf

    def first_free_slot(self) -> int:
        # One descent of the slot B-tree; COUNT(*) would scan every row.
        return self._conn.execute("SELECT COALESCE(MAX(slot) + 1, 0) FROM leaves").fetchone()[0]


MOCK_IMAGE = bytes((i * 31 + 7) % 256 for i in range(12 * 1024))
MOCK_BUILD = b"FROM scratch\nCOPY app /app\nENTRYPOINT [\"/app\"]\n"
MOCK_COMPOSE = b"services:\n  app:\n    image: app:latest\n    restart: always\n"


def bulk_prepopulate(
    storage: Storage,
    height: int,
    count: int,
    owner_idx: int,
    state: ModuleState,
    *,
    blobs: Optional[BlobSet] = None,
) -> bytes:
    """Fill a fresh store with ``count`` containers and install the root.

    Container ``i`` (1..count) takes slot ``i - 1`` of the circularly linked
    container tree, with counter 2 (one creation plus one content update),
    one shared version, a sealed record and an owner-only ACL leaf.  The
    tree's non-zero nodes come from :func:`~tcr.iomt.node_levels` and the
    seals from :meth:`~tcr.module.ModuleState.seal`; this function only
    streams the rows into sqlite, one ``executemany`` per table, so time
    and memory follow ``count`` rather than 2^height.  Runs at provisioning
    time, before the module state is put behind the module boundary, since
    sealing needs the module secret.  Returns the new root.
    """
    if count < 0 or count > Geometry(height).leaf_count:
        raise StorageError(f"cannot place {count} containers in 2^{height} slots")
    if not storage.is_empty():
        raise StoreNotEmptyError("bulk prepopulation requires a fresh store")
    if state.root != ZERO_DIGEST:
        raise StorageError("bulk prepopulation requires a freshly initialized module")
    if owner_idx not in state.user_keys:
        raise StorageError("owner has no key in the module state")

    blobs = blobs if blobs is not None else BlobSet(MOCK_IMAGE, MOCK_BUILD, MOCK_COMPOSE)
    hashes = blobs.hashes()
    storage.blob_put(blobs, hashes)
    digest = content_digest(hashes, ZERO_DIGEST)
    owner = initial_acl_leaf(owner_idx)
    acl_root = leaf_digest(owner)  # one-leaf tree
    counter, version = 2, 1
    ctr_val = counter_digest(counter)
    indices = range(1, count + 1)

    def container_leaves() -> Iterator[tuple[int, Leaf]]:
        for idx in indices:
            yield idx - 1, Leaf(idx, idx + 1 if idx < count else 1, ctr_val)

    # Top level first and each level sorted: node rows go in by ascending
    # position, which keeps the B-tree as compact as a sequential build.
    levels = list(node_levels(height, container_leaves()))
    root = levels[-1].get(0, ZERO_DIGEST)

    owner_key = _key(owner_idx)
    conn = storage._conn
    conn.execute("PRAGMA journal_mode=OFF")
    conn.execute("PRAGMA synchronous=OFF")
    try:
        conn.execute("BEGIN")
        conn.executemany(
            "INSERT INTO leaves VALUES(?,?,?,?)",
            (
                (slot, _key(leaf.idx), _key(leaf.next_idx), leaf.val)
                for slot, leaf in container_leaves()
            ),
        )
        conn.executemany(
            "INSERT INTO acl_leaves VALUES(?,?,?,?,?)",
            ((_key(idx), 0, owner_key, owner_key, owner.val) for idx in indices),
        )
        conn.executemany(
            "INSERT INTO nodes VALUES(?,?)",
            ((pos, level[pos]) for level in reversed(levels) for pos in sorted(level)),
        )
        conn.executemany(
            "INSERT INTO containers VALUES(?,?,?,?,?)",
            (
                (_key(idx), counter, version, acl_root,
                 state.seal(ContainerRecord(idx, counter, version, acl_root)))
                for idx in indices
            ),
        )
        conn.executemany(
            "INSERT INTO versions VALUES(?,?,?,?,?,?,?,?,?)",
            (
                (_key(idx), version, ZERO_DIGEST, ZERO_DIGEST, digest,
                 state.seal(VersionRecord(idx, version, ZERO_DIGEST, ZERO_DIGEST, digest)),
                 *hashes)
                for idx in indices
            ),
        )
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    finally:
        if storage.db_path != ":memory:":
            conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")

    state.root = root
    return root
