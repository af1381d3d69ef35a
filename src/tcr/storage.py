"""SQLite-backed persistence for trees, records, and content blobs.

Node and leaf tables are sparse: zero-valued nodes are deleted rows, and a
missing row reads back as the zero digest.  Container indices are stored as
8-byte big-endian blobs so the full u64 domain sorts correctly, which the
encloser lookup relies on.

Blobs are content-addressed files under a data directory; identical content
is stored once regardless of how many versions reference it.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .iomt import Geometry, Leaf, counter_digest, encloses, leaf_digest, left_child, right_child
from .merkle import Side, ZERO_DIGEST, encode_fields, hmac_sha256, parent, sha256
from .module import CERT_SCHEMAS, CertKind, Certificate, ModuleState

CONTAINER_TREE = "container"
DEFAULT_ACL_HEIGHT = 8


def acl_tree_id(container_idx: int) -> str:
    return f"acl/{container_idx}"


class StorageError(Exception):
    pass


class VersionExistsError(StorageError):
    """Version records are immutable once written."""


class StoreNotEmptyError(StorageError):
    pass


@dataclass(frozen=True)
class ContainerRecord:
    idx: int
    counter: int
    version_count: int
    acl_root: bytes
    seal: bytes  # module MAC over (idx, counter, version_count, acl_root); opaque here

    def as_certificate(self) -> Certificate:
        return Certificate(
            CertKind.CR, (self.idx, self.counter, self.version_count, self.acl_root), self.seal
        )


@dataclass(frozen=True)
class VersionRecord:
    idx: int
    version: int
    secret_commitment: bytes  # zero for unencrypted versions
    wrapped_secret: bytes  # zero for unencrypted versions
    content_digest: bytes
    seal: bytes

    def as_certificate(self) -> Certificate:
        return Certificate(CertKind.VR, (self.idx, self.version, self.content_digest), self.seal)


@dataclass(frozen=True)
class BlobSet:
    image: bytes
    build: bytes
    compose: bytes

    def hashes(self) -> tuple[bytes, bytes, bytes]:
        return sha256(self.image), sha256(self.build), sha256(self.compose)


def _key(idx: int) -> bytes:
    return idx.to_bytes(8, "big")


_SCHEMA = """
CREATE TABLE IF NOT EXISTS nodes(
    tree TEXT NOT NULL,
    pos INTEGER NOT NULL,
    digest BLOB NOT NULL,
    PRIMARY KEY(tree, pos)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS leaves(
    tree TEXT NOT NULL,
    slot INTEGER NOT NULL,
    idx BLOB NOT NULL,
    next_idx BLOB NOT NULL,
    val BLOB NOT NULL,
    PRIMARY KEY(tree, slot)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS leaves_by_idx ON leaves(tree, idx);
CREATE TABLE IF NOT EXISTS free_slots(
    tree TEXT NOT NULL,
    slot INTEGER NOT NULL,
    PRIMARY KEY(tree, slot)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS containers(
    idx BLOB PRIMARY KEY,
    counter INTEGER NOT NULL,
    version_count INTEGER NOT NULL,
    acl_root BLOB NOT NULL,
    seal BLOB NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS versions(
    idx BLOB NOT NULL,
    version INTEGER NOT NULL,
    secret_commitment BLOB NOT NULL,
    wrapped_secret BLOB NOT NULL,
    content_digest BLOB NOT NULL,
    seal BLOB NOT NULL,
    PRIMARY KEY(idx, version)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS blob_sets(
    idx BLOB NOT NULL,
    version INTEGER NOT NULL,
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
    """

    def __init__(self, db_path: str | Path, data_dir: Optional[str | Path] = None) -> None:
        self.db_path = str(db_path)
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._conn = sqlite3.connect(self.db_path, isolation_level=None, check_same_thread=False)
        if self.db_path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA wal_autocheckpoint=10000")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA cache_size=-65536")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    @contextmanager
    def transaction(self, commit_timer=None) -> Iterator[None]:
        """Group writes; ``commit_timer`` (a context manager) may bracket the
        commit so step timings attribute the flush to the persisting step."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        else:
            if commit_timer is not None:
                with commit_timer:
                    self._conn.execute("COMMIT")
            else:
                self._conn.execute("COMMIT")

    def tree(self, tree_id: str) -> "SqliteTreeStore":
        return SqliteTreeStore(self._conn, tree_id)

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
                "INSERT INTO versions(idx, version, secret_commitment, wrapped_secret, "
                "content_digest, seal) VALUES(?,?,?,?,?,?)",
                (
                    _key(record.idx),
                    record.version,
                    record.secret_commitment,
                    record.wrapped_secret,
                    record.content_digest,
                    record.seal,
                ),
            )
        except sqlite3.IntegrityError as exc:
            raise VersionExistsError(
                f"version {record.version} of {record.idx} already stored"
            ) from exc

    def version_get(self, idx: int, version: int) -> Optional[VersionRecord]:
        row = self._conn.execute(
            "SELECT secret_commitment, wrapped_secret, content_digest, seal "
            "FROM versions WHERE idx=? AND version=?",
            (_key(idx), version),
        ).fetchone()
        if row is None:
            return None
        return VersionRecord(idx, version, row[0], row[1], row[2], row[3])

    # -- content blobs ------------------------------------------------------------

    def _blob_path(self, digest: bytes) -> Path:
        if self.data_dir is None:
            raise StorageError("no data directory configured for blobs")
        return self.data_dir / digest.hex() / "payload"

    def _write_blob(self, content: bytes) -> bytes:
        digest = sha256(content)
        path = self._blob_path(digest)
        if not path.exists() or sha256(path.read_bytes()) != digest:
            # A damaged file is rewritten, so storing the content again
            # repairs every version that shares it.  The bytes are renamed
            # into place whole, so a torn write never sits under the address.
            path.parent.mkdir(parents=True, exist_ok=True)
            partial = path.with_name(f"payload.{os.getpid()}.tmp")
            try:
                partial.write_bytes(content)
                os.replace(partial, path)
            finally:
                partial.unlink(missing_ok=True)
        return digest

    def blob_put(self, idx: int, version: int, blobs: BlobSet) -> tuple[bytes, bytes, bytes]:
        hashes = (
            self._write_blob(blobs.image),
            self._write_blob(blobs.build),
            self._write_blob(blobs.compose),
        )
        self._conn.execute(
            "INSERT INTO blob_sets(idx, version, image_hash, build_hash, compose_hash) "
            "VALUES(?,?,?,?,?) ON CONFLICT(idx, version) DO UPDATE SET "
            "image_hash=excluded.image_hash, build_hash=excluded.build_hash, "
            "compose_hash=excluded.compose_hash",
            (_key(idx), version, *hashes),
        )
        return hashes

    def blob_get(self, idx: int, version: int) -> Optional[BlobSet]:
        row = self._conn.execute(
            "SELECT image_hash, build_hash, compose_hash FROM blob_sets "
            "WHERE idx=? AND version=?",
            (_key(idx), version),
        ).fetchone()
        if row is None:
            return None
        try:
            return BlobSet(*(self._blob_path(h).read_bytes() for h in row))
        except OSError as exc:
            # The message reaches clients: name the failure, not the path.
            raise StorageError(f"content blob unreadable ({exc.strerror})") from exc

    def is_empty(self) -> bool:
        for table in ("nodes", "leaves", "free_slots", "containers", "versions", "blob_sets"):
            if self._conn.execute(f"SELECT 1 FROM {table} LIMIT 1").fetchone():
                return False
        return True


class SqliteTreeStore:
    """Node/leaf store of one tree: every statement on the node, leaf and
    free-slot tables, for the :class:`~tcr.iomt.Iomt` store protocol."""

    def __init__(self, conn: sqlite3.Connection, tree_id: str) -> None:
        self._conn = conn
        self.tree_id = tree_id

    def get_nodes(self, positions: Sequence[int]) -> list[bytes]:
        """Digests at ``positions`` from one query; missing rows read as zero."""
        if not positions:
            return []
        found = dict(
            self._conn.execute(
                "SELECT pos, digest FROM nodes WHERE tree=? AND pos IN "
                f"({','.join('?' * len(positions))})",
                (self.tree_id, *positions),
            ).fetchall()
        )
        return [found.get(pos, ZERO_DIGEST) for pos in positions]

    def set_nodes(self, nodes: Sequence[tuple[int, bytes]]) -> None:
        """One upsert for the non-zero digests; zero digests delete their rows."""
        kept = [(self.tree_id, pos, d) for pos, d in nodes if d != ZERO_DIGEST]
        zeroed = [pos for pos, d in nodes if d == ZERO_DIGEST]
        if kept:
            self._conn.execute(
                "INSERT INTO nodes(tree, pos, digest) VALUES "
                f"{','.join(['(?,?,?)'] * len(kept))} "
                "ON CONFLICT(tree, pos) DO UPDATE SET digest=excluded.digest",
                [field for row in kept for field in row],
            )
        if zeroed:
            self._conn.execute(
                f"DELETE FROM nodes WHERE tree=? AND pos IN ({','.join('?' * len(zeroed))})",
                (self.tree_id, *zeroed),
            )

    def get_leaf(self, slot: int) -> Optional[Leaf]:
        row = self._conn.execute(
            "SELECT idx, next_idx, val FROM leaves WHERE tree=? AND slot=?", (self.tree_id, slot)
        ).fetchone()
        if row is None:
            return None
        return Leaf(int.from_bytes(row[0], "big"), int.from_bytes(row[1], "big"), row[2])

    def set_leaf(self, slot: int, leaf: Optional[Leaf]) -> None:
        # free_slots holds exactly the empty slots below the occupied
        # high-water mark, so lowest-free allocation stays O(log n) however
        # large the tree grows.
        tree = self.tree_id
        if leaf is None:
            deleted = self._conn.execute("DELETE FROM leaves WHERE tree=? AND slot=?", (tree, slot))
            if deleted.rowcount:
                self._conn.execute("INSERT OR IGNORE INTO free_slots VALUES(?,?)", (tree, slot))
                # Freeing the top slot lowers the mark: drop the holes above it.
                self._conn.execute(
                    "DELETE FROM free_slots WHERE tree=? AND slot > "
                    "(SELECT COALESCE(MAX(slot), -1) FROM leaves WHERE tree=?)",
                    (tree, tree),
                )
            return
        fields = (_key(leaf.idx), _key(leaf.next_idx), leaf.val)
        if self._conn.execute(
            "UPDATE leaves SET idx=?, next_idx=?, val=? WHERE tree=? AND slot=?",
            (*fields, tree, slot),
        ).rowcount:
            return
        (high_water,) = self._conn.execute(
            "SELECT COALESCE(MAX(slot), -1) FROM leaves WHERE tree=?", (tree,)
        ).fetchone()
        if slot < high_water:
            self._conn.execute("DELETE FROM free_slots WHERE tree=? AND slot=?", (tree, slot))
        elif slot > high_water + 1:
            self._conn.executemany(
                "INSERT OR IGNORE INTO free_slots(tree, slot) VALUES(?,?)",
                ((tree, hole) for hole in range(high_water + 1, slot)),
            )
        self._conn.execute(
            "INSERT INTO leaves(tree, slot, idx, next_idx, val) VALUES(?,?,?,?,?)",
            (tree, slot, *fields),
        )

    def leaf_items(self) -> Iterator[tuple[int, Leaf]]:
        rows = self._conn.execute(
            "SELECT slot, idx, next_idx, val FROM leaves WHERE tree=? ORDER BY slot",
            (self.tree_id,),
        ).fetchall()
        for slot, idx, next_idx, val in rows:
            yield slot, Leaf(int.from_bytes(idx, "big"), int.from_bytes(next_idx, "big"), val)

    def has_leaves(self) -> bool:
        return (
            self._conn.execute(
                "SELECT 1 FROM leaves WHERE tree=? LIMIT 1", (self.tree_id,)
            ).fetchone()
            is not None
        )

    def find_leaf(self, idx: int) -> Optional[tuple[int, Leaf]]:
        # INDEXED BY: without table stats the planner prefers the primary
        # key and scans the whole tree's rows.
        row = self._conn.execute(
            "SELECT slot, next_idx, val FROM leaves INDEXED BY leaves_by_idx "
            "WHERE tree=? AND idx=?",
            (self.tree_id, _key(idx)),
        ).fetchone()
        if row is None:
            return None
        return row[0], Leaf(idx, int.from_bytes(row[1], "big"), row[2])

    def find_encloser(self, idx: int) -> Optional[tuple[int, Leaf]]:
        # In a well-formed circular linkage the encloser of an absent index is
        # the leaf with the greatest index below it, or the overall greatest
        # index when none is below (wrap-around).
        row = self._conn.execute(
            "SELECT slot, idx, next_idx, val FROM leaves WHERE tree=? AND idx<? "
            "ORDER BY idx DESC LIMIT 1",
            (self.tree_id, _key(idx)),
        ).fetchone()
        if row is None:
            row = self._conn.execute(
                "SELECT slot, idx, next_idx, val FROM leaves WHERE tree=? "
                "ORDER BY idx DESC LIMIT 1",
                (self.tree_id,),
            ).fetchone()
        if row is None:
            return None
        leaf = Leaf(int.from_bytes(row[1], "big"), int.from_bytes(row[2], "big"), row[3])
        if not encloses(leaf.idx, leaf.next_idx, idx):
            return None
        return row[0], leaf

    def first_free_slot(self) -> int:
        # The lowest hole below the high-water mark, else the slot above it.
        return self._conn.execute(
            "SELECT COALESCE((SELECT MIN(slot) FROM free_slots WHERE tree=?), "
            "(SELECT MAX(slot) + 1 FROM leaves WHERE tree=?), 0)",
            (self.tree_id, self.tree_id),
        ).fetchone()[0]


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
    acl_height: int = DEFAULT_ACL_HEIGHT,
    blobs: Optional[BlobSet] = None,
    batch: int = 50_000,
) -> bytes:
    """Fill a fresh store with ``count`` containers and install the root.

    Everything (leaves, nodes, sealed records, one shared version per
    container) is computed in memory and bulk-written.  Runs at provisioning
    time, before the module state is put behind the module boundary, since
    sealing the records requires the module secret.  Returns the new root.
    """
    geo = Geometry(height)
    if count < 0 or count > geo.leaf_count:
        raise StorageError(f"cannot place {count} containers in 2^{height} slots")
    if not storage.is_empty():
        raise StoreNotEmptyError("bulk prepopulation requires a fresh store")
    if state.root != ZERO_DIGEST:
        raise StorageError("bulk prepopulation requires a freshly initialized module")
    if owner_idx not in state.user_keys:
        raise StorageError("owner has no key in the module state")

    blobs = blobs if blobs is not None else BlobSet(MOCK_IMAGE, MOCK_BUILD, MOCK_COMPOSE)
    image_hash, build_hash, compose_hash = blobs.hashes()
    content_digest = sha256(image_hash + build_hash + compose_hash + ZERO_DIGEST)

    acl_leaf = Leaf(owner_idx, owner_idx, counter_digest(3))
    acl_node = leaf_digest(acl_leaf)  # single leaf: every ancestor carries its digest
    acl_geo = Geometry(acl_height)
    acl_path = []
    pos = acl_geo.leaf_node(0)
    while True:
        acl_path.append(pos)
        if pos == 0:
            break
        pos = (pos - 1) // 2

    counter = 2  # one creation plus one content update
    version = 1
    ctr_val = counter_digest(counter)

    # Container leaves: indices 1..count in slots 0..count-1, circularly linked.
    node_values = [ZERO_DIGEST] * geo.node_count
    leaf_rows = []
    for slot in range(count):
        idx = slot + 1
        next_idx = idx + 1 if slot + 1 < count else 1
        leaf = Leaf(idx, next_idx, ctr_val)
        node_values[geo.leaf_node(slot)] = leaf_digest(leaf)
        leaf_rows.append((CONTAINER_TREE, slot, _key(idx), _key(next_idx), ctr_val))
    for pos in range(geo.leaf_count - 2, -1, -1):
        node_values[pos] = parent(
            node_values[left_child(pos)], node_values[right_child(pos)], Side.LEFT
        )
    root = node_values[0]

    secret = state.secret
    cr_schema = ("u8",) + CERT_SCHEMAS[CertKind.CR]
    vr_schema = ("u8",) + CERT_SCHEMAS[CertKind.VR]

    def record_rows():
        for slot in range(count):
            idx = slot + 1
            body = encode_fields(cr_schema, (int(CertKind.CR), idx, counter, version, acl_node))
            yield (_key(idx), counter, version, acl_node, hmac_sha256(body, secret))

    def version_rows():
        for slot in range(count):
            idx = slot + 1
            body = encode_fields(vr_schema, (int(CertKind.VR), idx, version, content_digest))
            yield (_key(idx), version, ZERO_DIGEST, ZERO_DIGEST, content_digest, hmac_sha256(body, secret))

    def blob_rows():
        for slot in range(count):
            yield (_key(slot + 1), version, image_hash, build_hash, compose_hash)

    def node_rows():
        for pos, value in enumerate(node_values):
            if value != ZERO_DIGEST:
                yield (CONTAINER_TREE, pos, value)
        for slot in range(count):
            tree = acl_tree_id(slot + 1)
            for pos in acl_path:
                yield (tree, pos, acl_node)

    def acl_leaf_rows():
        owner_key = _key(owner_idx)
        for slot in range(count):
            yield (acl_tree_id(slot + 1), 0, owner_key, owner_key, counter_digest(3))

    storage._write_blob(blobs.image)
    storage._write_blob(blobs.build)
    storage._write_blob(blobs.compose)

    conn = storage._conn
    conn.execute("PRAGMA journal_mode=OFF")
    conn.execute("PRAGMA synchronous=OFF")
    try:
        conn.execute("BEGIN")
        _batched(conn, "INSERT INTO leaves VALUES(?,?,?,?,?)", leaf_rows, batch)
        _batched(conn, "INSERT INTO leaves VALUES(?,?,?,?,?)", acl_leaf_rows(), batch)
        _batched(conn, "INSERT INTO nodes VALUES(?,?,?)", node_rows(), batch)
        _batched(conn, "INSERT INTO containers VALUES(?,?,?,?,?)", record_rows(), batch)
        _batched(conn, "INSERT INTO versions VALUES(?,?,?,?,?,?)", version_rows(), batch)
        _batched(conn, "INSERT INTO blob_sets VALUES(?,?,?,?,?)", blob_rows(), batch)
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


def _batched(conn: sqlite3.Connection, sql: str, rows, batch: int) -> None:
    chunk: list = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch:
            conn.executemany(sql, chunk)
            chunk.clear()
    if chunk:
        conn.executemany(sql, chunk)
