from __future__ import annotations

import random
import secrets
import sqlite3
from pathlib import Path

import pytest

import tcr.iomt
import tcr.storage
from conftest import (
    V1_TREE_LAYOUT,
    V2_LAYOUT,
    V3_LAYOUT,
    oracle_root,
    stored_files,
)
from tcr.iomt import (
    Geometry,
    Iomt,
    Leaf,
    MemoryTreeStore,
    TreeFullError,
    counter_digest,
    encloses,
    leaf_digest,
)
from tcr.merkle import Side, ZERO_DIGEST, parent, sha256
from tcr.module import ContainerRecord, ModuleState, TrustedModule, VersionRecord
from tcr.storage import (
    SCHEMA_VERSION,
    BlobSet,
    Storage,
    StorageError,
    StoreNotEmptyError,
    VersionExistsError,
    bulk_prepopulate,
)


@pytest.fixture
def keys():
    return {1: secrets.token_bytes(32)}


def node_rows(storage) -> int:
    """Rows the node table holds."""
    return storage._conn.execute("SELECT COUNT(*) FROM nodes").fetchone()[0]


class TestNodeTable:
    def test_zero_put_reads_back_as_zero(self, storage):
        store = storage.tree()
        store.set_nodes([(5, sha256(b"x")), (6, sha256(b"z"))])
        store.set_nodes([(5, ZERO_DIGEST), (6, sha256(b"w"))])
        assert store.get_nodes([5, 6]) == [ZERO_DIGEST, sha256(b"w")]

    def test_round_trip(self, storage):
        digest = sha256(b"y")
        storage.tree().set_nodes([(3, digest)])
        assert storage.tree().get_nodes([3]) == [digest]

    def test_fresh_tall_tree_stores_nothing(self, storage):
        tree = Iomt(20, storage.tree())
        assert tree.root == ZERO_DIGEST
        assert node_rows(storage) == 0
        assert tree.store.first_free_slot() == 0


def per_node_path(tree: Iomt, slot: int) -> list:
    """Complement path read one sibling at a time, as the store first served it."""
    pos = tree.geometry.leaf_node(slot)
    path = []
    while pos != 0:
        sibling, side = (pos + 1, Side.RIGHT) if pos % 2 == 1 else (pos - 1, Side.LEFT)
        path.append((tree.store.get_nodes([sibling])[0], side))
        pos = (pos - 1) // 2
    return path


class TestBatchedPathReads:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_path_matches_per_node_reference(self, backend, tmp_path):
        rng = random.Random(5)
        zero_siblings = 0
        for _ in range(6):
            height = rng.randrange(1, 8)
            # One store per tree: the sqlite tables hold a single tree.
            trial_storage = Storage(":memory:", tmp_path)
            tree = Iomt(height, None if backend == "memory" else trial_storage.tree())
            last = (1 << height) - 1
            # Sparse: most siblings along any path are zero.
            occupied = rng.sample(range(last + 1), max(1, (last + 1) // 5))
            for slot in occupied:
                tree.set_leaf(slot, Leaf(slot + 1, slot + 2, counter_digest(rng.randrange(1, 99))))
            probes = {0, last, *occupied, *(rng.randrange(last + 1) for _ in range(4))}
            for slot in sorted(probes):
                path = tree.complement_path(slot)
                assert path == per_node_path(tree, slot), (height, slot)
                zero_siblings += sum(digest == ZERO_DIGEST for digest, _ in path)
            trial_storage.close()
        assert zero_siblings > 0

    def test_height_zero_issues_no_batch_query(self, storage):
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)
        tree = Iomt(0, storage.tree())
        leaf = Leaf(4, 4, counter_digest(1))
        assert tree.set_leaf(0, leaf) == []
        assert tree.complement_path(0) == []
        assert statements and not any(" IN (" in sql for sql in statements)
        assert tree.root == leaf_digest(leaf)


class TestLeafTable:
    def test_round_trip(self, storage):
        store = storage.tree()
        leaf = Leaf(9, 12, counter_digest(3))
        store.set_leaf(4, leaf)
        assert list(store.leaf_items()) == [(4, leaf)]
        assert store.locate(9) == (4, leaf)

    def test_overwrite_is_one_statement(self, storage):
        store = storage.tree()
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)
        store.set_leaf(0, Leaf(9, 9, counter_digest(1)))
        assert len(statements) == 1, statements  # a new slot
        statements.clear()
        store.set_leaf(0, Leaf(9, 9, counter_digest(2)))
        assert len(statements) == 1, statements  # an overwrite
        storage._conn.set_trace_callback(None)
        assert list(store.leaf_items()) == [(0, Leaf(9, 9, counter_digest(2)))]

    def test_locate_matches_scan(self, storage):
        rng = random.Random(3)
        for store in (MemoryTreeStore(), storage.tree()):
            tree = Iomt(4, store)
            indices = rng.sample(range(1, 250), 12)
            for idx in indices:
                tree.upsert(idx, ZERO_DIGEST)
            leaves = list(tree.leaves())
            for candidate in range(0, 256):
                scan = [(s, l) for s, l in leaves if encloses(l.idx, l.next_idx, candidate)]
                assert len(scan) <= 1
                held = [(s, l) for s, l in leaves if l.idx == candidate]
                assert not (held and scan)
                assert store.locate(candidate) == (held or scan or [None])[0], candidate

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_first_free_slot_is_one_past_the_highest(self, backend, storage):
        # Both stores are append-only: a gap below the highest slot is never reused.
        store = MemoryTreeStore() if backend == "memory" else storage.tree()
        tree = Iomt(2, store)
        assert store.first_free_slot() == 0
        store.set_leaf(0, Leaf(1, 1, ZERO_DIGEST))
        store.set_leaf(1, Leaf(2, 2, ZERO_DIGEST))
        store.set_leaf(3, Leaf(3, 3, ZERO_DIGEST))
        assert store.first_free_slot() == 4
        store.set_leaf(2, Leaf(4, 4, ZERO_DIGEST))
        # Full: the store has no bound, the tree maps it to "full".
        assert store.first_free_slot() == 4
        with pytest.raises(TreeFullError):
            tree.insert(9, ZERO_DIGEST, tree.locate(9))

    def test_both_stores_answer_alike_after_the_same_writes(self, storage):
        rng = random.Random(8)
        memory, sqlite = MemoryTreeStore(), storage.tree()
        trees = [Iomt(4, memory), Iomt(4, sqlite)]
        for _ in range(40):
            leaves = list(memory.leaf_items())
            val = counter_digest(rng.randrange(1, 99))
            if leaves and (len(leaves) == 16 or rng.random() < 0.3):
                slot, leaf = rng.choice(leaves)
                for tree in trees:
                    tree.set_leaf(slot, Leaf(leaf.idx, leaf.next_idx, val))
            else:
                idx = rng.randrange(1, 250)
                for tree in trees:
                    tree.upsert(idx, val)
            assert trees[0].root == trees[1].root
            assert memory.first_free_slot() == sqlite.first_free_slot()
            assert list(memory.leaf_items()) == list(sqlite.leaf_items())
            assert [memory.locate(i) for i in range(256)] == [sqlite.locate(i) for i in range(256)]
        assert memory.first_free_slot() == len(list(memory.leaf_items())) == 16


class TestSparseDenseEquivalence:
    def test_small_trees(self, tmp_path):
        rng = random.Random(11)
        for height in range(5):
            storage = Storage(":memory:", tmp_path)  # one store per tree
            tree = Iomt(height, storage.tree())
            leaves: dict[int, Leaf] = {}
            for slot in rng.sample(range(1 << height), max(1, (1 << height) // 2)):
                leaf = Leaf(rng.randrange(999), rng.randrange(999), counter_digest(rng.randrange(5)))
                leaves[slot] = leaf
                tree.set_leaf(slot, leaf)
            # Dense reconstruction from sparse rows matches a full recompute.
            geo = Geometry(height)
            dense = tree.store.get_nodes(list(range(2 * geo.leaf_count - 1)))
            from tcr.iomt import left_child, right_child
            from tcr.merkle import Side, parent

            expected = [ZERO_DIGEST] * (2 * geo.leaf_count - 1)
            for slot, leaf in leaves.items():
                expected[geo.leaf_node(slot)] = leaf_digest(leaf)
            for pos in range(geo.leaf_count - 2, -1, -1):
                expected[pos] = parent(expected[left_child(pos)], expected[right_child(pos)], Side.LEFT)
            assert dense == expected
            storage.close()


class TestRecords:
    def test_container_round_trip(self, storage):
        record = ContainerRecord(7, 2, 1, sha256(b"acl"), sha256(b"seal"))
        storage.record_put(record)
        assert storage.record_get(7) == record

    def test_absent_container_signals_absence(self, storage):
        assert storage.record_get(12345) is None

    def test_version_immutable(self, storage):
        hashes = BlobSet(b"i", b"b", b"c").hashes()
        record = VersionRecord(7, 1, ZERO_DIGEST, ZERO_DIGEST, sha256(b"l"), sha256(b"s"), hashes)
        storage.version_put(record)
        assert storage.version_get(7, 1) == record
        with pytest.raises(VersionExistsError):
            storage.version_put(record)
        # The refused insert leaves the enclosing transaction open.
        with storage.transaction():
            storage.record_put(ContainerRecord(7, 2, 1, sha256(b"acl"), sha256(b"seal")))
            with pytest.raises(VersionExistsError):
                storage.version_put(record)
        assert storage.record_get(7).counter == 2


class TestBlobs:
    def test_round_trip_content_addressed(self, storage, tmp_path):
        blobs = BlobSet(b"image" * 100, b"build", b"compose")
        hashes = blobs.hashes()
        storage.blob_put(blobs, hashes)
        assert storage.blob_get(hashes) == blobs
        path = storage._blob_path(hashes[0])
        assert path.exists() and path.name == hashes[0].hex()
        assert path.parent == storage.data_dir  # one flat file, no directory of its own

    def test_identical_content_shares_files(self, storage):
        blobs = BlobSet(b"same", b"same-build", b"same-compose")
        storage.blob_put(blobs, blobs.hashes())
        storage.blob_put(blobs, blobs.hashes())
        assert len(stored_files(storage)) == 3

    def test_torn_write_is_never_served(self, storage, monkeypatch):
        blobs = BlobSet(b"image" * 100, b"build", b"compose")
        write_bytes = Path.write_bytes

        def torn(path, data):
            write_bytes(path, data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", torn)
        with pytest.raises(OSError):
            storage.blob_put(blobs, blobs.hashes())
        monkeypatch.undo()
        storage.blob_put(blobs, blobs.hashes())
        assert storage.blob_get(blobs.hashes()) == blobs
        names = [p.name for p in stored_files(storage)]
        assert names == sorted(h.hex() for h in blobs.hashes())  # no partial file left behind

    def test_damaged_blob_is_rewritten_by_the_next_put(self, storage):
        blobs = BlobSet(b"image" * 100, b"build", b"compose")
        hashes = blobs.hashes()
        storage.blob_put(blobs, hashes)
        storage._blob_path(sha256(blobs.image)).write_bytes(b"rotten")
        assert storage.blob_get(hashes).image == b"rotten"  # reads do not hash
        storage.blob_put(blobs, hashes)
        assert storage.blob_get(hashes) == blobs

    def test_intact_blob_is_left_in_place(self, storage):
        blobs = BlobSet(b"image" * 100, b"build", b"compose")
        storage.blob_put(blobs, blobs.hashes())
        inodes = [storage._blob_path(h).stat().st_ino for h in blobs.hashes()]
        storage.blob_put(blobs, blobs.hashes())
        assert [storage._blob_path(h).stat().st_ino for h in blobs.hashes()] == inodes


class TestDurability:
    def test_reopen_preserves_everything(self, tmp_path, keys):
        storage = Storage(tmp_path / "d.db", tmp_path / "blobs")
        tree = Iomt(3, storage.tree())
        tree.upsert(5, ZERO_DIGEST)
        record = ContainerRecord(5, 1, 0, sha256(b"a"), sha256(b"s"))
        storage.record_put(record)
        blobs = BlobSet(b"i", b"b", b"c")
        storage.blob_put(blobs, blobs.hashes())
        version = VersionRecord(
            5, 1, ZERO_DIGEST, ZERO_DIGEST, sha256(b"d"), sha256(b"s"), blobs.hashes()
        )
        storage.version_put(version)
        root = tree.root
        storage.close()

        reopened = Storage(tmp_path / "d.db", tmp_path / "blobs")
        tree2 = Iomt(3, reopened.tree())
        assert tree2.root == root
        assert tree2.locate(5)[1].idx == 5
        assert reopened.record_get(5) == record
        assert reopened.version_get(5, 1) == version
        assert reopened.blob_get(version.hashes) == blobs
        reopened.close()

    def test_transaction_rollback(self, storage):
        store = storage.tree()
        store.set_nodes([(1, sha256(b"keep"))])
        with pytest.raises(RuntimeError):
            with storage.transaction():
                store.set_nodes([(1, sha256(b"discard")), (2, sha256(b"discard2"))])
                raise RuntimeError("boom")
        assert store.get_nodes([1, 2]) == [sha256(b"keep"), ZERO_DIGEST]


class TestAclIsolation:
    def test_edits_do_not_cross_trees(self, storage):
        storage.acl_put(1, [(0, Leaf(1, 1, counter_digest(3)))])
        storage.acl_put(2, [(0, Leaf(2, 2, counter_digest(3)))])
        b_before = storage.acl_leaves(2)
        a = Iomt.from_leaves(3, storage.acl_leaves(1))
        a.upsert(9, counter_digest(1))
        storage.acl_put(1, a.leaves())
        assert storage.acl_leaves(2) == b_before == [(0, Leaf(2, 2, counter_digest(3)))]
        assert storage.acl_leaves(1) == [
            (0, Leaf(1, 9, counter_digest(3))),
            (1, Leaf(9, 1, counter_digest(1))),
        ]
        assert Iomt.from_leaves(3, storage.acl_leaves(1)).root == a.root

    def test_put_is_one_statement_and_overwrites(self, storage):
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)
        storage.acl_put(1, [(slot, Leaf(slot, slot, counter_digest(3))) for slot in range(256)])
        storage.acl_put(1, [(7, Leaf(7, 7, ZERO_DIGEST))])  # a revocation
        storage.acl_put(1, [])
        assert len(statements) == 2, statements
        statements.clear()
        leaves = storage.acl_leaves(1)
        assert len(statements) == 1
        storage._conn.set_trace_callback(None)
        assert len(leaves) == 256 and leaves[7] == (7, Leaf(7, 7, ZERO_DIGEST))
        assert storage.acl_leaves(2) == []

    def test_u64_container_keys(self, storage):
        top = (1 << 64) - 1
        storage.acl_put(top, [(0, Leaf(top, top, counter_digest(3)))])
        assert storage.acl_leaves(top) == [(0, Leaf(top, top, counter_digest(3)))]
        assert storage.acl_leaves(top - 1) == []


class TestBulkPrepopulate:
    def test_counts_and_root(self, tmp_path, keys):
        self.check_store(tmp_path, keys, (1 << 10) - 500)

    @pytest.mark.parametrize("count", [1, 1 << 10])
    def test_counts_and_root_at_the_limits(self, tmp_path, keys, count):
        self.check_store(tmp_path, keys, count)

    @staticmethod
    def check_store(tmp_path, keys, count):
        storage = Storage(tmp_path / "p.db", tmp_path / "blobs")
        state = ModuleState.fresh(keys)
        root = bulk_prepopulate(storage, 10, count, 1, state)
        tree = Iomt(10, storage.tree())
        leaves = dict(tree.leaves())
        assert len(leaves) == count
        assert root == oracle_root(leaves, 10) == state.root == tree.root
        # The node table holds the container tree's non-zero nodes and nothing
        # else: exactly what writing the leaves one slot at a time leaves behind.
        written = Iomt(10)
        for slot, leaf in leaves.items():
            written.set_leaf(slot, leaf)
        stored = dict(storage._conn.execute("SELECT pos, digest FROM nodes").fetchall())
        assert stored == written.store._nodes
        # One owner-only ACL leaf row per container, under the record's ACL root.
        owner_acl = [(0, Leaf(1, 1, counter_digest(3)))]
        assert storage._conn.execute("SELECT COUNT(*) FROM acl_leaves").fetchone()[0] == count
        assert storage.acl_leaves(1) == storage.acl_leaves(count) == owner_acl
        assert storage.acl_leaves(count + 1) == []
        record = storage.record_get(1)
        assert record.acl_root == Iomt.from_leaves(8, owner_acl).root
        assert record.counter == 2 and record.version_count == 1
        # Seals verify under the module built from the same state.
        module = TrustedModule(state)
        acl_proof = (owner_acl[0][1], Iomt.from_leaves(8, owner_acl).complement_path(0))
        for idx in (1, count):
            slot, leaf = tree.locate(idx)
            version = storage.version_get(idx, 1)
            response = module.verify_container(
                1, bytes(32), idx, 1, (leaf, tree.complement_path(slot)),
                record=storage.record_get(idx), acl_proof=acl_proof, version=version,
            )
            assert not response.denied and response.content_digest == version.content_digest
        storage.close()

    def test_cost_follows_the_population(self, tmp_path, keys, monkeypatch):
        # 1,000 containers in a 2^22-slot tree: empty subtrees cost nothing,
        # so at most one parent digest per container per level is computed.
        height, count = 22, 1000
        expected = Iomt(height)
        for slot in range(count):
            expected.set_leaf(slot, Leaf(slot + 1, slot + 2 if slot + 1 < count else 1,
                                         counter_digest(2)))
        computed = 0

        def counted(*args):
            nonlocal computed
            computed += 1
            return parent(*args)

        for module in (tcr.iomt, tcr.storage):  # wherever the tree is built
            if hasattr(module, "parent"):
                monkeypatch.setattr(module, "parent", counted)
        storage = Storage(tmp_path / "sparse.db", tmp_path / "blobs")
        assert bulk_prepopulate(storage, height, count, 1, ModuleState.fresh(keys)) == expected.root
        assert 0 < computed <= count * height
        storage.close()

    def test_zero_count(self, tmp_path, keys):
        storage = Storage(tmp_path / "z.db", tmp_path / "blobs")
        state = ModuleState.fresh(keys)
        assert bulk_prepopulate(storage, 3, 0, 1, state) == ZERO_DIGEST
        assert storage.is_empty()
        storage.close()

    def test_requires_fresh_store(self, tmp_path, keys):
        storage = Storage(tmp_path / "f.db", tmp_path / "blobs")
        storage.tree().set_nodes([(0, sha256(b"x"))])
        with pytest.raises(StoreNotEmptyError):
            bulk_prepopulate(storage, 3, 2, 1, ModuleState.fresh(keys))
        storage.close()
        storage = Storage(tmp_path / "g.db", tmp_path / "blobs")
        storage.acl_put(4, [(0, Leaf(1, 1, counter_digest(3)))])
        with pytest.raises(StoreNotEmptyError):
            bulk_prepopulate(storage, 3, 2, 1, ModuleState.fresh(keys))
        storage.close()

    def test_create_after_prepopulate(self, tmp_path, keys):
        from tcr.client import UserCredential
        from tcr.module import RequestKind
        from tcr.service import Service

        storage = Storage(tmp_path / "c.db", tmp_path / "blobs")
        state = ModuleState.fresh(keys)
        height = 12
        count = (1 << height) - 500
        bulk_prepopulate(storage, height, count, 1, state)
        service = Service(storage, TrustedModule(state), height)
        cred = UserCredential(1, keys[1])
        env = cred.sign_request(RequestKind.ACL, count + 9, 0, cred.initial_acl_root())
        result = service.handle_create(env)
        assert result is not None and cred.verify_ack(env, result.ack)
        storage.close()


# The layout before schema versions: every tree table keyed by a text tree id.
UNVERSIONED_LAYOUT = """
CREATE TABLE nodes(tree TEXT NOT NULL, pos INTEGER NOT NULL, digest BLOB NOT NULL,
    PRIMARY KEY(tree, pos)) WITHOUT ROWID;
CREATE TABLE leaves(tree TEXT NOT NULL, slot INTEGER NOT NULL, idx BLOB NOT NULL,
    next_idx BLOB NOT NULL, val BLOB NOT NULL, PRIMARY KEY(tree, slot)) WITHOUT ROWID;
CREATE TABLE free_slots(tree TEXT NOT NULL, slot INTEGER NOT NULL,
    PRIMARY KEY(tree, slot)) WITHOUT ROWID;
"""


class TestSchemaVersion:
    def test_fresh_store_is_stamped(self, tmp_path):
        Storage(tmp_path / "s.db", tmp_path / "blobs").close()
        conn = sqlite3.connect(tmp_path / "s.db")
        assert conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION == 4
        conn.close()
        Storage(tmp_path / "s.db", tmp_path / "blobs").close()  # the stamped store reopens

    def test_old_store_is_refused(self, tmp_path):
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        conn.executescript(UNVERSIONED_LAYOUT)
        conn.execute("INSERT INTO nodes VALUES('container', 0, ?)", (sha256(b"root"),))
        conn.commit()
        conn.close()
        with pytest.raises(StorageError) as err:
            Storage(path, tmp_path / "blobs")
        message = str(err.value)
        assert "version 0" in message and f"needs {SCHEMA_VERSION}" in message
        assert "fresh store" in message
        conn = sqlite3.connect(path)  # left exactly as it was
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 0
        assert conn.execute("SELECT tree FROM nodes").fetchall() == [("container",)]
        conn.close()

    def test_version_1_store_is_refused(self, tmp_path):
        self.check_refused(tmp_path, 1, V1_TREE_LAYOUT)

    def test_version_2_store_is_refused(self, tmp_path):
        self.check_refused(tmp_path, 2, V2_LAYOUT)

    def test_version_3_store_is_refused(self, tmp_path):
        # Layout 3 kept each blob at <hex>/payload; its files are left as they were.
        blob = tmp_path / "blobs" / sha256(b"image").hex() / "payload"
        blob.parent.mkdir(parents=True)
        blob.write_bytes(b"image")
        self.check_refused(tmp_path, 3, V3_LAYOUT)
        assert [p for p in blob.parents[1].rglob("*") if p.is_file()] == [blob]
        assert blob.read_bytes() == b"image"

    @staticmethod
    def check_refused(tmp_path, version, layout):
        path = tmp_path / f"v{version}.db"
        conn = sqlite3.connect(path)
        conn.executescript(layout)
        conn.close()
        before, had_blobs = path.read_bytes(), (tmp_path / "blobs").exists()
        with pytest.raises(
            StorageError,
            match=f"schema version {version}, this build needs 4: provision a fresh store",
        ):
            Storage(path, tmp_path / "blobs")
        assert path.read_bytes() == before
        assert (tmp_path / "blobs").exists() == had_blobs  # a refused store makes no data directory

    def test_other_version_is_refused_even_when_empty(self, tmp_path):
        path = tmp_path / "next.db"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE nodes(pos INTEGER PRIMARY KEY, digest BLOB);"
            f"PRAGMA user_version={SCHEMA_VERSION + 1};"
        )
        conn.close()
        with pytest.raises(StorageError, match=f"version {SCHEMA_VERSION + 1}"):
            Storage(path, tmp_path / "blobs")
        assert not (tmp_path / "blobs").exists()
