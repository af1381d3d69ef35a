from __future__ import annotations

import random
import secrets
from pathlib import Path

import pytest

from conftest import remove_placeholder
from tcr.iomt import (
    Geometry,
    Iomt,
    Leaf,
    MemoryTreeStore,
    TreeFullError,
    counter_digest,
    encloses,
    leaf_digest,
    oracle_root,
)
from tcr.merkle import Side, ZERO_DIGEST, sha256
from tcr.module import ModuleState, TrustedModule
from tcr.storage import (
    CONTAINER_TREE,
    BlobSet,
    ContainerRecord,
    Storage,
    StoreNotEmptyError,
    VersionExistsError,
    VersionRecord,
    acl_tree_id,
    bulk_prepopulate,
)


@pytest.fixture
def keys():
    return {1: secrets.token_bytes(32)}


def node_rows(storage, tree: str) -> int:
    """Rows the node table holds for ``tree``; zero digests are never stored."""
    return storage._conn.execute("SELECT COUNT(*) FROM nodes WHERE tree=?", (tree,)).fetchone()[0]


class TestNodeTable:
    def test_zero_put_deletes_row(self, storage):
        store = storage.tree("t")
        store.set_nodes([(5, sha256(b"x")), (6, sha256(b"z"))])
        assert node_rows(storage, "t") == 2
        store.set_nodes([(5, ZERO_DIGEST), (6, sha256(b"w"))])
        assert store.get_nodes([5, 6]) == [ZERO_DIGEST, sha256(b"w")]
        assert node_rows(storage, "t") == 1

    def test_round_trip(self, storage):
        digest = sha256(b"y")
        storage.tree("t").set_nodes([(3, digest)])
        assert storage.tree("t").get_nodes([3]) == [digest]

    def test_fresh_tall_tree_stores_nothing(self, storage):
        tree = Iomt(20, storage.tree("tall"))
        assert tree.root == ZERO_DIGEST
        assert node_rows(storage, "tall") == 0
        assert not tree.store.has_leaves()


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
    def test_path_matches_per_node_reference(self, storage, backend):
        rng = random.Random(5)
        zero_siblings = 0
        for trial in range(6):
            height = rng.randrange(1, 8)
            store = None if backend == "memory" else storage.tree(f"sparse/{trial}")
            tree = Iomt(height, store)
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
        assert zero_siblings > 0

    def test_height_zero_issues_no_batch_query(self, storage):
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)
        tree = Iomt(0, storage.tree("single"))
        leaf = Leaf(4, 4, counter_digest(1))
        assert tree.set_leaf(0, leaf) == []
        assert tree.complement_path(0) == []
        assert statements and not any(" IN (" in sql for sql in statements)
        assert tree.root == leaf_digest(leaf)


class TestLeafTable:
    def test_round_trip_and_delete(self, storage):
        store = storage.tree("t")
        leaf = Leaf(9, 12, counter_digest(3))
        store.set_leaf(4, leaf)
        assert store.get_leaf(4) == leaf
        store.set_leaf(4, None)
        assert store.get_leaf(4) is None

    def test_overwrite_is_one_statement(self, storage):
        store = storage.tree("t")
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)
        store.set_leaf(0, Leaf(9, 9, counter_digest(1)))
        assert len(statements) == 3, statements  # a new slot
        statements.clear()
        store.set_leaf(0, Leaf(9, 9, counter_digest(2)))
        assert len(statements) == 1, statements  # an overwrite
        storage._conn.set_trace_callback(None)
        assert store.get_leaf(0) == Leaf(9, 9, counter_digest(2))

    def test_find_encloser_matches_scan(self, storage):
        rng = random.Random(3)
        for store in (MemoryTreeStore(), storage.tree("t")):
            tree = Iomt(4, store)
            indices = rng.sample(range(1, 250), 12)
            for idx in indices:
                tree.upsert(idx, ZERO_DIGEST)
            remove_placeholder(tree, indices[5])  # frees a slot in the middle
            leaves = list(tree.leaves())
            for candidate in range(0, 256):
                scan = [(s, l) for s, l in leaves if encloses(l.idx, l.next_idx, candidate)]
                assert len(scan) <= 1
                assert store.find_encloser(candidate) == (scan[0] if scan else None), candidate
                held = [(s, l) for s, l in leaves if l.idx == candidate]
                assert store.find_leaf(candidate) == (held[0] if held else None), candidate

    def test_first_free_slot_finds_gaps(self, storage):
        for store in (MemoryTreeStore(), storage.tree("t")):
            tree = Iomt(2, store)
            assert store.first_free_slot() == 0
            store.set_leaf(0, Leaf(1, 1, ZERO_DIGEST))
            store.set_leaf(1, Leaf(2, 2, ZERO_DIGEST))
            store.set_leaf(3, Leaf(3, 3, ZERO_DIGEST))
            assert store.first_free_slot() == 2
            store.set_leaf(1, None)  # a deleted slot is free again
            assert store.first_free_slot() == 1
            store.set_leaf(1, Leaf(2, 2, ZERO_DIGEST))
            store.set_leaf(2, Leaf(4, 4, ZERO_DIGEST))
            # Full: the store has no bound, the tree maps it to "full".
            assert store.first_free_slot() == 4
            with pytest.raises(TreeFullError):
                tree.placeholder_plan(9)

    def test_freed_top_slot_is_refilled_before_higher_ones(self, storage):
        for store in (MemoryTreeStore(), storage.tree("t")):
            for slot in (0, 1, 2, 4):
                store.set_leaf(slot, Leaf(slot + 1, slot + 1, ZERO_DIGEST))
            store.set_leaf(4, None)  # the hole at 3 is now above the high-water mark
            store.set_leaf(2, None)
            assert store.first_free_slot() == 2
            store.set_leaf(2, Leaf(3, 3, ZERO_DIGEST))
            assert store.first_free_slot() == 3
            store.set_leaf(3, Leaf(4, 4, ZERO_DIGEST))
            assert store.first_free_slot() == 4


class TestSparseDenseEquivalence:
    def test_small_trees(self, storage):
        rng = random.Random(11)
        for height in range(5):
            tree_id = f"h{height}"
            tree = Iomt(height, storage.tree(tree_id))
            leaves: dict[int, Leaf] = {}
            for slot in rng.sample(range(1 << height), max(1, (1 << height) // 2)):
                leaf = Leaf(rng.randrange(999), rng.randrange(999), counter_digest(rng.randrange(5)))
                leaves[slot] = leaf
                tree.set_leaf(slot, leaf)
            # Dense reconstruction from sparse rows matches a full recompute.
            geo = Geometry(height)
            dense = tree.store.get_nodes(list(range(geo.node_count)))
            from tcr.iomt import left_child, right_child
            from tcr.merkle import Side, parent

            expected = [ZERO_DIGEST] * geo.node_count
            for slot, leaf in leaves.items():
                expected[geo.leaf_node(slot)] = leaf_digest(leaf)
            for pos in range(geo.leaf_count - 2, -1, -1):
                expected[pos] = parent(expected[left_child(pos)], expected[right_child(pos)], Side.LEFT)
            assert dense == expected


class TestRecords:
    def test_container_round_trip(self, storage):
        record = ContainerRecord(7, 2, 1, sha256(b"acl"), sha256(b"seal"))
        storage.record_put(record)
        assert storage.record_get(7) == record

    def test_absent_container_signals_absence(self, storage):
        assert storage.record_get(12345) is None

    def test_version_immutable(self, storage):
        record = VersionRecord(7, 1, ZERO_DIGEST, ZERO_DIGEST, sha256(b"l"), sha256(b"s"))
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
        hashes = storage.blob_put(3, 1, blobs)
        assert storage.blob_get(3, 1) == blobs
        assert hashes == blobs.hashes()
        path = storage._blob_path(hashes[0])
        assert path.exists() and path.parent.name == hashes[0].hex()

    def test_identical_content_shares_files(self, storage):
        blobs = BlobSet(b"same", b"same-build", b"same-compose")
        storage.blob_put(1, 1, blobs)
        storage.blob_put(2, 1, blobs)
        files = list(storage.data_dir.rglob("payload"))
        assert len(files) == 3

    def test_torn_write_is_never_served(self, storage, monkeypatch):
        blobs = BlobSet(b"image" * 100, b"build", b"compose")
        write_bytes = Path.write_bytes

        def torn(path, data):
            write_bytes(path, data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", torn)
        with pytest.raises(OSError):
            storage.blob_put(5, 1, blobs)
        monkeypatch.undo()
        storage.blob_put(5, 1, blobs)
        assert storage.blob_get(5, 1) == blobs
        files = [p.name for p in storage.data_dir.rglob("*") if p.is_file()]
        assert files == ["payload"] * 3  # no partial file left behind

    def test_damaged_blob_is_rewritten_by_the_next_put(self, storage):
        blobs = BlobSet(b"image" * 100, b"build", b"compose")
        storage.blob_put(5, 1, blobs)
        storage._blob_path(sha256(blobs.image)).write_bytes(b"rotten")
        assert storage.blob_get(5, 1).image == b"rotten"  # reads do not hash
        storage.blob_put(6, 1, blobs)
        assert storage.blob_get(5, 1) == storage.blob_get(6, 1) == blobs


class TestDurability:
    def test_reopen_preserves_everything(self, tmp_path, keys):
        storage = Storage(tmp_path / "d.db", tmp_path / "blobs")
        tree = Iomt(3, storage.tree(CONTAINER_TREE))
        tree.upsert(5, ZERO_DIGEST)
        record = ContainerRecord(5, 1, 0, sha256(b"a"), sha256(b"s"))
        storage.record_put(record)
        blobs = BlobSet(b"i", b"b", b"c")
        storage.blob_put(5, 1, blobs)
        root = tree.root
        storage.close()

        reopened = Storage(tmp_path / "d.db", tmp_path / "blobs")
        tree2 = Iomt(3, reopened.tree(CONTAINER_TREE))
        assert tree2.root == root
        assert tree2.find_leaf(5) is not None
        assert reopened.record_get(5) == record
        assert reopened.blob_get(5, 1) == blobs
        reopened.close()

    def test_transaction_rollback(self, storage):
        store = storage.tree("t")
        store.set_nodes([(1, sha256(b"keep"))])
        with pytest.raises(RuntimeError):
            with storage.transaction():
                store.set_nodes([(1, sha256(b"discard")), (2, sha256(b"discard2"))])
                raise RuntimeError("boom")
        assert store.get_nodes([1, 2]) == [sha256(b"keep"), ZERO_DIGEST]


class TestAclIsolation:
    def test_edits_do_not_cross_trees(self, storage):
        a = Iomt(3, storage.tree(acl_tree_id(1)))
        b = Iomt(3, storage.tree(acl_tree_id(2)))
        a.set_leaf(0, Leaf(1, 1, counter_digest(3)))
        b.set_leaf(0, Leaf(2, 2, counter_digest(3)))
        b_nodes_before = b.store.get_nodes(list(range(15)))
        a.set_leaf(1, Leaf(9, 9, counter_digest(1)))
        a.set_leaf(0, Leaf(1, 9, counter_digest(3)))
        b_nodes_after = b.store.get_nodes(list(range(15)))
        assert b_nodes_before == b_nodes_after


class TestBulkPrepopulate:
    def test_counts_and_root(self, tmp_path, keys):
        storage = Storage(tmp_path / "p.db", tmp_path / "blobs")
        state = ModuleState.fresh(keys)
        count = (1 << 10) - 500
        root = bulk_prepopulate(storage, 10, count, 1, state)
        tree = Iomt(10, storage.tree(CONTAINER_TREE))
        leaves = dict(tree.leaves())
        assert len(leaves) == count == 524
        assert root == oracle_root(leaves, 10) == state.root == tree.root
        record = storage.record_get(1)
        assert record.counter == 2 and record.version_count == 1
        # Seals verify under the module built from the same state.
        module = TrustedModule(state)
        assert module.certificate_valid(record.as_certificate())
        assert module.certificate_valid(storage.version_get(1, 1).as_certificate())
        storage.close()

    def test_zero_count(self, tmp_path, keys):
        storage = Storage(tmp_path / "z.db", tmp_path / "blobs")
        state = ModuleState.fresh(keys)
        assert bulk_prepopulate(storage, 3, 0, 1, state) == ZERO_DIGEST
        assert storage.is_empty()
        storage.close()

    def test_requires_fresh_store(self, tmp_path, keys):
        storage = Storage(tmp_path / "f.db", tmp_path / "blobs")
        storage.tree("t").set_nodes([(0, sha256(b"x"))])
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
