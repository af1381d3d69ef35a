from __future__ import annotations

import ast
import copy
import inspect
import os
import random
import secrets

from dataclasses import replace

import pytest

import tcr.module
from conftest import SEALED_FIELDS, mutate_proof, mutate_row, oracle_root
from tcr.iomt import Iomt, Leaf, counter_digest, leaf_digest
from tcr.merkle import ZERO_DIGEST, hmac_sha256, sha256, u64
from tcr.module import (
    ContainerRecord,
    ModuleState,
    RequestEnvelope,
    RequestKind,
    StateIntegrityError,
    TrustedModule,
    VersionRecord,
    _read,
    load_state,
    save_state,
    secret_commitment,
)

KEYS = {1: bytes(range(32)), 2: bytes(range(1, 33)), 3: bytes(range(2, 34))}


def fresh_module() -> TrustedModule:
    return TrustedModule(ModuleState.fresh(dict(KEYS)))


def sign(user: int, kind: RequestKind, idx: int, counter: int, value: bytes) -> RequestEnvelope:
    env = RequestEnvelope(kind, idx, counter, value, user, b"")
    return RequestEnvelope(kind, idx, counter, value, user, hmac_sha256(env.signed_body(), KEYS[user]))


def sealed_fields(row) -> tuple:
    """The fields under ``row``'s seal, in body order."""
    return tuple(getattr(row, name) for name in SEALED_FIELDS[type(row)])


def random_tree(rng: random.Random, height: int = 3, fill: int = 5) -> Iomt:
    tree = Iomt(height)
    for idx in rng.sample(range(2, 200), fill):
        tree.upsert(idx, ZERO_DIGEST)
    for slot, leaf in list(tree.leaves()):
        tree.set_leaf(slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(rng.randrange(1, 9))))
    return tree


class TestModuleState:
    def test_fresh_secrets_differ(self):
        a = ModuleState.fresh(KEYS)
        b = ModuleState.fresh(KEYS)
        assert a.secret != b.secret
        assert a.root == ZERO_DIGEST

    def test_requires_a_user(self):
        with pytest.raises(ValueError):
            ModuleState.fresh({})

    def test_persistence_round_trip(self, tmp_path):
        state = ModuleState.fresh(KEYS)
        state.root = sha256(b"some root")
        save_state(state, tmp_path / "module.bin")
        loaded = load_state(tmp_path / "module.bin")
        assert loaded == state

    def test_interrupted_save_keeps_the_old_state(self, tmp_path, monkeypatch):
        state = ModuleState.fresh(KEYS)
        path = tmp_path / "module.bin"
        save_state(state, path)
        moved = ModuleState(sha256(b"moved root"), state.secret, dict(state.user_keys))

        def torn(src, dst):
            raise OSError("power lost before the rename")

        monkeypatch.setattr(os, "replace", torn)
        with pytest.raises(OSError):
            save_state(moved, path)
        assert load_state(path) == state
        assert [p.name for p in tmp_path.iterdir()] == ["module.bin"]
        monkeypatch.undo()
        save_state(moved, path)
        assert load_state(path) == moved
        assert [p.name for p in tmp_path.iterdir()] == ["module.bin"]

    def test_tampered_state_refused(self, tmp_path):
        state = ModuleState.fresh(KEYS)
        path = tmp_path / "module.bin"
        save_state(state, path)
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(StateIntegrityError):
            load_state(path)

    def test_state_file_layout(self, tmp_path):
        # magic, version byte, root, secret, u64 count, sorted (idx, key)
        # entries, then a self-MAC over everything before it.
        state = ModuleState.fresh({2: b"\x22" * 32, 1: b"\x11" * 32})
        state.root = sha256(b"root")
        path = tmp_path / "module.bin"
        save_state(state, path)
        raw = path.read_bytes()
        assert raw[:4] == b"TCRM" and raw[4] == 0x01
        assert raw[5:37] == state.root
        assert raw[37:69] == state.secret
        assert raw[69:77] == (2).to_bytes(8, "big")
        assert raw[77:85] == (1).to_bytes(8, "big") and raw[85:117] == b"\x11" * 32
        assert raw[117:125] == (2).to_bytes(8, "big") and raw[125:157] == b"\x22" * 32
        assert raw[157:] == hmac_sha256(raw[:157], state.secret)
        assert len(raw) == 189


class TestRecordVerify:
    """A proof is a leaf and its complement path; the module reads it itself."""

    def test_pair_proves_absence(self):
        tree = Iomt(3)
        for slot, leaf in enumerate(
            [Leaf(3, 4, counter_digest(1)), Leaf(1, 3, counter_digest(2)),
             Leaf(4, 7, counter_digest(3)), Leaf(7, 1, counter_digest(4))]
        ):
            tree.set_leaf(slot, leaf)
        proof = (Leaf(4, 7, counter_digest(3)), tree.complement_path(2))
        assert _read(proof, 5, tree.root) == 0
        # For its own index, the same leaf reads as its own value.
        assert _read(proof, 4, tree.root) == 3
        module = module_at(tree.root)
        nonce = secrets.token_bytes(32)
        response = module.verify_container(2, nonce, 5, 0, proof)
        assert response.denied and response.idx == 5 and response.nonce == nonce
        assert response.tag == hmac_sha256(response.tag_body(), KEYS[2])

    def test_tampered_leaf_refused(self):
        # A leaf the store does not hold folds to a root the module refuses.
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        slot, leaf = repo.tree.locate(repo.idx)
        tampered = Leaf(leaf.idx, leaf.next_idx, counter_digest(99))
        proof = (tampered, repo.tree.complement_path(slot))
        snapshot = copy.deepcopy(module._state)
        response = module.verify_container(
            1, secrets.token_bytes(32), repo.idx, 1, proof,
            record=repo.record, acl_proof=repo.acl_proof(1), version=repo.versions[1],
        )
        assert response is None
        assert module._state == snapshot
        assert repo.verify(1, secrets.token_bytes(32), 1) is not None  # the true leaf verifies

    def test_non_enclosed_extra_index_reads_nothing(self):
        # Leaf 3 links to 9: it encloses 4 to 8 only, and it is not 9 itself.
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        tree.upsert(9, ZERO_DIGEST)
        slot, leaf = tree.locate(3)
        proof = (leaf, tree.complement_path(slot))
        assert _read(proof, 9, tree.root) is None
        assert _read(proof, 3, tree.root) == 0  # its own, placeholder, value
        assert module_at(tree.root).verify_container(1, secrets.token_bytes(32), 9, 0, proof) is None

    def test_every_absent_index_of_random_trees(self):
        rng = random.Random(4)
        for _ in range(5):
            tree = random_tree(rng, height=3, fill=6)
            module = module_at(tree.root)
            present = {leaf.idx for _, leaf in tree.leaves()}
            for candidate in range(0, 40):
                if candidate in present:
                    continue
                found = tree.locate(candidate)
                assert found is not None
                slot, leaf = found
                proof = (leaf, tree.complement_path(slot))
                assert _read(proof, candidate, tree.root) == 0
                response = module.verify_container(1, secrets.token_bytes(32), candidate, 0, proof)
                assert response.denied and response.idx == candidate


def module_at(root: bytes) -> TrustedModule:
    """A fresh module whose sealed root is ``root``, as if it had built that tree."""
    state = ModuleState.fresh(dict(KEYS))
    state.root = root
    return TrustedModule(state)


class TestRecordUpdate:
    """An update hands ``apply_request`` the container's leaf and path; the module bumps it."""

    def test_no_op_update(self):
        # A leaf that already holds the new counter (the store's leaf after
        # the write) is no update from the sealed root: only the leaf before it is.
        module = fresh_module()
        repo = ContainerFixture(module)
        slot, leaf, path, bumped = repo.bump()
        req = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, bumped, path, repo.acl_proof(1), repo.record) is None
        assert module._state == snapshot
        assert module.apply_request(req, leaf, path, repo.acl_proof(1), repo.record) is not None
        repo.tree.set_leaf(slot, bumped)
        assert module.root == repo.tree.root == oracle_root(dict(repo.tree.leaves()), 3)

    def test_counter_increment_matches_oracle(self):
        rng = random.Random(5)
        module = fresh_module()
        tree = Iomt(3)
        repos = [ContainerFixture(module, idx=idx, tree=tree) for idx in rng.sample(range(2, 200), 6)]
        assert module.root == oracle_root(dict(tree.leaves()), 3)
        for _ in range(12):
            repo = rng.choice(repos)
            counter = repo.counter
            assert repo.modify(1, sha256(bytes([counter]))) is not None
            slot, leaf = tree.locate(repo.idx)
            assert leaf.val == counter_digest(counter + 1)
            assert module.root == tree.root == oracle_root(dict(tree.leaves()), 3)

    def test_mismatched_leaf_refused(self):
        # A leaf the store does not hold folds to a root the module refuses.
        module = fresh_module()
        repo = ContainerFixture(module)
        _, leaf, path, _ = repo.bump()
        wrong = Leaf(leaf.idx, leaf.next_idx + 1, leaf.val)
        req = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, wrong, path, repo.acl_proof(1), repo.record) is None
        assert module._state == snapshot
        assert repo.modify(1, sha256(b"v1")) is not None  # the true leaf is accepted

    def test_wrong_index_refused(self):
        # Another container's leaf under the sealed root is not this request's leaf.
        module = fresh_module()
        first = ContainerFixture(module, idx=5)
        second = ContainerFixture(module, idx=6, tree=first.tree)
        assert first.counter == second.counter and first.acl_root == second.acl_root
        _, other, other_path, _ = second.bump()
        req = sign(1, RequestKind.CONTAINER, first.idx, first.counter, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, other, other_path, first.acl_proof(1), first.record) is None
        assert module._state == snapshot
        assert first.modify(1, sha256(b"v1")) is not None

    def test_stale_path_refused(self):
        # Evidence read before another container moved the root folds to the old root.
        module = fresh_module()
        first = ContainerFixture(module, idx=5)
        second = ContainerFixture(module, idx=6, tree=first.tree)
        _, leaf, stale_path, _ = first.bump()
        assert second.modify(1, sha256(b"other")) is not None
        req = sign(1, RequestKind.CONTAINER, first.idx, first.counter, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, leaf, stale_path, first.acl_proof(1), first.record) is None
        assert module._state == snapshot
        assert first.modify(1, sha256(b"v1")) is not None


def creation(tree: Iomt, user: int, idx: int, acl_root: bytes):
    """A signed creation and the evidence ``apply_request`` takes for it.

    Inserts ``idx`` into ``tree`` the way the service does.  The evidence is
    the encloser before the relink, its path, and the new slot's path.
    """
    leaf, path, slot_path = tree.insert(idx, counter_digest(1), tree.locate(idx))
    evidence = {"leaf": leaf, "path": path, "slot_path": slot_path}
    return sign(user, RequestKind.ACL, idx, 0, acl_root), evidence


def create_container(module: TrustedModule, tree: Iomt, user: int, idx: int, acl_root: bytes):
    """Full creation flow against an in-memory container tree; the new slot and the result."""
    req, evidence = creation(tree, user, idx, acl_root)
    return tree.locate(idx)[0], module.apply_request(req, **evidence)


class TestRootEquivalence:
    """A creation's relinked encloser must fold to the root of its still-empty slot."""

    def test_roots_oracle_verified(self):
        tree = Iomt(3)
        for slot, leaf in enumerate(
            [Leaf(3, 4, counter_digest(1)), Leaf(1, 3, counter_digest(2)),
             Leaf(4, 7, counter_digest(3)), Leaf(7, 1, counter_digest(4))]
        ):
            tree.set_leaf(slot, leaf)
        module = module_at(oracle_root(dict(tree.leaves()), 3))
        slot, result = create_container(module, tree, 1, 5, ZERO_DIGEST)
        assert result is not None
        leaves = dict(tree.leaves())
        assert leaves[2] == Leaf(4, 5, counter_digest(3))  # the relinked encloser
        assert leaves[slot] == Leaf(5, 7, counter_digest(1))
        assert module.root == oracle_root(leaves, 3)

    def test_swapped_proofs_refused(self):
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        module = module_at(tree.root)
        req, evidence = creation(tree, 1, 6, ZERO_DIGEST)
        swapped = dict(evidence, path=evidence["slot_path"], slot_path=evidence["path"])
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, **swapped) is None
        assert module._state == snapshot
        assert module.apply_request(req, **evidence) is not None

    def test_non_encloser_refused(self):
        tree = Iomt(3)
        for slot, leaf in enumerate([Leaf(1, 3, counter_digest(1)), Leaf(3, 1, counter_digest(1))]):
            tree.set_leaf(slot, leaf)
        module = module_at(tree.root)
        req = sign(1, RequestKind.ACL, 6, 0, ZERO_DIGEST)
        # (1, 3) does not enclose 6, though its relink chains to slot 2's path.
        encloser, enc_path = Leaf(1, 3, counter_digest(1)), tree.complement_path(0)
        relinked = Iomt.from_leaves(
            3, [(0, Leaf(1, 6, counter_digest(1))), (1, Leaf(3, 1, counter_digest(1)))]
        )
        slot_path = relinked.complement_path(2)
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, encloser, enc_path, slot_path=slot_path) is None
        assert module._state == snapshot
        # Control: the leaf that does enclose 6 is accepted.
        _, evidence = creation(tree, 1, 6, ZERO_DIGEST)
        assert evidence["leaf"] == Leaf(3, 1, counter_digest(1))
        assert module.apply_request(req, **evidence) is not None

    def test_bootstrap_requires_empty_root(self):
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        req = sign(1, RequestKind.ACL, 9, 0, ZERO_DIGEST)
        empty_path = Iomt(3).complement_path(0)
        # A self-linked "first" leaf under a non-empty root, or along the path
        # of a non-empty tree, must fail.
        module = module_at(tree.root)
        snapshot = copy.deepcopy(module._state)
        for slot_path in (tree.complement_path(1), empty_path):
            assert module.apply_request(req, None, None, slot_path=slot_path) is None
        assert module._state == snapshot
        module = fresh_module()
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, None, None, slot_path=tree.complement_path(1)) is None
        assert module._state == snapshot
        assert module.apply_request(req, None, None, slot_path=empty_path) is not None


class TestApplyRequest:
    def test_create_on_empty_repository(self):
        module = fresh_module()
        tree = Iomt(3)
        acl_root = leaf_digest(Leaf(1, 1, counter_digest(3)))
        slot, result = create_container(module, tree, 1, 10, acl_root)
        assert result is not None
        assert sealed_fields(result.record) == (10, 1, 0, acl_root)
        assert result.version is None
        assert module.root == tree.root == oracle_root(dict(tree.leaves()), 3)
        req = sign(1, RequestKind.ACL, 10, 0, acl_root)
        assert result.ack == hmac_sha256(req.ack_body(), KEYS[1])

    def test_forged_signature_refused(self):
        module = fresh_module()
        req, evidence = creation(Iomt(3), 1, 10, ZERO_DIGEST)
        forged = RequestEnvelope(req.kind, req.idx, req.counter, req.value, req.user_idx, bytes(32))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(forged, **evidence) is None
        assert module._state == snapshot

    def test_unknown_user_refused(self):
        module = fresh_module()
        _, evidence = creation(Iomt(3), 1, 10, ZERO_DIGEST)
        env = RequestEnvelope(RequestKind.ACL, 10, 0, ZERO_DIGEST, 99, bytes(32))
        assert module.apply_request(env, **evidence) is None

    def test_equivalence_comes_with_a_creation_only(self):
        # The slot path is the creation's equivalence evidence.
        module = fresh_module()
        repo = ContainerFixture(module)
        shadow = Iomt.from_leaves(3, repo.tree.leaves())
        req, evidence = creation(shadow, 1, 12, ZERO_DIGEST)
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, evidence["leaf"], evidence["path"]) is None
        _, leaf, path, _ = repo.bump()
        modify = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v1"))
        assert module.apply_request(
            modify, leaf, path, acl_proof=repo.acl_proof(1), record=repo.record,
            slot_path=evidence["slot_path"],
        ) is None
        assert module._state == snapshot
        assert module.apply_request(req, **evidence) is not None


class TestTogglePlaceholder:
    """A creation's placeholder enters the root inside ``apply_request`` only."""

    def test_advance_and_stale(self):
        module = fresh_module()
        tree = Iomt(3)
        assert create_container(module, tree, 1, 9, ZERO_DIGEST)[1] is not None
        shadow = Iomt.from_leaves(3, tree.leaves())
        req, evidence = creation(shadow, 1, 12, ZERO_DIGEST)
        # Control: a second module at the same root accepts the very same evidence.
        twin = TrustedModule(copy.deepcopy(module._state))
        assert twin.apply_request(req, **evidence) is not None
        assert create_container(module, tree, 1, 15, ZERO_DIGEST)[1] is not None
        # The evidence now folds to a root of an old epoch.
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, **evidence) is None
        assert module._state == snapshot

    def test_tampered_slot_path_refused(self):
        module = fresh_module()
        tree = Iomt(3)
        assert create_container(module, tree, 1, 9, ZERO_DIGEST)[1] is not None
        req, evidence = creation(tree, 1, 12, ZERO_DIGEST)
        (digest, side), *rest = evidence["slot_path"]
        tampered = dict(evidence, slot_path=[(sha256(digest), side), *rest])
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, **tampered) is None
        assert module._state == snapshot
        assert module.apply_request(req, **evidence) is not None


class ContainerFixture:
    """An in-memory repository the tests can drive like the service would."""

    def __init__(self, module: TrustedModule, owner: int = 1, idx: int = 10, tree=None):
        self.module = module
        self.idx = idx
        self.tree = tree if tree is not None else Iomt(3)  # shared by containers in one repo
        self.acl = Iomt(3)
        self.acl.set_leaf(0, Leaf(owner, owner, counter_digest(3)))
        _, result = create_container(module, self.tree, owner, idx, self.acl.root)
        assert result is not None
        self.record = result.record
        self.versions: dict[int, VersionRecord] = {}

    @property
    def counter(self) -> int:
        return self.record.counter

    @property
    def acl_root(self) -> bytes:
        return self.record.acl_root

    def container_proof(self):
        slot, leaf = self.tree.locate(self.idx)
        return leaf, self.tree.complement_path(slot)

    def acl_proof(self, user: int):
        """The user's ACL leaf, or the leaf enclosing its index, and its path."""
        slot, leaf = self.acl.locate(user)
        return leaf, self.acl.complement_path(slot)

    def bump(self):
        """The container's slot, its leaf, that leaf's path, and the leaf counter-bumped."""
        slot, leaf = self.tree.locate(self.idx)
        new_leaf = Leaf(self.idx, leaf.next_idx, counter_digest(self.counter + 1))
        return slot, leaf, self.tree.complement_path(slot), new_leaf

    def modify(self, user: int, content_digest: bytes, secret=None):
        slot, leaf, path, new_leaf = self.bump()
        req = sign(user, RequestKind.CONTAINER, self.idx, self.counter, content_digest)
        result = self.module.apply_request(
            req, leaf, path, acl_proof=self.acl_proof(user), record=self.record, secret=secret
        )
        if result is not None:
            self.tree.set_leaf(slot, new_leaf)
            self.record = result.record
            self.versions[result.record.version_count] = result.version
        return result

    def set_access(self, requester: int, target: int, level: int):
        requester_proof = self.acl_proof(requester)  # over the pre-edit ACL root
        self.acl.upsert(target, counter_digest(level))
        slot, leaf, path, new_leaf = self.bump()
        req = sign(requester, RequestKind.ACL, self.idx, self.counter, self.acl.root)
        result = self.module.apply_request(
            req, leaf, path, acl_proof=requester_proof, record=self.record
        )
        if result is not None:
            self.tree.set_leaf(slot, new_leaf)
            self.record = result.record
        return result

    def verify(self, user: int, nonce: bytes, requested_version: int, release=False, version=None):
        """Query as the service does; ``version`` stands in for the stored version row."""
        return self.module.verify_container(
            user,
            nonce,
            self.idx,
            requested_version,
            self.container_proof(),
            record=self.record,
            acl_proof=self.acl_proof(user),
            version=version or self.versions.get(requested_version),
            release=release,
        )


class TestUpdateFlows:
    def test_content_update_issues_version(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        digest = sha256(b"content")
        result = repo.modify(1, digest)
        assert result is not None
        assert sealed_fields(result.record) == (10, 2, 1, repo.acl_root)
        assert sealed_fields(result.version) == (10, 1, digest)
        assert result.version.secret_commitment == result.version.wrapped_secret == ZERO_DIGEST
        assert module.root == repo.tree.root

    def test_low_access_rejected(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        assert repo.set_access(1, 2, 1) is not None
        before = module.root
        assert repo.modify(2, sha256(b"evil")) is None
        assert module.root == before

    def test_replay_with_stale_counter_rejected(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        assert repo.modify(1, sha256(b"v1")) is not None
        # Re-sign against the old counter: the old leaf does not fold to the
        # current root.
        slot, leaf = repo.tree.locate(10)
        stale_leaf = Leaf(10, leaf.next_idx, counter_digest(1))
        req = sign(1, RequestKind.CONTAINER, 10, 1, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(
            req, stale_leaf, repo.tree.complement_path(slot),
            acl_proof=repo.acl_proof(1), record=repo.record,
        ) is None
        assert module._state == snapshot

    def test_acl_update_keeps_version_count(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        result = repo.set_access(1, 2, 2)
        assert result is not None
        assert result.record.version_count == 1  # version count unchanged
        assert result.version is None

    def test_acl_update_requires_level_three(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        assert repo.set_access(1, 2, 2) is not None
        assert repo.set_access(2, 3, 1) is None  # level 2 cannot administer


class TestVerifyContainer:
    def test_absent_container_denial(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        tree = repo.tree
        slot, leaf = tree.locate(55)
        nonce = secrets.token_bytes(32)
        response = module.verify_container(2, nonce, 55, 0, (leaf, tree.complement_path(slot)))
        assert response is not None and response.denied
        assert response.idx == 55 and response.nonce == nonce
        assert response.tag == hmac_sha256(response.tag_body(), KEYS[2])

    def test_zero_access_denial_shape_identical(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        nonce = secrets.token_bytes(32)
        denied = repo.verify(2, nonce, 1)  # user 2 has no ACL leaf
        assert denied is not None and denied.denied
        slot, leaf = repo.tree.locate(55)
        absent = module.verify_container(2, nonce, 55, 1, (leaf, repo.tree.complement_path(slot)))
        assert absent is not None and absent.denied
        assert {f for f in denied.__dataclass_fields__} == {f for f in absent.__dataclass_fields__}
        assert len(denied.tag) == len(absent.tag)

    def test_full_response_matches_request(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        digest = sha256(b"v1")
        repo.modify(1, digest)
        nonce = secrets.token_bytes(32)
        response = repo.verify(1, nonce, 1)
        assert response is not None and not response.denied
        assert response.content_digest == digest
        assert response.counter == 2 and response.max_version == 1
        assert response.requested_version == 1
        assert response.tag == hmac_sha256(response.tag_body(), KEYS[1])

    def test_distinct_nonces_distinct_tags(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        r1 = repo.verify(1, secrets.token_bytes(32), 1)
        r2 = repo.verify(1, secrets.token_bytes(32), 1)
        assert r1.tag != r2.tag
        assert (r1.counter, r1.max_version, r1.content_digest) == (
            r2.counter, r2.max_version, r2.content_digest,
        )

    def test_version_mismatch_is_null(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        assert repo.verify(1, secrets.token_bytes(32), 2) is None

    def test_stale_root_proof_is_null(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        stale_proof = repo.container_proof()
        repo.modify(1, sha256(b"v2"))
        response = module.verify_container(
            1, secrets.token_bytes(32), repo.idx, 1, stale_proof,
            record=repo.record, acl_proof=repo.acl_proof(1),
            version=repo.versions[1],
        )
        assert response is None


def xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def wrap(user: int, idx: int, counter: int, secret: bytes) -> tuple[bytes, bytes]:
    """A secret padded for the module as a client pads it, and its commitment."""
    pad = hmac_sha256(u64(idx) + u64(counter), KEYS[user])
    return xor(secret, pad), secret_commitment(idx, secret)


class TestSecrets:
    def test_store_and_release_round_trip(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap(1, repo.idx, repo.counter, secret)
        result = repo.modify(1, sha256(b"v1"), secret=(wrapped, commitment))
        assert result is not None
        sealed = result.version.wrapped_secret
        assert sealed not in (ZERO_DIGEST, secret, wrapped)
        assert result.version.secret_commitment == commitment

        nonce = secrets.token_bytes(32)
        response = repo.verify(1, nonce, 1, release=True)
        assert response is not None and not response.denied
        assert xor(response.sealed_for_user, sha256(commitment + KEYS[1])) == secret
        # The released secret rides outside the tag: the answer is tagged as without it.
        # Only a release (a FETCH) re-pads it; an INFO never does.
        plain = repo.verify(1, nonce, 1)
        assert plain.sealed_for_user is None and plain.tag == response.tag
        assert response.tag == hmac_sha256(response.tag_body(), KEYS[1])

    def test_bit_flip_in_wrapped_secret_refused(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap(1, repo.idx, repo.counter, secret)
        flipped = bytearray(wrapped)
        flipped[0] ^= 0x80
        snapshot = copy.deepcopy(module._state)
        assert repo.modify(1, sha256(b"v1"), secret=(bytes(flipped), commitment)) is None
        assert module._state == snapshot  # the whole request is refused

    def test_short_secret_refused(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        short = secrets.token_bytes(16)  # its commitment opens, but it is no 32-byte secret
        wrapped, commitment = wrap(1, repo.idx, repo.counter, short)
        assert repo.modify(1, sha256(b"v1"), secret=(wrapped, commitment)) is None

    def test_commitment_binds_index(self):
        module = fresh_module()
        first = ContainerFixture(module, idx=5)
        second = ContainerFixture(module, idx=6, tree=first.tree)
        secret = secrets.token_bytes(32)
        sealed = {}
        for repo, other in ((first, second), (second, first)):
            wrapped, commitment = wrap(1, repo.idx, repo.counter, secret)
            misbound = secret_commitment(other.idx, secret)
            assert repo.modify(1, sha256(b"v1"), secret=(wrapped, misbound)) is None
            result = repo.modify(1, sha256(b"v1"), secret=(wrapped, commitment))
            assert result is not None
            sealed[repo.idx] = result.version.wrapped_secret
        assert sealed[5] != sealed[6]
        # A seal made for container 5 does not open as container 6's.  The
        # secret fields lie outside the version row's seal, which still verifies.
        foreign = replace(
            second.versions[1], wrapped_secret=sealed[5], secret_commitment=secret_commitment(5, secret)
        )
        response = second.verify(1, secrets.token_bytes(32), 1, release=True, version=foreign)
        assert response is not None and not response.denied
        assert response.sealed_for_user is None

    def test_release_needs_read_access(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap(1, repo.idx, repo.counter, secret)
        assert repo.modify(1, sha256(b"v1"), secret=(wrapped, commitment)) is not None
        denied = repo.verify(2, secrets.token_bytes(32), 1, release=True)
        assert denied is not None and denied.denied
        assert denied.sealed_for_user is None
        assert repo.set_access(1, 2, 1) is not None  # read access
        response = repo.verify(2, secrets.token_bytes(32), 1, release=True)
        assert response is not None and not response.denied
        assert xor(response.sealed_for_user, sha256(commitment + KEYS[2])) == secret

    def test_tampered_sealed_secret_refused(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap(1, repo.idx, repo.counter, secret)
        sealed = bytearray(repo.modify(1, sha256(b"v1"), secret=(wrapped, commitment)).version.wrapped_secret)
        sealed[3] ^= 0x40
        tampered = replace(repo.versions[1], wrapped_secret=bytes(sealed))
        response = repo.verify(1, secrets.token_bytes(32), 1, release=True, version=tampered)
        # Content is still attested, but no usable secret is released.
        assert response is not None and not response.denied
        assert response.sealed_for_user is None

    def test_reader_encrypted_modify_gets_no_seal(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        assert repo.set_access(1, 2, 1) is not None
        snapshot = copy.deepcopy(module._state)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap(2, repo.idx, repo.counter, secret)
        assert repo.modify(2, sha256(b"v1"), secret=(wrapped, commitment)) is None
        assert module._state == snapshot

    def test_secret_with_an_acl_request_refused(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        _, leaf, path, _ = repo.bump()
        req = sign(1, RequestKind.ACL, repo.idx, repo.counter, repo.acl_root)
        secret = wrap(1, repo.idx, repo.counter, secrets.token_bytes(32))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(
            req, leaf, path, repo.acl_proof(1), repo.record, secret=secret
        ) is None
        assert module._state == snapshot
        assert module.apply_request(req, leaf, path, repo.acl_proof(1), repo.record) is not None


class TestStateConfinement:
    def test_rejected_calls_leave_state_identical(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)

        _, leaf, path, _ = repo.bump()
        # A leaf claiming a higher counter than the store holds.
        bad_proof = (Leaf(10, leaf.next_idx, counter_digest(3)), path)
        env = RequestEnvelope(RequestKind.CONTAINER, 10, 2, sha256(b"x"), 1, bytes(32))
        assert module.apply_request(env, leaf, path, repo.acl_proof(1), repo.record) is None
        signed = sign(1, RequestKind.CONTAINER, 10, 2, sha256(b"x"))
        assert module.apply_request(signed, leaf, path, bad_proof, repo.record) is None
        create = sign(1, RequestKind.ACL, 11, 0, repo.acl_root)
        assert module.apply_request(create, leaf, path, slot_path=path) is None  # paths unchained
        assert module.verify_container(1, secrets.token_bytes(32), 10, 1, bad_proof) is None
        # Sound evidence and signature, but a secret that opens no commitment.
        assert repo.modify(1, sha256(b"v2"), secret=(bytes(32), bytes(32))) is None

        assert module._state == snapshot


class TestAbsenceForm:
    """Absence in either tree reads as zero; only the root a proof folds to says which tree."""

    def test_acl_absence_refused_as_container_proof(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        acl_absence = repo.acl_proof(2)  # user 2 has no ACL leaf
        assert _read(acl_absence, 2, repo.acl_root) == 0
        nonce = secrets.token_bytes(32)
        snapshot = copy.deepcopy(module._state)
        assert module.verify_container(2, nonce, 2, 1, acl_absence) is None
        assert module._state == snapshot
        # Control: the container tree's own absence proof for index 2 is a denial.
        slot, leaf = repo.tree.locate(2)
        absent = (leaf, repo.tree.complement_path(slot))
        assert module.verify_container(2, nonce, 2, 1, absent).denied

    def test_container_absence_refused_as_acl_proof(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        slot, leaf = repo.tree.locate(1)  # no container has index 1
        absence = (leaf, repo.tree.complement_path(slot))
        assert _read(absence, 1, module.root) == 0
        snapshot = copy.deepcopy(module._state)
        response = module.verify_container(
            1, secrets.token_bytes(32), repo.idx, 1, repo.container_proof(),
            record=repo.record, acl_proof=absence, version=repo.versions[1],
        )
        assert response is None  # not even a denial: the proof folds to another root
        assert module._state == snapshot
        _, leaf, path, _ = repo.bump()
        req = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v2"))
        assert module.apply_request(req, leaf, path, acl_proof=absence, record=repo.record) is None
        assert module._state == snapshot
        # Control: the same request with the ACL tree's own proof is accepted.
        accepted = module.apply_request(
            req, leaf, path, acl_proof=repo.acl_proof(1), record=repo.record
        )
        assert accepted is not None

    def test_enclosed_and_empty_tree_absence_share_one_form(self):
        from_empty = (None, Iomt(3).complement_path(0))
        tree = Iomt(3)
        tree.upsert(3, counter_digest(1))
        tree.upsert(9, counter_digest(2))
        slot, leaf = tree.locate(5)
        from_leaf = (leaf, tree.complement_path(slot))
        nonce = secrets.token_bytes(32)
        denials = []
        for proof, root in ((from_empty, ZERO_DIGEST), (from_leaf, tree.root)):
            assert _read(proof, 5, root) == 0
            denials.append(module_at(root).verify_container(2, nonce, 5, 0, proof))
        assert all(d.denied for d in denials)
        assert denials[0] == denials[1]  # one module key, so one and the same answer
        # An empty slot's path folds to the root of a non-empty tree, yet
        # ``leaf=None`` reads as absence only under the zero root.
        empty_slot = next(s for s in range(8) if s not in dict(tree.leaves()))
        hole = (None, tree.complement_path(empty_slot))
        assert _read(hole, 5, tree.root) is None
        assert module_at(tree.root).verify_container(2, nonce, 5, 0, hole) is None


class TestSurface:
    def test_names_defined_by_the_module(self):
        # Imports aside, every public name tcr.module defines; a presence
        # and an absence proof are both a RecordProof, read by one rule.
        defined = set()
        for node in ast.parse(inspect.getsource(tcr.module)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        assert {name for name in defined if not name.startswith("_")} == {
            "ComplementPath",
            "ContainerRecord",
            "ModuleState",
            "RecordProof",
            "RequestEnvelope",
            "RequestKind",
            "StateIntegrityError",
            "TrustedModule",
            "UpdateResult",
            "VerifyResponse",
            "VersionRecord",
            "load_state",
            "save_state",
            "secret_commitment",
        }

    def test_public_names_of_the_trusted_module(self):
        # The trusted computing base's surface: grow it only on purpose.
        public = {name for name in dir(TrustedModule) if not name.startswith("_")}
        assert public == {
            "root",
            "apply_request",
            "verify_container",
        }

    def test_size_of_the_trusted_module(self):
        # The trusted computing base's size: any growth is offset in the same change.
        source = inspect.getsource(tcr.module)
        assert len(source.splitlines()) <= 475

    def test_seal_bytes_are_pinned(self):
        # Every row at rest carries one of these MACs: a change to a body's
        # layout or domain byte would silently invalidate every existing store.
        state = ModuleState(ZERO_DIGEST, bytes(range(32)), {1: KEYS[1]})
        acl = Iomt(3)
        acl.set_leaf(0, Leaf(1, 1, counter_digest(3)))
        record = ContainerRecord(7, 3, 2, acl.root, bytes.fromhex(GOLDEN_CR))
        version = VersionRecord(7, 2, ZERO_DIGEST, ZERO_DIGEST, sha256(b"content"),
                                bytes.fromhex(GOLDEN_VR), (sha256(b"i"), sha256(b"b"), sha256(b"c")))
        assert state.seal(record) == record.seal and state.seal(version) == version.seal
        # The secret fields and blob addresses lie outside the seal.
        loose = replace(version, secret_commitment=sha256(b"c"), wrapped_secret=sha256(b"w"), hashes=())
        assert state.seal(loose) == version.seal
        # A module holding that secret verifies both rows as stored.
        tree = Iomt(3)
        tree.set_leaf(0, Leaf(7, 7, counter_digest(3)))
        state.root = tree.root
        nonce = secrets.token_bytes(32)
        response = TrustedModule(state).verify_container(
            1, nonce, 7, 2, (tree.locate(7)[1], tree.complement_path(0)),
            record=record, acl_proof=(acl.locate(1)[1], acl.complement_path(0)), version=version,
        )
        assert not response.denied
        assert (response.counter, response.max_version, response.requested_version) == (3, 2, 2)
        assert response.content_digest == sha256(b"content")


# The seals of TestSurface's rows under the secret bytes(range(32)), as the
# first layout of the CR and VR bodies computes them.
GOLDEN_CR = "fe6b2d9e531c9f61e6581bd9b4b090f96eae2f9589292d3cec9ce0cfe20321e2"
GOLDEN_VR = "9466d446bde84d4533b629b511fa558715c43d5331ed529c33beb61cbf1bec78"


class TestCertificateFuzzing:
    def test_single_bit_mutations_rejected(self):
        rng = random.Random(99)
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        nonce = secrets.token_bytes(32)

        def answer(user, container_proof, acl_proof, record=repo.record, version=repo.versions[1]):
            return module.verify_container(
                user, nonce, repo.idx, 1, container_proof,
                record=record, acl_proof=acl_proof, version=version,
            )

        # User 1 reads its own leaf, user 2 (no ACL leaf) the leaf enclosing it.
        honest = [(user, repo.container_proof(), repo.acl_proof(user)) for user in (1, 2)]
        assert not answer(*honest[0]).denied and answer(*honest[1]).denied
        # A stored row: a flipped bit in a sealed field or the seal fails its MAC.
        for _ in range(250):
            if rng.randrange(2):
                assert answer(*honest[0], record=mutate_row(rng, repo.record)) is None
            else:
                assert answer(*honest[0], version=mutate_row(rng, repo.versions[1])) is None
        # A proof carries no MAC: a flipped bit shows in the root it folds to.
        for _ in range(250):
            user, container_proof, acl_proof = rng.choice(honest)
            if rng.randrange(2):
                container_proof = mutate_proof(rng, container_proof)
            else:
                acl_proof = mutate_proof(rng, acl_proof)
            assert answer(user, container_proof, acl_proof) is None


class TestSealedRows:
    """Each row type has one seal body: a row is refused as the other type, or unencodable."""

    def test_type_confusion_refused(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        record, version = repo.record, repo.versions[1]
        confused = [
            (version, version),  # a version row passed as record=
            (record, record),  # a container row passed as version=
            (replace(record, seal=version.seal), version),
            (record, replace(version, seal=record.seal)),
        ]
        snapshot = copy.deepcopy(module._state)
        for row, version_row in confused:
            response = module.verify_container(
                1, secrets.token_bytes(32), repo.idx, 1, repo.container_proof(),
                record=row, acl_proof=repo.acl_proof(1), version=version_row,
            )
            assert response is None
        _, leaf, path, _ = repo.bump()
        req = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v2"))
        for row in (version, replace(record, seal=version.seal)):
            assert module.apply_request(req, leaf, path, repo.acl_proof(1), row) is None
        assert module._state == snapshot
        assert repo.verify(1, secrets.token_bytes(32), 1) is not None  # control
        assert repo.modify(1, sha256(b"v2")) is not None

    def test_unencodable_fields_refused(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        record, version = repo.record, repo.versions[1]

        def answer(record, version):
            return module.verify_container(
                1, secrets.token_bytes(32), repo.idx, 1, repo.container_proof(),
                record=record, acl_proof=repo.acl_proof(1), version=version,
            )

        assert answer(record, version) is not None
        snapshot = copy.deepcopy(module._state)
        for bad in ({"idx": 1 << 64}, {"counter": -1}, {"version_count": "1"},
                    {"acl_root": record.acl_root[:31]}, {"seal": None}, {"seal": 42}):
            assert answer(replace(record, **bad), version) is None
        for bad in ({"version": 1 << 64}, {"content_digest": None}, {"seal": "not bytes"}):
            assert answer(record, replace(version, **bad)) is None
        with pytest.raises(TypeError):
            module._state.seal(repo.container_proof())  # no sealed row at all
        assert module._state == snapshot
