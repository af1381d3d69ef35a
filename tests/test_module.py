from __future__ import annotations

import copy
import os
import random
import secrets

import pytest

from conftest import oracle_root
from tcr.iomt import Iomt, Leaf, counter_digest, leaf_digest
from tcr.merkle import ZERO_DIGEST, hmac_sha256, sha256, u64
from tcr.module import (
    CertKind,
    Certificate,
    ModuleState,
    RequestEnvelope,
    RequestKind,
    RvPair,
    StateIntegrityError,
    TrustedModule,
    load_state,
    save_state,
    secret_commitment,
)

KEYS = {1: bytes(range(32)), 2: bytes(range(1, 33)), 3: bytes(range(2, 34))}


def fresh_module() -> TrustedModule:
    return TrustedModule(ModuleState.fresh(dict(KEYS)))


def verification_proof(module: TrustedModule, tree: Iomt, slot: int) -> Certificate:
    leaf = tree.store.get_leaf(slot)
    path = tree.complement_path(slot)
    digest = leaf_digest(leaf)
    return module.certify_node_update(digest, digest, [p[0] for p in path], [p[1] for p in path])


def update_proof(module: TrustedModule, tree: Iomt, slot: int, new_leaf) -> Certificate:
    path = tree.complement_path(slot)
    return module.certify_node_update(
        leaf_digest(tree.store.get_leaf(slot)),
        leaf_digest(new_leaf),
        [p[0] for p in path],
        [p[1] for p in path],
    )


def sign(user: int, kind: RequestKind, idx: int, counter: int, value: bytes) -> RequestEnvelope:
    env = RequestEnvelope(kind, idx, counter, value, user, b"")
    return RequestEnvelope(kind, idx, counter, value, user, hmac_sha256(env.signed_body(), KEYS[user]))


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


class TestNodeUpdate:
    def test_no_op_has_equal_roots(self):
        module = fresh_module()
        tree = random_tree(random.Random(0))
        cert = verification_proof(module, tree, 0)
        node, root, new_node, new_root = cert.values
        assert node == new_node and root == new_root == tree.root
        assert module.certificate_valid(cert)

    def test_edit_matches_oracle(self):
        rng = random.Random(1)
        module = fresh_module()
        tree = random_tree(rng, height=3, fill=8)
        slot, leaf = next(iter(tree.leaves()))
        new_leaf = Leaf(leaf.idx, leaf.next_idx, counter_digest(42))
        cert = update_proof(module, tree, slot, new_leaf)
        edited = dict(tree.leaves())
        edited[slot] = new_leaf
        assert cert.values[1] == tree.root
        assert cert.values[3] == oracle_root(edited, 3)


class TestRecordVerify:
    def test_pair_proves_absence(self):
        module = fresh_module()
        tree = Iomt(3)
        for slot, leaf in enumerate(
            [Leaf(3, 4, counter_digest(1)), Leaf(1, 3, counter_digest(2)),
             Leaf(4, 7, counter_digest(3)), Leaf(7, 1, counter_digest(4))]
        ):
            tree.set_leaf(slot, leaf)
        proof = module.certify_record(
            verification_proof(module, tree, 2), tree.store.get_leaf(2), absent_idx=5
        )
        assert isinstance(proof, RvPair)
        assert proof.absent.values == (5, ZERO_DIGEST, tree.root)
        assert module.certificate_valid(proof)
        # Halves do not verify as standalone certificates.
        assert not module.certificate_valid(proof.existing)

    def test_tampered_leaf_refused(self):
        module = fresh_module()
        tree = random_tree(random.Random(2))
        slot, leaf = next(iter(tree.leaves()))
        nu = verification_proof(module, tree, slot)
        tampered = Leaf(leaf.idx, leaf.next_idx, counter_digest(99))
        assert module.certify_record(nu, tampered) is None

    def test_mutating_node_proof_refused(self):
        module = fresh_module()
        tree = random_tree(random.Random(3))
        slot, leaf = next(iter(tree.leaves()))
        nu = update_proof(module, tree, slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(50)))
        assert module.certify_record(nu, leaf) is None

    def test_non_enclosed_extra_index_yields_single(self):
        module = fresh_module()
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        tree.upsert(9, ZERO_DIGEST)
        slot, leaf = tree.find_leaf(3)
        proof = module.certify_record(verification_proof(module, tree, slot), leaf, absent_idx=9)
        assert isinstance(proof, Certificate)

    def test_every_absent_index_of_random_trees(self):
        rng = random.Random(4)
        module = fresh_module()
        for _ in range(5):
            tree = random_tree(rng, height=3, fill=6)
            present = {leaf.idx for _, leaf in tree.leaves()}
            for candidate in range(0, 40):
                if candidate in present:
                    continue
                found = tree.find_encloser(candidate)
                assert found is not None
                slot, leaf = found
                proof = module.certify_record(
                    verification_proof(module, tree, slot), leaf, absent_idx=candidate
                )
                assert isinstance(proof, RvPair)
                assert proof.absent.values[0] == candidate


class TestRecordUpdate:
    def test_no_op_update(self):
        module = fresh_module()
        tree = random_tree(random.Random(5))
        slot, leaf = next(iter(tree.leaves()))
        cert = module.certify_record_update(update_proof(module, tree, slot, leaf), leaf, leaf.val)
        assert cert is not None
        assert cert.values[2] == cert.values[4]

    def test_counter_increment_matches_oracle(self):
        module = fresh_module()
        tree = Iomt(2)
        leaves = [Leaf(3, 4, counter_digest(1)), Leaf(4, 3, counter_digest(1))]
        for slot, leaf in enumerate(leaves):
            tree.set_leaf(slot, leaf)
        new_leaf = Leaf(3, 4, counter_digest(2))
        ru = module.certify_record_update(update_proof(module, tree, 0, new_leaf), leaves[0], counter_digest(2))
        assert ru is not None
        expected = oracle_root({0: new_leaf, 1: leaves[1]}, 2)
        assert ru.values == (3, counter_digest(1), tree.root, counter_digest(2), expected)

    def test_mismatched_leaf_refused(self):
        module = fresh_module()
        tree = random_tree(random.Random(6))
        slot, leaf = next(iter(tree.leaves()))
        nu = update_proof(module, tree, slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(7)))
        wrong = Leaf(leaf.idx, leaf.next_idx + 1, leaf.val)
        assert module.certify_record_update(nu, wrong, counter_digest(7)) is None


def build_equivalence(module: TrustedModule, tree: Iomt, new_idx: int):
    """Drive the two node proofs exactly the way the service does."""
    plan = tree.placeholder_plan(new_idx)
    if plan.encloser_slot is None:
        path = tree.complement_path(plan.placeholder_slot)
        nu2 = module.certify_node_update(
            ZERO_DIGEST, leaf_digest(plan.placeholder_leaf), [p[0] for p in path], [p[1] for p in path]
        )
        eq = module.certify_root_equivalence(None, nu2, None, new_idx)
    else:
        nu1 = update_proof(module, tree, plan.encloser_slot, plan.updated_encloser)
        tree.set_leaf(plan.encloser_slot, plan.updated_encloser)
        path = tree.complement_path(plan.placeholder_slot)
        nu2 = module.certify_node_update(
            ZERO_DIGEST, leaf_digest(plan.placeholder_leaf), [p[0] for p in path], [p[1] for p in path]
        )
        eq = module.certify_root_equivalence(nu1, nu2, plan.encloser_leaf, new_idx)
    tree.set_leaf(plan.placeholder_slot, plan.placeholder_leaf)
    return plan, eq


class TestRootEquivalence:
    def test_roots_oracle_verified(self):
        module = fresh_module()
        tree = Iomt(3)
        for slot, leaf in enumerate(
            [Leaf(3, 4, counter_digest(1)), Leaf(1, 3, counter_digest(2)),
             Leaf(4, 7, counter_digest(3)), Leaf(7, 1, counter_digest(4))]
        ):
            tree.set_leaf(slot, leaf)
        before = dict(tree.leaves())
        root_before = oracle_root(before, 3)
        _, eq = build_equivalence(module, tree, 5)
        assert eq is not None
        assert eq.values[0] == root_before
        assert eq.values[1] == oracle_root(dict(tree.leaves()), 3)

    def test_swapped_proofs_refused(self):
        module = fresh_module()
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        plan = tree.placeholder_plan(6)
        nu1 = update_proof(module, tree, plan.encloser_slot, plan.updated_encloser)
        tree.set_leaf(plan.encloser_slot, plan.updated_encloser)
        path = tree.complement_path(plan.placeholder_slot)
        nu2 = module.certify_node_update(
            ZERO_DIGEST, leaf_digest(plan.placeholder_leaf), [p[0] for p in path], [p[1] for p in path]
        )
        assert module.certify_root_equivalence(nu2, nu1, plan.encloser_leaf, 6) is None

    def test_non_encloser_refused(self):
        module = fresh_module()
        tree = Iomt(3)
        for slot, leaf in enumerate([Leaf(1, 3, counter_digest(1)), Leaf(3, 1, counter_digest(1))]):
            tree.set_leaf(slot, leaf)
        encloser = Leaf(1, 3, counter_digest(1))
        edited = Leaf(1, 6, counter_digest(1))
        nu1 = update_proof(module, tree, 0, edited)
        tree2 = Iomt(3)
        tree2.set_leaf(0, edited)
        tree2.set_leaf(1, Leaf(3, 1, counter_digest(1)))
        path = tree2.complement_path(2)
        nu2 = module.certify_node_update(
            ZERO_DIGEST, leaf_digest(Leaf(6, 3, ZERO_DIGEST)), [p[0] for p in path], [p[1] for p in path]
        )
        assert module.certify_root_equivalence(nu1, nu2, encloser, 6) is None

    def test_bootstrap_requires_empty_root(self):
        module = fresh_module()
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        # A self-linked "first" leaf proved against a non-empty tree must fail.
        path = tree.complement_path(1)
        nu2 = module.certify_node_update(
            ZERO_DIGEST, leaf_digest(Leaf(9, 9, ZERO_DIGEST)), [p[0] for p in path], [p[1] for p in path]
        )
        assert module.certify_root_equivalence(None, nu2, None, 9) is None


class TestTogglePlaceholder:
    def test_involution(self):
        module = fresh_module()
        tree = Iomt(3)
        _, eq = build_equivalence(module, tree, 9)
        start = module.root
        assert module.toggle_placeholder(eq) == eq.values[1]
        assert module.toggle_placeholder(eq) == start
        assert module.root == start

    def test_advance_and_stale(self):
        module = fresh_module()
        tree = Iomt(3)
        _, eq1 = build_equivalence(module, tree, 9)
        assert module.toggle_placeholder(eq1) == module.root == tree.root
        _, eq2 = build_equivalence(module, tree, 12)
        assert module.toggle_placeholder(eq2) is not None
        # eq1 now references two roots from an old epoch.
        before = module.root
        assert module.toggle_placeholder(eq1) is None
        assert module.root == before

    def test_bad_mac_refused(self):
        module = fresh_module()
        tree = Iomt(3)
        _, eq = build_equivalence(module, tree, 9)
        forged = Certificate(eq.kind, eq.values, bytes(32))
        before = module.root
        assert module.toggle_placeholder(forged) is None
        assert module.root == before


def create_container(module: TrustedModule, tree: Iomt, user: int, idx: int, acl_root: bytes):
    """Full creation flow against an in-memory container tree."""
    plan, eq = build_equivalence(module, tree, idx)
    assert module.toggle_placeholder(eq) is not None
    placeholder = tree.store.get_leaf(plan.placeholder_slot)
    created = Leaf(idx, placeholder.next_idx, counter_digest(1))
    nu = update_proof(module, tree, plan.placeholder_slot, created)
    ru = module.certify_record_update(nu, placeholder, counter_digest(1))
    req = sign(user, RequestKind.ACL, idx, 0, acl_root)
    result = module.apply_request(req, ru)
    if result is not None:
        tree.set_leaf(plan.placeholder_slot, created)
    return plan.placeholder_slot, result


class TestApplyRequest:
    def test_create_on_empty_repository(self):
        module = fresh_module()
        tree = Iomt(3)
        acl_root = leaf_digest(Leaf(1, 1, counter_digest(3)))
        slot, result = create_container(module, tree, 1, 10, acl_root)
        assert result is not None
        assert result.record_cert.values == (10, 1, 0, acl_root)
        assert result.version_cert is None
        assert module.root == tree.root == oracle_root(dict(tree.leaves()), 3)
        req = sign(1, RequestKind.ACL, 10, 0, acl_root)
        assert result.ack == hmac_sha256(req.ack_body(), KEYS[1])

    def test_forged_signature_refused(self):
        module = fresh_module()
        tree = Iomt(3)
        _, eq = build_equivalence(module, tree, 10)
        module.toggle_placeholder(eq)
        slot, leaf = tree.find_leaf(10)
        created = Leaf(10, leaf.next_idx, counter_digest(1))
        ru = module.certify_record_update(update_proof(module, tree, slot, created), leaf, counter_digest(1))
        req = sign(1, RequestKind.ACL, 10, 0, ZERO_DIGEST)
        forged = RequestEnvelope(req.kind, req.idx, req.counter, req.value, req.user_idx, bytes(32))
        before = module.root
        assert module.apply_request(forged, ru) is None
        assert module.root == before

    def test_unknown_user_refused(self):
        module = fresh_module()
        tree = Iomt(3)
        _, eq = build_equivalence(module, tree, 10)
        module.toggle_placeholder(eq)
        slot, leaf = tree.find_leaf(10)
        ru = module.certify_record_update(
            update_proof(module, tree, slot, Leaf(10, leaf.next_idx, counter_digest(1))),
            leaf,
            counter_digest(1),
        )
        env = RequestEnvelope(RequestKind.ACL, 10, 0, ZERO_DIGEST, 99, bytes(32))
        assert module.apply_request(env, ru) is None


def full_setup(module, height: int = 3):
    """One container (idx 10) owned by user 1, updated once by user 1."""
    tree = Iomt(height)
    acl = Iomt(3)
    acl.set_leaf(0, Leaf(1, 1, counter_digest(3)))
    create_container(module, tree, 1, 10, acl.root)
    record = Certificate(CertKind.CR, (10, 1, 0, acl.root), b"")
    return tree, acl


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
        self.record = result.record_cert
        self.version_certs: dict[int, Certificate] = {}

    @property
    def counter(self) -> int:
        return self.record.values[1]

    @property
    def acl_root(self) -> bytes:
        return self.record.values[3]

    def container_proof(self):
        slot, leaf = self.tree.find_leaf(self.idx)
        return self.module.certify_record(
            verification_proof(self.module, self.tree, slot), leaf
        )

    def acl_proof(self, user: int):
        found = self.acl.find_leaf(user)
        if found is not None:
            slot, leaf = found
            return self.module.certify_record(verification_proof(self.module, self.acl, slot), leaf)
        slot, leaf = self.acl.find_encloser(user)
        return self.module.certify_record(
            verification_proof(self.module, self.acl, slot), leaf, absent_idx=user
        )

    def modify(self, user: int, content_digest: bytes, secret=None):
        slot, leaf = self.tree.find_leaf(self.idx)
        new_leaf = Leaf(self.idx, leaf.next_idx, counter_digest(self.counter + 1))
        ru = self.module.certify_record_update(
            update_proof(self.module, self.tree, slot, new_leaf), leaf, new_leaf.val
        )
        req = sign(user, RequestKind.CONTAINER, self.idx, self.counter, content_digest)
        result = self.module.apply_request(
            req, ru, acl_proof=self.acl_proof(user), record=self.record, secret=secret
        )
        if result is not None:
            self.tree.set_leaf(slot, new_leaf)
            self.record = result.record_cert
            self.version_certs[result.record_cert.values[2]] = result.version_cert
        return result

    def set_access(self, requester: int, target: int, level: int):
        requester_proof = self.acl_proof(requester)  # over the pre-edit ACL root
        self.acl.upsert(target, counter_digest(level))
        slot, leaf = self.tree.find_leaf(self.idx)
        new_leaf = Leaf(self.idx, leaf.next_idx, counter_digest(self.counter + 1))
        ru = self.module.certify_record_update(
            update_proof(self.module, self.tree, slot, new_leaf), leaf, new_leaf.val
        )
        req = sign(requester, RequestKind.ACL, self.idx, self.counter, self.acl.root)
        result = self.module.apply_request(
            req, ru, acl_proof=requester_proof, record=self.record
        )
        if result is not None:
            self.tree.set_leaf(slot, new_leaf)
            self.record = result.record_cert
        return result

    def verify(self, user: int, nonce: bytes, requested_version: int, secret=None):
        version_cert = self.version_certs.get(requested_version)
        return self.module.verify_container(
            user,
            nonce,
            requested_version,
            self.container_proof(),
            record=self.record,
            acl_proof=self.acl_proof(user),
            version_cert=version_cert,
            secret=secret,
        )


class TestUpdateFlows:
    def test_content_update_issues_version(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        digest = sha256(b"content")
        result = repo.modify(1, digest)
        assert result is not None
        assert result.record_cert.values == (10, 2, 1, repo.acl_root)
        assert result.version_cert.values == (10, 1, digest)
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
        # Re-sign against the old counter: the record update cannot map to
        # the current root.
        slot, leaf = repo.tree.find_leaf(10)
        old_val = counter_digest(1)
        stale_leaf = Leaf(10, leaf.next_idx, old_val)
        path = repo.tree.complement_path(slot)
        nu = module.certify_node_update(
            leaf_digest(stale_leaf), leaf_digest(Leaf(10, leaf.next_idx, counter_digest(2))),
            [p[0] for p in path], [p[1] for p in path],
        )
        ru = module.certify_record_update(nu, stale_leaf, counter_digest(2))
        req = sign(1, RequestKind.CONTAINER, 10, 1, sha256(b"v1"))
        before = module.root
        assert module.apply_request(req, ru, acl_proof=repo.acl_proof(1), record=repo.record) is None
        assert module.root == before

    def test_acl_update_keeps_version_count(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        result = repo.set_access(1, 2, 2)
        assert result is not None
        assert result.record_cert.values[2] == 1  # version count unchanged
        assert result.version_cert is None

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
        slot, leaf = tree.find_encloser(55)
        pair = module.certify_record(verification_proof(module, tree, slot), leaf, absent_idx=55)
        nonce = secrets.token_bytes(32)
        response = module.verify_container(2, nonce, 0, pair)
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
        slot, leaf = repo.tree.find_encloser(55)
        pair = module.certify_record(verification_proof(module, repo.tree, slot), leaf, absent_idx=55)
        absent = module.verify_container(2, nonce, 1, pair)
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
            1, secrets.token_bytes(32), 1, stale_proof,
            record=repo.record, acl_proof=repo.acl_proof(1),
            version_cert=repo.version_certs[1],
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
        sealed = result.sealed_secret
        assert sealed is not None and sealed != secret and sealed != wrapped

        nonce = secrets.token_bytes(32)
        response = repo.verify(1, nonce, 1, secret=(sealed, commitment))
        assert response is not None and not response.denied
        assert xor(response.sealed_for_user, sha256(commitment + KEYS[1])) == secret
        # The released secret rides outside the tag: the answer is tagged as without it.
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
            sealed[repo.idx] = result.sealed_secret
        assert sealed[5] is not None and sealed[6] is not None
        assert sealed[5] != sealed[6]
        # A seal made for container 5 does not open as container 6's.
        foreign = (sealed[5], secret_commitment(5, secret))
        response = second.verify(1, secrets.token_bytes(32), 1, secret=foreign)
        assert response is not None and not response.denied
        assert response.sealed_for_user is None

    def test_release_needs_read_access(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap(1, repo.idx, repo.counter, secret)
        sealed = repo.modify(1, sha256(b"v1"), secret=(wrapped, commitment)).sealed_secret
        denied = repo.verify(2, secrets.token_bytes(32), 1, secret=(sealed, commitment))
        assert denied is not None and denied.denied
        assert denied.sealed_for_user is None
        assert repo.set_access(1, 2, 1) is not None  # read access
        response = repo.verify(2, secrets.token_bytes(32), 1, secret=(sealed, commitment))
        assert response is not None and not response.denied
        assert xor(response.sealed_for_user, sha256(commitment + KEYS[2])) == secret

    def test_tampered_sealed_secret_refused(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap(1, repo.idx, repo.counter, secret)
        sealed = bytearray(repo.modify(1, sha256(b"v1"), secret=(wrapped, commitment)).sealed_secret)
        sealed[3] ^= 0x40
        response = repo.verify(1, secrets.token_bytes(32), 1, secret=(bytes(sealed), commitment))
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
        slot, leaf = repo.tree.find_leaf(repo.idx)
        new_leaf = Leaf(repo.idx, leaf.next_idx, counter_digest(repo.counter + 1))
        ru = module.certify_record_update(
            update_proof(module, repo.tree, slot, new_leaf), leaf, new_leaf.val
        )
        req = sign(1, RequestKind.ACL, repo.idx, repo.counter, repo.acl_root)
        secret = wrap(1, repo.idx, repo.counter, secrets.token_bytes(32))
        root = module.root
        assert module.apply_request(req, ru, repo.acl_proof(1), repo.record, secret=secret) is None
        assert module.root == root
        assert module.apply_request(req, ru, repo.acl_proof(1), repo.record) is not None


class TestStateConfinement:
    def test_rejected_calls_leave_state_identical(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)

        bad_cert = Certificate(CertKind.EQ, (sha256(b"a"), sha256(b"b")), bytes(32))
        assert module.toggle_placeholder(bad_cert) is None
        env = RequestEnvelope(RequestKind.CONTAINER, 10, 2, sha256(b"x"), 1, bytes(32))
        ru = Certificate(CertKind.RU, (10, counter_digest(2), module.root, counter_digest(3), sha256(b"r")), bytes(32))
        assert module.apply_request(env, ru) is None
        assert module.verify_container(1, secrets.token_bytes(32), 1, bad_cert) is None
        # Sound evidence and signature, but a secret that opens no commitment.
        assert repo.modify(1, sha256(b"v2"), secret=(bytes(32), bytes(32))) is None

        assert module._state == snapshot


class TestSurface:
    def test_public_names_of_the_trusted_module(self):
        # The trusted computing base's surface: grow it only on purpose.
        public = {name for name in dir(TrustedModule) if not name.startswith("_")}
        assert public == {
            "root",
            "certificate_valid",
            "certify_node_update",
            "certify_record",
            "certify_record_update",
            "certify_root_equivalence",
            "toggle_placeholder",
            "apply_request",
            "verify_container",
        }


class TestCertificateFuzzing:
    def test_single_bit_mutations_rejected(self):
        rng = random.Random(99)
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        certs = [repo.record, repo.version_certs[1], repo.container_proof(), repo.acl_proof(1)]
        for _ in range(500):
            cert = rng.choice(certs)
            mutated = mutate_certificate(rng, cert)
            assert not module.certificate_valid(mutated)


def mutate_certificate(rng: random.Random, cert):
    """Flip one bit somewhere in (kind, values, mac)."""
    if isinstance(cert, RvPair):
        if rng.random() < 0.5:
            return RvPair(mutate_certificate(rng, cert.existing), cert.absent)
        return RvPair(cert.existing, mutate_certificate(rng, cert.absent))
    field = rng.randrange(3)
    if field == 0:
        return Certificate(cert.kind ^ (1 << rng.randrange(3)), cert.values, cert.mac)
    if field == 1:
        values = list(cert.values)
        pick = rng.randrange(len(values))
        if isinstance(values[pick], int):
            values[pick] ^= 1 << rng.randrange(64)
            values[pick] &= (1 << 64) - 1
            if values[pick] == cert.values[pick]:
                values[pick] ^= 1
        else:
            raw = bytearray(values[pick])
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            values[pick] = bytes(raw)
        return Certificate(cert.kind, tuple(values), cert.mac)
    mac = bytearray(cert.mac)
    mac[rng.randrange(len(mac))] ^= 1 << rng.randrange(8)
    return Certificate(cert.kind, cert.values, bytes(mac))
