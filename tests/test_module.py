from __future__ import annotations

import ast
import copy
import inspect
import os
import random
import secrets

import pytest

import tcr.module
from conftest import oracle_root
from tcr.iomt import Iomt, Leaf, counter_digest, leaf_digest
from tcr.merkle import ZERO_DIGEST, hmac_sha256, sha256, u64
from tcr.module import (
    CertKind,
    Certificate,
    ModuleState,
    RequestEnvelope,
    RequestKind,
    StateIntegrityError,
    TrustedModule,
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
    def test_pair_proves_absence(self):
        module = fresh_module()
        tree = Iomt(3)
        for slot, leaf in enumerate(
            [Leaf(3, 4, counter_digest(1)), Leaf(1, 3, counter_digest(2)),
             Leaf(4, 7, counter_digest(3)), Leaf(7, 1, counter_digest(4))]
        ):
            tree.set_leaf(slot, leaf)
        leaf = Leaf(4, 7, counter_digest(3))
        proof = module.certify_record(leaf, tree.complement_path(2), absent_idx=5)
        assert isinstance(proof, Certificate) and proof.kind == CertKind.RV
        assert proof.values == (5, ZERO_DIGEST, tree.root)
        assert module.certificate_valid(proof)
        # Without an absent index, the same leaf proves only itself.
        own = module.certify_record(leaf, tree.complement_path(2))
        assert own.values == (4, counter_digest(3), tree.root)

    def test_tampered_leaf_refused(self):
        # The RV for a leaf the store does not hold names a root the module refuses.
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        slot, leaf = repo.tree.find_leaf(repo.idx)
        tampered = Leaf(leaf.idx, leaf.next_idx, counter_digest(99))
        proof = module.certify_record(tampered, repo.tree.complement_path(slot))
        snapshot = copy.deepcopy(module._state)
        response = module.verify_container(
            1, secrets.token_bytes(32), 1, proof,
            record=repo.record, acl_proof=repo.acl_proof(1), version_cert=repo.version_certs[1],
        )
        assert response is None
        assert module._state == snapshot
        assert repo.verify(1, secrets.token_bytes(32), 1) is not None  # the true leaf verifies

    def test_non_enclosed_extra_index_yields_single(self):
        module = fresh_module()
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        tree.upsert(9, ZERO_DIGEST)
        slot, leaf = tree.find_leaf(3)
        proof = module.certify_record(leaf, tree.complement_path(slot), absent_idx=9)
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
                path = tree.complement_path(slot)
                proof = module.certify_record(leaf, path, absent_idx=candidate)
                assert isinstance(proof, Certificate)
                assert proof.values == (candidate, ZERO_DIGEST, tree.root)
                assert module.certificate_valid(proof)


class TestRecordUpdate:
    def test_no_op_update(self):
        module = fresh_module()
        tree = random_tree(random.Random(5))
        slot, leaf = next(iter(tree.leaves()))
        cert = module.certify_record_update(leaf, leaf.val, tree.complement_path(slot))
        assert cert.values[2] == cert.values[4] == tree.root == oracle_root(dict(tree.leaves()), 3)

    def test_counter_increment_matches_oracle(self):
        module = fresh_module()
        tree = Iomt(2)
        leaves = [Leaf(3, 4, counter_digest(1)), Leaf(4, 3, counter_digest(1))]
        for slot, leaf in enumerate(leaves):
            tree.set_leaf(slot, leaf)
        new_leaf = Leaf(3, 4, counter_digest(2))
        ru = module.certify_record_update(leaves[0], counter_digest(2), tree.complement_path(0))
        expected = oracle_root({0: new_leaf, 1: leaves[1]}, 2)
        assert ru.values == (3, counter_digest(1), tree.root, counter_digest(2), expected)

    def test_mismatched_leaf_refused(self):
        # The RU for a leaf the store does not hold starts from a root the module refuses.
        module = fresh_module()
        repo = ContainerFixture(module)
        slot, leaf = repo.tree.find_leaf(repo.idx)
        wrong = Leaf(leaf.idx, leaf.next_idx + 1, leaf.val)
        new_val = counter_digest(repo.counter + 1)
        ru = module.certify_record_update(wrong, new_val, repo.tree.complement_path(slot))
        req = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v1"))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, ru, repo.acl_proof(1), repo.record) is None
        assert module._state == snapshot
        assert repo.modify(1, sha256(b"v1")) is not None  # the true leaf is accepted


def build_equivalence(module: TrustedModule, tree: Iomt, new_idx: int):
    """Write the placeholder for ``new_idx`` the way the service does; the EQ for it."""
    plan = tree.placeholder_plan(new_idx)
    enc_path = None
    if plan.encloser_slot is not None:
        enc_path = tree.set_leaf(plan.encloser_slot, plan.updated_encloser)
    path = tree.complement_path(plan.placeholder_slot)
    eq = module.certify_root_equivalence(plan.encloser_leaf, enc_path, new_idx, path)
    tree.set_leaf(plan.placeholder_slot, plan.placeholder_leaf, path)
    return plan, eq


def creation(module: TrustedModule, tree: Iomt, user: int, idx: int, acl_root: bytes):
    """The signed request, EQ and RU of a creation, with its placeholder written to ``tree``."""
    plan, eq = build_equivalence(module, tree, idx)
    ru = module.certify_record_update(
        plan.placeholder_leaf, counter_digest(1), tree.complement_path(plan.placeholder_slot)
    )
    return plan, sign(user, RequestKind.ACL, idx, 0, acl_root), eq, ru


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
        enc_path = tree.set_leaf(plan.encloser_slot, plan.updated_encloser)
        path = tree.complement_path(plan.placeholder_slot)
        assert module.certify_root_equivalence(plan.encloser_leaf, path, 6, enc_path) is None
        assert module.certify_root_equivalence(plan.encloser_leaf, enc_path, 6, path) is not None

    def test_non_encloser_refused(self):
        module = fresh_module()
        tree = Iomt(3)
        for slot, leaf in enumerate([Leaf(1, 3, counter_digest(1)), Leaf(3, 1, counter_digest(1))]):
            tree.set_leaf(slot, leaf)
        encloser = Leaf(1, 3, counter_digest(1))
        edited = Leaf(1, 6, counter_digest(1))
        enc_path = tree.complement_path(0)
        tree2 = Iomt(3)
        tree2.set_leaf(0, edited)
        tree2.set_leaf(1, Leaf(3, 1, counter_digest(1)))
        path = tree2.complement_path(2)
        assert module.certify_root_equivalence(encloser, enc_path, 6, path) is None

    def test_bootstrap_requires_empty_root(self):
        module = fresh_module()
        tree = Iomt(3)
        tree.upsert(3, ZERO_DIGEST)
        # A self-linked "first" leaf proved against a non-empty tree must fail.
        assert module.certify_root_equivalence(None, None, 9, tree.complement_path(1)) is None
        empty_path = Iomt(3).complement_path(0)
        assert module.certify_root_equivalence(None, None, 9, empty_path) is not None


def create_container(module: TrustedModule, tree: Iomt, user: int, idx: int, acl_root: bytes):
    """Full creation flow against an in-memory container tree."""
    plan, req, eq, ru = creation(module, tree, user, idx, acl_root)
    result = module.apply_request(req, ru, equivalence=eq)
    if result is not None:
        created = Leaf(idx, plan.placeholder_leaf.next_idx, counter_digest(1))
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
        _, req, eq, ru = creation(module, Iomt(3), 1, 10, ZERO_DIGEST)
        forged = RequestEnvelope(req.kind, req.idx, req.counter, req.value, req.user_idx, bytes(32))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(forged, ru, equivalence=eq) is None
        assert module._state == snapshot

    def test_unknown_user_refused(self):
        module = fresh_module()
        _, _, eq, ru = creation(module, Iomt(3), 1, 10, ZERO_DIGEST)
        env = RequestEnvelope(RequestKind.ACL, 10, 0, ZERO_DIGEST, 99, bytes(32))
        assert module.apply_request(env, ru, equivalence=eq) is None

    def test_equivalence_comes_with_a_creation_only(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        shadow = Iomt.from_leaves(3, repo.tree.leaves())
        _, req, eq, ru = creation(module, shadow, 1, 12, ZERO_DIGEST)
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, ru) is None  # a creation needs its equivalence
        _, _, bump = repo.bump()
        modify = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v1"))
        assert module.apply_request(
            modify, bump, acl_proof=repo.acl_proof(1), record=repo.record, equivalence=eq
        ) is None
        assert module._state == snapshot
        assert module.apply_request(req, ru, equivalence=eq) is not None


class TestTogglePlaceholder:
    """A creation's EQ toggles its placeholder into the root, inside ``apply_request`` only."""

    def test_advance_and_stale(self):
        module = fresh_module()
        tree = Iomt(3)
        assert create_container(module, tree, 1, 9, ZERO_DIGEST)[1] is not None
        shadow = Iomt.from_leaves(3, tree.leaves())
        _, req, eq, ru = creation(module, shadow, 1, 12, ZERO_DIGEST)
        # Control: a second module at the same root accepts the very same evidence.
        twin = TrustedModule(copy.deepcopy(module._state))
        assert twin.apply_request(req, ru, equivalence=eq) is not None
        assert create_container(module, tree, 1, 15, ZERO_DIGEST)[1] is not None
        # eq now starts from a root of an old epoch.
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, ru, equivalence=eq) is None
        assert module._state == snapshot

    def test_bad_mac_refused(self):
        module = fresh_module()
        _, req, eq, ru = creation(module, Iomt(3), 1, 9, ZERO_DIGEST)
        forged = Certificate(eq.kind, eq.values, bytes(32))
        snapshot = copy.deepcopy(module._state)
        assert module.apply_request(req, ru, equivalence=forged) is None
        assert module._state == snapshot
        assert module.apply_request(req, ru, equivalence=eq) is not None


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
        return self.module.certify_record(leaf, self.tree.complement_path(slot))

    def acl_proof(self, user: int):
        found = self.acl.find_leaf(user)
        if found is not None:
            slot, leaf = found
            return self.module.certify_record(leaf, self.acl.complement_path(slot))
        slot, leaf = self.acl.find_encloser(user)
        return self.module.certify_record(leaf, self.acl.complement_path(slot), absent_idx=user)

    def bump(self):
        """The container's slot, its counter-bumped leaf, and the RU for that edit."""
        slot, leaf = self.tree.find_leaf(self.idx)
        new_leaf = Leaf(self.idx, leaf.next_idx, counter_digest(self.counter + 1))
        ru = self.module.certify_record_update(leaf, new_leaf.val, self.tree.complement_path(slot))
        return slot, new_leaf, ru

    def modify(self, user: int, content_digest: bytes, secret=None):
        slot, new_leaf, ru = self.bump()
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
        slot, new_leaf, ru = self.bump()
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
        ru = module.certify_record_update(
            stale_leaf, counter_digest(2), repo.tree.complement_path(slot)
        )
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
        pair = module.certify_record(leaf, tree.complement_path(slot), absent_idx=55)
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
        pair = module.certify_record(leaf, repo.tree.complement_path(slot), absent_idx=55)
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
        _, _, ru = repo.bump()
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
        env = RequestEnvelope(RequestKind.CONTAINER, 10, 2, sha256(b"x"), 1, bytes(32))
        ru = Certificate(CertKind.RU, (10, counter_digest(2), module.root, counter_digest(3), sha256(b"r")), bytes(32))
        assert module.apply_request(env, ru) is None
        create = sign(1, RequestKind.ACL, 11, 0, repo.acl_root)
        assert module.apply_request(create, ru, equivalence=bad_cert) is None
        assert module.verify_container(1, secrets.token_bytes(32), 1, bad_cert) is None
        # Sound evidence and signature, but a secret that opens no commitment.
        assert repo.modify(1, sha256(b"v2"), secret=(bytes(32), bytes(32))) is None

        assert module._state == snapshot


class TestAbsenceForm:
    """An absence RV has the shape of a placeholder's RV; only its root says which tree."""

    def test_acl_absence_refused_as_container_proof(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        acl_absence = repo.acl_proof(2)  # user 2 has no ACL leaf
        assert acl_absence.values == (2, ZERO_DIGEST, repo.acl_root)
        nonce = secrets.token_bytes(32)
        snapshot = copy.deepcopy(module._state)
        assert module.verify_container(2, nonce, 1, acl_absence) is None
        assert module._state == snapshot
        # Control: the container tree's own absence RV for index 2 is a denial.
        slot, leaf = repo.tree.find_encloser(2)
        absent = module.certify_record(leaf, repo.tree.complement_path(slot), absent_idx=2)
        assert module.verify_container(2, nonce, 1, absent).denied

    def test_container_absence_refused_as_acl_proof(self):
        module = fresh_module()
        repo = ContainerFixture(module)
        repo.modify(1, sha256(b"v1"))
        slot, leaf = repo.tree.find_encloser(1)  # no container has index 1
        absence = module.certify_record(leaf, repo.tree.complement_path(slot), absent_idx=1)
        assert absence.values == (1, ZERO_DIGEST, module.root)
        snapshot = copy.deepcopy(module._state)
        response = module.verify_container(
            1, secrets.token_bytes(32), 1, repo.container_proof(),
            record=repo.record, acl_proof=absence, version_cert=repo.version_certs[1],
        )
        assert response is None  # not even a denial: the RV proves another root
        assert module._state == snapshot
        _, _, ru = repo.bump()
        req = sign(1, RequestKind.CONTAINER, repo.idx, repo.counter, sha256(b"v2"))
        assert module.apply_request(req, ru, acl_proof=absence, record=repo.record) is None
        assert module._state == snapshot
        # Control: the same request with the ACL tree's own RV is accepted.
        accepted = module.apply_request(req, ru, acl_proof=repo.acl_proof(1), record=repo.record)
        assert accepted is not None

    def test_enclosed_and_empty_tree_absence_share_one_form(self):
        module = fresh_module()
        empty = Iomt(3)
        from_empty = module.certify_record(None, empty.complement_path(0), absent_idx=5)
        tree = Iomt(3)
        tree.upsert(3, counter_digest(1))
        tree.upsert(9, counter_digest(2))
        slot, leaf = tree.find_encloser(5)
        from_leaf = module.certify_record(leaf, tree.complement_path(slot), absent_idx=5)
        for proof, root in ((from_empty, ZERO_DIGEST), (from_leaf, tree.root)):
            assert type(proof) is Certificate and proof.kind == CertKind.RV
            assert proof.values == (5, ZERO_DIGEST, root)
            assert module.certificate_valid(proof)
        assert [type(v) for v in from_empty.values] == [type(v) for v in from_leaf.values]
        assert len(from_empty.mac) == len(from_leaf.mac)


class TestSurface:
    def test_names_defined_by_the_module(self):
        # Imports aside, every public name tcr.module defines; an absence
        # proof is an RV certificate, so no second proof type belongs here.
        defined = set()
        for node in ast.parse(inspect.getsource(tcr.module)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        assert {name for name in defined if not name.startswith("_")} == {
            "CERT_SCHEMAS",
            "CertKind",
            "Certificate",
            "ComplementPath",
            "ModuleState",
            "RequestEnvelope",
            "RequestKind",
            "StateIntegrityError",
            "TrustedModule",
            "UpdateResult",
            "VerifyResponse",
            "load_state",
            "save_state",
            "secret_commitment",
        }

    def test_public_names_of_the_trusted_module(self):
        # The trusted computing base's surface: grow it only on purpose.
        public = {name for name in dir(TrustedModule) if not name.startswith("_")}
        assert public == {
            "root",
            "certificate_valid",
            "certify_record",
            "certify_record_update",
            "certify_root_equivalence",
            "apply_request",
            "verify_container",
        }

    def test_certificate_kind_numbers_are_pinned(self):
        # The kind byte is under the MAC of every sealed record at rest, so a
        # renumbering would silently invalidate every existing store.
        assert {kind.name: int(kind) for kind in CertKind} == {
            "RV": 2, "RU": 3, "EQ": 4, "CR": 5, "VR": 6,
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
