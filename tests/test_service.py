from __future__ import annotations

import copy
import dataclasses
import functools
import secrets

import pytest
from hypothesis import example, given, settings, strategies as st

import tcr.storage
from conftest import acl_hints, attested_acl_root, stored_files
from tcr.client import (
    UserCredential,
    Verdict,
    check_info_response,
    predicted_acl_root,
    wrap_secret,
    xor_blobs,
    xor_keystream,
)
from tcr.iomt import Iomt, Leaf, TreeFullError, counter_digest
from tcr.merkle import ZERO_DIGEST, sha256
from tcr.module import ModuleState, RequestEnvelope, RequestKind, TrustedModule
from tcr.service import CACHE_ENTRIES, STEPS, ProtocolError, Service, StepClock
from tcr.storage import ACL_HEIGHT, BlobSet, Storage, bulk_prepopulate, content_digest

BLOBS = BlobSet(b"layer-bytes" * 200, b"FROM base\n", b"services: {app: {}}\n")


def signed_create(cred: UserCredential, idx: int) -> RequestEnvelope:
    return cred.sign_request(RequestKind.ACL, idx, 0, cred.initial_acl_root())


def signed_modify(cred: UserCredential, idx: int, counter: int, blobs: BlobSet = BLOBS,
                  commitment: bytes = ZERO_DIGEST) -> RequestEnvelope:
    digest = content_digest(blobs.hashes(), commitment)
    return cred.sign_request(RequestKind.CONTAINER, idx, counter, digest)


def dump_store(storage) -> list:
    tables = ("nodes", "leaves", "acl_leaves", "containers", "versions")
    out = []
    for table in tables:
        out.append(storage._conn.execute(f"SELECT * FROM {table} ORDER BY 1, 2").fetchall())
    return out


def foreign_creation(service, cred, idx):
    """Creation of ``idx`` through the module alone, on an in-memory copy of the store's tree.

    Returns the call that makes the module accept it, which moves the sealed
    root while the store never holds the container, and the copy with the
    container in it.
    """
    module = service.module
    shadow = Iomt.from_leaves(service.height, service.container_tree().leaves())
    leaf, path, slot_path = shadow.insert(idx, counter_digest(1), shadow.locate(idx))
    accept = functools.partial(
        module.apply_request, signed_create(cred, idx), leaf, path, slot_path=slot_path
    )
    return accept, shadow


class MovingClock(StepClock):
    """A :class:`StepClock` that runs ``action`` once, as step ``label`` begins."""

    def __init__(self, label, action) -> None:
        super().__init__()
        self.label, self.action = label, action

    def step(self, label):
        if label == self.label and self.action is not None:
            action, self.action = self.action, None
            action()
        return super().step(label)


class ModuleSpy:
    """Stands in for the service's module and records each method looked up on it."""

    def __init__(self, module: TrustedModule) -> None:
        self.module, self.calls = module, []

    def __getattr__(self, name):
        attr = getattr(self.module, name)
        if callable(attr):  # reading the public root is no call
            self.calls.append(name)
        return attr


class TestCreate:
    def test_create_and_ack(self, service, credentials):
        cred = credentials[1]
        env = signed_create(cred, 7)
        result = service.handle_create(env)
        assert result is not None
        assert cred.verify_ack(env, result.ack)
        record = result.record
        assert record == service.storage.record_get(7)
        assert (record.idx, record.counter, record.version_count, record.acl_root) == (
            7, 1, 0, cred.initial_acl_root()
        )
        assert service.module.root == service.container_tree().root

    def test_duplicate_create_rejected(self, service, credentials, monkeypatch):
        cred = credentials[1]
        assert service.handle_create(signed_create(cred, 7)) is not None
        root = service.module.root
        before = dump_store(service.storage)
        spy = ModuleSpy(service.module)
        monkeypatch.setattr(service, "module", spy)
        assert service.handle_create(signed_create(cred, 7)) is None
        assert spy.calls == []  # refused before any module call
        assert spy.module.root == root
        assert dump_store(service.storage) == before

    def test_root_moved_after_the_equivalence_refuses_create(self, service, credentials):
        # Once the service has read the equivalence evidence (its
        # eq_certificate step) and before it asks the module (root_update),
        # the module alone accepts a creation of the same index 9 from elsewhere.
        cred = credentials[1]
        assert service.handle_create(signed_create(cred, 7)) is not None
        module = service.module
        accept_foreign, _ = foreign_creation(service, cred, 9)
        moved = []

        def move():
            assert accept_foreign() is not None
            moved.append(copy.deepcopy(module._state))

        before = dump_store(service.storage)
        clock = MovingClock("root_update", move)
        assert service.handle_create(signed_create(cred, 9), clock=clock) is None
        assert len(moved) == 1 and module._state == moved[0]  # not moved again
        assert dump_store(service.storage) == before

    def test_refused_create_makes_one_module_call(self, service, credentials, monkeypatch):
        cred = credentials[1]
        assert service.handle_create(signed_create(cred, 7)) is not None
        forged = UserCredential(1, secrets.token_bytes(32))
        snapshot = copy.deepcopy(service.module._state)
        before = dump_store(service.storage)
        spy = ModuleSpy(service.module)
        monkeypatch.setattr(service, "module", spy)
        assert service.handle_create(signed_create(forged, 8)) is None
        assert spy.calls == ["apply_request"]
        assert spy.module._state == snapshot
        assert dump_store(service.storage) == before

    def test_forged_signature_fails_closed(self, service, credentials):
        cred = credentials[1]
        env = signed_create(cred, 7)
        forged = RequestEnvelope(env.kind, env.idx, env.counter, env.value, env.user_idx, bytes(32))
        before = dump_store(service.storage)
        root = service.module.root
        assert service.handle_create(forged) is None
        assert dump_store(service.storage) == before
        assert service.module.root == root

    def test_wrong_acl_root_persists_nothing(self, service, credentials):
        cred = credentials[1]
        assert service.handle_create(signed_create(cred, 7)) is not None
        before = dump_store(service.storage)
        env = cred.sign_request(RequestKind.ACL, 8, 0, sha256(b"not the initial ACL root"))
        with pytest.raises(ProtocolError):
            service.handle_create(env)
        assert dump_store(service.storage) == before
        assert service.module.root == service.container_tree().root
        assert service.handle_create(signed_create(cred, 8)) is not None

    def test_second_container_uses_encloser(self, service, credentials):
        cred = credentials[1]
        assert service.handle_create(signed_create(cred, 7)) is not None
        assert service.handle_create(signed_create(cred, 3)) is not None
        leaves = {leaf.idx: leaf for _, leaf in service.container_tree().leaves()}
        assert leaves[3].next_idx == 7
        assert leaves[7].next_idx == 3


class TestWriteModuleCalls:
    """A write makes one module call, cold cache or warm: the module reads the ACL proof."""

    def test_create_modify_and_acl_set(self, service, credentials, monkeypatch):
        cred = credentials[1]
        spy = ModuleSpy(service.module)
        monkeypatch.setattr(service, "module", spy)

        def calls(handler, *args):
            spy.calls.clear()
            assert handler(*args) is not None
            return spy.calls

        assert calls(service.handle_create, signed_create(cred, 7)) == ["apply_request"]
        cold = calls(service.handle_modify, signed_modify(cred, 7, 1), BLOBS)
        assert cold == ["apply_request"]
        assert calls(service.handle_modify, signed_modify(cred, 7, 2), BLOBS) == ["apply_request"]
        # The grant reads user 1 under the ACL root the modifies read it under.
        root = predicted_acl_root(
            acl_hints(service, 7), 2, 1, acl_root=attested_acl_root(service, 7)
        )
        grant = cred.sign_request(RequestKind.ACL, 7, 3, root)
        assert calls(service.handle_acl_set, grant, 2, 1) == ["apply_request"]
        # The grant moved the ACL root, so the next proof is read afresh.
        root = predicted_acl_root(
            acl_hints(service, 7), 2, 2, acl_root=attested_acl_root(service, 7)
        )
        regrant = cred.sign_request(RequestKind.ACL, 7, 4, root)
        assert calls(service.handle_acl_set, regrant, 2, 2) == ["apply_request"]


class TestQueryModuleCalls:
    """A query makes one module call, cold cache or warm: the module reads every proof."""

    def test_info_fetch_and_denial(self, service, credentials, monkeypatch):
        cred = credentials[1]
        assert service.handle_create(signed_create(cred, 7)) is not None
        assert service.handle_modify(signed_modify(cred, 7, 1), BLOBS) is not None
        spy = ModuleSpy(service.module)
        monkeypatch.setattr(service, "module", spy)
        queries = {
            "info": lambda: service.handle_info(7, 0, secrets.token_bytes(32), 1),
            "fetch": lambda: service.handle_fetch(7, 0, 1, nonce=secrets.token_bytes(32)),
            "no access": lambda: service.handle_info(7, 0, secrets.token_bytes(32), 2),
            "absent": lambda: service.handle_fetch(55, 0, 2, nonce=secrets.token_bytes(32)),
        }
        for name, query in queries.items():
            for cache in ("cold", "warm"):
                spy.calls.clear()
                denied = query().response.denied
                assert denied == (name in ("no access", "absent"))
                assert spy.calls == ["verify_container"], (name, cache)


@pytest.mark.parametrize("height", [63, 64, -1])
def test_a_height_the_store_cannot_address_is_refused(storage, module, height):
    with pytest.raises(ValueError, match="height -?[0-9]+ is outside 0..62$"):
        Service(storage, module, height)


def test_the_tallest_addressable_trees_are_served(storage, module, credentials):
    service = Service(storage, module, 62)
    assert service.handle_create(signed_create(credentials[1], (1 << 64) - 1)) is not None


class TestModify:
    def test_new_version(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        env = signed_modify(cred, 7, 1)
        result = service.handle_modify(env, BLOBS)
        assert result is not None and result.version.version == 1
        assert cred.verify_ack(env, result.ack)
        row = service.storage.version_get(7, 1)
        assert row.content_digest == env.value
        assert service.storage.blob_get(row.hashes) == BLOBS

    def test_each_blob_is_hashed_once(self, service, credentials, monkeypatch):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        env = signed_modify(cred, 7, 1)
        hashed = []

        def counted(data: bytes) -> bytes:
            hashed.append(bytes(data))
            return sha256(data)

        monkeypatch.setattr(tcr.storage, "sha256", counted)
        assert service.handle_modify(env, BLOBS) is not None
        assert [blob for blob in hashed if blob in dataclasses.astuple(BLOBS)] == list(
            dataclasses.astuple(BLOBS)
        )

    def test_unknown_container_rejected(self, service, credentials):
        assert service.handle_modify(signed_modify(credentials[1], 9, 1), BLOBS) is None

    def test_signature_content_mismatch_is_protocol_error(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        env = signed_modify(cred, 7, 1)
        other = BlobSet(b"different", BLOBS.build, BLOBS.compose)
        with pytest.raises(ProtocolError):
            service.handle_modify(env, other)

    def test_rejected_modify_persists_nothing(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        before = dump_store(service.storage)
        root = service.module.root
        stale = signed_modify(cred, 7, 5)  # wrong counter
        assert service.handle_modify(stale, BLOBS) is None
        assert dump_store(service.storage) == before
        assert service.module.root == root

    def test_stale_counter_modify_is_refused_before_its_content(self, service, credentials,
                                                               monkeypatch):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        stale = signed_modify(cred, 7, 2)  # the leaf holds counter 1
        monkeypatch.setattr(service.module, "apply_request", None)  # neither is reached
        monkeypatch.setattr(BlobSet, "hashes", None)
        assert service.handle_modify(stale, BLOBS) is None
        assert stored_files(service.storage) == []

    def test_encrypted_modify_stores_sealed_secret(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap_secret(cred, secret, 7, 1)
        cipher = xor_blobs(secret, BLOBS)
        env = signed_modify(cred, 7, 1, cipher, commitment)
        result = service.handle_modify(env, cipher, wrapped_secret=wrapped, secret_commitment=commitment)
        assert result is not None
        row = service.storage.version_get(7, 1)
        assert row.wrapped_secret not in (ZERO_DIGEST, secret, wrapped)
        assert service.storage.blob_get(row.hashes).image != BLOBS.image

    def test_encrypted_modify_signed_without_the_cipher_tag_is_refused(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        before = dump_store(service.storage)
        root = service.module.root
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap_secret(cred, secret, 7, 1)
        cipher = xor_blobs(secret, BLOBS)
        untagged = sha256(b"".join(cipher.hashes()) + commitment)  # the digest before CIPHER_ID
        env = cred.sign_request(RequestKind.CONTAINER, 7, 1, untagged)
        with pytest.raises(ProtocolError, match="does not cover the supplied content"):
            service.handle_modify(env, cipher, wrapped_secret=wrapped, secret_commitment=commitment)
        assert dump_store(service.storage) == before
        assert service.module.root == root


class TestAclSet:
    def grant(self, service, credentials, requester, target, level, counter, clock=None):
        new_root = predicted_acl_root(
            acl_hints(service, 7), target, level, acl_root=attested_acl_root(service, 7)
        )
        env = credentials[requester].sign_request(RequestKind.ACL, 7, counter, new_root)
        return service.handle_acl_set(env, target, level, clock=clock)

    def test_each_handler_records_the_steps_it_declares(self, service, credentials):
        # Accepted, a handler records every label of STEPS[op] in order;
        # refused, a prefix of them.
        cred = credentials[1]

        def steps(op, handle, *args, accepted, **kwargs):
            clock = StepClock()
            result = handle(*args, clock=clock, **kwargs)
            if op in ("info", "fetch"):
                assert result.response.denied != accepted
            else:
                assert (result is not None) == accepted
            recorded = tuple(clock.steps)
            assert recorded == (STEPS[op] if accepted else STEPS[op][: len(recorded)]), op

        forged = dataclasses.replace(signed_create(cred, 7), sig=bytes(32))
        steps("create", service.handle_create, forged, accepted=False)
        steps("create", service.handle_create, signed_create(cred, 7), accepted=True)
        forged = dataclasses.replace(signed_modify(cred, 7, 1), sig=bytes(32))
        steps("modify", service.handle_modify, forged, BLOBS, accepted=False)
        steps("modify", service.handle_modify, signed_modify(cred, 7, 1), BLOBS, accepted=True)
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap_secret(cred, secret, 7, 2)
        cipher = xor_blobs(secret, BLOBS)
        steps(
            "modify", service.handle_modify, signed_modify(cred, 7, 2, cipher, commitment), cipher,
            wrapped_secret=wrapped, secret_commitment=commitment, accepted=True,
        )

        def grant(requester, clock):
            return self.grant(service, credentials, requester, 2, 1, 3, clock=clock)

        steps("acl_set", grant, 2, accepted=False)  # user 2 holds no level yet
        steps("acl_set", grant, 1, accepted=True)
        for idx, accepted in ((8, False), (7, True)):  # 8 is absent: a denial
            steps("info", service.handle_info, idx, 0, secrets.token_bytes(32), 1,
                  accepted=accepted)
            for version in (0, 1):  # the encrypted version 2, then the plain one
                steps("fetch", service.handle_fetch, idx, version, 1,
                      nonce=secrets.token_bytes(32), accepted=accepted)

    def test_owner_grants_and_user_queries(self, service, credentials):
        service.handle_create(signed_create(credentials[1], 7))
        service.handle_modify(signed_modify(credentials[1], 7, 1), BLOBS)
        assert self.grant(service, credentials, 1, 2, 1, 2) is not None
        nonce = secrets.token_bytes(32)
        info = service.handle_info(7, 1, nonce, 2)
        assert check_info_response(credentials[2], info.response, nonce, 7) == Verdict.VERIFIED

    def test_level_two_cannot_administer(self, service, credentials):
        service.handle_create(signed_create(credentials[1], 7))
        assert self.grant(service, credentials, 1, 2, 2, 1) is not None
        assert self.grant(service, credentials, 2, 3, 1, 2) is None

    def test_revoked_user_gets_denial(self, service, credentials):
        service.handle_create(signed_create(credentials[1], 7))
        service.handle_modify(signed_modify(credentials[1], 7, 1), BLOBS)
        assert self.grant(service, credentials, 1, 2, 1, 2) is not None
        assert self.grant(service, credentials, 1, 2, 0, 3) is not None
        nonce = secrets.token_bytes(32)
        info = service.handle_info(7, 1, nonce, 2)
        assert check_info_response(credentials[2], info.response, nonce, 7) == Verdict.DENIED

    def test_stale_view_is_protocol_error(self, service, credentials):
        service.handle_create(signed_create(credentials[1], 7))
        env = credentials[1].sign_request(RequestKind.ACL, 7, 1, sha256(b"wrong root"))
        with pytest.raises(ProtocolError):
            service.handle_acl_set(env, 2, 1)


OWNER = UserCredential(1, bytes(range(32)))


@settings(max_examples=40, deadline=None)
@example(grants=[(2, 1), (3, 2), (2, 3), (4, 0), (5, 1)])  # re-grants and a revocation
@given(st.lists(st.tuples(st.integers(2, 9), st.integers(0, 3)), min_size=1, max_size=8))
def test_predicted_acl_root_is_the_stored_root(tmp_path_factory, grants):
    """Re-grants and new grants alike: the client predicts what the service stores."""
    storage = Storage(":memory:", tmp_path_factory.mktemp("blobs"))
    module = TrustedModule(ModuleState.fresh({1: OWNER.key}))
    service = Service(storage, module, height=3)
    try:
        assert service.handle_create(signed_create(OWNER, 7)) is not None
        for counter, (target, level) in enumerate(grants, start=1):
            hints = acl_hints(service, 7)
            new_root = predicted_acl_root(
                hints, target, level, acl_root=attested_acl_root(service, 7)
            )
            env = OWNER.sign_request(RequestKind.ACL, 7, counter, new_root)
            result = service.handle_acl_set(env, target, level)
            assert result is not None and OWNER.verify_ack(env, result.ack)
            assert service.acl_tree(7).root == new_root == result.record.acl_root
            assert module.root == service.container_tree().root
    finally:
        storage.close()


def test_a_grant_past_a_full_acl_is_refused(tmp_path):
    """The client and the service alike refuse a new user once all 2^8 ACL slots are held."""
    storage = Storage(":memory:", tmp_path / "blobs")
    module = TrustedModule(ModuleState.fresh({1: OWNER.key}))
    service = Service(storage, module, height=3)
    try:
        assert service.handle_create(signed_create(OWNER, 7)) is not None
        for target in range(2, (1 << ACL_HEIGHT) + 1):
            grant(service, OWNER, 7, target, 1)
        hints = acl_hints(service, 7)
        assert len(hints["acl"]) == 1 << ACL_HEIGHT
        with pytest.raises(TreeFullError):
            predicted_acl_root(hints, 999, 1, acl_root=attested_acl_root(service, 7))
        root = module.root
        counter = storage.record_get(7).counter
        env = OWNER.sign_request(RequestKind.ACL, 7, counter, service.acl_tree(7).root)
        with pytest.raises(ProtocolError):
            service.handle_acl_set(env, 999, 1)
        assert module.root == root == service.container_tree().root
        assert acl_hints(service, 7) == hints
    finally:
        storage.close()


class TestInfo:
    def test_absent_index_denial(self, service, credentials):
        service.handle_create(signed_create(credentials[1], 7))
        nonce = secrets.token_bytes(32)
        info = service.handle_info(55, 0, nonce, 2)
        assert info.response.denied
        assert info.hints is None
        assert check_info_response(credentials[2], info.response, nonce, 55) == Verdict.DENIED

    def test_empty_repository_still_denies(self, service, credentials):
        nonce = secrets.token_bytes(32)
        info = service.handle_info(55, 0, nonce, 2)
        assert info.response.denied
        assert check_info_response(credentials[2], info.response, nonce, 55) == Verdict.DENIED

    def test_empty_tree_absence_proof_useless_after_first_create(self, service, credentials):
        # An empty tree's absence proof stops reading the moment the
        # repository is no longer empty.
        stale = service._container_proof(55)
        assert service.module.verify_container(2, secrets.token_bytes(32), 55, 0, stale).denied
        service.handle_create(signed_create(credentials[1], 7))
        response = service.module.verify_container(2, secrets.token_bytes(32), 55, 0, stale)
        assert response is None

    def test_version_zero_resolves_latest(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        for counter in (1, 2, 3):
            service.handle_modify(signed_modify(cred, 7, counter), BLOBS)
        nonce = secrets.token_bytes(32)
        info = service.handle_info(7, 0, nonce, 1)
        assert info.response.requested_version == 3
        assert info.response.max_version == 3

    def test_version_beyond_latest_is_protocol_error(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        with pytest.raises(ProtocolError) as err:
            service.handle_info(7, 5, secrets.token_bytes(32), 1)
        # The owner holds read access, yet the error carries its message only.
        assert err.value.args == ("no proof exists for the requested version",)
        assert vars(err.value) == {}

    def test_no_versions_yet_answers_a_verified_info(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        nonce = secrets.token_bytes(32)
        info = service.handle_info(7, 0, nonce, 1)
        assert check_info_response(cred, info.response, nonce, 7) == Verdict.VERIFIED
        response = info.response
        assert (response.counter, response.max_version, response.requested_version) == (1, 0, 0)
        assert response.content_digest == ZERO_DIGEST and response.sealed_for_user is None
        assert response.acl_root == cred.initial_acl_root()
        assert info.hints == acl_hints(service, 7)
        # No version row exists to attest: version 1 and any FETCH stay refused.
        with pytest.raises(ProtocolError):
            service.handle_info(7, 1, secrets.token_bytes(32), 1)
        for version in (0, 1):
            with pytest.raises(ProtocolError):
                service.handle_fetch(7, version, 1, nonce=secrets.token_bytes(32))

    def test_no_versions_yet_denies_as_an_absent_index(self, service, credentials):
        # The denials are deterministic in (key, idx, nonce): user 2's answers
        # about 7 before and after its creation must be the same bytes.
        service.handle_create(signed_create(credentials[1], 5))
        nonce = secrets.token_bytes(32)
        queries = (service.handle_info, service.handle_fetch)
        absent = [query(7, 0, nonce=nonce, user_idx=2).response for query in queries]
        service.handle_create(signed_create(credentials[1], 7))
        no_access = [query(7, 0, nonce=nonce, user_idx=2).response for query in queries]
        assert all(response.denied for response in absent)
        assert no_access == absent

    def test_out_of_range_probe_by_outsider_is_still_denied(self, service, credentials):
        # A zero-access caller probing an impossible version learns nothing:
        # the access check fires before the version is even considered.
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        nonce = secrets.token_bytes(32)
        info = service.handle_info(7, 5, nonce, 2)
        assert info.response.denied and info.hints is None

    def test_unknown_callers_get_a_bare_protocol_error(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        with pytest.raises(ProtocolError) as err:
            service.handle_info(7, 1, secrets.token_bytes(32), 99)  # no key in the module
        assert vars(err.value) == {}

    def test_full_response_carries_hints(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        info = service.handle_info(7, 1, secrets.token_bytes(32), 1)
        # The counter is the module's to attest, in the response; the hints
        # hold only the ACL rows.
        assert info.hints == {
            "acl": [[0, 1, 1, (b"\x00" * 24 + (3).to_bytes(8, "big")).hex()]],
        }


class TestFetch:
    def test_two_phase_content_verifies(self, service, credentials):
        # The content from a fetch also matches a separate query's digest.
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        fetched = service.handle_fetch(7, 0, 1, nonce=secrets.token_bytes(32))
        assert fetched.blobs == BLOBS and fetched.response.requested_version == 1
        nonce = secrets.token_bytes(32)
        info = service.handle_info(7, 1, nonce, 1)
        assert check_info_response(credentials[1], info.response, nonce, 7) == Verdict.VERIFIED
        recomputed = content_digest(fetched.blobs.hashes(), fetched.secret_commitment)
        assert recomputed == info.response.content_digest == fetched.response.content_digest

    @pytest.fixture
    def path_reads(self, monkeypatch):
        """Slots of every complement path read from now on."""
        reads = []
        complement_path = Iomt.complement_path

        def counted(tree, slot):
            reads.append(slot)
            return complement_path(tree, slot)

        monkeypatch.setattr(Iomt, "complement_path", counted)
        return reads

    def test_combined_fetch_reuses_proofs(self, service, credentials, path_reads):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        path_reads.clear()
        nonce = secrets.token_bytes(32)
        clock = StepClock()
        fetched = service.handle_fetch(7, 0, 1, nonce=nonce, clock=clock)
        assert check_info_response(cred, fetched.response, nonce, 7) == Verdict.VERIFIED
        assert fetched.blobs == BLOBS
        # One container path serves the answer and the content; the modify
        # left the owner's ACL proof cached under the ACL root.
        assert len(path_reads) == 1
        assert {"record_lookup", "certificates", "module_verify"} <= set(clock.steps)

    def test_cold_combined_fetch_reads_each_path_once(self, service, credentials, path_reads):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        cold = Service(service.storage, service.module, height=6)  # nothing cached
        path_reads.clear()
        nonce = secrets.token_bytes(32)
        fetched = cold.handle_fetch(7, 0, 1, nonce=nonce)
        assert check_info_response(cred, fetched.response, nonce, 7) == Verdict.VERIFIED
        assert fetched.blobs == BLOBS
        # One container path and one ACL path serve the answer and the content.
        assert len(path_reads) == 2

    def test_tampered_blob_detected_by_client(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        fetched = service.handle_fetch(7, 1, 1, nonce=secrets.token_bytes(32))
        tampered = bytearray(fetched.blobs.image)
        tampered[0] ^= 0x01
        recomputed = content_digest(
            dataclasses.replace(fetched.blobs, image=bytes(tampered)).hashes(),
            fetched.secret_commitment,
        )
        assert recomputed != fetched.response.content_digest

    def test_absent_content_is_denied(self, service, credentials):
        nonce = secrets.token_bytes(32)
        fetched = service.handle_fetch(99, 0, 1, nonce=nonce)
        assert check_info_response(credentials[1], fetched.response, nonce, 99) == Verdict.DENIED
        assert fetched.blobs is None and fetched.secret_commitment is None

    def test_unauthorized_fetch_of_encrypted_yields_no_secret(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        secret = secrets.token_bytes(32)
        wrapped, commitment = wrap_secret(cred, secret, 7, 1)
        cipher = BlobSet(xor_keystream(secret, BLOBS.image), BLOBS.build, BLOBS.compose)
        env = signed_modify(cred, 7, 1, cipher, commitment)
        service.handle_modify(env, cipher, wrapped_secret=wrapped, secret_commitment=commitment)
        nonce = secrets.token_bytes(32)
        fetched = service.handle_fetch(7, 1, 3, nonce=nonce)  # user 3 has no access
        assert check_info_response(credentials[3], fetched.response, nonce, 7) == Verdict.DENIED
        assert fetched.response.sealed_for_user is None
        assert fetched.blobs is None  # not even the ciphertext


class TestStatementCounts:
    def test_verified_queries_at_h16(self, tmp_path, user_keys, credentials):
        # No cached container proof, so the container path is read: each
        # query asks for another container than the one before.  Cold, on a
        # fresh service, the ACL tree costs one read of its leaf rows.  Warm,
        # on another container under the same ACL root (every prepopulated
        # container has the owner-only ACL), the view and the caller's ACL
        # proof are cached and the ACL costs nothing.
        storage = Storage(tmp_path / "h16.db", tmp_path / "blobs")
        state = ModuleState.fresh(user_keys)
        bulk_prepopulate(storage, 16, 8, 1, state)
        module = TrustedModule(state)
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)
        nonce = secrets.token_bytes(32)

        def info(service, idx, user):
            return service.handle_info(idx, 0, nonce, user).response

        def fetch(service, idx, user):
            fetched = service.handle_fetch(idx, 0, user, nonce=nonce)
            assert fetched.blobs is not None
            return fetched.response

        # user 2 holds no access, so its query is a denial; an absent index
        # is denied from its record lookup, the leaf enclosing it and that path
        cases = [
            (info, 1, Verdict.VERIFIED, (5, 5), (1, 4)),
            (fetch, 1, Verdict.VERIFIED, (6, 5), (2, 4)),
            (info, 2, Verdict.DENIED, (7, 5), (3, 4)),
            (info, 2, Verdict.DENIED, (100, 3), (200, 3)),
        ]
        for query, user, verdict, cold, warm in cases:
            service = Service(storage, module, height=16)
            for idx, count in (cold, warm):
                statements.clear()
                response = query(service, idx, user)
                assert check_info_response(credentials[user], response, nonce, idx) == verdict
                assert len(statements) == count, (idx, statements)
        storage.close()

    def test_creates_into_an_empty_tree_and_after_it(self, storage, module, credentials):
        # An empty tree is one whose free slot is 0: no separate emptiness
        # query, and it has no encloser to relink.
        service = Service(storage, module, height=16)
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)
        for idx, count in ((100, 10), (200, 12)):
            statements.clear()
            assert service.handle_create(signed_create(credentials[1], idx)) is not None
            assert len(statements) == count, statements

    def test_writes_at_h16(self, tmp_path, user_keys, credentials):
        # One transaction each: create, modify, a new grant and a re-grant.
        # An ACL is read as one query and written back as one upsert.
        storage = Storage(tmp_path / "h16.db", tmp_path / "blobs")
        state = ModuleState.fresh(user_keys)
        bulk_prepopulate(storage, 16, 8, 1, state)
        service = Service(storage, TrustedModule(state), height=16)
        cred = credentials[1]
        statements: list[str] = []
        storage._conn.set_trace_callback(statements.append)

        def counted(handle, *args):
            statements.clear()
            assert handle(*args) is not None
            return len(statements)

        assert counted(service.handle_create, signed_create(cred, 100)) == 12, statements
        assert counted(service.handle_modify, signed_modify(cred, 5, 2), BLOBS) == 10, statements
        for counter, level in ((3, 1), (4, 2)):  # new grant, then re-grant
            root = predicted_acl_root(
                acl_hints(service, 5), 2, level, acl_root=attested_acl_root(service, 5)
            )
            env = cred.sign_request(RequestKind.ACL, 5, counter, root)
            assert counted(service.handle_acl_set, env, 2, level) == 10, statements
        assert service.module.root == service.container_tree().root
        storage.close()


class TestRejectedMutationsRollBack:
    @pytest.mark.parametrize("refusal", ["modify_by_reader", "acl_set_by_reader", "bad_secret"])
    def test_refusal_persists_nothing(self, service, credentials, refusal):
        owner, reader = credentials[1], credentials[2]
        service.handle_create(signed_create(owner, 7))
        grant_root = predicted_acl_root(
            acl_hints(service, 7), 2, 1, acl_root=attested_acl_root(service, 7)
        )
        assert service.handle_acl_set(owner.sign_request(RequestKind.ACL, 7, 1, grant_root), 2, 1)
        before = dump_store(service.storage)
        if refusal == "modify_by_reader":
            result = service.handle_modify(signed_modify(reader, 7, 2), BLOBS)
        elif refusal == "acl_set_by_reader":
            root = predicted_acl_root(
                acl_hints(service, 7), 3, 1, acl_root=attested_acl_root(service, 7)
            )
            result = service.handle_acl_set(reader.sign_request(RequestKind.ACL, 7, 2, root), 3, 1)
        else:
            # The commitment names another secret, so apply_request refuses.
            wrapped, _ = wrap_secret(owner, secrets.token_bytes(32), 7, 2)
            _, commitment = wrap_secret(owner, secrets.token_bytes(32), 7, 2)
            env = signed_modify(owner, 7, 2, BLOBS, commitment)
            result = service.handle_modify(
                env, BLOBS, wrapped_secret=wrapped, secret_commitment=commitment
            )
        assert result is None
        assert dump_store(service.storage) == before
        assert service.module.root == service.container_tree().root


    def test_a_refused_modify_leaves_no_blob_it_wrote(self, service, credentials):
        owner = credentials[1]
        service.handle_create(signed_create(owner, 5))
        data_dir = service.storage.data_dir
        before = sorted(data_dir.rglob("*"))
        blobs = BlobSet(bytes(range(256)) * 4096, b"FROM forged\n", b"services: {forged: {}}\n")
        digest = content_digest(blobs.hashes(), ZERO_DIGEST)
        # User 77 has no key; the signature is zero bytes; counter 1 is a guess anyone makes.
        forged = RequestEnvelope(RequestKind.CONTAINER, 5, 1, digest, 77, bytes(32))
        assert service.handle_modify(forged, blobs) is None
        assert sorted(data_dir.rglob("*")) == before
        grant(service, owner, 5, 2, 0)
        # Correctly signed, at the right counter, by a user at level 0.
        assert service.handle_modify(signed_modify(credentials[2], 5, 2, blobs), blobs) is None
        assert sorted(data_dir.rglob("*")) == before
        assert service.module.root == service.container_tree().root

    def test_a_refused_modify_keeps_the_stored_content_it_repeats(self, service, credentials):
        owner = credentials[1]
        service.handle_create(signed_create(owner, 5))
        assert service.handle_modify(signed_modify(owner, 5, 1), BLOBS) is not None
        stored = service.storage.version_get(5, 1).hashes
        image = service.storage._blob_path(stored[0])
        image.write_bytes(b"damaged")  # the refused MODIFY below repairs it, and keeps it
        assert service.handle_modify(signed_modify(credentials[2], 5, 2), BLOBS) is None
        assert service.storage.blob_get(stored) == BLOBS
        nonce = secrets.token_bytes(32)
        fetched = service.handle_fetch(5, 1, 1, nonce=nonce)
        assert check_info_response(owner, fetched.response, nonce, 5, 1) == Verdict.VERIFIED
        assert fetched.blobs == BLOBS


class TestEpochSafety:
    def test_cache_entries_die_with_the_epoch(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        service.handle_info(7, 1, secrets.token_bytes(32), 1)
        cache = service._cache
        epoch = service.module.root
        assert cache.get(("container", 7), epoch) is not None
        service.handle_modify(signed_modify(cred, 7, 2), BLOBS)
        assert cache.get(("container", 7), service.module.root) is None

    def test_stale_certificate_only_causes_null(self, service, credentials):
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        stale_proof = service._container_proof(7)
        record = service.storage.record_get(7)
        service.handle_modify(signed_modify(cred, 7, 2), BLOBS)
        response = service.module.verify_container(
            1, secrets.token_bytes(32), 7, 1, stale_proof,
            record=record,
            acl_proof=service._acl_proof(service.acl_tree(7), 1),
            version=service.storage.version_get(7, 1),
        )
        assert response is None
        assert service.module.root == service.container_tree().root


def grant(service, cred, idx, target, level):
    """Have ``cred`` set ``target``'s level on container ``idx``; the new ACL root."""
    root = predicted_acl_root(
        acl_hints(service, idx), target, level, acl_root=attested_acl_root(service, idx)
    )
    counter = service.storage.record_get(idx).counter
    assert service.handle_acl_set(cred.sign_request(RequestKind.ACL, idx, counter, root), target, level)
    return root


def info_verdict(service, credentials, idx, user):
    """The client's verdict on ``user``'s INFO about ``idx``, and the hints it carried."""
    nonce = secrets.token_bytes(32)
    info = service.handle_info(idx, 0, nonce, user)
    return check_info_response(credentials[user], info.response, nonce, idx), info.hints


class TestAclCache:
    """ACL views and proofs are cached by the ACL root they prove."""

    def test_cache_stays_bounded_under_absent_queries(self, service, credentials):
        service.handle_create(signed_create(credentials[1], 7))
        service.handle_modify(signed_modify(credentials[1], 7, 1), BLOBS)
        for idx in range(1000, 1000 + CACHE_ENTRIES + 100):
            assert info_verdict(service, credentials, idx, 2) == (Verdict.DENIED, None)
            assert len(service._cache._entries) <= CACHE_ENTRIES
        assert len(service._cache._entries) == CACHE_ENTRIES
        assert info_verdict(service, credentials, 7, 1)[0] == Verdict.VERIFIED

    def test_borrowed_acl_root_never_verifies(self, service, credentials):
        owner = credentials[1]
        for idx in (7, 8):
            service.handle_create(signed_create(owner, idx))
            service.handle_modify(signed_modify(owner, idx, 1), BLOBS)
        borrowed = grant(service, owner, 7, 2, 1)
        assert info_verdict(service, credentials, 7, 2)[0] == Verdict.VERIFIED
        assert service._cache.get(("acl_view",), borrowed) is not None
        record = service.storage.record_get(8)
        service.storage.record_put(dataclasses.replace(record, acl_root=borrowed))  # seal kept
        for user in (1, 2):
            with pytest.raises(ProtocolError):
                service.handle_info(8, 0, secrets.token_bytes(32), user)
            with pytest.raises(ProtocolError):
                service.handle_fetch(8, 0, user, nonce=secrets.token_bytes(32))

    def test_rows_that_rebuild_to_another_root_are_never_cached(self, service, credentials):
        owner = credentials[1]
        service.handle_create(signed_create(owner, 9))
        service.handle_modify(signed_modify(owner, 9, 1), BLOBS)
        sealed_root = grant(service, owner, 9, 3, 1)  # a root no query has cached yet
        assert service._cache.get(("acl_view",), sealed_root) is None
        rows = service.storage.acl_leaves(9)
        slot, leaf = next((s, l) for s, l in rows if l.idx == 3)
        service.storage.acl_put(9, [(slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(2)))])
        damaged_root = service.acl_tree(9).root
        assert damaged_root != sealed_root
        for _ in range(2):
            with pytest.raises(ProtocolError):
                service.handle_info(9, 0, secrets.token_bytes(32), 1)
        views = [e for e in service._cache._entries.values() if isinstance(e, Iomt)]
        assert all(view.root not in (damaged_root, sealed_root) for view in views)
        service.storage.acl_put(9, rows)  # the proper rows back, no restart
        assert info_verdict(service, credentials, 9, 1)[0] == Verdict.VERIFIED
        assert info_verdict(service, credentials, 9, 3)[0] == Verdict.VERIFIED

    def test_grant_on_a_shared_root_leaves_the_other_container_alone(self, service, credentials):
        owner = credentials[1]
        for idx in (7, 8):
            service.handle_create(signed_create(owner, idx))
            service.handle_modify(signed_modify(owner, idx, 1), BLOBS)
        shared = service.storage.record_get(7).acl_root
        assert service.storage.record_get(8).acl_root == shared
        _, hints_before = info_verdict(service, credentials, 8, 1)
        proof_before = service._cache.get(("acl", 1), shared)
        assert proof_before is not None

        granted = grant(service, owner, 7, 2, 1)
        assert granted != shared
        assert info_verdict(service, credentials, 8, 1) == (Verdict.VERIFIED, hints_before)
        assert service._cache.get(("acl", 1), shared) is proof_before
        assert info_verdict(service, credentials, 8, 2) == (Verdict.DENIED, None)
        assert hints_before == acl_hints(service, 8)

        status, hints = info_verdict(service, credentials, 7, 2)
        assert status == Verdict.VERIFIED and hints == acl_hints(service, 7)
        assert {leaf[1] for leaf in hints["acl"]} == {1, 2}
        assert info_verdict(service, credentials, 7, 1)[1] == hints


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("create"), st.integers(1, 4)),
            st.tuples(st.just("grant"), st.integers(1, 4), st.integers(2, 4), st.integers(0, 3)),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_served_hints_match_the_stored_rows(tmp_path_factory, ops):
    """Whatever creates and grants ran, every served ACL hint is the rows' ACL."""
    storage = Storage(":memory:", tmp_path_factory.mktemp("blobs"))
    module = TrustedModule(ModuleState.fresh({1: OWNER.key}))
    service = Service(storage, module, height=3)
    created = set()
    try:
        for op, idx, *change in ops:
            if op == "create" and idx not in created:
                assert service.handle_create(signed_create(OWNER, idx)) is not None
                created.add(idx)
            elif op == "grant" and idx in created:
                grant(service, OWNER, idx, *change)
            for queried in sorted(created):
                # No version yet: the owner's INFO verifies, and its hinted rows
                # rebuild to the ACL root it attests.
                nonce = secrets.token_bytes(32)
                info = service.handle_info(queried, 0, nonce, 1)
                assert check_info_response(OWNER, info.response, nonce, queried) == Verdict.VERIFIED
                hints = info.hints
                assert hints == acl_hints(service, queried)
                rows = [(slot, Leaf(leaf_idx, nxt, bytes.fromhex(val)))
                        for slot, leaf_idx, nxt, val in hints["acl"]]
                assert Iomt.from_leaves(ACL_HEIGHT, rows).root == info.response.acl_root
    finally:
        storage.close()


class TestMonotonicCounter:
    def test_accepted_record_counters_increase_by_one(self, service, credentials):
        cred = credentials[1]
        counters = []
        result = service.handle_create(signed_create(cred, 7))
        counters.append(result.record.counter)
        for counter in (1, 2, 3):
            result = service.handle_modify(signed_modify(cred, 7, counter), BLOBS)
            counters.append(result.record.counter)
        new_root = predicted_acl_root(
            acl_hints(service, 7), 2, 1, acl_root=attested_acl_root(service, 7)
        )
        env = cred.sign_request(RequestKind.ACL, 7, 4, new_root)
        result = service.handle_acl_set(env, 2, 1)
        counters.append(result.record.counter)
        assert counters == [1, 2, 3, 4, 5]


class TestForeignRootChange:
    def test_foreign_create_refuses_ours_until_the_store_has_it(self, service, credentials):
        # A module-level actor creates 99 after the service has written the
        # created leaf and before its apply_request (the root_update step):
        # the create is refused and writes nothing.
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        module = service.module
        accept_foreign, shadow = foreign_creation(service, cred, 99)
        moved = []

        def move():
            assert accept_foreign() is not None
            moved.append(copy.deepcopy(module._state))

        before = dump_store(service.storage)
        clock = MovingClock("root_update", move)
        assert service.handle_create(signed_create(cred, 8), clock=clock) is None
        assert len(moved) == 1 and module._state == moved[0]
        assert dump_store(service.storage) == before
        # Once the store holds the foreign container too, creates go through again.
        tree = service.container_tree()
        with service.storage.transaction():
            for slot, leaf in shadow.leaves():
                tree.set_leaf(slot, leaf)
        assert module.root == service.container_tree().root
        assert service.handle_create(signed_create(cred, 8)) is not None
        assert module.root == service.container_tree().root


class TestAppendOnlyTree:
    def test_occupied_slots_stay_dense(self, tmp_path, user_keys, credentials):
        storage = Storage(tmp_path / "dense.db", tmp_path / "blobs")
        state = ModuleState.fresh(user_keys)
        bulk_prepopulate(storage, 6, 5, 1, state)
        service = Service(storage, TrustedModule(state), height=6)
        cred = credentials[1]
        forged = UserCredential(1, secrets.token_bytes(32))

        def slot_span():
            return storage._conn.execute(
                "SELECT MIN(slot), MAX(slot), COUNT(*) FROM leaves"
            ).fetchone()

        assert slot_span() == (0, 4, 5)
        assert service.handle_create(signed_create(cred, 100)) is not None
        assert slot_span() == (0, 5, 6)
        assert service.handle_create(signed_create(cred, 50)) is not None
        assert slot_span() == (0, 6, 7)
        # refused by the module after the placeholder was planned and written
        assert service.handle_create(signed_create(forged, 70)) is None
        assert slot_span() == (0, 6, 7)
        assert service.handle_create(signed_create(cred, 3)) is None  # index exists
        assert slot_span() == (0, 6, 7)
        assert service.handle_create(signed_create(cred, 70)) is not None
        assert slot_span() == (0, 7, 8)
        assert service.module.root == service.container_tree().root
        storage.close()


class TestConsistencyAcrossRestart:
    def test_service_rebuilds_from_storage(self, tmp_path, user_keys, credentials):
        from tcr.module import ModuleState, TrustedModule, load_state, save_state
        from tcr.storage import Storage

        state = ModuleState.fresh(user_keys)
        storage = Storage(tmp_path / "r.db", tmp_path / "blobs")
        service = Service(storage, TrustedModule(state), height=6)
        cred = credentials[1]
        service.handle_create(signed_create(cred, 7))
        service.handle_modify(signed_modify(cred, 7, 1), BLOBS)
        save_state(state, tmp_path / "module.bin")
        storage.close()

        storage2 = Storage(tmp_path / "r.db", tmp_path / "blobs")
        service2 = Service(storage2, TrustedModule(load_state(tmp_path / "module.bin")), height=6)
        nonce = secrets.token_bytes(32)
        info = service2.handle_info(7, 1, nonce, 1)
        assert check_info_response(cred, info.response, nonce, 7) == Verdict.VERIFIED
        storage2.close()
