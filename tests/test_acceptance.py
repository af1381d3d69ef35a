"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to watch them).  The scaling
criteria drive the real benchmark at reduced volume; expect the whole
module to take a few minutes, dominated by prepopulating the height-20
store twice.
"""

from __future__ import annotations

import dataclasses
import random
import secrets
import threading
import time

import pytest

from conftest import (
    acl_hints,
    acl_tree,
    attested_acl_root,
    mutate_proof,
    mutate_row,
    oracle_root,
    remove_placeholder,
)
from tcr.bench import BenchConfig, run_bench
from tcr.client import (
    RepositoryClient,
    UserCredential,
    Verdict,
    check_info_response,
    predicted_acl_root,
)
from tcr.iomt import Iomt, Leaf, counter_digest
from tcr.merkle import ZERO_DIGEST, hmac_sha256
from tcr.module import ContainerRecord, ModuleState, RequestKind, TrustedModule, _read
from tcr.server import RepositoryServer
from tcr.service import ProtocolError, Service
from tcr.storage import BlobSet, Storage, content_digest
from tcr.wire import response_to_json

BLOBS = BlobSet(b"image-bytes" * 30, b"FROM base\n", b"services: {}\n")


def _fresh_stack(tmp_path, keys, height=8):
    storage = Storage(tmp_path / "acc.db", tmp_path / "blobs")
    state = ModuleState.fresh(keys)
    service = Service(storage, TrustedModule(state), height=height)
    return storage, service


def _create(service, cred, idx):
    env = cred.sign_request(RequestKind.ACL, idx, 0, cred.initial_acl_root())
    result = service.handle_create(env)
    assert result is not None and cred.verify_ack(env, result.ack)
    return result


def _modify(service, cred, idx, counter, blobs=BLOBS, commitment=ZERO_DIGEST, **kwargs):
    digest = content_digest(blobs.hashes(), commitment)
    env = cred.sign_request(RequestKind.CONTAINER, idx, counter, digest)
    return env, service.handle_modify(env, blobs, **kwargs)


def _grant(service, owner_cred, idx, counter, target, level):
    new_root = predicted_acl_root(
        acl_hints(service, idx), target, level, acl_root=attested_acl_root(service, idx)
    )
    env = owner_cred.sign_request(RequestKind.ACL, idx, counter, new_root)
    result = service.handle_acl_set(env, target, level)
    assert result is not None
    return result


def test_criterion_1_oracle_equivalence():
    """Incremental roots equal brute-force recomputation over random edits."""
    rng = random.Random(20260808)
    started = time.monotonic()
    sequences = 0
    while sequences < 1000:
        for height in range(5):
            if sequences >= 1000:
                break
            sequences += 1
            tree = Iomt(height)
            for _ in range(rng.randrange(1, 33)):
                leaves = dict(tree.leaves())
                present = {leaf.idx for leaf in leaves.values()}
                placeholders = [l.idx for l in leaves.values() if l.val == ZERO_DIGEST]
                moves = ["set"]
                if len(leaves) < tree.geometry.leaf_count:
                    moves.append("insert")
                if placeholders:
                    moves.append("delete")
                move = rng.choice(moves)
                if move == "set" and leaves:
                    slot = rng.choice(list(leaves))
                    leaf = leaves[slot]
                    tree.set_leaf(slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(rng.randrange(1, 64))))
                elif move == "insert" or not leaves:
                    candidates = [i for i in range(64) if i not in present]
                    if not candidates or len(leaves) >= tree.geometry.leaf_count:
                        continue
                    tree.upsert(rng.choice(candidates), ZERO_DIGEST)
                elif move == "delete":
                    remove_placeholder(tree, rng.choice(placeholders))
                assert tree.root == oracle_root(dict(tree.leaves()), height)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (oracle equivalence, 1000 edit sequences, {elapsed:.1f}s): PASS")


def test_criterion_2_non_existence_completeness():
    """Every absent index reads as zero under the tree's root; a present one never does."""
    rng = random.Random(42)
    key = secrets.token_bytes(32)

    for _ in range(100):
        tree = Iomt(3)
        indices = rng.sample(range(256), 8)
        for idx in indices:
            tree.upsert(idx, ZERO_DIGEST)
        for slot, leaf in list(tree.leaves()):
            tree.set_leaf(slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(rng.randrange(1, 99))))
        state = ModuleState.fresh({1: key})
        state.root = tree.root
        module = TrustedModule(state)
        present = set(indices)
        slots = dict(tree.leaves())
        for candidate in range(256):
            if candidate in present:
                for slot, leaf in slots.items():
                    value = _read((leaf, tree.complement_path(slot)), candidate, tree.root)
                    # Only the leaf's own value: no leaf reads the present index as absent.
                    own = leaf.val if leaf.idx == candidate else None
                    assert value == own, (candidate, slot)
            else:
                enc_slot, enc_leaf = tree.locate(candidate)
                proof = (enc_leaf, tree.complement_path(enc_slot))
                assert _read(proof, candidate, tree.root) == ZERO_DIGEST
                nonce = secrets.token_bytes(32)
                response = module.verify_container(1, nonce, candidate, 0, proof)
                assert response.denied and response.idx == candidate
    print("\nACCEPTANCE 2 (non-existence completeness, 100 trees x 256 indices): PASS")


def _mutate_bytes(rng, raw: bytes) -> bytes:
    out = bytearray(raw)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def test_criterion_3_tamper_detection(tmp_path):
    """Ten thousand single-bit mutations; every one is caught, none accepted."""
    rng = random.Random(3)
    keys = {1: secrets.token_bytes(32), 2: secrets.token_bytes(32), 3: secrets.token_bytes(32)}
    storage, service = _fresh_stack(tmp_path, keys)
    module = service.module
    cred = UserCredential(1, keys[1])
    _create(service, cred, 10)
    _modify(service, cred, 10, 1)
    _grant(service, cred, 10, 2, 2, 1)

    record = storage.container(10).record
    version = storage.version_get(10, 1)
    container_proof = service._container_proof(10)
    acl = acl_tree(service, 10)
    nonce = secrets.token_bytes(32)

    def answer(user, container, acl_proof, record=record, version=version):
        return module.verify_container(
            user, nonce, 10, 1, container, record=record, acl_proof=acl_proof, version=version,
        )

    # Proofs for user 1 (level 3) and user 3, whose absence reads as level 0.
    proofs = [(user, container_proof, service._acl_proof(acl, user)) for user in (1, 3)]
    assert not answer(*proofs[0]).denied and answer(*proofs[1]).denied
    checked = 0
    rejected = 0

    # Stored rows: a bit flip in a record field must break the digest its leaf
    # holds, one in a version row's sealed field or seal must fail the MAC,
    # and a row given as the other type, or under the other's authenticator,
    # is refused.  Proofs carry no MAC: any bit flip must fold to a root the
    # module refuses.
    confused = [
        {"record": version}, {"version": record},
        {"record": dataclasses.replace(record, acl_root=version.content_digest)},
        {"version": dataclasses.replace(version, seal=record.digest())},
    ]
    for rows in confused:
        checked += 1
        rejected += answer(*proofs[0], **rows) is None
    for _ in range(6000):
        which = rng.randrange(3)
        if which == 0:
            rejected += answer(*proofs[0], record=mutate_row(rng, record)) is None
        elif which == 1:
            rejected += answer(*proofs[0], version=mutate_row(rng, version)) is None
        else:
            user, container, acl_proof = rng.choice(proofs)
            if rng.randrange(2):
                container = mutate_proof(rng, container)
            else:
                acl_proof = mutate_proof(rng, acl_proof)
            rejected += answer(user, container, acl_proof) is None
        checked += 1

    # Stored records: a tampered row cannot back a verifying response.
    fields = ("counter", "version_count", "acl_root", "idx")
    for _ in range(2500):
        field = rng.choice(fields)
        value = getattr(record, field)
        mutated_value = _mutate_bytes(rng, value) if isinstance(value, bytes) else value ^ (1 << rng.randrange(20))
        tampered = ContainerRecord(**{**record.__dict__, field: mutated_value})
        response = module.verify_container(
            1,
            nonce,
            10,
            1,
            container_proof,
            record=tampered,
            acl_proof=service._acl_proof(acl, 1),
            version=version,
        )
        checked += 1
        rejected += response is None

    # Stored blobs: a flipped content bit breaks the attested digest.
    blobs = storage.blob_get(version.hashes)
    attested = version.content_digest
    for _ in range(1600):
        which = rng.randrange(3)
        parts = [blobs.image, blobs.build, blobs.compose]
        parts[which] = _mutate_bytes(rng, parts[which])
        recomputed = content_digest(BlobSet(*parts).hashes(), version.secret_commitment)
        checked += 1
        rejected += recomputed != attested

    storage.close()
    assert checked >= 10_000
    assert rejected == checked, f"{checked - rejected} false accepts"
    print(f"\nACCEPTANCE 3 (tamper detection, {checked} mutations, 0 false accepts): PASS")


def test_criterion_4_access_control(tmp_path):
    """Permission floors: modify needs 2+, ACL changes need 3, reads need 1+."""
    keys = {i: secrets.token_bytes(32) for i in range(1, 7)}
    creds = {i: UserCredential(i, keys[i]) for i in keys}
    storage, service = _fresh_stack(tmp_path, keys)
    owner = creds[1]
    _create(service, owner, 10)
    _, result = _modify(service, owner, 10, 1)
    counter = result.record.counter
    levels = {2: 0, 3: 1, 4: 2, 5: 3}
    for target, level in levels.items():
        _grant(service, owner, 10, counter, target, level)
        counter += 1
    levels[1] = 3  # the owner

    outcomes = {}
    for user, level in sorted(levels.items()):
        cred = creds[user]
        record = storage.container(10).record

        env, modified = _modify(service, cred, 10, record.counter)
        can_modify = modified is not None

        record = storage.container(10).record
        try:
            _grant(service, cred, 10, record.counter, 6, 1)
            can_admin = True
        except AssertionError:
            can_admin = False

        nonce = secrets.token_bytes(32)
        info = service.handle_info(10, 1, nonce, user)
        can_info = check_info_response(
            cred, info.response, nonce, 10, requested_version=1
        ) == Verdict.VERIFIED

        fetched = service.handle_fetch(10, 1, user, nonce=secrets.token_bytes(32))
        can_fetch = not fetched.response.denied

        outcomes[level] = (can_modify, can_admin, can_info, can_fetch)

    for level, (can_modify, can_admin, can_info, can_fetch) in outcomes.items():
        assert can_modify == (level >= 2), f"modify floor broken at {level}"
        assert can_admin == (level == 3), f"acl floor broken at {level}"
        assert can_info == (level >= 1), f"info floor broken at {level}"
        assert can_fetch == (level >= 1), f"fetch floor broken at {level}"
    storage.close()
    print("\nACCEPTANCE 4 (access-control matrix over levels 0..3): PASS")


def test_criterion_5_denial_and_version_availability(tmp_path):
    """Absent indices deny verifiably; every recorded version is provable."""
    keys = {1: secrets.token_bytes(32), 2: secrets.token_bytes(32)}
    storage, service = _fresh_stack(tmp_path, keys)
    cred, outsider = UserCredential(1, keys[1]), UserCredential(2, keys[2])
    _create(service, cred, 10)
    for counter in (1, 2, 3):
        blobs = BlobSet(BLOBS.image + bytes([counter]), BLOBS.build, BLOBS.compose)
        _modify(service, cred, 10, counter, blobs)

    for version in (1, 2, 3):
        nonce = secrets.token_bytes(32)
        info = service.handle_info(10, version, nonce, 1)
        assert check_info_response(cred, info.response, nonce, 10, requested_version=version) == Verdict.VERIFIED

    for version in (4, 9):
        with pytest.raises(ProtocolError):
            service.handle_info(10, version, secrets.token_bytes(32), 1)

    nonce = secrets.token_bytes(32)
    absent = service.handle_info(404, 0, nonce, 2).response
    assert check_info_response(outsider, absent, nonce, 404) == Verdict.DENIED

    nonce2 = secrets.token_bytes(32)
    no_access = service.handle_info(10, 0, nonce2, 2).response
    assert check_info_response(outsider, no_access, nonce2, 10) == Verdict.DENIED

    # Field-by-field structural identity of the two denial shapes.
    absent_json = response_to_json(absent)
    no_access_json = response_to_json(no_access)
    assert list(absent_json) == list(no_access_json)
    for key in absent_json:
        assert type(absent_json[key]) is type(no_access_json[key])
        if isinstance(absent_json[key], str):
            assert len(absent_json[key]) == len(no_access_json[key])
    for resp, nonce_sent in ((absent, nonce), (no_access, nonce2)):
        assert resp.tag == hmac_sha256(resp.tag_body(), keys[2])
        assert resp.nonce == nonce_sent
    assert {f for f in absent.__dataclass_fields__} == {f for f in no_access.__dataclass_fields__}
    storage.close()
    print("\nACCEPTANCE 5 (authenticated denial + version availability): PASS")


def test_criterion_6_secret_confidentiality(tmp_path, wire_transcript):
    """A thousand secrets survive the full pipeline; none leak onto the wire."""
    from tcr.client import wrap_secret, xor_blobs
    from tcr.wire import envelope_to_json

    keys = {1: secrets.token_bytes(32)}
    storage, service = _fresh_stack(tmp_path, keys, height=6)
    server = RepositoryServer(("127.0.0.1", 0), service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    cred = UserCredential(1, keys[1])
    client = RepositoryClient("127.0.0.1", server.server_address[1], cred)
    client.create(10)

    plain = BlobSet(b"secret-image-payload", b"FROM base\n", b"services: {}\n")
    observed_secrets = []
    counter = 1
    for _ in range(1000):
        secret = secrets.token_bytes(32)
        observed_secrets.append(secret)
        wrapped, commitment = wrap_secret(cred, secret, 10, counter)
        cipher = xor_blobs(secret, plain)
        digest = content_digest(cipher.hashes(), commitment)
        envelope = cred.sign_request(RequestKind.CONTAINER, 10, counter, digest)
        payload = envelope_to_json(envelope)
        payload.update(
            blobs=cipher,
            wrapped_secret=wrapped.hex(),
            secret_commitment=commitment.hex(),
        )
        status, body = client._request("MODIFY", payload)
        assert status == "ok" and cred.verify_ack(envelope, bytes.fromhex(body["ack"]))
        counter += 1

        outcome = client.fetch(10)
        assert outcome.verdict == Verdict.VERIFIED and outcome.encrypted
        assert outcome.blobs.image == plain.image

    wire = b"\n".join(wire_transcript)
    for secret in observed_secrets:
        assert secret.hex().encode() not in wire
        assert secret not in wire
    assert len(set(observed_secrets)) == 1000
    server.shutdown()
    storage.close()
    print("\nACCEPTANCE 6 (1000-secret round trip, clean wire transcript): PASS")


def test_criterion_7_replay_freshness(tmp_path):
    """Stale request signatures and stale responses are always rejected."""
    keys = {1: secrets.token_bytes(32)}
    storage, service = _fresh_stack(tmp_path, keys, height=6)
    cred = UserCredential(1, keys[1])
    _create(service, cred, 10)

    stale_envelopes = []
    counter = 1
    for _ in range(50):
        env, result = _modify(service, cred, 10, counter)
        assert result is not None
        stale_envelopes.append(env)
        counter += 1

    replays_rejected = 0
    rng = random.Random(77)
    for _ in range(1000):
        env = rng.choice(stale_envelopes)
        if service.handle_modify(env, BLOBS) is None:
            replays_rejected += 1
    assert replays_rejected == 1000

    nonce = secrets.token_bytes(32)
    response = service.handle_info(10, 1, nonce, 1).response
    assert check_info_response(cred, response, nonce, 10, requested_version=1) == Verdict.VERIFIED
    stale_rejected = 0
    for _ in range(1000):
        fresh = secrets.token_bytes(32)
        if check_info_response(cred, response, fresh, 10, requested_version=1) == Verdict.INVALID:
            stale_rejected += 1
    assert stale_rejected == 1000
    storage.close()
    print("\nACCEPTANCE 7 (replayed signatures and responses, 2000 rejections): PASS")


@pytest.fixture(scope="module")
def scaling_rows(tmp_path_factory):
    cfg = BenchConfig(
        heights=(12, 16, 20),
        ops=40,
        repeats=2,
        payload_size=12 * 1024,
        workdir=tmp_path_factory.mktemp("bench"),
        seed=5,
    )
    started = time.monotonic()
    rows = run_bench(cfg, log=lambda _: None)
    return rows, time.monotonic() - started


def _total(rows, height, operation):
    return next(
        r.median_us for r in rows if r.height == height and r.operation == operation and r.step == "total"
    )


def test_criterion_8_scaling_trend(scaling_rows):
    """256x more containers may cost at most 4x the time: logarithmic growth."""
    rows, elapsed = scaling_rows
    assert elapsed < 30 * 60, f"benchmark took {elapsed:.0f}s"
    ratios = {}
    for operation in ("create", "modify", "fetch"):
        low = _total(rows, 12, operation)
        high = _total(rows, 20, operation)
        ratios[operation] = high / low
        assert high <= 4.0 * low, f"{operation}: {high:.0f}us at h=20 vs {low:.0f}us at h=12"
        # Cost should not collapse with size either: it grows with depth.
        assert high >= 0.5 * low
    pretty = ", ".join(f"{op} x{ratio:.2f}" for op, ratio in ratios.items())
    print(f"\nACCEPTANCE 8 (scaling h=12 -> h=20 within 4x: {pretty}; {elapsed:.0f}s): PASS")


def test_criterion_9_retrieval_cheapest(scaling_rows):
    """At the largest load, retrieval stays at or below creation cost."""
    rows, _ = scaling_rows
    fetch = _total(rows, 20, "fetch")
    create = _total(rows, 20, "create")
    assert fetch <= create, f"fetch {fetch:.0f}us vs create {create:.0f}us at h=20"
    print(f"\nACCEPTANCE 9 (h=20 fetch {fetch:.0f}us <= create {create:.0f}us): PASS")
