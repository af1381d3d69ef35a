from __future__ import annotations

import errno
import io
import json
import os
import re
import secrets
import socket
import socketserver
import sqlite3
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from conftest import RecordingFile, stored_files
from tcr import server as server_module
from tcr import wire
from tcr.client import (
    ProtocolFailure,
    RepositoryClient,
    RequestRejected,
    UserCredential,
    Verdict,
    check_info_response,
    unwrap_secret,
    wrap_secret,
    xor_blobs,
    xor_keystream,
)
from tcr.iomt import Iomt, Leaf, counter_digest
from tcr.merkle import ZERO_DIGEST, hmac_sha256, sha256
from tcr.module import (
    ModuleState,
    RequestEnvelope,
    RequestKind,
    TrustedModule,
    VerifyResponse,
    secret_commitment,
)
from tcr.server import RepositoryServer
from tcr.service import Service
from tcr.storage import CIPHER_ID, BlobSet, Storage, content_digest
from tcr.wire import (
    STATUS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    WireError,
    read_message,
    response_from_json,
    response_to_json,
)

IMAGE, BUILD, COMPOSE = b"image" * 500, b"FROM scratch\n", b"services: {}\n"


@pytest.fixture
def env(tmp_path, user_keys):
    storage = Storage(tmp_path / "wire.db", tmp_path / "blobs")
    state = ModuleState.fresh(user_keys)
    service = Service(storage, TrustedModule(state), height=6)
    server = RepositoryServer(("127.0.0.1", 0), service, state=state,
                              state_path=tmp_path / "module.bin")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, user_keys
    server.shutdown()
    server.server_close()
    storage.close()


def client_for(server, keys, user) -> RepositoryClient:
    port = server.server_address[1]
    return RepositoryClient("127.0.0.1", port, UserCredential(user, keys[user]))


MASK32 = 0xFFFFFFFF


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """The ChaCha20 block function written from RFC 8439, section 2.3."""

    def rotl(v, n):
        return ((v << n) & MASK32) | (v >> (32 - n))

    def quarter_round(x, a, b, c, d):
        x[a] = (x[a] + x[b]) & MASK32
        x[d] = rotl(x[d] ^ x[a], 16)
        x[c] = (x[c] + x[d]) & MASK32
        x[b] = rotl(x[b] ^ x[c], 12)
        x[a] = (x[a] + x[b]) & MASK32
        x[d] = rotl(x[d] ^ x[a], 8)
        x[c] = (x[c] + x[d]) & MASK32
        x[b] = rotl(x[b] ^ x[c], 7)

    state = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574]
    state += struct.unpack("<8I", key) + (counter,) + struct.unpack("<3I", nonce)
    x = list(state)
    for _ in range(10):
        for a, b, c, d in ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
                           (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14)):
            quarter_round(x, a, b, c, d)
    return struct.pack("<16I", *((w + s) & MASK32 for w, s in zip(x, state)))


def per_block_keystream(secret: bytes, data: bytes) -> bytes:
    """ChaCha20 under ``secret`` with a zero nonce, one RFC 8439 block at a time
    from counter 0, XORed byte by byte."""
    pad = b"".join(chacha20_block(secret, n, bytes(12)) for n in range(-(-len(data) // 64)))
    return bytes(a ^ b for a, b in zip(data, pad))


class TestCrypto:
    def test_reference_block_matches_rfc8439_block_vector(self):
        # RFC 8439 section 2.3.2: key 00..1f, nonce 000000090000004a00000000, counter 1.
        block = chacha20_block(bytes(range(32)), 1, bytes.fromhex("000000090000004a00000000"))
        assert block.hex() == (
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )

    def test_keystream_matches_rfc8439_test_vector_1(self):
        # RFC 8439 appendix A.1, test vector #1: zero key, zero nonce, counter 0.
        assert xor_keystream(bytes(32), bytes(64)).hex() == (
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        )

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 63, 64, 65, 12 * 1024, 256 * 1024 + 7])
    def test_keystream_matches_per_block_reference(self, size):
        secret = secrets.token_bytes(32)
        data = secrets.token_bytes(size)
        assert xor_keystream(secret, data) == per_block_keystream(secret, data)

    def test_keystream_involution(self):
        secret = secrets.token_bytes(32)
        data = secrets.token_bytes(12 * 1024)
        assert xor_keystream(secret, xor_keystream(secret, data)) == data

    def test_distinct_secrets_distinct_ciphertexts(self):
        data = b"same plaintext" * 10
        assert xor_keystream(secrets.token_bytes(32), data) != xor_keystream(
            secrets.token_bytes(32), data
        )

    def test_server_import_loads_neither_the_client_nor_its_cipher(self):
        src = os.path.dirname(os.path.dirname(server_module.__file__))
        probe = (
            "import sys, tcr.server; "
            "print(sorted(m for m in ('cryptography', 'tcr.client') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_content_digest_sensitivity(self):
        def digest(image, commitment=ZERO_DIGEST):
            return content_digest(BlobSet(image, BUILD, COMPOSE).hashes(), commitment)

        base = digest(IMAGE)
        assert base == digest(IMAGE)
        assert base != digest(IMAGE + b"x")
        assert base != digest(IMAGE, sha256(b"mu"))

    def test_wrap_unwrap_degenerate_secret(self):
        cred = UserCredential(1, bytes(range(32)))
        wrapped, commitment = wrap_secret(cred, bytes(32), 5, 1)
        delivered = bytes(a ^ b for a, b in zip(bytes(32), sha256(commitment + cred.key)))
        assert unwrap_secret(cred, delivered, commitment, 5) == bytes(32)

    def test_unwrap_wrong_key_fails(self):
        cred = UserCredential(1, bytes(range(32)))
        other = UserCredential(1, bytes(range(1, 33)))
        secret = secrets.token_bytes(32)
        _, commitment = wrap_secret(cred, secret, 5, 1)
        delivered = bytes(a ^ b for a, b in zip(secret, sha256(commitment + cred.key)))
        assert unwrap_secret(other, delivered, commitment, 5) is None


class TestResponseChecks:
    def test_replayed_response_rejected(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(7)
        alice.modify(7, IMAGE, BUILD, COMPOSE)
        outcome = alice.info(7)
        assert outcome.verdict == Verdict.VERIFIED
        fresh_nonce = secrets.token_bytes(32)
        replay = check_info_response(alice.credential, outcome.response, fresh_nonce, 7)
        assert replay == Verdict.INVALID

    def test_wrong_version_echo_rejected(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(7)
        alice.modify(7, IMAGE, BUILD, COMPOSE)
        alice.modify(7, IMAGE + b"2", BUILD, COMPOSE)
        outcome = alice.info(7, version=2)
        assert outcome.verdict == Verdict.VERIFIED
        mismatch = check_info_response(
            alice.credential, outcome.response, outcome.response.nonce, 7, requested_version=1
        )
        assert mismatch == Verdict.INVALID

    def test_latest_query_answered_about_an_older_version_rejected(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(7)
        alice.modify(7, IMAGE, BUILD, COMPOSE)
        alice.modify(7, IMAGE + b"2", BUILD, COMPOSE)
        nonce = secrets.token_bytes(32)
        stale = server.service.handle_fetch(7, 1, 1, nonce=nonce).response
        assert (stale.requested_version, stale.max_version) == (1, 2)
        # Asked for the latest (version 0), the service answers about version 1.
        assert check_info_response(alice.credential, stale, nonce, 7) == Verdict.INVALID
        assert check_info_response(
            alice.credential, stale, nonce, 7, requested_version=1
        ) == Verdict.VERIFIED
        assert alice.info(7).response.requested_version == 2

    def test_response_json_round_trip(self):
        full = VerifyResponse(
            idx=9, nonce=secrets.token_bytes(32), tag=secrets.token_bytes(32),
            counter=4, max_version=2, requested_version=2,
            acl_root=secrets.token_bytes(32), content_digest=secrets.token_bytes(32),
        )
        denial = VerifyResponse(idx=9, nonce=secrets.token_bytes(32), tag=secrets.token_bytes(32))
        for resp in (full, denial):
            assert response_from_json(response_to_json(resp)) == resp


class TestWireFlows:
    def test_create_modify_fetch_round_trip(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        result = alice.modify(11, IMAGE, BUILD, COMPOSE)
        assert result["version"] == 1
        outcome = alice.fetch(11)
        assert outcome.verdict == Verdict.VERIFIED
        assert outcome.blobs.image == IMAGE
        assert outcome.blobs.build == BUILD
        assert outcome.blobs.compose == COMPOSE

    def test_encrypted_round_trip_and_transcript_confidentiality(self, env, wire_transcript):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE, encrypt=True)
        outcome = alice.fetch(11)
        assert outcome.verdict == Verdict.VERIFIED and outcome.encrypted
        assert outcome.blobs == BlobSet(IMAGE, BUILD, COMPOSE)
        wire = b"\n".join(wire_transcript)
        assert IMAGE.hex().encode() not in wire  # plaintext never crosses the wire

    def test_blobs_of_a_version_share_no_pad_bytes(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE, encrypt=True)
        storage = server.service.storage
        stored = storage.blob_get(storage.version_get(11, 1).hashes)
        plain, cipher = (IMAGE, BUILD, COMPOSE), (stored.image, stored.build, stored.compose)

        def xor(x: bytes, y: bytes) -> bytes:
            return bytes(p ^ q for p, q in zip(x, y))

        for a, b in [(0, 1), (0, 2), (1, 2)]:
            # Equal pads would make the ciphertexts' XOR the plaintexts' XOR.
            assert xor(cipher[a], cipher[b]) != xor(plain[a], plain[b])

    def test_fetch_denials_do_not_tell_absent_from_unreadable(self, env):
        server, keys = env
        alice, bob = client_for(server, keys, 1), client_for(server, keys, 2)
        alice.create(3)
        alice.modify(3, IMAGE, BUILD, COMPOSE)
        replies = []
        for idx in (3, 999):  # bob cannot read 3; 999 does not exist
            payload = {"idx": idx, "version": 0, "nonce": secrets.token_bytes(32).hex(), "user": 2}
            status, body = bob._request("FETCH", payload)
            replies.append((status, sorted(body), sorted(body.get("response", {}))))
            assert bob.fetch(idx).verdict == Verdict.DENIED
        assert replies[0] == replies[1]
        assert replies[0][:2] == ("denied", ["response"])  # no content, version or hints

    def test_missing_blob_is_protocol_error(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE)
        server.service.storage._blob_path(sha256(IMAGE)).unlink()
        with pytest.raises(ProtocolFailure, match="content blob unreadable"):
            alice.fetch(11)
        assert alice.info(11).verdict == Verdict.VERIFIED

    def test_damaged_blob_is_repaired_by_storing_it_again(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE)
        server.service.storage._blob_path(sha256(IMAGE)).write_bytes(b"rotten")
        assert alice.fetch(11, 1).verdict == Verdict.INVALID
        alice.modify(11, IMAGE, BUILD, COMPOSE)
        assert alice.fetch(11, 1).verdict == alice.fetch(11, 2).verdict == Verdict.VERIFIED

    def test_absent_container_denied(self, env):
        server, keys = env
        bob = client_for(server, keys, 2)
        outcome = bob.info(404)
        assert outcome.verdict == Verdict.DENIED

    def test_acl_set_on_versionless_container(self, env):
        # Before its first version a container still answers a verified INFO,
        # with max_version 0: the ACL change and bob's first write sign from it.
        server, keys = env
        alice, bob = client_for(server, keys, 1), client_for(server, keys, 2)
        alice.create(19)
        alice.acl_set(19, 2, 2)
        outcome = bob.info(19)
        assert outcome.verdict == Verdict.VERIFIED
        assert (outcome.response.counter, outcome.response.max_version) == (2, 0)
        assert bob.modify(19, IMAGE, BUILD, COMPOSE)["version"] == 1

    def test_grant_and_revoke_cycle(self, env):
        server, keys = env
        alice, bob = client_for(server, keys, 1), client_for(server, keys, 2)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE)
        assert bob.info(11).verdict == Verdict.DENIED
        alice.acl_set(11, 2, 1)
        assert bob.info(11).verdict == Verdict.VERIFIED
        with pytest.raises(RequestRejected):
            bob.modify(11, IMAGE, BUILD, COMPOSE)
        alice.acl_set(11, 2, 2)
        assert bob.modify(11, IMAGE, BUILD, COMPOSE)["version"] == 2
        alice.acl_set(11, 2, 0)
        assert bob.info(11).verdict == Verdict.DENIED

    def test_duplicate_create_rejected(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        with pytest.raises(RequestRejected):
            alice.create(11)

    def test_mutation_replies_carry_only_the_acknowledgement(self, env):
        # Certificates are module-secret memoranda that no client can check.
        server, keys = env
        alice = client_for(server, keys, 1)
        assert sorted(alice.create(11)) == ["ack"]
        assert sorted(alice.modify(11, IMAGE, BUILD, COMPOSE)) == ["ack", "version"]
        assert sorted(alice.acl_set(11, 2, 1)) == ["ack"]

    def test_storage_failure_is_answered_without_the_path(self, env, monkeypatch):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        storage = server.service.storage

        def disk_full(content: bytes, digest: bytes) -> None:
            path = storage._blob_path(digest)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(storage, "_write_blob", disk_full)
        with pytest.raises(ProtocolFailure) as failure:
            alice.modify(11, IMAGE, BUILD, COMPOSE)
        assert str(failure.value) == f"storage failure: {os.strerror(errno.ENOSPC)}"

        def locked(*args, **kwargs):
            raise sqlite3.OperationalError(f"unable to open database file {storage}")

        monkeypatch.setattr(server.service, "handle_info", locked)
        payload = {"idx": 11, "requested_version": 0, "nonce": "00" * 32, "user": 1}
        status, body = server.dispatch("INFO", payload, "127.0.0.1")
        assert (status, body) == (STATUS_ERROR, {"message": "storage failure: OperationalError"})

    def test_disk_full_modify_leaves_the_root_and_a_retry_is_accepted(self, env, monkeypatch):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        service = server.service
        root = service.module.root

        def disk_full(content: bytes, digest: bytes) -> None:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(service.storage, "_write_blob", disk_full)
        with pytest.raises(ProtocolFailure) as failure:
            alice.modify(11, IMAGE, BUILD, COMPOSE)
        assert str(failure.value) == "storage failure: No space left on device"
        assert service.module.root == root == service.container_tree().root
        monkeypatch.undo()
        assert alice.modify(11, IMAGE, BUILD, COMPOSE)["version"] == 1
        assert service.module.root == service.container_tree().root
        assert alice.fetch(11).verdict == Verdict.VERIFIED

    def test_bench_prepopulate_loopback_allowed(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        result = alice.bench_prepopulate(10, 1)
        assert "root" in result
        assert alice.info(5).verdict == Verdict.VERIFIED

    def test_bench_prepopulate_refused_off_loopback(self, env):
        server, keys = env
        status, body = server.dispatch("BENCH_PREPOPULATE", {"count": 5, "owner": 1}, "192.0.2.9")
        assert status == "error" and "loopback" in body["message"]

    def test_ack_binds_the_counter(self, env):
        server, keys = env
        cred = UserCredential(1, keys[1])
        envelope = cred.sign_request(RequestKind.ACL, 31, 0, cred.initial_acl_root())
        ack = hmac_sha256(envelope.ack_body(), keys[1])
        assert cred.verify_ack(envelope, ack)
        # The same acknowledgement does not verify once the counter differs.
        later = RequestEnvelope(
            envelope.kind, envelope.idx, 1, envelope.value, envelope.user_idx, envelope.sig
        )
        assert not cred.verify_ack(later, ack)

    def test_unknown_op_is_protocol_error(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        status, body = alice._request("NO_SUCH_OP", {})
        assert status == "error" and "unknown" in body["message"]

    @pytest.mark.parametrize("op, value", [
        ("INFO", -1), ("INFO", 1 << 64), ("FETCH", -1), ("FETCH", 1 << 64),
    ])
    def test_out_of_range_index_answered_and_connection_kept(self, env, op, value):
        server, keys = env
        base = {"requested_version": 0, "version": 0, "nonce": "00" * 32, "user": 2}
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            fp = sock.makefile("rwb")
            wire.write_message(fp, {"op": op, "request_id": 1, "payload": {**base, "idx": value}})
            reply = read_message(fp)
            assert reply["status"] == STATUS_ERROR
            assert reply["payload"]["message"].startswith("malformed request")
            wire.write_message(fp, {"op": op, "request_id": 2, "payload": {**base, "idx": 3}})
            reply = read_message(fp)
        assert reply["request_id"] == 2 and reply["status"] == STATUS_DENIED

    @pytest.mark.parametrize("op", ["INFO", "FETCH"])
    @pytest.mark.parametrize("nonce", [16, 0])
    def test_nonce_of_another_length_is_malformed_and_connection_kept(self, env, op, nonce):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(3)
        alice.modify(3, IMAGE, BUILD, COMPOSE)
        base = {"idx": 3, "requested_version": 1, "version": 1, "user": 1}
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            fp = sock.makefile("rwb")
            payload = {**base, "nonce": "00" * nonce}
            wire.write_message(fp, {"op": op, "request_id": 1, "payload": payload})
            reply = read_message(fp)
            assert reply["status"] == STATUS_ERROR
            assert reply["payload"]["message"].startswith("malformed request")
            assert "hints" not in reply["payload"]  # the owner asked, yet none leak
            payload = {**base, "nonce": "00" * 32}
            wire.write_message(fp, {"op": op, "request_id": 2, "payload": payload})
            reply = read_message(fp)
        assert reply["request_id"] == 2 and reply["status"] == STATUS_OK

    def test_mistyped_fields_are_malformed_requests(self, env):
        server, _ = env
        for op, payload in (
            ("INFO", {"idx": 1, "requested_version": 0, "nonce": 5, "user": 1}),
            ("MODIFY", {"image": 5}),
            ("MODIFY", ["a", "list"]),
        ):
            status, body = server.dispatch(op, payload, "127.0.0.1")
            assert status == STATUS_ERROR and body["message"].startswith("malformed request")


class TestMessageBound:
    def test_read_message_stops_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 16)
        assert read_message(io.BytesIO(b'{"op":"INFO"}\n')) == {"op": "INFO"}
        assert read_message(io.BytesIO(b'{"op":"FETCH_"}\n')) == {"op": "FETCH_"}  # 16 bytes
        with pytest.raises(WireError, match="exceeds 16 bytes"):
            read_message(io.BytesIO(b'{"op":"FETCH__"}\n'))

    def test_oversized_message_answered_and_connection_closed(self, env, monkeypatch):
        server, keys = env
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 1024)
        request = b'{"op":"INFO","payload":{"pad":"' + b"0" * 4096 + b'"}}\n'
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(request)
            fp = sock.makefile("rb")
            reply, rest = read_message(fp), fp.read()
        assert reply["status"] == "error" and "exceeds 1024 bytes" in reply["payload"]["message"]
        assert rest == b""  # the server closed the connection
        assert client_for(server, keys, 2).info(3).verdict == Verdict.DENIED

    def test_the_largest_storable_version_can_be_fetched(self, env, monkeypatch):
        server, keys = env
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 4000)
        alice = client_for(server, keys, 1)
        alice.create(11)
        service = server.service
        root = service.module.root
        largest = 4000 - wire.FETCH_HEADER_BYTES - 1 - len(BUILD) - len(COMPOSE)
        image = secrets.token_bytes(largest + 1)
        with pytest.raises(ProtocolFailure, match="would exceed 4000 bytes"):
            alice.modify(11, image, BUILD, COMPOSE, encrypt=True)
        assert service.module.root == root == service.container_tree().root
        assert stored_files(service.storage) == []  # nothing stored
        assert alice.modify(11, image[:-1], BUILD, COMPOSE, encrypt=True)["version"] == 1
        outcome = alice.fetch(11)
        assert outcome.verdict == Verdict.VERIFIED
        assert outcome.blobs == BlobSet(image[:-1], BUILD, COMPOSE)

    def test_the_largest_version_is_the_bound_less_the_reply_header_and_newline(
        self, env, monkeypatch
    ):
        server, keys = env
        bound = 64 << 10
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", bound)
        connections, connect = [], socket.create_connection

        def counted(*args, **kwargs):
            connections.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counted)
        alice = client_for(server, keys, 1)
        alice.create(13)
        made = len(connections)
        largest = bound - wire.FETCH_HEADER_BYTES - 1
        size = largest - len(BUILD) - len(COMPOSE)
        image = (b"\r\n" * size)[:size]  # its reply frame is read a line at a time
        with pytest.raises(ProtocolFailure, match=f"would exceed {bound} bytes"):
            alice.modify(13, image + b"\n", BUILD, COMPOSE)
        assert len(connections) == made  # refused before connecting
        assert stored_files(server.service.storage) == []
        assert alice.modify(13, image, BUILD, COMPOSE)["version"] == 1
        outcome = alice.fetch(13)
        assert outcome.verdict == Verdict.VERIFIED
        assert outcome.blobs == BlobSet(image, BUILD, COMPOSE)
        assert len(image) + len(BUILD) + len(COMPOSE) == largest

    def test_an_unfetchable_modify_is_refused_with_its_frame_unread(self, env, monkeypatch):
        server, keys = env
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 4000)
        # A server that waited for the frame would time out and close with no reply.
        monkeypatch.setattr(server_module._ConnectionHandler, "timeout", 2.0)
        alice = client_for(server, keys, 1)
        alice.create(12)
        too_long = 4000 - wire.FETCH_HEADER_BYTES  # one byte past the largest version
        envelope = alice.credential.sign_request(RequestKind.CONTAINER, 12, 1, ZERO_DIGEST)
        payload = {**wire.envelope_to_json(envelope), "blobs": [too_long, 0, 0]}
        line = json.dumps({"op": "MODIFY", "request_id": 1, "payload": payload}).encode()
        start = time.monotonic()
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(line + b"\n")  # the header only: no frame byte follows
            fp = sock.makefile("rb")
            reply, rest = read_message(fp), fp.read()
        assert time.monotonic() - start < 1.5
        assert reply["status"] == STATUS_ERROR
        assert "FETCH reply for this version would exceed 4000 bytes" in reply["payload"]["message"]
        assert rest == b""  # the server closed the connection
        assert stored_files(server.service.storage) == []
        assert alice.info(12).response.max_version == 0

    def test_a_refused_frame_sent_whole_before_any_read_gets_its_reply(self, env, monkeypatch):
        # The server half-closes after its reply and drains the unread frame:
        # closing with it unread would reset the connection under the reply.
        server, keys = env
        image = bytes(8 << 20)  # storable under this bound, but its FETCH reply would pass it
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", len(image) + wire.FETCH_HEADER_BYTES)
        alice = client_for(server, keys, 1)
        alice.create(12)
        envelope = alice.credential.sign_request(RequestKind.CONTAINER, 12, 1, ZERO_DIGEST)
        payload = {**wire.envelope_to_json(envelope), "blobs": [len(image), 0, 0]}
        line = json.dumps({"op": "MODIFY", "request_id": 1, "payload": payload}).encode()
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(line + b"\n" + image + b"\n")  # the whole frame, before any read
            sock.shutdown(socket.SHUT_WR)
            fp = sock.makefile("rb")
            reply, rest = read_message(fp), fp.read()
        assert reply["status"] == STATUS_ERROR
        assert "FETCH reply for this version would exceed" in reply["payload"]["message"]
        assert rest == b""
        assert stored_files(server.service.storage) == []
        assert alice.info(12).response.max_version == 0

    def test_the_client_refuses_an_unfetchable_version_before_connecting(self, stub, monkeypatch):
        port, _, lines = stub
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", 4000)
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        too_long = 4000 - wire.FETCH_HEADER_BYTES  # one byte past the largest version
        with pytest.raises(ProtocolFailure, match="would exceed 4000 bytes"):
            client.modify(5, b"\x00" * (too_long - 2), b"b", b"c")
        assert lines == []  # no INFO, no MODIFY

    def test_the_fetch_reserve_holds_the_widest_reply_header(self):
        widest, digest = (1 << 64) - 1, b"\xff" * 32
        response = VerifyResponse(
            idx=widest, nonce=digest, tag=digest, counter=widest, max_version=widest,
            requested_version=widest, acl_root=digest, content_digest=digest,
        )
        payload = {"response": response_to_json(response), "blobs": [widest] * 3,
                   "secret_commitment": digest.hex(), "sealed_for_user": digest.hex()}
        header = {"request_id": widest, "status": STATUS_OK, "payload": payload}
        assert len(json.dumps(header, separators=(",", ":"))) + 1 <= wire.FETCH_HEADER_BYTES


def reader(data: bytes) -> tuple[RecordingFile, list[bytes]]:
    """A readline-only file over ``data``, as the benchmark's client tracing
    wraps the client's socket file, and the list of lines read through it."""
    read: list[bytes] = []
    return RecordingFile(io.BytesIO(data), read), read


def header(lengths, request: bool = False, pad: int = 0) -> bytes:
    """A MODIFY request's header, or an ``ok`` FETCH reply's, declaring ``lengths``,
    with ``pad`` bytes of padding in its payload."""
    payload = {"blobs": lengths, **({"pad": "0" * pad} if pad else {})}
    if request:
        message = {"op": "MODIFY", "request_id": 1, "payload": payload}
    else:
        message = {"request_id": 1, "status": STATUS_OK, "payload": payload}
    return json.dumps(message).encode() + b"\n"


def raw_request(lengths, frame: bytes, pad: int = 0) -> tuple[io.BytesIO, int]:
    """A file with ``read`` over a request declaring ``lengths`` followed by
    ``frame``, as the server's socket file, and the header's length."""
    line = header(lengths, request=True, pad=pad)
    return io.BytesIO(line + frame), len(line)


# Frames for a header declaring ``[1, 1, 0]`` that are not 2 bytes and a newline.
BAD_FRAMES = [
    b"a\n" + header([0, 0, 0], request=True),  # short: the next message's bytes fill it
    b"abc\n",  # longer than declared: no newline where the frame ends
    b"ab" + header([0, 0, 0], request=True),  # the next message follows with no newline
    b"ab",  # end of input where the newline belongs
    b"a",  # end of input mid-frame
    b"",  # end of input before the frame
]
BAD_FRAME_IDS = ["short", "too-long", "missing-terminator", "eof-at-terminator", "eof-mid-frame",
                 "eof-before-frame"]

BLOB_EXAMPLES = [(b"", b"", b""), (b"\n" * 300, b"\n", b"\r\n"), (b"\r\n" * 64, b"\r", b"\n\n")]


def with_blob_examples(test):
    for image, build, compose in BLOB_EXAMPLES:
        test = example(image, build, compose)(test)
    return given(st.binary(), st.binary(), st.binary())(test)


class TestFrame:
    @with_blob_examples
    def test_a_request_round_trips_as_a_header_and_a_raw_frame(self, image, build, compose):
        blobs = BlobSet(image, build, compose)
        out = io.BytesIO()
        wire.write_message(out, {"op": "MODIFY", "request_id": 7, "payload": {"idx": 5,
                                                                            "blobs": blobs}})
        data = out.getvalue()
        head, _, frame = data.partition(b"\n")
        assert json.loads(head)["payload"]["blobs"] == [len(image), len(build), len(compose)]
        assert frame == image + build + compose + b"\n"  # raw, newlines and all
        fp = io.BytesIO(data)
        message = read_message(fp, request=True)
        assert message == {"op": "MODIFY", "request_id": 7, "payload": {"idx": 5, "blobs": blobs}}
        assert fp.tell() == len(data) and read_message(fp, request=True) is None

    @with_blob_examples
    def test_a_reply_round_trips_as_a_header_and_a_raw_frame(self, image, build, compose):
        blobs = BlobSet(image, build, compose)
        out = io.BytesIO()
        wire.write_message(out, {"request_id": 7, "status": STATUS_OK, "payload": {"blobs": blobs}})
        data = out.getvalue()
        head, _, frame = data.partition(b"\n")
        assert json.loads(head)["payload"]["blobs"] == [len(image), len(build), len(compose)]
        assert frame == image + build + compose + b"\n"  # raw, newlines and all
        fp, read = reader(data)
        message = read_message(fp)
        assert message == {"request_id": 7, "status": STATUS_OK, "payload": {"blobs": blobs}}
        got = message["payload"]["blobs"]
        assert {type(part) for part in (got.image, got.build, got.compose)} == {bytes}
        # Read line by line: the header, then one readline per newline in the frame.
        assert b"".join(read) == data and len(read) == data.count(b"\n")
        assert read_message(fp) is None

    @pytest.mark.parametrize("lengths", [
        [True, 0, 0], [-1, 2, 0], [1.0, 0, 0], [1, 0], [1, 0, 0, 0], "3", None, {"image": 1},
    ], ids=["bool", "negative", "float", "two", "four", "string", "null", "object"])
    def test_lengths_that_are_not_three_u64s_are_refused_unread(self, lengths):
        fp, read = reader(header(lengths) + b"00\n")
        with pytest.raises(WireError, match="not three lengths"):
            read_message(fp)
        assert len(read) == 1
        fp, line = raw_request(lengths, b"\x00\n")
        with pytest.raises(WireError, match="not three lengths"):
            read_message(fp, request=True)
        assert fp.tell() == line

    @pytest.mark.parametrize("frame", BAD_FRAMES, ids=BAD_FRAME_IDS)
    def test_a_bad_raw_frame_is_refused(self, frame):
        fp, _ = raw_request([1, 1, 0], frame)
        with pytest.raises(WireError, match="frame is not 2 bytes and a newline"):
            read_message(fp, request=True)

    def test_a_request_over_either_bound_is_refused_before_any_frame_byte_is_read(
        self, monkeypatch
    ):
        bound = 2000
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", bound)
        # The FETCH reply bound: its 1024-byte header reserve plus the raw frame.
        fetchable = bound - wire.FETCH_HEADER_BYTES - 1
        fp, _ = raw_request([fetchable - 2, 1, 1], b"\x01" * fetchable + b"\n")
        assert read_message(fp, request=True)["payload"]["blobs"].compose == b"\x01"
        # The message bound: a padded header, with its frame, fills it exactly.
        pad = bound - len(header([1, 1, 1], request=True, pad=1)) + 1 - 4
        fp, line = raw_request([1, 1, 1], b"abc\n", pad=pad)
        assert line + 4 == bound and read_message(fp, request=True) is not None
        for lengths, pad, reason in (
            ([fetchable - 1, 1, 1], 0, f"FETCH reply for this version would exceed {bound} bytes"),
            ([1 << 62, 0, 0], 0, f"exceeds {bound} bytes"),
            ([1, 1, 2], pad, f"message exceeds {bound} bytes"),
        ):
            fp, line = raw_request(lengths, b"\x01" * fetchable + b"\n", pad=pad)
            with pytest.raises(WireError, match=reason):
                read_message(fp, request=True)
            assert fp.tell() == line

    @pytest.mark.parametrize("frame", BAD_FRAMES, ids=BAD_FRAME_IDS)
    def test_a_bad_reply_frame_is_refused(self, frame):
        with pytest.raises(WireError, match="frame is not 2 bytes and a newline"):
            read_message(reader(header([1, 1, 0]) + frame)[0])

    def test_a_frame_of_newlines_is_read_one_line_at_a_time(self):
        frame = b"\n" * (64 << 10)
        fp, read = reader(header([len(frame), 0, 0]) + frame + b"\n")
        assert read_message(fp)["payload"]["blobs"] == BlobSet(frame, b"", b"")
        assert len(read) == 1 + len(frame) + 1  # the header, then a readline per newline
        fp, read = reader(header([len(frame), 0, 0]) + frame)  # one byte short
        with pytest.raises(WireError, match=f"frame is not {len(frame)} bytes and a newline"):
            read_message(fp)
        assert b"".join(read) == header([len(frame), 0, 0]) + frame

    def test_an_oversized_reply_is_refused_before_any_frame_byte_is_read(self, monkeypatch):
        line = header([1, 1, 1])
        bound = len(line) + 3 + 1
        monkeypatch.setattr(wire, "MAX_MESSAGE_BYTES", bound)
        message = read_message(reader(line + b"\xa1\xb2\xc3\n")[0])  # header and frame fill it
        assert message["payload"]["blobs"] == BlobSet(b"\xa1", b"\xb2", b"\xc3")
        for lengths in ([1, 1, 2], [1 << 62, 0, 0]):
            fp, read = reader(header(lengths) + b"\xa1\xb2\xc3\n")
            with pytest.raises(WireError, match=f"exceeds {bound} bytes"):
                read_message(fp)
            assert len(read) == 1

    def test_decoding_an_8_mib_upload_peaks_at_about_twice_the_payload(self):
        size = 8 << 20
        blobs = BlobSet(secrets.token_bytes(size - len(BUILD) - len(COMPOSE)), BUILD, COMPOSE)
        out = io.BytesIO()
        wire.write_message(out, {"op": "MODIFY", "request_id": 1, "payload": {"blobs": blobs}})
        fp = io.BytesIO(out.getvalue())
        del out
        tracemalloc.start()
        try:
            message = read_message(fp, request=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message["payload"]["blobs"] == blobs
        assert peak <= 2 * size + (256 << 10), peak / size  # the frame read, then cut in three

    def test_decoding_an_8_mib_reply_line_by_line_peaks_at_about_twice_the_payload(self):
        size = 8 << 20
        blobs = BlobSet(secrets.token_bytes(size - len(BUILD) - len(COMPOSE)), BUILD, COMPOSE)
        out = io.BytesIO()
        wire.write_message(out, {"request_id": 1, "status": STATUS_OK, "payload": {"blobs": blobs}})
        fp = RecordingFile(io.BytesIO(out.getvalue()), deque(maxlen=0))  # readline only, kept none
        del out
        tracemalloc.start()
        try:
            message = read_message(fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message["payload"]["blobs"] == blobs
        # The frame gathered in one buffer, which keeps at most an eighth spare, then cut in three.
        assert peak <= 2 * size + size // 8 + (256 << 10), peak / size

    def test_a_256k_encrypted_version_crosses_as_one_frame_each_way(self, env, wire_transcript):
        # The client's files are recorded readline-only, so it must read every reply that way.
        assert not hasattr(RecordingFile, "read")
        server, keys = env
        alice = client_for(server, keys, 1)
        image = secrets.token_bytes(256 * 1024)
        alice.create(9)
        alice.modify(9, image, BUILD, COMPOSE, encrypt=True)
        outcome = alice.fetch(9)
        assert outcome.verdict == Verdict.VERIFIED and outcome.encrypted
        assert outcome.blobs == BlobSet(image, BUILD, COMPOSE)
        lengths = [len(image), len(BUILD), len(COMPOSE)]
        # MODIFY goes as one write: header, the ciphertext raw and a newline.
        (modify,) = [c for c in wire_transcript if c.startswith(b'{"op":"MODIFY"')]
        head, _, frame = modify.partition(b"\n")
        assert json.loads(head)["payload"]["blobs"] == lengths
        assert len(frame) == sum(lengths) + 1 and frame.endswith(b"\n")
        sent = frame[:-1]
        # The FETCH reply, the last message read, is a header, then those same bytes raw.
        (fetched,) = [i for i, line in enumerate(wire_transcript)
                      if line.startswith(b'{"request_id"') and b'"blobs"' in line]
        assert json.loads(wire_transcript[fetched])["payload"]["blobs"] == lengths
        assert b"".join(wire_transcript[fetched + 1:]) == sent + b"\n"
        crossed = b"".join(wire_transcript)
        assert image not in crossed and image.hex().encode() not in crossed


NONCE_HEX = "00" * 32
MALFORMED_LINES = [
    pytest.param(b'{"op":"INFO","payload":{"x":"\xff"}}\n', id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"\n", id="deeply-nested"),
    pytest.param(b'{"op":"INFO","payload":{"idx":1e999,"requested_version":0,"nonce":"'
                 + NONCE_HEX.encode() + b'","user":2}}\n', id="infinite-idx"),
    pytest.param(b'{"op":"INFO","payload":{"idx":3.9,"requested_version":0,"nonce":"'
                 + NONCE_HEX.encode() + b'","user":2}}\n', id="fractional-idx"),
    pytest.param(b'{"op":"INFO","payload":{"idx":3,"requested_version":0,"nonce":"'
                 + NONCE_HEX.encode() + b'","user":true}}\n', id="boolean-user"),
    pytest.param(b'{"op":"CREATE","payload":{"kind":1e999,"idx":3,"counter":0,"value":"'
                 + NONCE_HEX.encode() + b'","user":1,"sig":"' + NONCE_HEX.encode() + b'"}}\n',
                 id="infinite-kind"),
]


class TestMalformedLines:
    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_answered_as_an_error(self, env, capsys, line):
        server, keys = env
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(line)
            reply = read_message(sock.makefile("rb"))
        assert reply["status"] == STATUS_ERROR
        assert client_for(server, keys, 2).info(3).verdict == Verdict.DENIED  # still serving
        assert "Traceback" not in capsys.readouterr().err


class TestConnectionModel:
    def test_sequential_requests_reuse_the_handler_threads(self, env, monkeypatch):
        server, keys = env
        idents = set()
        dispatch = server.dispatch

        def recording_dispatch(*args):
            idents.add(threading.get_ident())
            return dispatch(*args)

        monkeypatch.setattr(server, "dispatch", recording_dispatch)
        bob = client_for(server, keys, 2)
        for idx in range(50):
            assert bob.info(idx).verdict == Verdict.DENIED
        assert 1 <= len(idents) <= server.handler_threads

    def test_concurrent_clients_all_verify(self, env):
        server, keys = env
        alice = client_for(server, keys, 1)
        for idx in range(8):
            alice.create(idx)
            alice.modify(idx, IMAGE + bytes([idx]), BUILD, COMPOSE)
        verdicts: list = []

        def run(idx: int) -> None:
            client = client_for(server, keys, 1)
            for i in range(20):
                outcome = client.fetch(idx) if i % 2 else client.info(idx)
                verdicts.append(outcome.verdict)

        threads = [threading.Thread(target=run, args=(idx,)) for idx in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert verdicts == [Verdict.VERIFIED] * 160

    def test_concurrent_writers_keep_the_store_provable(self, env):
        # Storage has no lock of its own: the service's lock must serialize
        # every pipeline, or the store drifts from the sealed root.
        server, keys = env
        failures: list = []

        def run(user: int) -> None:
            client = client_for(server, keys, user)
            idx = 100 + user
            others = [other for other in keys if other != user]
            try:
                client.create(idx)
                for i in range(10):
                    client.modify(idx, IMAGE + bytes([user, i]), BUILD, COMPOSE)
                    client.acl_set(idx, others[i % len(others)], i % 4)
                    outcome = client.fetch(idx)
                    latest = outcome.blobs.image[-2:] if outcome.blobs else None
                    if outcome.verdict != Verdict.VERIFIED or latest != bytes([user, i]):
                        failures.append((user, i, outcome.verdict))
            except Exception as exc:  # reported by the assertion below
                failures.append((user, repr(exc)))

        threads = [threading.Thread(target=run, args=(user,)) for user in (1, 2, 3, 4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        server.shutdown()
        assert failures == []
        service = server.service
        assert service.module.root == service.container_tree().root

    def test_idle_connections_time_out(self, env, monkeypatch):
        server, keys = env
        monkeypatch.setattr(server_module._ConnectionHandler, "timeout", 0.2)
        # As many idle connections as there are threads pin every one of them.
        idle = [socket.create_connection(server.server_address[:2], timeout=5)
                for _ in range(server.handler_threads)]
        try:
            start = time.monotonic()
            for sock in idle:
                assert sock.recv(1) == b""  # closed by the server, with no reply
            assert time.monotonic() - start < 4
        finally:
            for sock in idle:
                sock.close()
        assert client_for(server, keys, 2).info(3).verdict == Verdict.DENIED

    def test_shutdown_right_after_start_returns(self, service):
        server = RepositoryServer(("127.0.0.1", 0), service)
        returned: list = []
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        stopping = threading.Thread(target=lambda: returned.append(server.shutdown()), daemon=True)
        serving.start()
        stopping.start()
        stopping.join(timeout=2)
        serving.join(timeout=2)
        assert not stopping.is_alive() and not serving.is_alive()
        assert returned == [None]  # shutdown() returned rather than raised
        server.server_close()


STUB_KEY = bytes(range(32))


@pytest.fixture
def stub():
    """A loopback stand-in for a faulty service: ``replies[op](payload)`` gives
    the ``(status, payload)`` each request is answered with, or the raw lines,
    and ``lines`` collects every message received and sent, a header and its
    frame together, newlines included."""
    replies, lines = {}, []

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            line = self.rfile.readline()
            message = json.loads(line)
            if "blobs" in message["payload"]:  # the raw frame and its newline follow
                line += self.rfile.read(sum(message["payload"]["blobs"]) + 1)
            lines.append(line)
            reply = replies[message["op"]](message["payload"])
            out = io.BytesIO()
            if isinstance(reply, bytes):  # raw lines, sent as they are
                out.write(reply)
            else:
                status, payload = reply
                wire.write_message(
                    out, {"request_id": message["request_id"], "status": status, "payload": payload}
                )
            lines.append(out.getvalue())
            self.wfile.write(out.getvalue())

    server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1], replies, lines
    server.shutdown()
    server.server_close()


def answer(status, payload):
    return lambda request: (status, payload)


def full_answer(request, **fields) -> dict:
    """A full module answer to ``request`` with ``fields``, tagged under
    ``STUB_KEY``, as JSON; zero digests where ``fields`` name none."""
    response = VerifyResponse(
        idx=request["idx"], nonce=bytes.fromhex(request["nonce"]), tag=b"",
        **{"acl_root": ZERO_DIGEST, "content_digest": ZERO_DIGEST, **fields},
    )
    return response_to_json(replace(response, tag=hmac_sha256(response.tag_body(), STUB_KEY)))


def fetch_answer(digest: bytes = ZERO_DIGEST, **fields):
    """A FETCH reply whose module answer attests ``digest`` and verifies under
    ``STUB_KEY``, plus ``fields``."""

    def reply(request):
        response = full_answer(
            request, counter=2, max_version=1, requested_version=1, content_digest=digest
        )
        return STATUS_OK, {"response": response, **fields}

    return reply


def framed(reply, frame: bytes):
    """``reply`` sent as raw lines: its header declares one byte of blobs and
    ``frame`` follows it.  For the first request of a client."""

    def raw(request):
        status, payload = reply(request)
        header = {"request_id": 1, "status": status, "payload": {**payload, "blobs": [1, 0, 0]}}
        return json.dumps(header).encode() + b"\n" + frame

    return raw


def info_answer(hints=None, acl_root: bytes = ZERO_DIGEST):
    """An INFO reply about a container before its first version, at counter 1,
    whose module answer attests ``acl_root`` and verifies under ``STUB_KEY``;
    ``hints`` ride beside it when given."""

    def reply(request):
        response = full_answer(
            request, counter=1, max_version=0, requested_version=0, acl_root=acl_root
        )
        payload = {"response": response}
        if hints is not None:
            payload["hints"] = hints
        return STATUS_OK, payload

    return reply


def acl_rows(acl: Iomt) -> list:
    """``acl``'s leaves as the hints carry them."""
    return [[slot, leaf.idx, leaf.next_idx, leaf.val.hex()] for slot, leaf in acl.leaves()]


OWNER_ROW = [0, 1, 1, counter_digest(3).hex()]  # user 1 alone, at level 3


def acl_hint(row=OWNER_ROW):
    """A verified INFO hinting a one-row ACL.  The stub answers no ACL_SET, so
    a client that sent one would fail otherwise."""
    return {"INFO": info_answer({"acl": [list(row)]})}


MALFORMED_REPLIES = [
    pytest.param("info", {"INFO": answer(STATUS_OK, {})}, id="info-without-response"),
    pytest.param("info", {"INFO": answer(STATUS_OK, ["a", "list"])}, id="info-payload-not-object"),
    pytest.param(
        "info", {"INFO": answer(STATUS_OK, {"response": {"kind": "full"}})}, id="info-cut-response"
    ),
    pytest.param(
        "info",
        {"INFO": answer(STATUS_DENIED, {"response": {"kind": "denial", "idx": 5, "nonce": "00",
                                                     "tag": "00"}})},
        id="info-short-nonce",
    ),
    pytest.param(
        "info",
        {"INFO": lambda request: b'{"request_id":1,"status":"ok","payload":{"x":"\xff"}}\n'},
        id="info-not-utf8",
    ),
    pytest.param(
        "info",
        {"INFO": answer(STATUS_DENIED, {"response": {"kind": "denial", "idx": float("inf"),
                                                     "nonce": "00" * 32, "tag": "00" * 32}})},
        id="info-infinite-idx",
    ),
    pytest.param("fetch", {"FETCH": answer(STATUS_OK, {})}, id="fetch-without-response"),
    pytest.param(
        "fetch",
        {"FETCH": framed(fetch_answer(secret_commitment="00" * 32), b"zz\n")},
        id="fetch-bad-image-hex",
    ),
    pytest.param(
        "fetch", {"FETCH": fetch_answer(blobs=BlobSet(b"", b"", b""))},
        id="fetch-without-commitment",
    ),
    pytest.param(
        "fetch", {"FETCH": fetch_answer(secret_commitment="00" * 32)},
        id="fetch-without-blobs",
    ),
    pytest.param(
        "fetch",
        {"FETCH": framed(fetch_answer(secret_commitment="00" * 32), b"0")},
        id="fetch-cut-frame",
    ),
    pytest.param("modify", {"INFO": answer(STATUS_OK, {})}, id="modify-info-without-response"),
    pytest.param(
        "modify", {"INFO": info_answer(), "MODIFY": answer(STATUS_OK, {"ack": "zz"})},
        id="modify-bad-ack-hex",
    ),
    pytest.param("acl_set", {"INFO": answer(STATUS_OK, {})}, id="acl-set-info-without-response"),
    pytest.param(
        "acl_set", {"INFO": info_answer({})}, id="acl-set-hints-without-acl"
    ),
    pytest.param(
        "acl_set", {"INFO": info_answer({"acl": [[0, 1]]})},
        id="acl-set-short-acl-row",
    ),
    pytest.param("acl_set", acl_hint(row=("0", 1, 1, "00" * 32)), id="acl-set-string-slot"),
    pytest.param("acl_set", acl_hint(row=(0, True, 1, "00" * 32)), id="acl-set-bool-idx"),
    pytest.param("acl_set", acl_hint(row=(0, 1, 1.9, "00" * 32)), id="acl-set-float-next"),
    pytest.param("acl_set", acl_hint(row=(0, 1, 1, "00" * 32, 0)), id="acl-set-long-acl-row"),
    pytest.param("acl_set", acl_hint(row=(256, 1, 1, "00" * 32)), id="acl-set-slot-past-the-tree"),
    pytest.param("acl_set", acl_hint(row=(-1, 1, 1, "00" * 32)), id="acl-set-negative-slot"),
    pytest.param("acl_set", acl_hint(row=(0, 1, 1, "zz" * 32)), id="acl-set-bad-value-hex"),
]

COMMANDS = {
    "info": lambda client: client.info(5),
    "fetch": lambda client: client.fetch(5),
    "modify": lambda client: client.modify(5, IMAGE, BUILD, COMPOSE),
    "acl_set": lambda client: client.acl_set(5, 2, 1),
}


class TestMalformedReplies:
    @pytest.mark.parametrize("command, replies", MALFORMED_REPLIES)
    def test_is_a_protocol_failure(self, stub, command, replies):
        port, table, _ = stub
        table.update(replies)
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        with pytest.raises(ProtocolFailure, match="malformed|not an object"):
            COMMANDS[command](client)

    def test_cli_exits_with_protocol_error(self, stub, tmp_path, capsys):
        from tcr.cli import EXIT_PROTOCOL, main

        port, table, _ = stub
        table["INFO"] = answer(STATUS_OK, {})
        key_file = tmp_path / "stub.key"
        key_file.write_text(STUB_KEY.hex())
        argv = ["--server", f"127.0.0.1:{port}", "--user", "1", "--key-file", str(key_file)]
        assert main(argv + ["info", "--index", "5"]) == EXIT_PROTOCOL == 4
        assert "malformed INFO reply" in capsys.readouterr().err

    def test_granting_into_a_full_acl_is_refused(self, stub):
        port, table, lines = stub
        acl = Iomt(8)
        for user in range(1, 257):
            acl.upsert(user, counter_digest(1))
        table["INFO"] = info_answer({"acl": acl_rows(acl)}, acl_root=acl.root)
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        with pytest.raises(ProtocolFailure, match="ACL of container 5 is full"):
            client.acl_set(5, 1000, 1)
        assert [json.loads(line).get("op") for line in lines[::2]] == ["INFO"]  # no ACL_SET sent

    def test_transcript_holds_the_bytes_on_the_wire(self, stub, wire_transcript):
        # The recorder the confidentiality tests scan sees exactly the stub's lines.
        port, table, lines = stub
        table["INFO"] = info_answer()
        table["MODIFY"] = answer(STATUS_OK, {"ack": "00" * 32})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        with pytest.raises(RequestRejected, match="does not verify"):
            client.modify(5, IMAGE, BUILD, COMPOSE, encrypt=True)
        assert len(lines) == 4  # INFO and MODIFY, each with its reply
        assert wire_transcript == lines


class TestSignsOnlyWhatTheModuleAttested:
    """A write signs no counter or ACL view but one a verified INFO attests."""

    @pytest.mark.parametrize("command", ["modify", "acl_set"])
    @pytest.mark.parametrize("payload", [
        {"message": "no proof exists for the requested version"},
        {"message": "no proof exists for the requested version",
         "hints": {"counter": 1, "acl": [OWNER_ROW]}},
    ], ids=["bare", "with-hints"])
    def test_an_info_error_stops_the_write_before_it_is_sent(self, stub, command, payload):
        port, table, lines = stub
        table.update({"INFO": answer(STATUS_ERROR, payload), "MODIFY": acknowledged,
                      "ACL_SET": acknowledged})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        with pytest.raises(ProtocolFailure, match="no proof exists"):
            COMMANDS[command](client)
        assert ops_in(lines) == ["INFO"]

    @staticmethod
    def owner_only() -> Iomt:
        acl = Iomt(8)
        acl.set_leaf(0, Leaf(1, 1, counter_digest(3)))
        return acl

    def test_rows_that_rebuild_to_the_attested_root_are_signed(self, stub):
        port, table, lines = stub
        acl = self.owner_only()
        hints = {"acl": acl_rows(acl)}
        table.update({"INFO": info_answer(hints, acl_root=acl.root), "ACL_SET": acknowledged})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        client.acl_set(5, 2, 1)
        signed = requests_in(lines)[-1]["payload"]
        assert ops_in(lines) == ["INFO", "ACL_SET"]
        assert signed["value"] == acl.upsert(2, counter_digest(1)).hex()

    def test_a_hinted_extra_row_is_never_signed(self, stub):
        # Rows with one more administrator than the attested ACL: signed, they
        # would become the container's ACL, and user 66 could read and write it.
        port, table, lines = stub
        acl = self.owner_only()
        attested = acl.root
        acl.upsert(66, counter_digest(3))
        table.update({"INFO": info_answer({"acl": acl_rows(acl)}, attested),
                      "ACL_SET": acknowledged})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        with pytest.raises(ProtocolFailure, match="do not rebuild to the attested ACL root"):
            client.acl_set(5, 2, 1)
        assert ops_in(lines) == ["INFO"]

    def test_a_hinted_acl_height_is_not_read(self, stub):
        # Every ACL tree has storage.ACL_HEIGHT levels; a height in the hints
        # cannot make the rebuild run long or change the root that is signed.
        port, table, lines = stub
        acl = self.owner_only()
        hints = {"acl_height": 63, "acl": acl_rows(acl)}
        table.update({"INFO": info_answer(hints, acl_root=acl.root), "ACL_SET": acknowledged})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        client.acl_set(5, 2, 1)
        assert ops_in(lines) == ["INFO", "ACL_SET"]
        assert requests_in(lines)[-1]["payload"]["value"] == acl.upsert(2, counter_digest(1)).hex()

    def test_a_service_hinting_an_extra_row_gets_no_signature(
        self, env, wire_transcript, monkeypatch
    ):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        service = server.service
        hints = service._hints

        def padded(acl):
            """The true rows plus user 4 at level 3; the served view stays as it is."""
            extra = Iomt.from_leaves(acl.geometry.height, acl.leaves())
            extra.upsert(4, counter_digest(3))
            return {**hints(acl), "acl": acl_rows(extra)}

        monkeypatch.setattr(service, "_hints", padded)
        wire_transcript.clear()
        with pytest.raises(ProtocolFailure, match="do not rebuild to the attested ACL root"):
            alice.acl_set(11, 2, 1)
        assert ops_in(wire_transcript) == ["INFO"]
        assert client_for(server, keys, 4).info(11).verdict == Verdict.DENIED
        monkeypatch.undo()
        alice.acl_set(11, 2, 1)
        assert client_for(server, keys, 2).info(11).verdict == Verdict.VERIFIED
        assert client_for(server, keys, 4).info(11).verdict == Verdict.DENIED


def encrypted_fetch_answer(tag: bytes):
    """A FETCH reply for an encrypted version of container 5 whose secret opens
    for ``STUB_KEY``; its attested digest covers the cipher tag ``tag``."""
    secret = secrets.token_bytes(32)
    commitment = secret_commitment(5, secret)
    cipher = xor_blobs(secret, BlobSet(IMAGE, BUILD, COMPOSE))
    hashes = cipher.hashes()
    digest = sha256(b"".join(hashes) + commitment + tag)
    delivered = bytes(a ^ b for a, b in zip(secret, sha256(commitment + STUB_KEY)))
    return fetch_answer(
        digest, blobs=cipher, secret_commitment=commitment.hex(), sealed_for_user=delivered.hex(),
    )


class TestCipherTag:
    def test_tagged_version_verifies(self, stub):
        port, table, _ = stub
        table["FETCH"] = encrypted_fetch_answer(CIPHER_ID)
        outcome = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY)).fetch(5)
        assert outcome.verdict == Verdict.VERIFIED and outcome.encrypted
        assert outcome.blobs == BlobSet(IMAGE, BUILD, COMPOSE)

    @pytest.mark.parametrize("tag", [b"", b"tcr/shake256-xor/v1"], ids=["untagged", "shake256-v1"])
    def test_version_attested_under_another_cipher_tag_is_invalid(self, stub, tag):
        port, table, _ = stub
        table["FETCH"] = encrypted_fetch_answer(tag)
        outcome = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY)).fetch(5)
        assert outcome.verdict == Verdict.INVALID and outcome.blobs is None


def requests_in(chunks: list[bytes]) -> list[dict]:
    """The header of every request among ``chunks``, in the order sent: what
    ``wire_transcript`` recorded, or the stub's ``lines``."""
    return [json.loads(chunk.split(b"\n", 1)[0]) for chunk in chunks if chunk.startswith(b'{"op"')]


def ops_in(chunks: list[bytes]) -> list[str]:
    return [request["op"] for request in requests_in(chunks)]


def acknowledged(request):
    """A stub reply acknowledging ``request`` under ``STUB_KEY``."""
    envelope = wire.envelope_from_json(request)
    return STATUS_OK, {"ack": hmac_sha256(envelope.ack_body(), STUB_KEY).hex()}


class TestRememberedCounter:
    """A client signs a MODIFY from the counter its own acknowledged write proved."""

    def test_a_fresh_client_asks_first(self, env, wire_transcript):
        server, keys = env
        client_for(server, keys, 1).create(11)
        wire_transcript.clear()
        alice = client_for(server, keys, 1)
        assert alice.modify(11, IMAGE, BUILD, COMPOSE)["version"] == 1
        assert ops_in(wire_transcript) == ["INFO", "MODIFY"]

    def test_writes_after_an_acknowledged_write_send_only_the_write(self, env, wire_transcript):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        assert alice.modify(11, IMAGE, BUILD, COMPOSE)["version"] == 1
        assert alice.modify(11, IMAGE + b"2", BUILD, COMPOSE, encrypt=True)["version"] == 2
        assert ops_in(wire_transcript) == ["CREATE", "MODIFY", "MODIFY"]
        # ACL_SET still asks, for the ACL view; the MODIFY after it does not.
        alice.acl_set(11, 2, 1)
        assert alice.modify(11, IMAGE + b"3", BUILD, COMPOSE)["version"] == 3
        assert ops_in(wire_transcript)[3:] == ["INFO", "ACL_SET", "MODIFY"]
        outcome = alice.fetch(11)
        assert outcome.verdict == Verdict.VERIFIED and outcome.blobs.image == IMAGE + b"3"

    def test_a_stale_counter_is_refused_then_asked_for(self, env, wire_transcript):
        server, keys = env
        alice, bob = client_for(server, keys, 1), client_for(server, keys, 2)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE)
        alice.acl_set(11, 2, 2)
        bob.modify(11, IMAGE + b"bob", BUILD, COMPOSE)  # moves the counter alice remembers
        wire_transcript.clear()
        assert alice.modify(11, IMAGE + b"alice", BUILD, COMPOSE, encrypt=True)["version"] == 3
        assert ops_in(wire_transcript) == ["MODIFY", "INFO", "MODIFY"]
        first, second = (r["payload"] for r in requests_in(wire_transcript) if r["op"] == "MODIFY")
        assert second["counter"] == first["counter"] + 1
        assert second["secret_commitment"] != first["secret_commitment"]  # a fresh secret
        outcome = alice.fetch(11)
        assert outcome.verdict == Verdict.VERIFIED and outcome.version == 3
        assert outcome.blobs.image == IMAGE + b"alice"
        service = server.service
        assert service.module.root == service.container_tree().root
        # A shared container is asked for before every later MODIFY.
        wire_transcript.clear()
        assert alice.modify(11, IMAGE, BUILD, COMPOSE)["version"] == 4
        assert ops_in(wire_transcript) == ["INFO", "MODIFY"]

    def test_a_second_refusal_is_raised(self, env, wire_transcript):
        server, keys = env
        alice, bob = client_for(server, keys, 1), client_for(server, keys, 2)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE)
        alice.acl_set(11, 2, 2)
        bob.modify(11, IMAGE + b"bob", BUILD, COMPOSE)
        alice.acl_set(11, 2, 1)  # bob may read, no longer write
        wire_transcript.clear()
        with pytest.raises(RequestRejected, match="not acknowledged"):
            bob.modify(11, IMAGE, BUILD, COMPOSE)
        assert ops_in(wire_transcript) == ["MODIFY", "INFO", "MODIFY"]
        assert alice.info(11).response.max_version == 2

    @pytest.mark.parametrize("applied", [True, False], ids=["applied", "held"])
    @pytest.mark.parametrize("encrypt", [False, True], ids=["plain", "encrypted"])
    def test_a_refusal_no_verified_info_bears_out_is_raised_unsigned(
        self, env, wire_transcript, monkeypatch, applied, encrypt
    ):
        server, keys = env
        alice = client_for(server, keys, 1)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE)
        service = server.service
        modify = service.handle_modify

        def lying(*args, **kwargs):
            """Apply the request, or keep it, and report it refused."""
            if applied:
                modify(*args, **kwargs)
            return None

        monkeypatch.setattr(service, "handle_modify", lying)
        wire_transcript.clear()
        with pytest.raises(RequestRejected, match="not acknowledged"):
            alice.modify(11, IMAGE + b"2", BUILD, COMPOSE, encrypt=encrypt)
        assert ops_in(wire_transcript) == ["MODIFY", "INFO"]  # signed once only
        assert alice.info(11).response.max_version == (2 if applied else 1)

    def test_a_refusal_only_hints_answer_is_raised_unsigned(self, stub):
        port, table, lines = stub
        table.update({"CREATE": acknowledged, "MODIFY": answer(STATUS_REJECTED, {}),
                      "INFO": answer(STATUS_ERROR, {"hints": {"counter": 2}})})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        client.create(5)
        with pytest.raises(RequestRejected, match="not acknowledged"):
            client.modify(5, IMAGE, BUILD, COMPOSE)
        assert ops_in(lines) == ["CREATE", "MODIFY", "INFO"]

    @pytest.mark.parametrize("reply, failure, match", [
        (answer(STATUS_OK, {"ack": "00" * 32}), RequestRejected, "does not verify"),
        (lambda request: b"", ProtocolFailure, "closed before a reply"),
        (answer(STATUS_ERROR, {"message": "storage failure: EIO"}), ProtocolFailure, "EIO"),
    ], ids=["bad-ack", "no-reply", "error"])
    def test_a_remembered_write_that_may_have_applied_is_not_retried(
        self, stub, reply, failure, match
    ):
        port, table, lines = stub
        table.update({"CREATE": acknowledged, "MODIFY": reply, "INFO": info_answer()})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        client.create(5)
        with pytest.raises(failure, match=match):
            client.modify(5, IMAGE, BUILD, COMPOSE)
        assert ops_in(lines) == ["CREATE", "MODIFY"]
        # The entry is gone: the next MODIFY asks first.
        with pytest.raises(failure, match=match):
            client.modify(5, IMAGE, BUILD, COMPOSE)
        assert ops_in(lines) == ["CREATE", "MODIFY", "INFO", "MODIFY"]


class TestCli:
    def test_server_refuses_a_store_of_another_layout(self, tmp_path, monkeypatch):
        import json
        import sqlite3

        from tcr.server import main as server_main

        self.never_serve(monkeypatch)
        db = tmp_path / "old.db"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE nodes(tree TEXT, pos INTEGER, digest BLOB)")
        conn.close()
        users = tmp_path / "users.json"
        users.write_text(json.dumps({"1": "00" * 32}))
        with pytest.raises(SystemExit, match="schema version 0.*provision a fresh store"):
            server_main(["--listen", "127.0.0.1:0", "--db", str(db), "--module-state",
                         str(tmp_path / "module.bin"), "--height", "4", "--data-dir",
                         str(tmp_path / "blobs"), "--users", str(users)])
        assert not (tmp_path / "module.bin").exists()  # nothing provisioned

    @staticmethod
    def never_serve(monkeypatch):
        def serve_forever(self, *args, **kwargs):
            raise AssertionError("the server started serving")

        monkeypatch.setattr(RepositoryServer, "serve_forever", serve_forever)

    def test_server_refuses_a_version_1_store(self, tmp_path, monkeypatch):
        from conftest import V1_TREE_LAYOUT

        self.check_refused(tmp_path, monkeypatch, 1, V1_TREE_LAYOUT)

    def test_server_refuses_a_version_2_store(self, tmp_path, monkeypatch):
        from conftest import V2_LAYOUT

        self.check_refused(tmp_path, monkeypatch, 2, V2_LAYOUT)

    def test_server_refuses_a_version_3_store(self, tmp_path, monkeypatch):
        from conftest import V3_LAYOUT

        self.check_refused(tmp_path, monkeypatch, 3, V3_LAYOUT)

    def check_refused(self, tmp_path, monkeypatch, version, layout):
        from tcr.server import main as server_main

        self.never_serve(monkeypatch)
        db = tmp_path / f"v{version}.db"
        conn = sqlite3.connect(db)
        conn.executescript(layout)
        conn.close()
        before = db.read_bytes()
        users = tmp_path / "users.json"
        users.write_text(json.dumps({"1": "00" * 32}))
        match = f"schema version {version}.*needs 4.*provision a fresh store"
        with pytest.raises(SystemExit, match=match):
            server_main(["--listen", "127.0.0.1:0", "--db", str(db), "--module-state",
                         str(tmp_path / "module.bin"), "--height", "4", "--data-dir",
                         str(tmp_path / "blobs"), "--users", str(users)])
        assert db.read_bytes() == before
        assert not (tmp_path / "module.bin").exists()

    def test_the_acl_height_is_no_option(self, tmp_path, monkeypatch, capsys):
        # Every ACL tree has storage.ACL_HEIGHT levels: a server told another
        # height stops at the command line instead of serving with this one.
        from tcr.server import main as server_main

        self.never_serve(monkeypatch)
        users = tmp_path / "users.json"
        users.write_text(json.dumps({"1": STUB_KEY.hex()}))
        argv = ["--listen", "127.0.0.1:0", "--db", str(tmp_path / "repo.db"), "--module-state",
                str(tmp_path / "module.bin"), "--height", "4", "--data-dir",
                str(tmp_path / "blobs"), "--users", str(users), "--acl-height", "16"]
        with pytest.raises(SystemExit) as stopped:
            server_main(argv)
        assert stopped.value.code == 2
        assert "unrecognized arguments: --acl-height 16" in capsys.readouterr().err
        assert not (tmp_path / "module.bin").exists() and not (tmp_path / "repo.db").exists()

    # Tree heights the store cannot address: node positions past 2^63 - 1 are no sqlite key.
    BAD_HEIGHTS = {
        "height-63": ["--height", "63"],
        "height-64": ["--height", "64"],
        "negative-height": ["--height", "-1"],
    }

    @pytest.mark.parametrize("damage", ["truncated-state", "flipped-state-byte", "non-hex-users-key",
                                        "db-in-missing-dir", "db-not-sqlite", "state-in-missing-dir",
                                        "data-dir-is-a-file", *BAD_HEIGHTS, "height-62"])
    def test_server_stops_on_a_damaged_state_or_users_file(self, damage, tmp_path, monkeypatch):
        from tcr.module import save_state
        from tcr.server import main as server_main

        self.never_serve(monkeypatch)
        missing = tmp_path / "missing"
        state_file, users = tmp_path / "module.bin", tmp_path / "users.json"
        db = missing / "repo.db" if damage == "db-in-missing-dir" else tmp_path / "repo.db"
        if damage == "state-in-missing-dir":
            state_file = missing / "module.bin"
        argv = ["--listen", "127.0.0.1:0", "--db", str(db), "--module-state",
                str(state_file), "--height", "4", "--data-dir", str(tmp_path / "blobs")]
        if "height" in damage:
            users.write_text(json.dumps({"1": STUB_KEY.hex()}))
            flag, value = self.BAD_HEIGHTS.get(damage, ["--height", "62"])
            if damage == "height-62":  # the tallest tree the store addresses is served
                with pytest.raises(AssertionError, match="started serving"):
                    server_main(argv + [flag, value, "--users", str(users)])
                return
            with pytest.raises(SystemExit, match=f"^{flag} {re.escape(value)} is outside 0..62$"):
                server_main(argv + [flag, value, "--users", str(users)])
            assert not state_file.exists() and not db.exists()  # stopped before provisioning
            return
        if damage == "non-hex-users-key":
            users.write_text(json.dumps({"1": "zz" * 32}))
            with pytest.raises(SystemExit, match=f"users file {re.escape(str(users))}: non-hexadecimal"):
                server_main(argv + ["--users", str(users)])
            assert not state_file.exists() and not (tmp_path / "repo.db").exists()
            return
        if damage.startswith(("db-", "data-dir-")) or damage == "state-in-missing-dir":
            # Provisioning from a users file, on paths that cannot be opened or written.
            users.write_text(json.dumps({"1": STUB_KEY.hex()}))
            if damage == "db-not-sqlite":
                db.write_bytes(b"not a database" * 100)
            if damage == "data-dir-is-a-file":
                (tmp_path / "blobs").write_bytes(b"not a directory")
            expected = {
                "db-in-missing-dir": f"cannot open {re.escape(str(db))}: unable to open",
                "db-not-sqlite": f"cannot open {re.escape(str(db))}: file is not a database",
                "state-in-missing-dir": f"cannot save module state {re.escape(str(state_file))}: ",
                "data-dir-is-a-file": f"cannot open {re.escape(str(db))}: data directory "
                                      f"{re.escape(str(tmp_path / 'blobs'))}: File exists$",
            }[damage]
            with pytest.raises(SystemExit, match=expected):
                server_main(argv + ["--users", str(users)])
            assert not missing.exists() and not state_file.exists()
            if damage.startswith("db-"):  # a store refused before its data directory is made
                assert not (tmp_path / "blobs").exists()
            return
        save_state(ModuleState.fresh({1: STUB_KEY}), state_file)
        data = bytearray(state_file.read_bytes())
        if damage == "truncated-state":
            del data[-1]
            reason = "truncated module state"
        else:
            data[10] ^= 1
            reason = "self-MAC mismatch"
        state_file.write_bytes(bytes(data))
        with pytest.raises(SystemExit, match=f"module state {re.escape(str(state_file))}: .*{reason}"):
            server_main(argv)
        assert state_file.read_bytes() == bytes(data)

    @pytest.mark.parametrize("port", ["99999", "65536", "-1", "\u00b2", "9" * 5000],
                             ids=["99999", "65536", "negative", "superscript", "5000-digits"])
    def test_cli_refuses_a_port_outside_the_tcp_range_before_reading_the_key(
        self, port, tmp_path, capsys, monkeypatch
    ):
        from tcr.cli import EXIT_PROTOCOL, main

        def no_connection(*args, **kwargs):
            raise AssertionError("connected")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        argv = ["--server", f"127.0.0.1:{port}", "--user", "1",
                "--key-file", str(tmp_path / "missing.key"), "info", "--index", "5"]
        assert main(argv) == EXIT_PROTOCOL
        err = capsys.readouterr().err
        assert "bad --server value" in err and "0..65535" in err and "key-file" not in err, err

    def test_server_refuses_a_port_outside_the_tcp_range_before_opening_anything(
        self, tmp_path, monkeypatch, capsys
    ):
        from tcr.server import main as server_main

        self.never_serve(monkeypatch)
        users = tmp_path / "users.json"
        users.write_text(json.dumps({"1": STUB_KEY.hex()}))
        argv = ["--db", str(tmp_path / "repo.db"), "--module-state", str(tmp_path / "module.bin"),
                "--height", "4", "--data-dir", str(tmp_path / "blobs"), "--users", str(users)]
        with pytest.raises(SystemExit) as stopped:
            server_main(["--listen", "127.0.0.1:99999"] + argv)
        assert stopped.value.code == 2  # argparse's usage error, not a bind() traceback
        assert "port in 0..65535" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["users.json"]
        # Port 0, "any free port", stays valid.
        with pytest.raises(AssertionError, match="started serving"):
            server_main(["--listen", "127.0.0.1:0"] + argv)

    def test_exit_codes(self, env, tmp_path, capsys):
        from tcr.cli import main

        server, keys = env
        port = server.server_address[1]
        key_file = tmp_path / "user1.key"
        key_file.write_text(keys[1].hex())
        base = ["--server", f"127.0.0.1:{port}", "--user", "1", "--key-file", str(key_file)]

        assert main(base + ["create", "--index", "21"]) == 0
        # No version yet: INFO verifies, and FETCH has nothing to attest.
        capsys.readouterr()
        assert main(base + ["info", "--index", "21"]) == 0
        assert capsys.readouterr().out == "container 21: counter 1, no versions yet\n"
        assert main(base + ["fetch", "--index", "21", "--out", str(tmp_path / "none")]) == 4
        assert "no proof exists" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

        image, build, compose = tmp_path / "i", tmp_path / "b", tmp_path / "c"
        image.write_bytes(IMAGE)
        build.write_bytes(BUILD)
        compose.write_bytes(COMPOSE)
        assert main(base + ["modify", "--index", "21", "--image", str(image),
                            "--build", str(build), "--compose", str(compose)]) == 0
        assert main(base + ["info", "--index", "21"]) == 0

        out = tmp_path / "out"
        assert main(base + ["fetch", "--index", "21", "--out", str(out)]) == 0
        assert (out / "image").read_bytes() == IMAGE

        key2 = tmp_path / "user2.key"
        key2.write_text(keys[2].hex())
        other = ["--server", f"127.0.0.1:{port}", "--user", "2", "--key-file", str(key2)]
        assert main(other + ["info", "--index", "21"]) == 2  # denial
        assert main(base + ["acl-set", "--index", "21", "--target-user", "2", "--level", "1"]) == 0
        assert main(other + ["info", "--index", "21"]) == 0

        # A request the module will not acknowledge: unproven, exit 3.
        assert main(base + ["create", "--index", "21"]) == 3

        # Unreachable server: protocol error.
        dead = ["--server", "127.0.0.1:1", "--user", "1", "--key-file", str(key_file)]
        assert main(dead + ["info", "--index", "21"]) == 4

    def test_unwritable_fetch_output_is_one_line(self, env, tmp_path, capsys):
        from tcr.cli import EXIT_PROTOCOL, main

        server, keys = env
        key_file = tmp_path / "user1.key"
        key_file.write_text(keys[1].hex())
        base = ["--server", f"127.0.0.1:{server.server_address[1]}", "--user", "1",
                "--key-file", str(key_file)]
        client = client_for(server, keys, 1)
        client.create(22)
        client.modify(22, IMAGE, BUILD, COMPOSE)
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory")
        capsys.readouterr()
        assert main(base + ["fetch", "--index", "22", "--out", str(taken)]) == EXIT_PROTOCOL
        err = capsys.readouterr().err
        assert err == f"verified, but cannot write {taken}: File exists\n", err
        assert taken.read_bytes() == b"not a directory"

    @pytest.mark.parametrize("argv", [
        ["--user", "1", "create", "--index", "-1"],
        ["--user", "1", "create", "--index", str(1 << 64)],
        ["--user", "1", "acl-set", "--index", "5", "--target-user", "-1", "--level", "1"],
        ["--user", "-1", "info", "--index", "5"],
    ])
    def test_out_of_range_indices_refused_before_connecting(self, argv, tmp_path, capsys,
                                                           monkeypatch):
        from tcr.cli import EXIT_PROTOCOL, main

        def no_connection(*args, **kwargs):
            raise AssertionError("connected")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        key_file = tmp_path / "user.key"
        key_file.write_text(STUB_KEY.hex())
        assert main(["--server", "127.0.0.1:1", "--key-file", str(key_file)] + argv) == EXIT_PROTOCOL
        assert "is not a u64" in capsys.readouterr().err

    @pytest.mark.parametrize("key_text, argv, reason", [
        (None, ["info", "--index", "5"], "No such file"),
        ("not hex", ["info", "--index", "5"], "non-hexadecimal"),
        ("00" * 31, ["info", "--index", "5"], "must be 32 bytes"),
        (STUB_KEY.hex(), ["modify", "--index", "5", "--image", "missing", "--build", "b",
                          "--compose", "c"], "cannot read .*missing: No such file"),
    ], ids=["missing-key-file", "non-hex-key", "short-key", "missing-image"])
    def test_unreadable_local_inputs_refused_before_connecting(
        self, key_text, argv, reason, tmp_path, capsys, monkeypatch
    ):
        from tcr.cli import EXIT_PROTOCOL, main

        def no_connection(*args, **kwargs):
            raise AssertionError("connected")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b").write_bytes(BUILD)
        (tmp_path / "c").write_bytes(COMPOSE)
        key_file = tmp_path / "user.key"
        if key_text is not None:
            key_file.write_text(key_text)
        code = main(["--server", "127.0.0.1:1", "--user", "1", "--key-file", str(key_file)] + argv)
        err = capsys.readouterr().err
        assert code == EXIT_PROTOCOL
        assert re.search(reason, err) and len(err.strip().splitlines()) == 1, err
