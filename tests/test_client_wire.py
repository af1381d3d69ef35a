from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import re
import secrets
import socket
import socketserver
import sqlite3
import sys
import threading
import time
from dataclasses import replace

import pytest

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
from tcr.iomt import Iomt, counter_digest
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


def per_block_keystream(secret: bytes, data: bytes) -> bytes:
    """The keystream written from FIPS 202: one SHAKE-256 pad, XORed byte by byte."""
    pad = hashlib.shake_256(CIPHER_ID + secret).digest(len(data))
    return bytes(a ^ b for a, b in zip(data, pad))


class TestCrypto:
    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 12 * 1024, 256 * 1024 + 7])
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

    def test_denial_after_verified_creation_flags_misbehavior(self):
        cred = UserCredential(1, bytes(range(32)))
        from tcr.merkle import hmac_sha256

        nonce = secrets.token_bytes(32)
        denial = VerifyResponse(idx=7, nonce=nonce, tag=b"")
        denial = VerifyResponse(idx=7, nonce=nonce, tag=hmac_sha256(denial.tag_body(), cred.key))
        assert check_info_response(cred, denial, nonce, 7) == Verdict.DENIED
        assert check_info_response(cred, denial, nonce, 7, expect_exists=True) == Verdict.INVALID

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
        # Right after creation nothing is queryable yet; the ACL change must
        # still work from the hinted counter.
        server, keys = env
        alice, bob = client_for(server, keys, 1), client_for(server, keys, 2)
        alice.create(19)
        alice.acl_set(19, 2, 2)
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

        def disk_full(content: bytes) -> bytes:
            path = storage._blob_path(sha256(content))
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

        def disk_full(content: bytes) -> bytes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(service.storage, "_write_blob", disk_full)
        with pytest.raises(ProtocolFailure):
            alice.modify(11, IMAGE, BUILD, COMPOSE)
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
    the ``(status, payload)`` each request is answered with, or the raw line,
    and ``lines`` collects every line received and sent, newline included."""
    replies, lines = {}, []

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            line = self.rfile.readline()
            lines.append(line)
            message = json.loads(line)
            reply = replies[message["op"]](message["payload"])
            out = io.BytesIO()
            if isinstance(reply, bytes):  # a raw line, sent as it is
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


def fetch_answer(digest: bytes = ZERO_DIGEST, **fields):
    """A FETCH reply whose module answer attests ``digest`` and verifies under
    ``STUB_KEY``, plus ``fields``."""

    def reply(request):
        response = VerifyResponse(
            idx=request["idx"], nonce=bytes.fromhex(request["nonce"]), tag=b"", counter=2,
            max_version=1, requested_version=1, acl_root=ZERO_DIGEST, content_digest=digest,
        )
        tagged = replace(response, tag=hmac_sha256(response.tag_body(), STUB_KEY))
        return STATUS_OK, {"response": response_to_json(tagged), **fields}

    return reply


COUNTER_HINT = answer(STATUS_ERROR, {"hints": {"counter": 1}})

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
        {"FETCH": fetch_answer(image="zz", build="", compose="", secret_commitment="00" * 32)},
        id="fetch-bad-image-hex",
    ),
    pytest.param(
        "fetch", {"FETCH": fetch_answer(image="", build="", compose="")},
        id="fetch-without-commitment",
    ),
    pytest.param("modify", {"INFO": answer(STATUS_OK, {})}, id="modify-info-without-response"),
    pytest.param(
        "modify", {"INFO": answer(STATUS_ERROR, {"hints": {"counter": "x"}})},
        id="modify-bad-counter-hint",
    ),
    pytest.param(
        "modify", {"INFO": answer(STATUS_ERROR, {"hints": {"counter": float("inf")}})},
        id="modify-infinite-counter-hint",
    ),
    pytest.param(
        "modify", {"INFO": COUNTER_HINT, "MODIFY": answer(STATUS_OK, {"ack": "zz"})},
        id="modify-bad-ack-hex",
    ),
    pytest.param("acl_set", {"INFO": answer(STATUS_OK, {})}, id="acl-set-info-without-response"),
    pytest.param("acl_set", {"INFO": COUNTER_HINT}, id="acl-set-hints-without-acl"),
    pytest.param(
        "acl_set",
        {"INFO": answer(STATUS_ERROR, {"hints": {"counter": 1, "acl_height": 8, "acl": [[0, 1]]}})},
        id="acl-set-short-acl-row",
    ),
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
        rows = [[slot, leaf.idx, leaf.next_idx, leaf.val.hex()] for slot, leaf in acl.leaves()]
        table["INFO"] = answer(STATUS_ERROR, {"hints": {"counter": 1, "acl_height": 8, "acl": rows}})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        with pytest.raises(ProtocolFailure, match="ACL of container 5 is full"):
            client.acl_set(5, 1000, 1)
        assert [json.loads(line).get("op") for line in lines[::2]] == ["INFO"]  # no ACL_SET sent

    def test_transcript_holds_the_bytes_on_the_wire(self, stub, wire_transcript):
        # The recorder the confidentiality tests scan sees exactly the stub's lines.
        port, table, lines = stub
        table["INFO"] = COUNTER_HINT
        table["MODIFY"] = answer(STATUS_OK, {"ack": "00" * 32})
        client = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY))
        with pytest.raises(RequestRejected, match="does not verify"):
            client.modify(5, IMAGE, BUILD, COMPOSE, encrypt=True)
        assert len(lines) == 4  # INFO and MODIFY, each with its reply
        assert wire_transcript == lines


def encrypted_fetch_answer(tagged: bool):
    """A FETCH reply for an encrypted version of container 5 whose secret opens
    for ``STUB_KEY``; its attested digest covers the cipher tag only if ``tagged``."""
    secret = secrets.token_bytes(32)
    commitment = secret_commitment(5, secret)
    cipher = xor_blobs(secret, BlobSet(IMAGE, BUILD, COMPOSE))
    hashes = cipher.hashes()
    digest = sha256(b"".join(hashes) + commitment + (CIPHER_ID if tagged else b""))
    delivered = bytes(a ^ b for a, b in zip(secret, sha256(commitment + STUB_KEY)))
    return fetch_answer(
        digest, image=cipher.image.hex(), build=cipher.build.hex(),
        compose=cipher.compose.hex(), secret_commitment=commitment.hex(),
        sealed_for_user=delivered.hex(),
    )


class TestCipherTag:
    def test_tagged_version_verifies(self, stub):
        port, table, _ = stub
        table["FETCH"] = encrypted_fetch_answer(tagged=True)
        outcome = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY)).fetch(5)
        assert outcome.verdict == Verdict.VERIFIED and outcome.encrypted
        assert outcome.blobs == BlobSet(IMAGE, BUILD, COMPOSE)

    def test_version_attested_without_the_cipher_tag_is_invalid(self, stub):
        port, table, _ = stub
        table["FETCH"] = encrypted_fetch_answer(tagged=False)
        outcome = RepositoryClient("127.0.0.1", port, UserCredential(1, STUB_KEY)).fetch(5)
        assert outcome.verdict == Verdict.INVALID and outcome.blobs is None


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
        match = f"schema version {version}.*needs 3.*provision a fresh store"
        with pytest.raises(SystemExit, match=match):
            server_main(["--listen", "127.0.0.1:0", "--db", str(db), "--module-state",
                         str(tmp_path / "module.bin"), "--height", "4", "--data-dir",
                         str(tmp_path / "blobs"), "--users", str(users)])
        assert db.read_bytes() == before
        assert not (tmp_path / "module.bin").exists()

    @pytest.mark.parametrize("damage", ["truncated-state", "flipped-state-byte", "non-hex-users-key",
                                        "db-in-missing-dir", "db-not-sqlite", "state-in-missing-dir"])
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
        if damage == "non-hex-users-key":
            users.write_text(json.dumps({"1": "zz" * 32}))
            with pytest.raises(SystemExit, match=f"users file {re.escape(str(users))}: non-hexadecimal"):
                server_main(argv + ["--users", str(users)])
            assert not state_file.exists() and not (tmp_path / "repo.db").exists()
            return
        if damage.startswith("db-") or damage == "state-in-missing-dir":
            # Provisioning from a users file, on paths that cannot be opened or written.
            users.write_text(json.dumps({"1": STUB_KEY.hex()}))
            if damage == "db-not-sqlite":
                db.write_bytes(b"not a database" * 100)
            expected = {
                "db-in-missing-dir": f"cannot open {re.escape(str(db))}: unable to open",
                "db-not-sqlite": f"cannot open {re.escape(str(db))}: file is not a database",
                "state-in-missing-dir": f"cannot save module state {re.escape(str(state_file))}: ",
            }[damage]
            with pytest.raises(SystemExit, match=expected):
                server_main(argv + ["--users", str(users)])
            assert not missing.exists() and not state_file.exists()
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

    def test_exit_codes(self, env, tmp_path):
        from tcr.cli import main

        server, keys = env
        port = server.server_address[1]
        key_file = tmp_path / "user1.key"
        key_file.write_text(keys[1].hex())
        base = ["--server", f"127.0.0.1:{port}", "--user", "1", "--key-file", str(key_file)]

        assert main(base + ["create", "--index", "21"]) == 0

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
