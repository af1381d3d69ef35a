from __future__ import annotations

import io
import secrets
import socket
import sys
import threading
import time

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
    content_digest_of,
    unwrap_secret,
    wrap_secret,
    xor_keystream,
)
from tcr.merkle import hmac_sha256, sha256, u64
from tcr.module import ModuleState, RequestEnvelope, RequestKind, TrustedModule, VerifyResponse
from tcr.server import RepositoryServer
from tcr.service import Service
from tcr.storage import Storage
from tcr.wire import WireError, read_message, response_from_json, response_to_json

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


def client_for(server, keys, user, transcript=None) -> RepositoryClient:
    port = server.server_address[1]
    return RepositoryClient("127.0.0.1", port, UserCredential(user, keys[user]), transcript=transcript)


def per_block_keystream(secret: bytes, data: bytes) -> bytes:
    """The keystream as first written, one HMAC and one byte loop per block."""
    out = bytearray(len(data))
    for block in range((len(data) + 31) // 32):
        pad = hmac_sha256(u64(block), secret)
        base = block * 32
        chunk = data[base : base + 32]
        out[base : base + len(chunk)] = bytes(a ^ b for a, b in zip(chunk, pad))
    return bytes(out)


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
        base = content_digest_of(IMAGE, BUILD, COMPOSE)
        assert base == content_digest_of(IMAGE, BUILD, COMPOSE)
        assert base != content_digest_of(IMAGE + b"x", BUILD, COMPOSE)
        assert base != content_digest_of(IMAGE, BUILD, COMPOSE, sha256(b"mu"))

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
        stale = server.service.handle_fetch(7, 1, 1, nonce=nonce).verify.response
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

    def test_encrypted_round_trip_and_transcript_confidentiality(self, env):
        server, keys = env
        transcript: list[bytes] = []
        alice = client_for(server, keys, 1, transcript=transcript)
        alice.create(11)
        alice.modify(11, IMAGE, BUILD, COMPOSE, encrypt=True)
        outcome = alice.fetch(11)
        assert outcome.verdict == Verdict.VERIFIED and outcome.encrypted
        assert outcome.blobs.image == IMAGE
        wire = b"\n".join(transcript)
        assert IMAGE.hex().encode() not in wire  # plaintext never crosses the wire

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


class TestCli:
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
