"""User-side operations: signing, commitments, encryption, proof checking.

The client trusts only its own key.  Acknowledgements and query responses
are recomputed locally and compared; content is accepted only when its
recomputed digest matches the module-attested one.  Nothing the service
says is believed on its own.
"""

from __future__ import annotations

import hmac
import json
import secrets
import socket
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .iomt import Leaf, counter_digest, leaf_digest, oracle_root, updated_leaf_map
from .merkle import (
    DIGEST_SIZE,
    ZERO_DIGEST,
    encode_fields,
    hmac_sha256,
    macs_equal,
    sha256,
)
from .module import RequestEnvelope, RequestKind, VerifyResponse, secret_commitment
from .storage import BlobSet
from .wire import (
    STATUS_DENIED,
    STATUS_OK,
    STATUS_REJECTED,
    WireError,
    envelope_to_json,
    read_message,
    response_from_json,
    write_message,
)


class Verdict(Enum):
    VERIFIED = "verified"
    DENIED = "denied"
    INVALID = "invalid"


class RequestRejected(Exception):
    """The module refused the request; no acknowledgement exists."""


class ProtocolFailure(Exception):
    """Transport trouble or a malformed exchange."""


@dataclass(frozen=True)
class UserCredential:
    user_idx: int
    key: bytes

    def __post_init__(self) -> None:
        if len(self.key) != DIGEST_SIZE:
            raise ValueError("credential key must be 32 bytes")

    @classmethod
    def load(cls, user_idx: int, key_file: str | Path) -> "UserCredential":
        text = Path(key_file).read_text().strip()
        return cls(user_idx, bytes.fromhex(text))

    def sign_request(self, kind: RequestKind, idx: int, counter: int, value: bytes) -> RequestEnvelope:
        unsigned = RequestEnvelope(kind, idx, counter, value, self.user_idx, b"")
        return RequestEnvelope(
            kind, idx, counter, value, self.user_idx, hmac_sha256(unsigned.signed_body(), self.key)
        )

    def verify_ack(self, envelope: RequestEnvelope, ack: bytes) -> bool:
        return macs_equal(ack, hmac_sha256(envelope.ack_body(), self.key))

    def initial_acl_root(self) -> bytes:
        """Root of the one-leaf ACL tree created with a new container.

        A single leaf with empty siblings carries its digest all the way to
        the root, so this does not depend on slot placement or tree height.
        """
        return leaf_digest(Leaf(self.user_idx, self.user_idx, counter_digest(3)))

    def check_response(self, response: VerifyResponse) -> bool:
        return macs_equal(response.tag, hmac_sha256(response.tag_body(), self.key))


def content_digest_of(
    image: bytes, build: bytes, compose: bytes, commitment: bytes = ZERO_DIGEST
) -> bytes:
    """Per-version commitment over the stored blob bytes and the secret commitment."""
    return sha256(sha256(image) + sha256(build) + sha256(compose) + commitment)


def xor_keystream(secret: bytes, data: bytes) -> bytes:
    """Keyed keystream cipher; applying it twice is the identity.

    Block ``j`` is padded with HMAC(j, secret).  Integrity comes from the
    content digest, not from the cipher.
    """
    if len(secret) != DIGEST_SIZE:
        raise ValueError("keystream secret must be 32 bytes")
    keyed = hmac.new(secret, digestmod="sha256")
    pads = bytearray()
    for block in range((len(data) + DIGEST_SIZE - 1) // DIGEST_SIZE):
        mac = keyed.copy()
        mac.update(block.to_bytes(8, "big"))  # the u64 encoding of j
        pads += mac.digest()
    stream = int.from_bytes(pads[: len(data)], "big")
    return (int.from_bytes(data, "big") ^ stream).to_bytes(len(data), "big")


def wrap_secret(cred: UserCredential, secret: bytes, idx: int, counter: int) -> tuple[bytes, bytes]:
    """Pad a container secret for transport to the module.

    Returns the padded secret and the commitment binding it to the index.
    """
    pad = hmac_sha256(encode_fields(("u64", "u64"), (idx, counter)), cred.key)
    wrapped = bytes(a ^ b for a, b in zip(secret, pad))
    return wrapped, secret_commitment(idx, secret)


def unwrap_secret(
    cred: UserCredential, delivered: bytes, commitment: bytes, idx: int
) -> Optional[bytes]:
    """Strip the module's delivery pad; ``None`` if the commitment fails."""
    pad = sha256(commitment + cred.key)
    secret = bytes(a ^ b for a, b in zip(delivered, pad))
    if not macs_equal(commitment, secret_commitment(idx, secret)):
        return None
    return secret


def check_info_response(
    cred: UserCredential,
    response: VerifyResponse,
    nonce_sent: bytes,
    expected_idx: int,
    requested_version: int = 0,
    expect_exists: Optional[bool] = None,
) -> Verdict:
    """Classify a query response: verified content, authenticated denial, or
    evidence of service misbehavior.

    The nonce echo defeats replays; the requested-version echo stops the
    service answering about a different version than was asked for, and
    a request for version 0 (the latest) must be answered about
    ``max_version``.
    """
    if not cred.check_response(response):
        return Verdict.INVALID
    if response.nonce != nonce_sent or response.idx != expected_idx:
        return Verdict.INVALID
    if response.denied:
        if expect_exists:
            return Verdict.INVALID  # a verified creation says otherwise
        return Verdict.DENIED
    if response.requested_version != (requested_version or response.max_version):
        return Verdict.INVALID
    if expect_exists is False:
        return Verdict.INVALID
    return Verdict.VERIFIED


def predicted_acl_root(hints: dict, target_user: int, level: int) -> bytes:
    """New ACL root after granting ``level`` to ``target_user``.

    Computed from the service's (unverified) view of the ACL tree; the
    signature over this root is what authorizes the change, and a lying
    service only strands itself with a tree it cannot re-prove.
    """
    height = int(hints["acl_height"])
    leaves = {
        int(slot): Leaf(int(idx), int(nxt), bytes.fromhex(val))
        for slot, idx, nxt, val in hints["acl"]
    }
    updated = updated_leaf_map(leaves, height, target_user, counter_digest(level))
    return oracle_root(updated, height)


@dataclass(frozen=True)
class InfoOutcome:
    verdict: Verdict
    response: Optional[VerifyResponse]
    hints: Optional[dict]


@dataclass(frozen=True)
class FetchOutcome:
    verdict: Verdict
    version: Optional[int]
    blobs: Optional[BlobSet]  # plaintext when the version was encrypted
    encrypted: bool


class RepositoryClient:
    """One-shot wire client; a fresh connection per command.

    ``transcript`` collects every raw line sent or received, which lets
    tests scan the actual wire bytes for anything that must never appear.
    """

    def __init__(
        self,
        host: str,
        port: int,
        credential: UserCredential,
        timeout: float = 30.0,
        transcript: Optional[list[bytes]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.credential = credential
        self.timeout = timeout
        self.transcript = transcript
        self._next_id = 0

    # -- transport ----------------------------------------------------------------

    def _request(self, op: str, payload: dict) -> tuple[str, dict]:
        self._next_id += 1
        message = {"op": op, "request_id": self._next_id, "payload": payload}
        try:
            with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
                fp = sock.makefile("rwb")
                if self.transcript is not None:
                    self.transcript.append(json.dumps(message).encode())
                write_message(fp, message)
                reply = read_message(fp)
        except (OSError, WireError) as exc:
            raise ProtocolFailure(f"transport failure: {exc}") from exc
        if reply is None:
            raise ProtocolFailure("connection closed before a reply arrived")
        if self.transcript is not None:
            self.transcript.append(json.dumps(reply).encode())
        if reply.get("request_id") != self._next_id:
            raise ProtocolFailure("reply does not match the request")
        return reply.get("status", ""), reply.get("payload") or {}

    def _mutate(self, op: str, envelope: RequestEnvelope, extra: Optional[dict] = None) -> dict:
        payload = envelope_to_json(envelope)
        if extra:
            payload.update(extra)
        status, body = self._request(op, payload)
        if status == STATUS_REJECTED:
            raise RequestRejected(f"{op} was not acknowledged")
        if status != STATUS_OK:
            raise ProtocolFailure(body.get("message", f"{op} failed"))
        ack = bytes.fromhex(body.get("ack", ""))
        if not self.credential.verify_ack(envelope, ack):
            raise RequestRejected(f"{op} acknowledgement does not verify")
        return body

    # -- commands -------------------------------------------------------------------

    def create(self, idx: int) -> dict:
        envelope = self.credential.sign_request(
            RequestKind.ACL, idx, 0, self.credential.initial_acl_root()
        )
        return self._mutate("CREATE", envelope)

    def _query(self, op: str, payload: dict) -> tuple[bytes, str, dict]:
        """Send a query under a fresh nonce; returns the nonce and the reply."""
        nonce = secrets.token_bytes(DIGEST_SIZE)
        status, body = self._request(
            op, {**payload, "nonce": nonce.hex(), "user": self.credential.user_idx}
        )
        return nonce, status, body

    def info(self, idx: int, version: int = 0, expect_exists: Optional[bool] = None) -> InfoOutcome:
        nonce, status, body = self._query("INFO", {"idx": idx, "requested_version": version})
        if status not in (STATUS_OK, STATUS_DENIED):
            raise ProtocolFailure(body.get("message", "INFO failed"))
        response = response_from_json(body["response"])
        verdict = check_info_response(
            self.credential, response, nonce, idx, requested_version=version, expect_exists=expect_exists
        )
        return InfoOutcome(verdict=verdict, response=response, hints=body.get("hints"))

    def _counter_and_hints(self, idx: int) -> tuple[int, Optional[dict]]:
        """Current counter (verified when possible) plus the service's hints.

        A container with no versions yet cannot be queried, so the counter
        falls back to the unverified hint riding on the error reply; a wrong
        hint only costs a rejected request.
        """
        nonce, status, body = self._query("INFO", {"idx": idx, "requested_version": 0})
        hints = body.get("hints")
        if status in (STATUS_OK, STATUS_DENIED):
            response = response_from_json(body["response"])
            verdict = check_info_response(self.credential, response, nonce, idx)
            if verdict == Verdict.VERIFIED:
                return response.counter, hints
            if verdict == Verdict.INVALID:
                raise RequestRejected("cannot trust the service's view of the container")
            raise RequestRejected("container is not accessible")
        if hints is None or "counter" not in hints:
            raise RequestRejected("no usable counter for the request")
        return int(hints["counter"]), hints

    def modify(
        self, idx: int, image: bytes, build: bytes, compose: bytes, encrypt: bool = False
    ) -> dict:
        counter, _ = self._counter_and_hints(idx)
        extra: dict = {}
        if encrypt:
            secret = secrets.token_bytes(DIGEST_SIZE)
            wrapped, commitment = wrap_secret(self.credential, secret, idx, counter)
            image = xor_keystream(secret, image)
            build = xor_keystream(secret, build)
            compose = xor_keystream(secret, compose)
            extra = {"wrapped_secret": wrapped.hex(), "secret_commitment": commitment.hex()}
        else:
            commitment = ZERO_DIGEST
        digest = content_digest_of(image, build, compose, commitment)
        envelope = self.credential.sign_request(RequestKind.CONTAINER, idx, counter, digest)
        extra.update({"image": image.hex(), "build": build.hex(), "compose": compose.hex()})
        return self._mutate("MODIFY", envelope, extra)

    def acl_set(self, idx: int, target_user: int, level: int) -> dict:
        counter, hints = self._counter_and_hints(idx)
        if hints is None:
            raise RequestRejected("no ACL view available; cannot form the request")
        new_root = predicted_acl_root(hints, target_user, level)
        envelope = self.credential.sign_request(RequestKind.ACL, idx, counter, new_root)
        return self._mutate("ACL_SET", envelope, {"target_user": target_user, "level": level})

    def fetch(self, idx: int, version: int = 0) -> FetchOutcome:
        """Content checked against the module's answer from the same reply."""
        nonce, status, body = self._query("FETCH", {"idx": idx, "version": version})
        if status not in (STATUS_OK, STATUS_DENIED):
            raise ProtocolFailure(body.get("message", "FETCH failed"))
        response = response_from_json(body["response"])
        verdict = check_info_response(
            self.credential, response, nonce, idx, requested_version=version
        )
        if verdict != Verdict.VERIFIED:
            return FetchOutcome(verdict, None, None, False)

        fetched_version = response.requested_version
        blobs = BlobSet(
            bytes.fromhex(body["image"]),
            bytes.fromhex(body["build"]),
            bytes.fromhex(body["compose"]),
        )
        commitment = bytes.fromhex(body["secret_commitment"])
        encrypted = commitment != ZERO_DIGEST
        attested = response.content_digest
        if content_digest_of(blobs.image, blobs.build, blobs.compose, commitment) != attested:
            return FetchOutcome(Verdict.INVALID, None, None, encrypted)

        if not encrypted:
            return FetchOutcome(Verdict.VERIFIED, fetched_version, blobs, False)

        delivered = body.get("sealed_for_user")
        if not delivered:
            return FetchOutcome(Verdict.INVALID, None, None, True)
        secret = unwrap_secret(self.credential, bytes.fromhex(delivered), commitment, idx)
        if secret is None:
            return FetchOutcome(Verdict.INVALID, None, None, True)
        plain = BlobSet(
            xor_keystream(secret, blobs.image),
            xor_keystream(secret, blobs.build),
            xor_keystream(secret, blobs.compose),
        )
        return FetchOutcome(Verdict.VERIFIED, fetched_version, plain, True)

    def bench_prepopulate(self, count: int, owner: int) -> dict:
        status, body = self._request("BENCH_PREPOPULATE", {"count": count, "owner": owner})
        if status != STATUS_OK:
            raise ProtocolFailure(body.get("message", "prepopulate refused"))
        return body
