"""User-side operations: signing, commitments, encryption, proof checking.

The client trusts only its own key.  Acknowledgements and query responses
are recomputed locally and compared; content is accepted only when its
recomputed digest matches the module-attested one.  Nothing the service
says is believed on its own.
"""

from __future__ import annotations

import hashlib
import secrets
import socket
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional

from .iomt import Iomt, Leaf, TreeFullError, counter_digest, leaf_digest
from .merkle import (
    DIGEST_SIZE,
    ZERO_DIGEST,
    encode_fields,
    hmac_sha256,
    macs_equal,
    sha256,
)
from .module import RequestEnvelope, RequestKind, VerifyResponse, secret_commitment
from .storage import CIPHER_ID, BlobSet, content_digest, initial_acl_leaf
from .wire import (
    STATUS_DENIED,
    STATUS_OK,
    STATUS_REJECTED,
    WireError,
    blobs_from_json,
    blobs_to_json,
    envelope_to_json,
    read_message,
    response_from_json,
    u64_field,
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


@contextmanager
def _decoding(op: str) -> Iterator[None]:
    """Report a reply that lacks a field or carries a malformed one as a
    :class:`ProtocolFailure`, not as whatever the decoding raised."""
    try:
        yield
    except (KeyError, ValueError, TypeError, OverflowError, WireError) as exc:
        raise ProtocolFailure(f"malformed {op} reply: {exc!r}") from exc


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
        return leaf_digest(initial_acl_leaf(self.user_idx))

    def check_response(self, response: VerifyResponse) -> bool:
        return macs_equal(response.tag, hmac_sha256(response.tag_body(), self.key))


def xor_keystream(secret: bytes, data: bytes) -> bytes:
    """Keyed keystream cipher; applying it twice is the identity.

    The data is XORed with the first ``len(data)`` bytes of the SHAKE-256
    output (FIPS 202) of ``CIPHER_ID || secret``.  A pad byte must never be
    used twice, so a secret encrypts one byte string only; :func:`xor_blobs`
    makes a version's three blobs one such string.  Integrity comes from the
    content digest, not from the cipher.
    """
    if len(secret) != DIGEST_SIZE:
        raise ValueError("keystream secret must be 32 bytes")
    pad = hashlib.shake_256(CIPHER_ID + secret).digest(len(data))
    stream = int.from_bytes(pad, "big")
    return (int.from_bytes(data, "big") ^ stream).to_bytes(len(data), "big")


def xor_blobs(secret: bytes, blobs: BlobSet) -> BlobSet:
    """Encrypt or decrypt one version's blobs under one keystream.

    The keystream runs once over ``image || build || compose``, so the blobs
    share no pad bytes and the image sits at offset 0.
    """
    out = xor_keystream(secret, blobs.image + blobs.build + blobs.compose)
    first, second = len(blobs.image), len(blobs.image) + len(blobs.build)
    return BlobSet(out[:first], out[first:second], out[second:])


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
    tree = Iomt.from_leaves(
        int(hints["acl_height"]),
        [
            (int(slot), Leaf(int(idx), int(nxt), bytes.fromhex(val)))
            for slot, idx, nxt, val in hints["acl"]
        ],
    )
    return tree.upsert(target_user, counter_digest(level))


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
    """One-shot wire client; a fresh connection per command."""

    def __init__(
        self, host: str, port: int, credential: UserCredential, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.credential = credential
        self.timeout = timeout
        self._next_id = 0

    # -- transport ----------------------------------------------------------------

    def _request(self, op: str, payload: dict) -> tuple[str, dict]:
        self._next_id += 1
        message = {"op": op, "request_id": self._next_id, "payload": payload}
        try:
            with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
                fp = sock.makefile("rwb")
                write_message(fp, message)
                reply = read_message(fp)
        except OSError as exc:
            raise ProtocolFailure(f"transport failure: {exc}") from exc
        except WireError as exc:
            raise ProtocolFailure(f"malformed {op} reply: {exc}") from exc
        if reply is None:
            raise ProtocolFailure("connection closed before a reply arrived")
        if reply.get("request_id") != self._next_id:
            raise ProtocolFailure("reply does not match the request")
        body = reply.get("payload") or {}
        if not isinstance(body, dict):
            raise ProtocolFailure("reply payload is not an object")
        return reply.get("status", ""), body

    def _mutate(self, op: str, envelope: RequestEnvelope, extra: Optional[dict] = None) -> dict:
        payload = envelope_to_json(envelope)
        if extra:
            payload.update(extra)
        status, body = self._request(op, payload)
        if status == STATUS_REJECTED:
            raise RequestRejected(f"{op} was not acknowledged")
        if status != STATUS_OK:
            raise ProtocolFailure(body.get("message", f"{op} failed"))
        with _decoding(op):
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
        with _decoding("INFO"):
            response = response_from_json(body["response"])
            verdict = check_info_response(
                self.credential, response, nonce, idx, requested_version=version,
                expect_exists=expect_exists,
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
        with _decoding("INFO"):
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
            return u64_field(hints, "counter"), hints

    def modify(
        self, idx: int, image: bytes, build: bytes, compose: bytes, encrypt: bool = False
    ) -> dict:
        counter, _ = self._counter_and_hints(idx)
        blobs = BlobSet(image, build, compose)
        extra: dict = {}
        if encrypt:
            secret = secrets.token_bytes(DIGEST_SIZE)
            wrapped, commitment = wrap_secret(self.credential, secret, idx, counter)
            blobs = xor_blobs(secret, blobs)
            extra = {"wrapped_secret": wrapped.hex(), "secret_commitment": commitment.hex()}
        else:
            commitment = ZERO_DIGEST
        digest = content_digest(blobs.hashes(), commitment)
        envelope = self.credential.sign_request(RequestKind.CONTAINER, idx, counter, digest)
        extra.update(blobs_to_json(blobs))
        return self._mutate("MODIFY", envelope, extra)

    def acl_set(self, idx: int, target_user: int, level: int) -> dict:
        counter, hints = self._counter_and_hints(idx)
        if hints is None:
            raise RequestRejected("no ACL view available; cannot form the request")
        with _decoding("INFO"):
            try:
                new_root = predicted_acl_root(hints, target_user, level)
            except TreeFullError as exc:
                raise ProtocolFailure(
                    f"cannot grant user {target_user}: the ACL of container {idx} is full"
                ) from exc
        envelope = self.credential.sign_request(RequestKind.ACL, idx, counter, new_root)
        return self._mutate("ACL_SET", envelope, {"target_user": target_user, "level": level})

    def fetch(self, idx: int, version: int = 0) -> FetchOutcome:
        """Content checked against the module's answer from the same reply."""
        nonce, status, body = self._query("FETCH", {"idx": idx, "version": version})
        if status not in (STATUS_OK, STATUS_DENIED):
            raise ProtocolFailure(body.get("message", "FETCH failed"))
        with _decoding("FETCH"):
            response = response_from_json(body["response"])
            verdict = check_info_response(
                self.credential, response, nonce, idx, requested_version=version
            )
            if verdict != Verdict.VERIFIED:
                return FetchOutcome(verdict, None, None, False)
            blobs = blobs_from_json(body)
            commitment = bytes.fromhex(body["secret_commitment"])
            delivered = bytes.fromhex(body.get("sealed_for_user") or "")

        fetched_version = response.requested_version
        encrypted = commitment != ZERO_DIGEST
        attested = response.content_digest
        if content_digest(blobs.hashes(), commitment) != attested:
            return FetchOutcome(Verdict.INVALID, None, None, encrypted)

        if not encrypted:
            return FetchOutcome(Verdict.VERIFIED, fetched_version, blobs, False)

        if not delivered:
            return FetchOutcome(Verdict.INVALID, None, None, True)
        secret = unwrap_secret(self.credential, delivered, commitment, idx)
        if secret is None:
            return FetchOutcome(Verdict.INVALID, None, None, True)
        return FetchOutcome(Verdict.VERIFIED, fetched_version, xor_blobs(secret, blobs), True)

    def bench_prepopulate(self, count: int, owner: int) -> dict:
        status, body = self._request("BENCH_PREPOPULATE", {"count": count, "owner": owner})
        if status != STATUS_OK:
            raise ProtocolFailure(body.get("message", "prepopulate refused"))
        return body
