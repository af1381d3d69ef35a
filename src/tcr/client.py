"""User-side operations: signing, commitments, encryption, proof checking.

The client trusts only its own key.  Acknowledgements and query responses
are recomputed locally and compared; content is accepted only when its
recomputed digest matches the module-attested one.  Nothing the service
says is believed on its own.
"""

from __future__ import annotations

import secrets
import socket
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .iomt import Iomt, IomtError, Leaf, TreeFullError, counter_digest, leaf_digest
from .merkle import (
    DIGEST_SIZE,
    ZERO_DIGEST,
    encode_fields,
    hmac_sha256,
    macs_equal,
    sha256,
)
from .module import RequestEnvelope, RequestKind, VerifyResponse, secret_commitment
from .storage import ACL_HEIGHT, BlobSet, content_digest, initial_acl_leaf
from .wire import (
    STATUS_DENIED,
    STATUS_OK,
    STATUS_REJECTED,
    WireError,
    blobs_field,
    check_fetchable,
    envelope_to_json,
    read_message,
    response_from_json,
    u64_field,
    write_message,
)


# Read buffer of the client's socket file: a FETCH reply's raw frame arrives
# in a few fills of this size, and each readline of it is served from here.
# Writes keep the default buffer, since a MODIFY goes out in one write.
REPLY_BUFFER_BYTES = 1 << 20


class Verdict(Enum):
    VERIFIED = "verified"
    DENIED = "denied"
    INVALID = "invalid"


class RequestRejected(Exception):
    """The module refused the request; no acknowledgement exists."""


class _Refused(RequestRejected):
    """The reply's status says the module refused ``envelope``.

    The status carries no authentication: it is the service's word only.
    """

    def __init__(self, op: str, envelope: RequestEnvelope) -> None:
        super().__init__(f"{op} was not acknowledged")
        self.envelope = envelope


class ProtocolFailure(Exception):
    """Transport trouble or a malformed exchange."""


@contextmanager
def _decoding(op: str) -> Iterator[None]:
    """Report a reply that lacks a field or carries a malformed one as a
    :class:`ProtocolFailure`, not as whatever the decoding raised."""
    try:
        yield
    except (KeyError, ValueError, TypeError, OverflowError, WireError, IomtError) as exc:
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

    The data is XORed with the ChaCha20 keystream (RFC 8439) keyed by the
    32-byte ``secret``; the 16-byte initial block counter and nonce are all
    zero.  A key and nonce pair must never encrypt two strings, so a secret
    encrypts one byte string only; :func:`xor_blobs` makes a version's three
    blobs one such string.  Integrity comes from the content digest, not
    from the cipher.
    """
    if len(secret) != DIGEST_SIZE:
        raise ValueError("keystream secret must be 32 bytes")
    cipher = Cipher(algorithms.ChaCha20(secret, bytes(16)), mode=None)
    return cipher.encryptor().update(data)


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


def predicted_acl_root(hints: dict, target_user: int, level: int, *, acl_root: bytes) -> bytes:
    """New ACL root after granting ``level`` to ``target_user``.

    Rebuilt from the ACL rows the service hints.  The module takes the
    signed root as the container's new ACL, so rows the service made up
    would be signed into it: a grant to anyone the service likes.  The rows
    must rebuild to ``acl_root``, the root a verified INFO attested, or
    :class:`ProtocolFailure` is raised before anything is signed.  Every
    row's ``[slot, idx, next_idx]`` must be u64s, and its slot one of the
    2^``ACL_HEIGHT`` an ACL tree has.
    """
    acl = Iomt.from_leaves(ACL_HEIGHT, map(_acl_row, hints["acl"]))
    if acl.root != acl_root:
        raise ProtocolFailure("the hinted ACL rows do not rebuild to the attested ACL root")
    return acl.upsert(target_user, counter_digest(level))


def _acl_row(row: object) -> tuple[int, Leaf]:
    """One hinted ACL row, ``[slot, idx, next_idx, value hex]``, as a slot and its leaf."""
    if not isinstance(row, list) or len(row) != 4:
        raise WireError(f"ACL row is not four fields: {row!r:.60}")
    slot, idx, nxt = (u64_field(row, i) for i in range(3))
    return slot, Leaf(idx, nxt, bytes.fromhex(row[3]))


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
    """Wire client; a fresh connection per request.

    A write signs only a counter and ACL view the module attested: from a
    verified INFO, or from a verified acknowledgement of the instance's own
    write.  An instance remembers, per container, the counter its next write
    must sign, and learns it only from such an acknowledgement: the module
    moved the counter to the signed one plus one.  A MODIFY signs from that
    memory and skips its INFO; if it is reported refused, the client signs
    once more only where a verified INFO shows the refused request can no
    longer apply and did not.  A refused attempt costs a whole upload, so a
    container whose remembered counter was refused once (another writer
    shares it) is asked for before every later MODIFY.  The memory lives as
    long as the instance, and any write that is not acknowledged drops the
    entry.
    """

    def __init__(
        self, host: str, port: int, credential: UserCredential, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.credential = credential
        self.timeout = timeout
        self._next_id = 0
        self._counters: dict[int, int] = {}  # idx -> the counter its next write signs
        self._shared: set[int] = set()  # containers never remembered: another writer moves them

    # -- transport ----------------------------------------------------------------

    def _request(self, op: str, payload: dict) -> tuple[str, dict]:
        self._next_id += 1
        message = {"op": op, "request_id": self._next_id, "payload": payload}
        try:
            with (
                socket.create_connection((self.host, self.port), timeout=self.timeout) as sock,
                sock.makefile("wb") as out,
                sock.makefile("rb", buffering=REPLY_BUFFER_BYTES) as replies,
            ):
                write_message(out, message)
                reply = read_message(replies)
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
        """Send a signed write; only its verified acknowledgement leaves a
        counter remembered for ``envelope.idx``, the one the module moved to."""
        self._counters.pop(envelope.idx, None)
        payload = envelope_to_json(envelope)
        if extra:
            payload.update(extra)
        status, body = self._request(op, payload)
        if status == STATUS_REJECTED:
            raise _Refused(op, envelope)
        if status != STATUS_OK:
            raise ProtocolFailure(body.get("message", f"{op} failed"))
        with _decoding(op):
            ack = bytes.fromhex(body.get("ack", ""))
        if not self.credential.verify_ack(envelope, ack):
            raise RequestRejected(f"{op} acknowledgement does not verify")
        if envelope.idx not in self._shared:
            self._counters[envelope.idx] = envelope.counter + 1
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

    def _attested(self, idx: int) -> InfoOutcome:
        """A verified INFO on the latest version of ``idx``: the one source
        of the counter and ACL view a write signs when none is remembered."""
        outcome = self.info(idx)
        if outcome.verdict == Verdict.INVALID:
            raise RequestRejected("cannot trust the service's view of the container")
        if outcome.verdict == Verdict.DENIED:
            raise RequestRejected("container is not accessible")
        return outcome

    def modify(
        self, idx: int, image: bytes, build: bytes, compose: bytes, encrypt: bool = False
    ) -> dict:
        try:  # an unfetchable version is refused before anything is sent
            check_fetchable([len(image), len(build), len(compose)])
        except WireError as exc:
            raise ProtocolFailure(str(exc)) from exc
        blobs = BlobSet(image, build, compose)
        counter = self._counters.get(idx)
        if counter is None:
            counter = self._attested(idx).response.counter
        else:
            try:
                return self._modify_at(idx, counter, blobs, encrypt)
            except _Refused as refused:
                self._shared.add(idx)
                counter = self._counter_past(refused)
        return self._modify_at(idx, counter, blobs, encrypt)

    def _counter_past(self, refused: _Refused) -> int:
        """The counter to sign a MODIFY at once more, after ``refused`` was
        reported refused.

        The report is the service's unauthenticated word, so a verified INFO
        must show that the refused request can no longer apply and did not:
        the counter has moved past the one it signed, and the latest version
        is not its content.  Otherwise, and when INFO gives no verified full
        answer, the refusal is raised.
        """
        envelope = refused.envelope
        try:
            response = self._attested(envelope.idx).response
        except (RequestRejected, ProtocolFailure):
            raise refused from None
        if response.counter > envelope.counter and response.content_digest != envelope.value:
            return response.counter
        raise refused

    def _modify_at(self, idx: int, counter: int, blobs: BlobSet, encrypt: bool) -> dict:
        """One MODIFY signed at ``counter``, under a fresh secret when encrypting."""
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
        extra["blobs"] = blobs
        return self._mutate("MODIFY", envelope, extra)

    def acl_set(self, idx: int, target_user: int, level: int) -> dict:
        info = self._attested(idx)
        response, hints = info.response, info.hints
        if hints is None:
            raise RequestRejected("no ACL view available; cannot form the request")
        with _decoding("INFO"):
            try:
                new_root = predicted_acl_root(hints, target_user, level, acl_root=response.acl_root)
            except TreeFullError as exc:
                raise ProtocolFailure(
                    f"cannot grant user {target_user}: the ACL of container {idx} is full"
                ) from exc
        envelope = self.credential.sign_request(RequestKind.ACL, idx, response.counter, new_root)
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
            blobs = blobs_field(body)
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
