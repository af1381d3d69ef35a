"""The trusted module: sealed repository root, certificates, and procedures.

This is the only code that may mutate the repository root or touch the
module secret and user keys.  Everything it emits is either a certificate
(the seal of a container or version record the store keeps at rest) or a
user-facing value MACed under that user's shared key.

Every root the module names or moves to is folded in here from a leaf and
its complement path: ``verify_container`` and ``apply_request`` fold each
tree read they are given, and ``apply_request`` folds the edited leaf's path
before and after the edit.  A procedure re-verifies each seal's MAC before
trusting a single field.  Rejections return ``None`` and leave the state
bit-identical.
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Optional, Sequence

from .iomt import Leaf, counter_digest, counter_value, encloses, leaf_digest
from .merkle import (
    DIGEST_SIZE,
    FieldValue,
    Side,
    ZERO_DIGEST,
    compute_root,
    encode_fields,
    hmac_sha256,
    macs_equal,
    sha256,
    u64,
)


class CertKind(IntEnum):
    # The numbers are under every sealed record's MAC: never renumber them.
    # 1 to 4 named certificates since retired (2 was record verify): never reuse them.
    CR = 5  # container record seal
    VR = 6  # version record seal


CERT_SCHEMAS: dict[int, tuple[str, ...]] = {
    CertKind.CR: ("u64", "u64", "u64", "d32"),
    CertKind.VR: ("u64", "u64", "d32"),
}

# Leading tags for user-facing MAC bodies, so a tag minted for one purpose
# can never verify as another.
_TAG_REQUEST = 0x20
_TAG_DENIAL = 0x21
_TAG_FULL = 0x22


def _cert_body(kind: int, values: Sequence[FieldValue]) -> bytes:
    """Canonical bytes a certificate's MAC covers: the kind, then its fields."""
    schema = CERT_SCHEMAS.get(kind)
    if schema is None:
        raise ValueError(f"unknown certificate kind {kind}")
    return encode_fields(("u8",) + schema, (int(kind),) + tuple(values))


@dataclass(frozen=True)
class Certificate:
    kind: int
    values: tuple[FieldValue, ...]
    mac: bytes

# Sibling digests from a leaf up to the root, each with the side it occupies.
ComplementPath = Sequence[tuple[bytes, Side]]
# A tree read: the leaf holding or enclosing an index (``None`` in an empty
# tree) and that leaf's complement path.
RecordProof = tuple[Optional[Leaf], ComplementPath]


def _fold(leaf: Optional[Leaf], path: ComplementPath) -> bytes:
    """The root ``leaf`` (``None`` for an empty slot) folds to along ``path``."""
    return compute_root(leaf_digest(leaf), [d for d, _ in path], [s for _, s in path])


def _read(proof: Optional[RecordProof], idx: int, root: bytes) -> Optional[int]:
    """The counter ``idx`` holds in the tree of ``root``, as ``proof`` shows it.

    The leaf holding ``idx`` reads as its own value.  A leaf enclosing
    ``idx`` reads as zero, as a placeholder or a level-0 grant does; so does
    an empty tree (``leaf=None``), but only under the zero root, the one root
    free of every index.  ``None`` if the proof does not fold to ``root``,
    speaks for another index, or holds no counter.
    """
    if proof is None or _fold(*proof) != root:
        return None
    leaf = proof[0]
    if leaf is None:
        return 0 if root == ZERO_DIGEST else None
    if leaf.idx == idx:
        return counter_value(leaf.val)
    return 0 if encloses(leaf.idx, leaf.next_idx, idx) else None


class RequestKind(IntEnum):
    CONTAINER = 1
    ACL = 2


@dataclass(frozen=True)
class RequestEnvelope:
    """A user's signed request: ``value`` is the content digest for container
    updates, or the new ACL root for ACL updates and creation."""

    kind: int
    idx: int
    counter: int
    value: bytes
    user_idx: int
    sig: bytes

    def signed_body(self) -> bytes:
        return encode_fields(
            ("u8", "u8", "u64", "u64", "d32"),
            (_TAG_REQUEST, int(self.kind), self.idx, self.counter, self.value),
        )

    def ack_body(self) -> bytes:
        # The trailing zero byte separates acknowledgements from request
        # signatures over the same fields.
        return self.signed_body() + b"\x00"


@dataclass(frozen=True)
class UpdateResult:
    record_cert: Certificate
    version_cert: Optional[Certificate]
    ack: bytes
    sealed_secret: Optional[bytes] = None  # an accepted content update's secret, sealed


@dataclass(frozen=True)
class VerifyResponse:
    """Module answer to an information query, MACed under the caller's key.

    A denial (absent container, or the caller has no access: the two are
    indistinguishable) carries only ``idx``, ``nonce``, and ``tag``; the
    optional fields stay ``None``.
    """

    idx: int
    nonce: bytes
    tag: bytes
    counter: Optional[int] = None
    max_version: Optional[int] = None
    requested_version: Optional[int] = None
    acl_root: Optional[bytes] = None
    content_digest: Optional[bytes] = None
    sealed_for_user: Optional[bytes] = None  # the version's secret for the caller; untagged

    @property
    def denied(self) -> bool:
        return self.counter is None

    def tag_body(self) -> bytes:
        if self.denied:
            return encode_fields(("u8", "u64", "d32"), (_TAG_DENIAL, self.idx, self.nonce))
        return encode_fields(
            ("u8", "u64", "u64", "u64", "u64", "d32", "d32", "d32"),
            (_TAG_FULL, self.idx, self.counter, self.max_version, self.requested_version,
             self.acl_root, self.content_digest, self.nonce),
        )


class StateIntegrityError(Exception):
    """The persisted module state failed its self-MAC."""


_STATE_MAGIC = b"TCRM"
_STATE_VERSION = 1


@dataclass
class ModuleState:
    root: bytes
    secret: bytes
    user_keys: dict[int, bytes]

    @classmethod
    def fresh(cls, user_keys: dict[int, bytes]) -> "ModuleState":
        if not user_keys:
            raise ValueError("at least one user key is required")
        for idx, key in user_keys.items():
            if not 0 <= idx < 1 << 64 or len(key) != DIGEST_SIZE:
                raise ValueError("user keys must map u64 indices to 32-byte keys")
        return cls(root=ZERO_DIGEST, secret=secrets.token_bytes(DIGEST_SIZE), user_keys=dict(user_keys))

    def seal(self, kind: int, values: Sequence[FieldValue]) -> bytes:
        """MAC of the certificate ``(kind, values)`` under the module secret."""
        return hmac_sha256(_cert_body(kind, values), self.secret)


def save_state(state: ModuleState, path: Path | str) -> None:
    """Replace the state file atomically: a torn file would load as an erased module."""
    body = bytearray()
    body += _STATE_MAGIC
    body.append(_STATE_VERSION)
    body += state.root
    body += state.secret
    body += u64(len(state.user_keys))
    for idx in sorted(state.user_keys):
        body += u64(idx) + state.user_keys[idx]
    body += hmac_sha256(bytes(body), state.secret)
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "wb") as fp:
            fp.write(body)
            os.fsync(fp.fileno())
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # makes the rename itself durable
    finally:
        os.close(directory)


def load_state(path: Path | str) -> ModuleState:
    """Load persisted state, refusing anything whose self-MAC fails.

    Emulates tamper response: a modified file is treated as erased.
    """
    data = Path(path).read_bytes()
    header = len(_STATE_MAGIC) + 1 + 2 * DIGEST_SIZE + 8
    if len(data) < header + DIGEST_SIZE or data[:4] != _STATE_MAGIC or data[4] != _STATE_VERSION:
        raise StateIntegrityError("bad module state header")
    root = data[5 : 5 + DIGEST_SIZE]
    secret = data[5 + DIGEST_SIZE : 5 + 2 * DIGEST_SIZE]
    count = int.from_bytes(data[5 + 2 * DIGEST_SIZE : header], "big")
    if len(data) != header + count * 40 + DIGEST_SIZE:
        raise StateIntegrityError("truncated module state")
    body, mac = data[:-DIGEST_SIZE], data[-DIGEST_SIZE:]
    if not macs_equal(mac, hmac_sha256(body, secret)):
        raise StateIntegrityError("module state self-MAC mismatch")
    user_keys: dict[int, bytes] = {}
    offset = header
    for _ in range(count):
        idx = int.from_bytes(data[offset : offset + 8], "big")
        user_keys[idx] = data[offset + 8 : offset + 40]
        offset += 40
    return ModuleState(root=root, secret=secret, user_keys=user_keys)


def secret_commitment(idx: int, secret: bytes) -> bytes:
    """Commitment binding a container's encryption secret to its index."""
    return sha256(u64(idx) + secret)


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _repad(padded: bytes, commitment: bytes, pad: bytes, idx: int, key: bytes) -> Optional[bytes]:
    """The secret under ``pad``, re-padded under ``key``, if it opens ``commitment``."""
    if len(padded) != DIGEST_SIZE or len(commitment) != DIGEST_SIZE:
        return None
    secret = _xor(padded, pad)
    if not macs_equal(commitment, secret_commitment(idx, secret)):
        return None
    return _xor(secret, sha256(commitment + key))


class TrustedModule:
    """Serialized state machine around a :class:`ModuleState`.

    All calls take an internal lock, giving a total order over root
    mutations even with concurrent callers.
    """

    def __init__(self, state: ModuleState) -> None:
        self._state = state
        self._lock = threading.RLock()

    @property
    def root(self) -> bytes:
        """Current repository root; public, but only mutable in here."""
        return self._state.root

    # -- certificate plumbing -------------------------------------------------

    def _issue(self, kind: CertKind, values: Sequence[FieldValue]) -> Certificate:
        fields = tuple(values)
        return Certificate(kind, fields, self._state.seal(kind, fields))

    def _cert_ok(self, cert, kind: Optional[CertKind] = None) -> bool:
        if not isinstance(cert, Certificate):
            return False
        if kind is not None and cert.kind != kind:
            return False
        try:
            expected = self._state.seal(cert.kind, cert.values)
        except (ValueError, TypeError):
            return False
        return macs_equal(cert.mac, expected)

    def certificate_valid(self, cert: Certificate) -> bool:
        """Whether a certificate verifies under the module secret."""
        with self._lock:
            return self._cert_ok(cert)

    def _access(
        self, record: Optional[Certificate], acl_proof: Optional[RecordProof], idx: int,
        counter: int, user_idx: int,
    ) -> Optional[tuple[int, bytes, int]]:
        """Check a sealed container record against ``(idx, counter)`` and read
        the caller's level from the ACL tree that record names.

        Returns ``(version_count, acl_root, level)``, or ``None`` when the seal
        fails, the record disagrees, or the proof does not read under its root.
        """
        if not self._cert_ok(record, CertKind.CR):
            return None
        c_idx, c_ctr, c_ver, acl_root = record.values
        if c_idx != idx or c_ctr != counter:
            return None  # inconsistent evidence
        level = _read(acl_proof, user_idx, acl_root)
        return None if level is None else (c_ver, acl_root, level)

    # -- procedures -------------------------------------------------------------

    def apply_request(
        self,
        request: RequestEnvelope,
        leaf: Optional[Leaf],
        path: Optional[ComplementPath],
        acl_proof: Optional[RecordProof] = None,
        record: Optional[Certificate] = None,
        secret: Optional[tuple[bytes, bytes]] = None,
        slot_path: Optional[ComplementPath] = None,
    ) -> Optional[UpdateResult]:
        """Apply a signed user request: creation, content update, or ACL update.

        Updates pass the container's ``leaf`` and its complement ``path``,
        the sealed container record, and ``acl_proof``, which reads the
        caller's level under that record's ACL root (2+ to modify content, 3
        to modify the ACL).  A content update's ``secret`` (the container
        secret padded under the caller's key for ``(idx, counter)``, and its
        commitment) is sealed only on acceptance; a bad one refuses it.
        Creation is an ACL-typed request with counter 0.  It passes the leaf
        enclosing the new index and its path (both ``None`` in an empty
        tree), and ``slot_path``, the new slot's path once the encloser is
        relinked; the relinked encloser must fold to the root of that empty
        slot, so the two roots differ by one placeholder.  Every acceptance
        ends in one tail: it seals the record ``(idx, ctr + 1, versions,
        acl_root)`` and moves the root once, to the fold of the leaf with its
        counter incremented.
        """
        with self._lock:
            key = self._state.user_keys.get(request.user_idx)
            if key is None or (secret is not None and request.kind != RequestKind.CONTAINER):
                return None
            creating = request.kind == RequestKind.ACL and request.counter == 0
            if creating != (slot_path is not None):
                return None  # a slot path comes with a creation, and only with one
            if not macs_equal(request.sig, hmac_sha256(request.signed_body(), key)):
                return None

            root, version_cert, sealed = self._state.root, None, None
            if creating:
                if leaf is None:  # only an empty repository has no encloser
                    chained = root == ZERO_DIGEST == _fold(None, slot_path)
                    next_idx = request.idx
                else:
                    chained = (
                        encloses(leaf.idx, leaf.next_idx, request.idx) and _fold(leaf, path) == root
                        and _fold(Leaf(leaf.idx, request.idx, leaf.val), path) == _fold(None, slot_path)
                    )
                    next_idx = leaf.next_idx
                if not chained:
                    return None
                ctr, path, versions, acl_root = 0, slot_path, 0, request.value
            else:
                if leaf is None or leaf.idx != request.idx or _fold(leaf, path) != root:
                    return None  # not this request's leaf under the sealed root
                ctr, next_idx = counter_value(leaf.val), leaf.next_idx
                # A value that is no counter matches no sealed record.
                checked = self._access(record, acl_proof, request.idx, ctr, request.user_idx)
                if checked is None or request.counter != ctr:
                    return None
                versions, acl_root, access = checked
                if request.kind == RequestKind.CONTAINER and access >= 2:
                    if secret is not None:
                        pad = hmac_sha256(encode_fields(("u64", "u64"), (request.idx, ctr)), key)
                        sealed = _repad(*secret, pad, request.idx, self._state.secret)
                        if sealed is None:
                            return None
                    versions += 1
                    version_cert = self._issue(CertKind.VR, (request.idx, versions, request.value))
                elif request.kind == RequestKind.ACL and access >= 3:
                    acl_root = request.value  # the version count stays
                else:
                    return None  # insufficient permissions

            record_cert = self._issue(CertKind.CR, (request.idx, ctr + 1, versions, acl_root))
            ack = hmac_sha256(request.ack_body(), key)
            self._state.root = _fold(Leaf(request.idx, next_idx, counter_digest(ctr + 1)), path)
            return UpdateResult(record_cert, version_cert, ack, sealed)

    def verify_container(
        self,
        user_idx: int,
        nonce: bytes,
        idx: int,
        requested_version: int,
        container_proof: RecordProof,
        record: Optional[Certificate] = None,
        acl_proof: Optional[RecordProof] = None,
        version_cert: Optional[Certificate] = None,
        secret: Optional[tuple[bytes, bytes]] = None,
    ) -> Optional[VerifyResponse]:
        """Answer an information query about ``idx`` with a MACed response or denial.

        ``container_proof`` reads ``idx``'s counter under the sealed root, and
        ``acl_proof`` the caller's level under the record's ACL root.  The
        denial for an absent container and the denial for a caller with zero
        access are built identically, so the caller cannot tell the two apart.
        ``None`` means the supplied evidence itself was bad, which
        distinguishes service misbehavior from an authenticated denial.  A
        full response carries ``secret`` (a sealed secret and its commitment)
        re-padded for the caller if the commitment opens.
        """
        with self._lock:
            key = self._state.user_keys.get(user_idx)
            if key is None or len(nonce) != DIGEST_SIZE:
                return None
            ctr = _read(container_proof, idx, self._state.root)
            if ctr is None:
                return None
            if ctr == 0:
                return self._denial(idx, nonce, key)

            checked = self._access(record, acl_proof, idx, ctr, user_idx)
            if checked is None:
                return None
            c_ver, acl_root, access = checked
            if access == 0:
                return self._denial(idx, nonce, key)

            if not self._cert_ok(version_cert, CertKind.VR):
                return None
            v_idx, version, content_digest = version_cert.values
            if v_idx != idx or version != requested_version:
                return None
            sealed_for_user = None
            if secret is not None:
                sealed_for_user = _repad(*secret, sha256(secret[1] + self._state.secret), idx, key)
            response = VerifyResponse(
                idx=idx,
                nonce=nonce,
                tag=b"",
                counter=ctr,
                max_version=c_ver,
                requested_version=requested_version,
                acl_root=acl_root,
                content_digest=content_digest,
                sealed_for_user=sealed_for_user,
            )
            return self._tagged(response, key)

    def _denial(self, idx: int, nonce: bytes, key: bytes) -> VerifyResponse:
        return self._tagged(VerifyResponse(idx=idx, nonce=nonce, tag=b""), key)

    @staticmethod
    def _tagged(response: VerifyResponse, key: bytes) -> VerifyResponse:
        return replace(response, tag=hmac_sha256(response.tag_body(), key))
