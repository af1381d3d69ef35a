"""The trusted module: sealed repository root, container records, sealed versions.

This is the only code that may mutate the repository root or touch the
module secret and user keys.  A container is one leaf of the container tree,
whose value is the digest of the container's record; a version row carries
the module's MAC over its fields; a user-facing value is MACed under that
user's shared key.

Every root the module names or moves to is folded in here from a leaf and
its complement path: ``verify_container`` and ``apply_request`` fold each
tree read they are given, and ``apply_request`` folds the edited leaf's path
before and after the edit.  A procedure trusts a container record only when
its digest is the value the container's leaf holds, and a version row only
when its seal verifies.  Rejections return ``None`` and leave the state
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

from .iomt import Leaf, counter_value, encloses, leaf_digest
from .merkle import (
    DIGEST_SIZE,
    Side,
    ZERO_DIGEST,
    compute_root,
    encode_fields,
    hmac_sha256,
    macs_equal,
    sha256,
    u64,
)

# Leading tags for user-facing MAC bodies, so a tag minted for one purpose
# can never verify as another.
_TAG_REQUEST = 0x20
_TAG_DENIAL = 0x21
_TAG_FULL = 0x22


@dataclass(frozen=True)
class ContainerRecord:
    """A container's record; the container's leaf holds its :meth:`digest`."""

    idx: int
    counter: int
    version_count: int
    acl_root: bytes

    def digest(self) -> bytes:
        """The value of the container's leaf: sha256 over domain byte 7 and the fields."""
        fields = (7, self.idx, self.counter, self.version_count, self.acl_root)
        return sha256(encode_fields(("u8", "u64", "u64", "u64", "d32"), fields))


@dataclass(frozen=True)
class VersionRecord:
    """A version's row at rest.  ``seal`` covers ``idx``, ``version`` and
    ``content_digest``; the content digest covers the secret commitment, which
    the wrapped secret must open before the module releases it."""

    idx: int
    version: int
    secret_commitment: bytes  # zero for unencrypted versions
    wrapped_secret: bytes  # zero for unencrypted versions
    content_digest: bytes
    seal: bytes = b""
    hashes: tuple[bytes, ...] = ()  # addresses of the image, build and compose blobs


def _sealed_body(row: VersionRecord) -> bytes:
    """The bytes a version row's seal covers: domain byte 6, then its sealed fields.

    Version rows are sealed under 6 and container records digested under 7;
    1 to 4 named certificates and 5 the container record's seal, all since
    retired: 1 to 7 must never be renumbered or reused.
    """
    if type(row) is not VersionRecord:
        raise TypeError(f"{type(row).__name__} is not a sealed row")
    return encode_fields(("u8", "u64", "u64", "d32"), (6, row.idx, row.version, row.content_digest))


# Sibling digests from a leaf up to the root, each with the side it occupies.
ComplementPath = Sequence[tuple[bytes, Side]]
# A tree read: the leaf holding or enclosing an index (``None`` in an empty
# tree) and that leaf's complement path.
RecordProof = tuple[Optional[Leaf], ComplementPath]


def _fold(leaf: Optional[Leaf], path: ComplementPath) -> bytes:
    """The root ``leaf`` (``None`` for an empty slot) folds to along ``path``."""
    return compute_root(leaf_digest(leaf), [d for d, _ in path], [s for _, s in path])


def _read(proof: Optional[RecordProof], idx: int, root: bytes) -> Optional[bytes]:
    """The value ``idx`` holds in the tree of ``root``, as ``proof`` shows it.

    The leaf holding ``idx`` reads as its own value.  A leaf enclosing
    ``idx`` reads as the zero digest, as a placeholder or a level-0 grant
    does; so does an empty tree (``leaf=None``), but only under the zero
    root, the one root free of every index.  ``None`` if the proof does not
    fold to ``root`` or speaks for another index.
    """
    if proof is None or _fold(*proof) != root:
        return None
    leaf = proof[0]
    if leaf is None:
        return ZERO_DIGEST if root == ZERO_DIGEST else None
    if leaf.idx == idx:
        return leaf.val
    return ZERO_DIGEST if encloses(leaf.idx, leaf.next_idx, idx) else None


def _access(
    record: Optional[ContainerRecord], value: bytes, acl_proof: Optional[RecordProof], user_idx: int
) -> Optional[int]:
    """The caller's level, read under the ACL root of ``record``; ``None`` unless
    ``record`` is the one a container leaf of ``value`` holds the digest of, and
    the proof reads a level under its ACL root."""
    try:
        if type(record) is not ContainerRecord or record.digest() != value:
            return None
    except (ValueError, TypeError):  # fields that do not encode
        return None
    level = _read(acl_proof, user_idx, record.acl_root)
    return None if level is None else counter_value(level)


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
    """The container's new record and, for a content update, the new version's sealed row."""

    record: ContainerRecord
    version: Optional[VersionRecord]  # its secret sealed under the module; no blob addresses
    ack: bytes


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

    def seal(self, row: VersionRecord) -> bytes:
        """MAC of a version row's sealed fields under the module secret."""
        return hmac_sha256(_sealed_body(row), self.secret)


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

    # -- procedures -------------------------------------------------------------

    def apply_request(
        self,
        request: RequestEnvelope,
        leaf: Optional[Leaf],
        path: Optional[ComplementPath],
        acl_proof: Optional[RecordProof] = None,
        record: Optional[ContainerRecord] = None,
        secret: Optional[tuple[bytes, bytes]] = None,
        slot_path: Optional[ComplementPath] = None,
    ) -> Optional[UpdateResult]:
        """Apply a signed user request: creation, content update, or ACL update.

        Updates pass the container's ``leaf`` and its complement ``path``,
        the container's record, whose digest that leaf must hold, and
        ``acl_proof``, which reads the caller's level under the record's ACL
        root (2+ to modify content, 3 to modify the ACL).  A content update's
        ``secret`` (the container secret padded under the caller's key for
        ``(idx, counter)``, and its commitment) is sealed only on acceptance;
        a bad one refuses it.  Creation is an ACL-typed request with counter
        0.  It passes the leaf enclosing the new index and its path (both
        ``None`` in an empty tree), and ``slot_path``, the new slot's path
        once the encloser is relinked; the relinked encloser must fold to the
        root of that empty slot, so the two roots differ by one placeholder.  Every acceptance
        ends in one tail: it makes the record ``(idx, ctr + 1, versions,
        acl_root)`` (and seals a content update's version row) and moves the
        root once, to the fold of the leaf holding that record's digest.
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

            root, version = self._state.root, None
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
                access = _access(record, leaf.val, acl_proof, request.user_idx)
                if access is None or request.counter != record.counter:
                    return None
                ctr, next_idx = record.counter, leaf.next_idx
                versions, acl_root = record.version_count, record.acl_root
                if request.kind == RequestKind.CONTAINER and access >= 2:
                    commitment = sealed = ZERO_DIGEST
                    if secret is not None:
                        pad = hmac_sha256(encode_fields(("u64", "u64"), (request.idx, ctr)), key)
                        sealed = _repad(*secret, pad, request.idx, self._state.secret)
                        if sealed is None:
                            return None
                        commitment = secret[1]
                    versions += 1
                    row = VersionRecord(request.idx, versions, commitment, sealed, request.value)
                    version = replace(row, seal=self._state.seal(row))
                elif request.kind == RequestKind.ACL and access >= 3:
                    acl_root = request.value  # the version count stays
                else:
                    return None  # insufficient permissions

            record = ContainerRecord(request.idx, ctr + 1, versions, acl_root)
            ack = hmac_sha256(request.ack_body(), key)
            self._state.root = _fold(Leaf(request.idx, next_idx, record.digest()), path)
            return UpdateResult(record, version, ack)

    def verify_container(
        self,
        user_idx: int,
        nonce: bytes,
        idx: int,
        requested_version: int,
        container_proof: RecordProof,
        record: Optional[ContainerRecord] = None,
        acl_proof: Optional[RecordProof] = None,
        version: Optional[VersionRecord] = None,
        release: bool = False,
    ) -> Optional[VerifyResponse]:
        """Answer an information query about ``idx``: a MACed response or denial.

        ``container_proof`` reads ``idx``'s leaf value under the sealed root,
        the digest of ``record`` for a present container, and ``acl_proof``
        the caller's level under that record's ACL root.  One denial answers
        an absent container and a caller with zero access, so the caller
        cannot tell the two apart.  ``None`` means the supplied
        evidence itself was bad, which distinguishes service misbehavior from
        an authenticated denial.  A container before its first version
        answers version 0 with ``max_version`` 0 and a zero content digest;
        any other answer, and any ``release``, needs the ``version`` row.
        With ``release``, a full response carries that row's sealed secret
        re-padded for the caller, if it opens the row's commitment.
        """
        with self._lock:
            key = self._state.user_keys.get(user_idx)
            if key is None or len(nonce) != DIGEST_SIZE:
                return None
            value = _read(container_proof, idx, self._state.root)
            # An absent container reads as the zero digest, and holds no access.
            access = 0 if value == ZERO_DIGEST else _access(record, value, acl_proof, user_idx)
            if access is None:
                return None
            if access == 0:
                return self._tagged(VerifyResponse(idx=idx, nonce=nonce, tag=b""), key)

            digest, sealed_for_user = ZERO_DIGEST, None
            if release or requested_version or record.version_count:
                try:  # a version row whose fields encode and whose seal verifies
                    row_ok = macs_equal(self._state.seal(version), version.seal)
                except (ValueError, TypeError):
                    row_ok = False
                if not row_ok or (version.idx, version.version) != (idx, requested_version):
                    return None
                digest, commitment = version.content_digest, version.secret_commitment
                if release and version.wrapped_secret != ZERO_DIGEST:
                    pad = sha256(commitment + self._state.secret)
                    sealed_for_user = _repad(version.wrapped_secret, commitment, pad, idx, key)
            response = VerifyResponse(
                idx=idx, nonce=nonce, tag=b"", counter=record.counter,
                max_version=record.version_count, requested_version=requested_version,
                acl_root=record.acl_root, content_digest=digest, sealed_for_user=sealed_for_user,
            )
            return self._tagged(response, key)

    @staticmethod
    def _tagged(response: VerifyResponse, key: bytes) -> VerifyResponse:
        return replace(response, tag=hmac_sha256(response.tag_body(), key))
