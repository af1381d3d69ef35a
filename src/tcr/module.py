"""The trusted module: sealed repository root, certificates, and procedures.

This is the only code that may mutate the repository root or touch the
module secret and user keys.  Everything it emits is either a certificate
(a self-memorandum MACed under the module secret, meaningless to anyone
else) or a user-facing value MACed under that user's shared key.

Certificates are *hypotheticals*: generating one never changes state, and
every root one names is folded in here from a leaf and its complement path.
A procedure that consumes certificates re-verifies each MAC before trusting
a single field.  Rejections return ``None`` and leave the state bit-identical.
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
    RV = 2  # record verify: index idx holds val under root Y (zero val: absent or placeholder)
    RU = 3  # record update: leaf value val -> val' moves root Y -> Y'
    EQ = 4  # root equivalence: Y'' is Y plus one placeholder
    CR = 5  # container record seal
    VR = 6  # version record seal


CERT_SCHEMAS: dict[int, tuple[str, ...]] = {
    CertKind.RV: ("u64", "d32", "d32"),
    CertKind.RU: ("u64", "d32", "d32", "d32", "d32"),
    CertKind.EQ: ("d32", "d32"),
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


def _fold(leaf: Optional[Leaf], path: ComplementPath) -> bytes:
    """The root ``leaf`` (``None`` for an empty slot) folds to along ``path``."""
    return compute_root(leaf_digest(leaf), [d for d, _ in path], [s for _, s in path])


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
        self, record: Optional[Certificate], acl_proof: Optional[Certificate], idx: int,
        counter: int, user_idx: int,
    ) -> Optional[tuple[int, bytes, int]]:
        """Check a sealed container record against ``(idx, counter)`` and the
        caller's ACL proof against its ACL root.

        Returns ``(version_count, acl_root, level)``, or ``None`` when any
        certificate fails or the certificates disagree.
        """
        if not self._cert_ok(record, CertKind.CR):
            return None
        c_idx, c_ctr, c_ver, acl_root = record.values
        if c_idx != idx or c_ctr != counter:
            return None  # inconsistent certificates
        if not self._cert_ok(acl_proof, CertKind.RV):
            return None
        a_idx, val, a_root = acl_proof.values
        if a_idx != user_idx or a_root != acl_root:
            return None
        level = counter_value(val)
        if level is None:
            return None
        return c_ver, acl_root, level

    # -- certificate generators -----------------------------------------------

    def certify_record(
        self, leaf: Optional[Leaf], path: ComplementPath, absent_idx: Optional[int] = None
    ) -> Optional[Certificate]:
        """RV: bind a leaf's (idx, val) to the root its complement path folds to.

        With ``absent_idx`` enclosed by the leaf, the RV is instead
        ``(absent_idx, ZERO_DIGEST, root)``: an absent index reads as value
        zero, exactly as a placeholder or a level-0 grant does.
        ``leaf=None`` asserts absence in an *empty* tree: only a zero root
        can be free of every index at once, so the path must fold to zero.
        """
        with self._lock:
            root = _fold(leaf, path)
            if absent_idx is not None and (
                root == ZERO_DIGEST if leaf is None
                else encloses(leaf.idx, leaf.next_idx, absent_idx)
            ):
                return self._issue(CertKind.RV, (absent_idx, ZERO_DIGEST, root))
            if leaf is None:
                return None
            return self._issue(CertKind.RV, (leaf.idx, leaf.val, root))

    def certify_record_update(
        self, leaf: Leaf, new_val: bytes, path: ComplementPath
    ) -> Certificate:
        """RU: certify the root movement caused by one leaf value change."""
        with self._lock:
            root, new_root = _fold(leaf, path), _fold(Leaf(leaf.idx, leaf.next_idx, new_val), path)
            return self._issue(CertKind.RU, (leaf.idx, leaf.val, root, new_val, new_root))

    def certify_root_equivalence(
        self, encloser: Optional[Leaf], encloser_path: Optional[ComplementPath], new_idx: int,
        placeholder_path: ComplementPath,
    ) -> Optional[Certificate]:
        """EQ: certify that two roots differ by exactly one placeholder for ``new_idx``.

        The two paths must chain: relinking the encloser to ``new_idx`` yields
        the tree in which the placeholder's slot is still empty.  With no
        encloser the placeholder is a self-linked first leaf, and its slot's
        path must fold to the zero root, so the certificate can only ever
        bootstrap a genuinely empty repository.
        """
        with self._lock:
            empty_root = _fold(None, placeholder_path)
            if encloser is None:
                if empty_root != ZERO_DIGEST:
                    return None
                placeholder = Leaf(new_idx, new_idx, ZERO_DIGEST)
                return self._issue(CertKind.EQ, (empty_root, _fold(placeholder, placeholder_path)))
            if not encloses(encloser.idx, encloser.next_idx, new_idx):
                return None
            if _fold(Leaf(encloser.idx, new_idx, encloser.val), encloser_path) != empty_root:
                return None  # paths do not form a chain
            placeholder = Leaf(new_idx, encloser.next_idx, ZERO_DIGEST)
            return self._issue(
                CertKind.EQ, (_fold(encloser, encloser_path), _fold(placeholder, placeholder_path))
            )

    # -- procedures -------------------------------------------------------------

    def apply_request(
        self,
        request: RequestEnvelope,
        record_update: Certificate,
        acl_proof: Optional[Certificate] = None,
        record: Optional[Certificate] = None,
        secret: Optional[tuple[bytes, bytes]] = None,
        equivalence: Optional[Certificate] = None,
    ) -> Optional[UpdateResult]:
        """Apply a signed user request: creation, content update, or ACL update.

        Creation is an ACL-typed request with counter 0.  Its ``equivalence``
        inserts a placeholder into the current root, and its record update
        turns that placeholder into counter 1.  Updates instead need the
        sealed container record and an RV showing the caller's access level
        in that record's ACL tree (2+ to modify content, 3 to modify the ACL).
        A content update's ``secret`` (the container secret padded under the
        caller's key for ``(idx, counter)``, and its commitment) is sealed only
        on acceptance; a bad one refuses the request.  Every acceptance ends in
        one tail: it seals the record ``(idx, ctr + 1, versions, acl_root)`` and
        moves the root once, to the record update's new root.
        """
        with self._lock:
            key = self._state.user_keys.get(request.user_idx)
            if key is None or (secret is not None and request.kind != RequestKind.CONTAINER):
                return None
            creating = request.kind == RequestKind.ACL and request.counter == 0
            if creating != (equivalence is not None):
                return None  # an equivalence comes with a creation, and only with one
            if not macs_equal(request.sig, hmac_sha256(request.signed_body(), key)):
                return None
            if not self._cert_ok(record_update, CertKind.RU):
                return None
            ru_idx, val, root, new_val, new_root = record_update.values
            ctr = counter_value(val)
            new_ctr = counter_value(new_val)
            if ctr is None or new_ctr is None or new_ctr != ctr + 1:
                return None  # record update does not reflect a counter increment
            current = self._state.root
            if creating:
                if not self._cert_ok(equivalence, CertKind.EQ) or equivalence.values[0] != current:
                    return None
                current = equivalence.values[1]  # the current root plus the placeholder
            if root != current or ru_idx != request.idx:
                return None  # the record update is not about this request's leaf now

            version_cert = sealed = None
            if creating:
                if ctr != 0:
                    return None  # creation must start from a placeholder
                versions, acl_root = 0, request.value
            else:
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
            self._state.root = new_root
            return UpdateResult(record_cert, version_cert, ack, sealed)

    def verify_container(
        self,
        user_idx: int,
        nonce: bytes,
        requested_version: int,
        container_proof: Certificate,
        record: Optional[Certificate] = None,
        acl_proof: Optional[Certificate] = None,
        version_cert: Optional[Certificate] = None,
        secret: Optional[tuple[bytes, bytes]] = None,
    ) -> Optional[VerifyResponse]:
        """Answer an information query with a MACed response or denial.

        The denial for an absent container and the denial for a caller with
        zero access are built identically, so the caller cannot tell the two
        apart.  ``None`` means the supplied evidence itself was bad, which
        distinguishes service misbehavior from an authenticated denial.
        A full response carries ``secret`` (a sealed secret and its
        commitment) re-padded for the caller if the commitment opens.
        """
        with self._lock:
            key = self._state.user_keys.get(user_idx)
            if key is None or len(nonce) != DIGEST_SIZE:
                return None
            if not self._cert_ok(container_proof, CertKind.RV):
                return None
            idx, val, root = container_proof.values
            if root != self._state.root:
                return None
            ctr = counter_value(val)
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
