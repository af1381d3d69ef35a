"""Hash primitives, canonical byte encoding, and Merkle parent/root math.

Every MAC and digest in the system is computed over the canonical binary
encoding defined here, never over wire JSON, so tags are bit-exact across
processes and restarts.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from enum import IntEnum
from typing import Sequence, Union

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

FieldValue = Union[int, bytes]

# Field kinds usable in canonical schemas. Widths are fixed, which makes the
# encoding injective for any declared schema.
_U8 = "u8"
_U64 = "u64"
_D32 = "d32"


class EncodingError(ValueError):
    """A value does not fit its declared canonical field."""


class Side(IntEnum):
    """Which side of its parent a node occupies."""

    LEFT = 0
    RIGHT = 1


def encode_fields(schema: Sequence[str], values: Sequence[FieldValue]) -> bytes:
    """Serialize ``values`` per ``schema`` (u8, u64 big-endian, raw 32-byte digest)."""
    if len(schema) != len(values):
        raise EncodingError(f"schema has {len(schema)} fields, got {len(values)} values")
    out = bytearray()
    for kind, value in zip(schema, values):
        if kind == _U64:
            if not isinstance(value, int) or not 0 <= value < 1 << 64:
                raise EncodingError(f"not a u64: {value!r}")
            out += value.to_bytes(8, "big")
        elif kind == _D32:
            if not isinstance(value, (bytes, bytearray)) or len(value) != DIGEST_SIZE:
                raise EncodingError(f"not a 32-byte digest: {value!r}")
            out += value
        elif kind == _U8:
            if not isinstance(value, int) or not 0 <= value < 256:
                raise EncodingError(f"not a u8: {value!r}")
            out.append(value)
        else:
            raise EncodingError(f"unknown field kind {kind!r}")
    return bytes(out)


def u64(value: int) -> bytes:
    return encode_fields((_U64,), (value,))


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(data: bytes, key: bytes) -> bytes:
    return _hmac.digest(key, data, "sha256")


def macs_equal(a: bytes, b: bytes) -> bool:
    """Constant-time tag comparison."""
    return _hmac.compare_digest(a, b)


def parent(v_i: bytes, v_j: bytes, side_i: Side) -> bytes:
    """Digest of the parent of two sibling nodes.

    A zero child is treated as absent: the parent takes the other child's
    value unchanged, so empty subtrees never contribute hash material.
    """
    if v_i == ZERO_DIGEST:
        return v_j
    if v_j == ZERO_DIGEST:
        return v_i
    if side_i == Side.LEFT:
        return sha256(v_i + v_j)
    return sha256(v_j + v_i)


def compute_root(leaf: bytes, siblings: Sequence[bytes], sides: Sequence[Side]) -> bytes:
    """Fold a leaf node value up a sibling path to the root.

    ``sides[i]`` is the side occupied by ``siblings[i]``.
    """
    if len(siblings) != len(sides):
        raise ValueError(f"{len(siblings)} siblings but {len(sides)} sides")
    value = leaf
    for sibling, side in zip(siblings, sides):
        value = parent(sibling, value, side)
    return value
