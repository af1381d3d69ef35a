from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from tcr.merkle import (
    EncodingError,
    Side,
    ZERO_DIGEST,
    compute_root,
    encode_fields,
    hmac_sha256,
    macs_equal,
    parent,
    sha256,
)

# Reference vector: SHA-256 of the empty string.
EMPTY_SHA256 = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

# Reference vector: RFC 4231 test case 1 for HMAC-SHA-256.
RFC4231_KEY = b"\x0b" * 20
RFC4231_MSG = b"Hi There"
RFC4231_TAG = bytes.fromhex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")

W3 = hashlib.sha256(b"w3").digest()

FIELD_SIZES = {"u8": 1, "u64": 8, "d32": 32}


def decode_fields(schema, data: bytes) -> tuple:
    """Inverse of :func:`encode_fields` for the same schema."""
    if any(kind not in FIELD_SIZES for kind in schema):
        raise EncodingError("unknown field kind in schema")
    expected = sum(FIELD_SIZES[kind] for kind in schema)
    if len(data) != expected:
        raise EncodingError(f"expected {expected} bytes, got {len(data)}")
    values, offset = [], 0
    for kind in schema:
        chunk = data[offset : offset + FIELD_SIZES[kind]]
        offset += FIELD_SIZES[kind]
        values.append(chunk if kind == "d32" else int.from_bytes(chunk, "big"))
    return tuple(values)
W4 = hashlib.sha256(b"w4").digest()


def test_sha256_empty_matches_reference():
    assert sha256(b"") == EMPTY_SHA256


def test_sha256_deterministic():
    assert sha256(b"repeat") == sha256(b"repeat")


def test_distinct_leaf_encodings_hash_differently():
    first = encode_fields(("u64", "u64", "d32"), (3, 4, W3))
    second = encode_fields(("u64", "u64", "d32"), (4, 7, W4))
    assert sha256(first) != sha256(second)


def test_hmac_rfc4231_case1():
    assert hmac_sha256(RFC4231_MSG, RFC4231_KEY) == RFC4231_TAG


def test_hmac_key_separation():
    k1, k2 = b"\x01" * 32, b"\x02" * 32
    assert hmac_sha256(b"msg", k1) != hmac_sha256(b"msg", k2)


def test_hmac_round_trip_and_bit_flip():
    key = bytes(range(32))
    tag = hmac_sha256(b"certificate-bytes", key)
    assert macs_equal(tag, hmac.digest(key, b"certificate-bytes", "sha256"))
    flipped = bytes([key[0] ^ 0x01]) + key[1:]
    assert not macs_equal(tag, hmac_sha256(b"certificate-bytes", flipped))


def test_parent_zero_rules():
    value = sha256(b"v")
    assert parent(ZERO_DIGEST, value, Side.LEFT) == value
    assert parent(value, ZERO_DIGEST, Side.RIGHT) == value
    assert parent(ZERO_DIGEST, ZERO_DIGEST, Side.LEFT) == ZERO_DIGEST


def test_parent_ordering():
    a, b = sha256(b"a"), sha256(b"b")
    assert parent(a, b, Side.LEFT) == hashlib.sha256(a + b).digest()
    assert parent(a, b, Side.RIGHT) == hashlib.sha256(b + a).digest()


@given(st.binary(min_size=32, max_size=32))
def test_parent_zero_identity_quantified(value):
    assert parent(ZERO_DIGEST, value, Side.LEFT) == value
    assert parent(ZERO_DIGEST, value, Side.RIGHT) == value
    assert parent(value, ZERO_DIGEST, Side.LEFT) == value


def test_compute_root_empty_path_is_identity():
    leaf = sha256(b"x")
    assert compute_root(leaf, [], []) == leaf


def test_compute_root_zero_sibling_path():
    leaf = sha256(b"x")
    assert compute_root(leaf, [ZERO_DIGEST] * 4, [Side.LEFT] * 4) == leaf


def test_compute_root_length_mismatch():
    with pytest.raises(ValueError):
        compute_root(sha256(b"x"), [ZERO_DIGEST], [])


def test_compute_root_matches_manual_fold():
    # Height-4 tree, slot 6, exactly the structure of a 16-leaf tree walk.
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(16)]
    level0 = leaves
    level1 = [hashlib.sha256(level0[i] + level0[i + 1]).digest() for i in range(0, 16, 2)]
    level2 = [hashlib.sha256(level1[i] + level1[i + 1]).digest() for i in range(0, 8, 2)]
    level3 = [hashlib.sha256(level2[i] + level2[i + 1]).digest() for i in range(0, 4, 2)]
    root = hashlib.sha256(level3[0] + level3[1]).digest()

    siblings = [level0[7], level1[2], level2[0], level3[1]]
    sides = [Side.RIGHT, Side.LEFT, Side.LEFT, Side.RIGHT]
    assert compute_root(leaves[6], siblings, sides) == root


_SCHEMA_FIELD = st.sampled_from(["u8", "u64", "d32"])


@st.composite
def _schema_and_values(draw):
    schema = tuple(draw(st.lists(_SCHEMA_FIELD, min_size=0, max_size=8)))
    values = []
    for kind in schema:
        if kind == "u8":
            values.append(draw(st.integers(0, 255)))
        elif kind == "u64":
            values.append(draw(st.integers(0, 2**64 - 1)))
        else:
            values.append(draw(st.binary(min_size=32, max_size=32)))
    return schema, tuple(values)


@given(_schema_and_values())
def test_encoding_round_trip(schema_values):
    schema, values = schema_values
    assert decode_fields(schema, encode_fields(schema, values)) == values


def test_encoding_rejects_bad_values():
    with pytest.raises(EncodingError):
        encode_fields(("u64",), (-1,))
    with pytest.raises(EncodingError):
        encode_fields(("u64",), (1 << 64,))
    with pytest.raises(EncodingError):
        encode_fields(("d32",), (b"short",))
    with pytest.raises(EncodingError):
        encode_fields(("u8",), (256,))
    with pytest.raises(EncodingError):
        encode_fields(("u64", "u64"), (1,))


def test_decoding_rejects_bad_length():
    with pytest.raises(EncodingError):
        decode_fields(("u64",), b"\x00" * 7)
