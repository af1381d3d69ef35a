"""Newline-delimited JSON wire protocol: framing and payload codecs.

Binary values travel hex-encoded.  MACs are always computed over canonical
bytes, never over this JSON, so the wire encoding carries no authority.
"""

from __future__ import annotations

import json
from typing import IO, Optional

from .merkle import DIGEST_SIZE
from .module import RequestEnvelope, VerifyResponse

STATUS_OK = "ok"
STATUS_DENIED = "denied"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

# Longest accepted line, newline included: a 16 MiB image travels as 32 MiB of hex.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class WireError(Exception):
    pass


def u64_field(obj: dict, name: str) -> int:
    """``obj[name]`` read with ``int()``; a value outside [0, 2^64) is a :class:`WireError`.

    Every index, counter and version is an unsigned 64-bit integer in the
    canonical encoding, so anything else is refused where it enters.
    """
    try:
        value = int(obj[name])
    except (KeyError, ValueError, TypeError) as exc:
        raise WireError(f"bad field {name!r}: {exc!r}") from exc
    if not 0 <= value < 1 << 64:
        raise WireError(f"field {name!r} is not a u64: {value}")
    return value


def d32_field(obj: dict, name: str) -> bytes:
    """``obj[name]`` read from hex; anything but 32 bytes is a :class:`WireError`."""
    try:
        value = bytes.fromhex(obj[name])
    except (KeyError, ValueError, TypeError) as exc:
        raise WireError(f"bad field {name!r}: {exc!r}") from exc
    if len(value) != DIGEST_SIZE:
        raise WireError(f"field {name!r} is not {DIGEST_SIZE} bytes: {len(value)}")
    return value


def write_message(fp: IO[bytes], obj: dict) -> None:
    fp.write(json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n")
    fp.flush()


def read_message(fp: IO[bytes]) -> Optional[dict]:
    line = fp.readline(MAX_MESSAGE_BYTES)
    if not line:
        return None
    if len(line) == MAX_MESSAGE_BYTES and not line.endswith(b"\n"):
        raise WireError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"undecodable message: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError("message must be a JSON object")
    return obj


def envelope_to_json(env: RequestEnvelope) -> dict:
    return {
        "kind": int(env.kind),
        "idx": env.idx,
        "counter": env.counter,
        "value": env.value.hex(),
        "user": env.user_idx,
        "sig": env.sig.hex(),
    }


def envelope_from_json(obj: dict) -> RequestEnvelope:
    try:
        return RequestEnvelope(
            kind=int(obj["kind"]),
            idx=u64_field(obj, "idx"),
            counter=u64_field(obj, "counter"),
            value=bytes.fromhex(obj["value"]),
            user_idx=u64_field(obj, "user"),
            sig=bytes.fromhex(obj["sig"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise WireError(f"bad request envelope: {exc}") from exc


def response_to_json(resp: VerifyResponse) -> dict:
    if resp.denied:
        return {
            "kind": "denial",
            "idx": resp.idx,
            "nonce": resp.nonce.hex(),
            "tag": resp.tag.hex(),
        }
    return {
        "kind": "full",
        "idx": resp.idx,
        "nonce": resp.nonce.hex(),
        "tag": resp.tag.hex(),
        "counter": resp.counter,
        "max_version": resp.max_version,
        "requested_version": resp.requested_version,
        "acl_root": resp.acl_root.hex(),
        "content_digest": resp.content_digest.hex(),
    }


def response_from_json(obj: dict) -> VerifyResponse:
    try:
        if obj["kind"] == "denial":
            return VerifyResponse(
                idx=int(obj["idx"]),
                nonce=bytes.fromhex(obj["nonce"]),
                tag=bytes.fromhex(obj["tag"]),
            )
        return VerifyResponse(
            idx=int(obj["idx"]),
            nonce=bytes.fromhex(obj["nonce"]),
            tag=bytes.fromhex(obj["tag"]),
            counter=int(obj["counter"]),
            max_version=int(obj["max_version"]),
            requested_version=int(obj["requested_version"]),
            acl_root=bytes.fromhex(obj["acl_root"]),
            content_digest=bytes.fromhex(obj["content_digest"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise WireError(f"bad verify response: {exc}") from exc
