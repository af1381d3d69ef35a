"""Newline-delimited JSON wire protocol: framing and payload codecs.

Binary fields travel hex-encoded in the JSON.  MACs are always computed over
canonical bytes, never over this JSON, so the wire encoding carries no
authority.

A message that carries a version's blobs (a MODIFY request, an ``ok`` FETCH
reply) is the JSON header line, whose payload says ``"blobs": [len(image),
len(build), len(compose)]``, then a frame holding ``image || build ||
compose`` raw plus one newline.  The header's lengths bound the frame before
any of it is read.  The server takes a request's frame with one ``read``;
the client reads every reply through ``readline`` alone, so it takes a
reply's frame line by line.
"""

from __future__ import annotations

import json
from typing import IO, Optional, Sequence

from .merkle import DIGEST_SIZE
from .module import RequestEnvelope, VerifyResponse
from .storage import BlobSet

STATUS_OK = "ok"
STATUS_DENIED = "denied"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

# Longest accepted message, header and frame with their newlines.  The
# content cap comes from the ``ok`` FETCH reply, which keeps room for its
# header beside the frame: a version holds just under 64 MiB.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

# Room an ``ok`` FETCH reply keeps for its header line beside the frame: with
# every u64 (the echoed request id too) at its widest, that line is 778 bytes.
FETCH_HEADER_BYTES = 1024


class WireError(Exception):
    pass


def u64_field(obj: dict, name: str) -> int:
    """``obj[name]``, which must be a JSON integer in [0, 2^64), else a :class:`WireError`.

    Every index, counter and version is an unsigned 64-bit integer in the
    canonical encoding, so anything else is refused where it enters: a bool,
    a float or a string is never read as a number.
    """
    try:
        value = obj[name]
    except (KeyError, TypeError) as exc:
        raise WireError(f"bad field {name!r}: {exc!r}") from exc
    if type(value) is not int or not 0 <= value < 1 << 64:
        raise WireError(f"field {name!r} is not a u64: {value!r:.40}")
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


def blobs_field(obj: dict) -> BlobSet:
    """``obj["blobs"]``, which must be the :class:`BlobSet` a frame carried, else a
    :class:`WireError`.  JSON cannot produce a ``BlobSet``; only
    :func:`read_message` puts one there."""
    try:
        value = obj["blobs"]
    except (KeyError, TypeError) as exc:
        raise WireError(f"bad field 'blobs': {exc!r}") from exc
    if not isinstance(value, BlobSet):
        raise WireError(f"field 'blobs' is not a frame: {value!r:.40}")
    return value


def check_fetchable(lengths: Sequence[int]) -> None:
    """A :class:`WireError` unless the ``ok`` FETCH reply carrying blobs of
    ``lengths`` fits in :data:`MAX_MESSAGE_BYTES`: a MODIFY is held to this,
    by the client before it connects and by the server before it reads the
    frame, so every version the store accepts can be fetched."""
    if FETCH_HEADER_BYTES + sum(lengths) + 1 > MAX_MESSAGE_BYTES:
        raise WireError(f"a FETCH reply for this version would exceed {MAX_MESSAGE_BYTES} bytes")


def _json_line(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def write_message(fp: IO[bytes], obj: dict) -> None:
    """Send ``obj`` as one JSON line in one write.  A :class:`BlobSet` at
    ``obj["payload"]["blobs"]`` goes as its lengths in that line, then its
    frame: the bytes raw and a newline."""
    payload = obj.get("payload")
    blobs = payload.get("blobs") if isinstance(payload, dict) else None
    if not isinstance(blobs, BlobSet):
        fp.write(_json_line(obj))
    else:
        parts = (blobs.image, blobs.build, blobs.compose)
        head = _json_line({**obj, "payload": {**payload, "blobs": [len(p) for p in parts]}})
        fp.write(b"".join((head, *parts, b"\n")))
    fp.flush()


def read_message(fp: IO[bytes], request: bool = False) -> Optional[dict]:
    """The next message, its frame (if any) cut into a :class:`BlobSet`;
    ``None`` at end of input.  A reply is read through ``fp.readline`` only;
    a ``request``'s frame is taken with one ``fp.read``."""
    line = fp.readline(MAX_MESSAGE_BYTES)
    if not line:
        return None
    if len(line) == MAX_MESSAGE_BYTES and not line.endswith(b"\n"):
        raise WireError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or too deeply nested
        raise WireError(f"undecodable message: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireError("message must be a JSON object")
    payload = obj.get("payload")
    if isinstance(payload, dict) and "blobs" in payload:
        payload["blobs"] = _read_frame(fp, payload["blobs"], len(line), request)
    return obj


def _read_frame(fp: IO[bytes], lengths: object, header_bytes: int, request: bool) -> BlobSet:
    """The raw frame after a header declaring ``lengths``, refused unread if
    header and frame together would pass :data:`MAX_MESSAGE_BYTES` or, for a
    ``request`` (a MODIFY), if the version could not be fetched."""
    if (
        not isinstance(lengths, list)
        or len(lengths) != 3
        or any(type(n) is not int or n < 0 for n in lengths)
    ):
        raise WireError(f"field 'blobs' is not three lengths: {lengths!r:.60}")
    total = sum(lengths)
    size = total + 1  # the bytes and their newline
    if header_bytes + size > MAX_MESSAGE_BYTES:
        raise WireError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    if request:
        check_fetchable(lengths)
        data = fp.read(size)
    else:
        # A reply file offers readline alone: one call per newline byte in the
        # frame, never more calls than the frame has bytes, each line appended
        # to one buffer so memory follows the frame, not its count of lines.
        data = bytearray()
        while len(data) < size and (line := fp.readline(size - len(data))):
            data += line
    if len(data) != size or not data.endswith(b"\n"):
        raise WireError(f"frame is not {total} bytes and a newline")
    first, second, view = lengths[0], lengths[0] + lengths[1], memoryview(data)
    return BlobSet(bytes(view[:first]), bytes(view[first:second]), bytes(view[second:total]))


def parse_address(text: str) -> tuple[str, int]:
    """``host:port`` as a pair; a :class:`ValueError` unless the port is
    decimal digits naming a TCP port, 0 to 65535."""
    host, _, port = text.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 0xFFFF):
        raise ValueError(f"bad address {text!r}; expected host:port with a port in 0..65535")
    return host, int(port)


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
            kind=u64_field(obj, "kind"),
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
                idx=u64_field(obj, "idx"),
                nonce=bytes.fromhex(obj["nonce"]),
                tag=bytes.fromhex(obj["tag"]),
            )
        return VerifyResponse(
            idx=u64_field(obj, "idx"),
            nonce=bytes.fromhex(obj["nonce"]),
            tag=bytes.fromhex(obj["tag"]),
            counter=u64_field(obj, "counter"),
            max_version=u64_field(obj, "max_version"),
            requested_version=u64_field(obj, "requested_version"),
            acl_root=bytes.fromhex(obj["acl_root"]),
            content_digest=bytes.fromhex(obj["content_digest"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise WireError(f"bad verify response: {exc}") from exc
