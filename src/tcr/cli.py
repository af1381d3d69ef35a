"""Command-line client.

Exit codes: 0 verified, 2 authenticated denial, 3 invalid proof or detected
misbehavior, 4 protocol error, an unreadable local input, or verified content
that cannot be written out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .client import (
    ProtocolFailure,
    RepositoryClient,
    RequestRejected,
    UserCredential,
    Verdict,
)
from .wire import parse_address

EXIT_VERIFIED = 0
EXIT_DENIED = 2
EXIT_INVALID = 3
EXIT_PROTOCOL = 4

_VERDICT_EXIT = {
    Verdict.VERIFIED: EXIT_VERIFIED,
    Verdict.DENIED: EXIT_DENIED,
    Verdict.INVALID: EXIT_INVALID,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcr", description=__doc__)
    parser.add_argument("--server", default="127.0.0.1:7700", help="host:port of the repository")
    parser.add_argument("--user", type=int, required=True, help="user index")
    parser.add_argument("--key-file", required=True, help="file holding the hex shared key")
    sub = parser.add_subparsers(dest="command", required=True)

    create = sub.add_parser("create", help="create a container")
    create.add_argument("--index", type=int, required=True)

    modify = sub.add_parser("modify", help="store a new container version")
    modify.add_argument("--index", type=int, required=True)
    modify.add_argument("--image", type=Path, required=True)
    modify.add_argument("--build", type=Path, required=True)
    modify.add_argument("--compose", type=Path, required=True)
    modify.add_argument("--encrypt", action="store_true")

    acl = sub.add_parser("acl-set", help="change a user's access level")
    acl.add_argument("--index", type=int, required=True)
    acl.add_argument("--target-user", type=int, required=True)
    acl.add_argument("--level", type=int, choices=(0, 1, 2, 3), required=True)

    info = sub.add_parser("info", help="query and verify container information")
    info.add_argument("--index", type=int, required=True)
    info.add_argument("--version", type=int, default=0, help="0 selects the latest version")

    fetch = sub.add_parser("fetch", help="download and verify container content")
    fetch.add_argument("--index", type=int, required=True)
    fetch.add_argument("--version", type=int, default=0)
    fetch.add_argument("--out", type=Path, required=True, help="directory for the verified files")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        host, port = parse_address(args.server)
    except ValueError as exc:
        print(f"bad --server value: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    # Indices are u64 in every signed or queried field; refuse others before signing.
    for name in ("user", "index", "target_user", "version"):
        value = getattr(args, name, None)
        if value is not None and not 0 <= value < 1 << 64:
            print(f"--{name.replace('_', '-')} {value} is not a u64", file=sys.stderr)
            return EXIT_PROTOCOL
    # Local inputs are read before connecting; an unreadable one is one line, not a traceback.
    try:
        credential = UserCredential.load(args.user, args.key_file)
    except (OSError, ValueError) as exc:
        print(f"cannot use --key-file {args.key_file}: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    if args.command == "modify":
        try:
            blobs = [path.read_bytes() for path in (args.image, args.build, args.compose)]
        except OSError as exc:
            print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
            return EXIT_PROTOCOL
    client = RepositoryClient(host, port, credential)

    try:
        if args.command == "create":
            client.create(args.index)
            print(f"created container {args.index}")
            return EXIT_VERIFIED

        if args.command == "modify":
            result = client.modify(args.index, *blobs, encrypt=args.encrypt)
            print(f"stored version {result['version']} of container {args.index}")
            return EXIT_VERIFIED

        if args.command == "acl-set":
            client.acl_set(args.index, args.target_user, args.level)
            print(f"user {args.target_user} now has level {args.level} on container {args.index}")
            return EXIT_VERIFIED

        if args.command == "info":
            outcome = client.info(args.index, args.version)
            if outcome.verdict == Verdict.VERIFIED:
                resp = outcome.response
                if resp.max_version == 0:
                    print(f"container {resp.idx}: counter {resp.counter}, no versions yet")
                else:
                    print(
                        f"container {resp.idx}: counter {resp.counter}, "
                        f"versions {resp.max_version}, version {resp.requested_version} "
                        f"content digest {resp.content_digest.hex()}"
                    )
            elif outcome.verdict == Verdict.DENIED:
                print(f"container {args.index}: authenticated denial")
            else:
                print("response failed verification: service misbehavior", file=sys.stderr)
            return _VERDICT_EXIT[outcome.verdict]

        if args.command == "fetch":
            outcome = client.fetch(args.index, args.version)
            if outcome.verdict == Verdict.VERIFIED:
                try:
                    args.out.mkdir(parents=True, exist_ok=True)
                    for name in ("image", "build", "compose"):
                        (args.out / name).write_bytes(getattr(outcome.blobs, name))
                except OSError as exc:
                    print(f"verified, but cannot write {exc.filename}: {exc.strerror}",
                          file=sys.stderr)
                    return EXIT_PROTOCOL
                print(f"verified version {outcome.version} written to {args.out}")
            elif outcome.verdict == Verdict.DENIED:
                print(f"container {args.index}: authenticated denial")
            else:
                print("content failed verification: nothing written", file=sys.stderr)
            return _VERDICT_EXIT[outcome.verdict]

    except RequestRejected as exc:
        print(f"request not proven: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ProtocolFailure as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL

    return EXIT_PROTOCOL


if __name__ == "__main__":
    raise SystemExit(main())
