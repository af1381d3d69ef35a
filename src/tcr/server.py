"""TCP front end for the service: one reply to each request on a connection.

A fixed set of handler threads, started by ``serve_forever``, each accept a
connection and answer it; a connection idle for ``READ_TIMEOUT_S`` is closed
so that idle clients cannot pin every thread.  A refused message is answered,
then the connection is half-closed and drained, so the reply is not lost to
a reset.

Run with ``tcr-server --listen 127.0.0.1:7700 --db repo.db --module-state
module.bin --height 16 --data-dir blobs``.
"""

from __future__ import annotations

import argparse
import json
import socket
import socketserver
import sqlite3
import sys
import threading
from contextlib import suppress
from pathlib import Path
from typing import Optional

from . import wire
from .iomt import IomtError
from .module import ModuleState, StateIntegrityError, TrustedModule, load_state, save_state
from .service import ProtocolError, Service
from .storage import Storage, StorageError, check_height
from .wire import (
    STATUS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    WireError,
    blobs_field,
    d32_field,
    envelope_from_json,
    parse_address,
    read_message,
    response_to_json,
    u64_field,
    write_message,
)

_LOOPBACK = ("127.0.0.1", "::1", "::ffff:127.0.0.1")

# Seconds a connection may sit in one socket read or write before it is closed.
READ_TIMEOUT_S = 30.0


class RepositoryServer(socketserver.TCPServer):
    allow_reuse_address = True
    # Each long-lived thread keeps its own glibc malloc arena, so every thread
    # adds to the server's RSS; two serve a closed-loop client as fast as four.
    handler_threads = 2
    # Connections wait in the kernel's accept queue while every thread is busy;
    # a full queue drops SYNs and costs the client a one-second retransmit.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address: tuple[str, int], service: Service,
                 state: Optional[ModuleState] = None,
                 state_path: Optional[Path] = None) -> None:
        super().__init__(address, _ConnectionHandler)
        self.service = service
        self.module_state = state
        self.state_path = state_path
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._workers: list[threading.Thread] = []

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Answer connections from ``handler_threads`` threads until ``shutdown()``.

        ``poll_interval`` is accepted for compatibility and unused: the
        threads block in ``accept()`` and ``shutdown()`` wakes them.
        """
        with self._lock:
            if self._stopping.is_set():
                return
            # Started under the lock, so shutdown() only ever joins started threads.
            self._workers = [
                threading.Thread(target=self._accept_loop, name=f"tcr-handler-{i}", daemon=True)
                for i in range(self.handler_threads)
            ]
            for worker in self._workers:
                worker.start()
        self._stopping.wait()

    def shutdown(self) -> None:
        """Stop accepting, let requests in flight finish and join the threads."""
        with self._lock:
            self._stopping.set()
            workers = self._workers
        try:
            self.socket.shutdown(socket.SHUT_RDWR)  # wakes every thread in accept()
        except OSError:
            pass  # already shut down by an earlier call
        for worker in workers:
            worker.join()

    def _accept_loop(self) -> None:
        while True:
            try:
                request, client_address = self.get_request()
            except OSError:
                if self._stopping.is_set():
                    return
                continue  # e.g. a connection aborted before it was accepted
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def dispatch(self, op: str, payload: dict, peer: str) -> tuple[str, dict]:
        try:
            return self._dispatch(op, payload, peer)
        except ProtocolError as exc:
            return STATUS_ERROR, {"message": str(exc)}
        except StorageError as exc:
            return STATUS_ERROR, {"message": f"storage failure: {exc}"}
        except (OSError, sqlite3.Error) as exc:
            # Never str(exc): an OSError names the file it failed on.
            reason = getattr(exc, "strerror", None) or type(exc).__name__
            return STATUS_ERROR, {"message": f"storage failure: {reason}"}
        except (WireError, IomtError, KeyError, ValueError, TypeError) as exc:
            return STATUS_ERROR, {"message": f"malformed request: {exc}"}

    def _dispatch(self, op: str, payload: dict, peer: str) -> tuple[str, dict]:
        service = self.service
        if op == "CREATE":
            result = service.handle_create(envelope_from_json(payload))
            if result is None:
                return STATUS_REJECTED, {}
            return STATUS_OK, {"ack": result.ack.hex()}

        if op == "MODIFY":
            secret = {}
            if "wrapped_secret" in payload or "secret_commitment" in payload:
                secret = {name: d32_field(payload, name)
                          for name in ("wrapped_secret", "secret_commitment")}
            result = service.handle_modify(envelope_from_json(payload), blobs_field(payload),
                                           **secret)
            if result is None:
                return STATUS_REJECTED, {}
            return STATUS_OK, {"ack": result.ack.hex(), "version": result.version.version}

        if op == "ACL_SET":
            result = service.handle_acl_set(
                envelope_from_json(payload),
                u64_field(payload, "target_user"),
                u64_field(payload, "level"),
            )
            if result is None:
                return STATUS_REJECTED, {}
            return STATUS_OK, {"ack": result.ack.hex()}

        if op == "INFO":
            info = service.handle_info(
                u64_field(payload, "idx"),
                u64_field(payload, "requested_version"),
                d32_field(payload, "nonce"),
                u64_field(payload, "user"),
            )
            body = {"response": response_to_json(info.response)}
            if info.hints is not None:
                body["hints"] = info.hints
            status = STATUS_DENIED if info.response.denied else STATUS_OK
            return status, body

        if op == "FETCH":
            result = service.handle_fetch(
                u64_field(payload, "idx"),
                u64_field(payload, "version"),
                u64_field(payload, "user"),
                nonce=d32_field(payload, "nonce"),
            )
            # A denial is answered exactly as INFO answers it.
            body = {"response": response_to_json(result.response)}
            if result.response.denied:
                return STATUS_DENIED, body
            body["blobs"] = result.blobs
            body["secret_commitment"] = result.secret_commitment.hex()
            # Absent if the secret did not open its commitment: content, but no usable secret.
            sealed_for_user = result.response.sealed_for_user
            if sealed_for_user is not None:
                body["sealed_for_user"] = sealed_for_user.hex()
            return STATUS_OK, body

        if op == "BENCH_PREPOPULATE":
            if peer not in _LOOPBACK:
                return STATUS_ERROR, {"message": "administrative operation: loopback only"}
            if self.module_state is None:
                return STATUS_ERROR, {"message": "server holds no provisionable module state"}
            root = service.prepopulate(
                u64_field(payload, "count"), u64_field(payload, "owner"), self.module_state
            )
            if self.state_path is not None:
                save_state(self.module_state, self.state_path)
            return STATUS_OK, {"root": root.hex()}

        return STATUS_ERROR, {"message": f"unknown operation {op!r}"}


class _ConnectionHandler(socketserver.StreamRequestHandler):
    timeout = READ_TIMEOUT_S

    def handle(self) -> None:
        try:
            self._serve_connection()
        except TimeoutError:
            pass  # idle too long: close quietly and free the thread

    def _serve_connection(self) -> None:
        while True:
            try:
                message = read_message(self.rfile, request=True)
            except WireError as exc:
                write_message(self.wfile, {"status": STATUS_ERROR, "payload": {"message": str(exc)}})
                self._drain()
                return
            if message is None:
                return
            op = message.get("op", "")
            payload = message.get("payload") or {}
            status, body = self.server.dispatch(op, payload, self.client_address[0])
            write_message(
                self.wfile,
                {"request_id": message.get("request_id"), "status": status, "payload": body},
            )

    def _drain(self) -> None:
        """Half-close, then discard what the client still sends, up to the
        message bound: closing with a refused frame unread would reset the
        connection before the client reads the reply."""
        with suppress(OSError):  # a timeout, or a client already gone
            self.connection.shutdown(socket.SHUT_WR)
            remaining = wire.MAX_MESSAGE_BYTES
            while remaining > 0:
                chunk = self.rfile.read1(min(remaining, 1 << 16))
                if not chunk:
                    return
                remaining -= len(chunk)


def _parse_address(text: str) -> tuple[str, int]:
    try:
        return parse_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_or_init_state(state_path: Path, users_path: Optional[Path]) -> ModuleState:
    """The saved module state, or a fresh one (not yet saved) from the users map."""
    if state_path.exists():
        try:
            return load_state(state_path)
        except (OSError, StateIntegrityError) as exc:
            raise SystemExit(f"cannot load module state {state_path}: {exc}") from exc
    if users_path is None:
        raise SystemExit(
            "no module state found; pass --users <json file of {index: hex key}> to provision one"
        )
    try:
        raw = json.loads(users_path.read_text())
        return ModuleState.fresh({int(idx): bytes.fromhex(key) for idx, key in dict(raw).items()})
    except (OSError, ValueError, TypeError) as exc:
        raise SystemExit(f"cannot read users file {users_path}: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="tcr-server", description=__doc__)
    parser.add_argument("--listen", type=_parse_address, default=("127.0.0.1", 7700))
    parser.add_argument("--db", required=True, help="sqlite database path")
    parser.add_argument("--module-state", required=True, help="sealed module state file")
    parser.add_argument("--height", type=int, required=True, help="container tree height")
    parser.add_argument("--data-dir", required=True, help="content-addressed blob directory")
    parser.add_argument("--users", type=Path, default=None,
                        help="JSON user-key map for first-run provisioning")
    args = parser.parse_args(argv)
    try:  # refused before anything is opened or provisioned
        check_height("--height", args.height)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc

    state_path = Path(args.module_state)
    state = _load_or_init_state(state_path, args.users)
    try:
        storage = Storage(args.db, args.data_dir)
    except StorageError as exc:
        raise SystemExit(f"cannot open {args.db}: {exc}") from exc
    try:  # a store bound to another height is refused before anything is provisioned
        service = Service(storage, TrustedModule(state), args.height)
        if service.container_tree().root != state.root:  # no proof it reads would verify
            raise StorageError(f"sealed root {state.root.hex()} is not the store's root "
                               f"{service.container_tree().root.hex()}")
        if not state_path.exists():
            save_state(state, state_path)
    except (StorageError, OSError) as exc:
        storage.close()
        what = (f"open {args.db}" if isinstance(exc, StorageError)
                else f"save module state {state_path}")
        raise SystemExit(f"cannot {what}: {exc}") from exc
    server = RepositoryServer(args.listen, service, state=state, state_path=state_path)
    host, port = server.server_address[:2]
    print(f"listening on {host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        storage.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
