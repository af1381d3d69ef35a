"""Scaling benchmark: prepopulate near-full stores, time operations per step.

For each height the store is filled to ``2^h - ops`` containers, then every
operation category runs ``ops`` times with microsecond per-step timing.
The whole cycle repeats ``repeats`` times on a fresh store (creation
consumes the free slots, so repeats cannot share one), and the emitted
figure per step is the median across repeats of the per-repeat mean.
Python's cyclic garbage collector is paused while operations are timed, as
``timeit`` does: one full collection lands in whichever operation happens
to trigger it and charges that operation for the whole heap.

``tcr-bench --heights 10..20 --ops 500 --repeats 25 --payload 12288
--out results.csv``
"""

from __future__ import annotations

import argparse
import csv
import gc
import random
import secrets
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .client import (
    UserCredential,
    Verdict,
    check_info_response,
    wrap_secret,
    xor_blobs,
)
from .merkle import DIGEST_SIZE, ZERO_DIGEST
from .module import ModuleState, RequestKind, TrustedModule
from .service import Service, StepClock
from .storage import MOCK_BUILD, MOCK_COMPOSE, BlobSet, Storage, bulk_prepopulate, content_digest

OPERATIONS = ("create", "modify", "modify_encrypted", "info", "fetch", "fetch_encrypted")

STEP_ORDER = {
    "create": ("record_lookup", "eq_certificate", "root_update", "persist_records", "total"),
    "modify": ("record_lookup", "content_digest", "certificates", "root_update",
               "persist_records", "total"),
    "modify_encrypted": ("record_lookup", "content_digest", "certificates", "root_update",
                         "persist_records", "total"),
    "info": ("record_lookup", "certificates", "module_verify", "total"),
    "fetch": ("record_lookup", "certificates", "module_verify", "total"),
    "fetch_encrypted": ("record_lookup", "certificates", "module_verify", "total"),
}

CSV_HEADER = ("h", "operation", "step", "median_us", "stderr_us")

_OWNER = 1


class BenchError(Exception):
    """Aborted run; carries whatever rows completed before the failure."""

    def __init__(self, message: str, partial_rows: Optional[list] = None) -> None:
        super().__init__(message)
        self.partial_rows = partial_rows or []


@dataclass
class BenchConfig:
    heights: tuple[int, ...]
    ops: int = 500
    repeats: int = 25
    payload_size: int = 12 * 1024
    keep_db: bool = False
    workdir: Optional[Path] = None
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.heights or self.ops < 1 or self.repeats < 1:
            raise ValueError("heights must be non-empty and ops/repeats at least 1")


@dataclass(frozen=True)
class TimingRow:
    height: int
    operation: str
    step: str
    median_us: float
    stderr_us: float


def parse_heights(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        low, _, high = text.partition("..")
        return tuple(range(int(low), int(high) + 1))
    return tuple(int(part) for part in text.split(","))


def _payload(size: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(size))


def run_bench(cfg: BenchConfig, log: Optional[Callable[[str], None]] = None) -> list[TimingRow]:
    log = log or (lambda text: print(text, file=sys.stderr))
    rows: list[TimingRow] = []
    for height in cfg.heights:
        samples: dict[str, dict[str, list[float]]] = {op: {} for op in OPERATIONS}
        for repeat in range(cfg.repeats):
            log(f"height {height}: repeat {repeat + 1}/{cfg.repeats}")
            try:
                means = _one_repeat(cfg, height, cfg.seed + repeat)
            except BenchError as exc:
                raise BenchError(str(exc), partial_rows=sorted(rows, key=_row_key)) from exc
            for op, steps in means.items():
                for step, mean_us in steps.items():
                    samples[op].setdefault(step, []).append(mean_us)
        for op in OPERATIONS:
            for step, values in samples[op].items():
                stderr = (
                    statistics.stdev(values) / (len(values) ** 0.5) if len(values) > 1 else 0.0
                )
                rows.append(TimingRow(height, op, step, statistics.median(values), stderr))
    rows.sort(key=_row_key)
    return rows


def _row_key(row: TimingRow) -> tuple:
    order = STEP_ORDER.get(row.operation, ())
    step_rank = order.index(row.step) if row.step in order else len(order)
    return (row.height, OPERATIONS.index(row.operation), step_rank, row.step)


def _one_repeat(cfg: BenchConfig, height: int, seed: int) -> dict[str, dict[str, float]]:
    rng = random.Random(seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"tcr-bench-h{height}-", dir=cfg.workdir))
    storage = Storage(workdir / "repo.db", workdir / "blobs")
    try:
        owner_key = secrets.token_bytes(DIGEST_SIZE)
        state = ModuleState.fresh({_OWNER: owner_key})
        credential = UserCredential(_OWNER, owner_key)
        count = (1 << height) - cfg.ops
        blobs = BlobSet(_payload(cfg.payload_size, seed), MOCK_BUILD, MOCK_COMPOSE)
        bulk_prepopulate(storage, height, count, _OWNER, state, blobs=blobs)
        service = Service(storage, TrustedModule(state), height)
        _check_prepopulation(service, credential, count, rng)

        counters: dict[int, int] = {}
        results: dict[str, dict[str, float]] = {}
        with _collector_paused():
            results["create"] = _time_create(service, credential, count, cfg)
            results["modify"] = _time_modify(
                service, credential, _targets(rng, count, cfg.ops, 0), counters, blobs, False
            )
            encrypted_targets = _targets(rng, count, cfg.ops, 1)
            results["modify_encrypted"] = _time_modify(
                service, credential, encrypted_targets, counters, blobs, True
            )
            results["info"] = _time_info(service, credential, _targets(rng, count, cfg.ops, 2))
            results["fetch"] = _time_fetch(service, credential, _targets(rng, count, cfg.ops, 3))
            results["fetch_encrypted"] = _time_fetch(service, credential, encrypted_targets)
        return results
    finally:
        storage.close()
        if cfg.keep_db:
            print(f"kept benchmark store at {workdir}", file=sys.stderr)
        else:
            shutil.rmtree(workdir, ignore_errors=True)


@contextmanager
def _collector_paused() -> Iterator[None]:
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _targets(rng: random.Random, count: int, n: int, block: int) -> list[int]:
    """Distinct indices per category when the store is big enough; the
    categories cycle through disjoint blocks otherwise."""
    if count >= 4 * n:
        lo = block * n
        pool = list(range(1 + lo, 1 + lo + n))
    else:
        pool = list(range(1, count + 1))
    rng.shuffle(pool)
    return [pool[i % len(pool)] for i in range(n)]


def _check_prepopulation(service: Service, credential: UserCredential, count: int,
                         rng: random.Random) -> None:
    for idx in rng.sample(range(1, count + 1), min(100, count)):
        nonce = secrets.token_bytes(DIGEST_SIZE)
        info = service.handle_info(idx, 1, nonce, credential.user_idx)
        verdict = check_info_response(credential, info.response, nonce, idx, requested_version=1)
        if verdict != Verdict.VERIFIED or info.response.counter != 2:
            raise BenchError(f"prepopulated container {idx} failed verification")


def _collect(steps: dict[str, list[int]], clock: StepClock, total_ns: int) -> None:
    for label, ns in clock.steps.items():
        steps.setdefault(label, []).append(ns)
    steps.setdefault("total", []).append(total_ns)


def _means(steps: dict[str, list[int]]) -> dict[str, float]:
    return {label: statistics.fmean(values) / 1000.0 for label, values in steps.items()}


def _time_create(service: Service, credential: UserCredential, count: int,
                 cfg: BenchConfig) -> dict[str, float]:
    steps: dict[str, list[int]] = {}
    acl_root = credential.initial_acl_root()
    for i in range(cfg.ops):
        idx = count + 1 + i
        envelope = credential.sign_request(RequestKind.ACL, idx, 0, acl_root)
        clock = StepClock()
        start = StepClock.now()
        result = service.handle_create(envelope, clock=clock)
        elapsed = StepClock.now() - start
        if result is None:
            raise BenchError(f"create of {idx} was rejected")
        _collect(steps, clock, elapsed)
    return _means(steps)


def _time_modify(service: Service, credential: UserCredential, targets: list[int],
                 counters: dict[int, int], blobs: BlobSet, encrypt: bool) -> dict[str, float]:
    steps: dict[str, list[int]] = {}
    for idx in targets:
        counter = counters.get(idx, 2)  # prepopulated containers sit at counter 2
        if encrypt:
            secret = secrets.token_bytes(DIGEST_SIZE)
            wrapped, commitment = wrap_secret(credential, secret, idx, counter)
            content = xor_blobs(secret, blobs)
        else:
            wrapped = commitment = None
            content = blobs
        digest = content_digest(
            content.hashes(), commitment if commitment is not None else ZERO_DIGEST
        )
        envelope = credential.sign_request(RequestKind.CONTAINER, idx, counter, digest)
        clock = StepClock()
        start = StepClock.now()
        result = service.handle_modify(
            envelope, content, wrapped_secret=wrapped, secret_commitment=commitment, clock=clock
        )
        elapsed = StepClock.now() - start
        if result is None:
            raise BenchError(f"modify of {idx} was rejected")
        counters[idx] = counter + 1
        _collect(steps, clock, elapsed)
    return _means(steps)


def _time_info(service: Service, credential: UserCredential, targets: list[int]) -> dict[str, float]:
    return _time_query(
        targets,
        lambda idx, nonce, clock: service.handle_info(
            idx, 0, nonce, credential.user_idx, clock=clock
        ),
    )


def _time_fetch(service: Service, credential: UserCredential, targets: list[int]) -> dict[str, float]:
    return _time_query(
        targets,
        lambda idx, nonce, clock: service.handle_fetch(
            idx, 0, credential.user_idx, nonce=nonce, clock=clock
        ),
    )


def _time_query(targets: list[int], query: Callable) -> dict[str, float]:
    """Time ``query(idx, nonce, clock)``, which returns an ``InfoResult`` or ``FetchResult``."""
    steps: dict[str, list[int]] = {}
    for idx in targets:
        nonce = secrets.token_bytes(DIGEST_SIZE)
        clock = StepClock()
        start = StepClock.now()
        info = query(idx, nonce, clock)
        elapsed = StepClock.now() - start
        if info.response.denied:
            raise BenchError(f"query of {idx} was denied")
        _collect(steps, clock, elapsed)
    return _means(steps)


def emit_csv(rows: Iterable[TimingRow], path: Path | str) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                [row.height, row.operation, row.step, f"{row.median_us:.3f}", f"{row.stderr_us:.3f}"]
            )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="tcr-bench", description=__doc__)
    parser.add_argument("--heights", type=parse_heights, default=parse_heights("10..20"),
                        help="range like 10..20 or list like 12,16,20")
    parser.add_argument("--ops", type=int, default=500)
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--payload", type=int, default=12 * 1024)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--keep-db", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)

    cfg = BenchConfig(
        heights=args.heights,
        ops=args.ops,
        repeats=args.repeats,
        payload_size=args.payload,
        keep_db=args.keep_db,
        workdir=args.workdir,
        seed=args.seed,
    )
    try:
        rows = run_bench(cfg)
    except BenchError as exc:
        partial = args.out.with_suffix(args.out.suffix + ".partial")
        emit_csv(exc.partial_rows, partial)
        print(f"benchmark aborted: {exc}; partial results in {partial}", file=sys.stderr)
        return 1
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
