"""End-to-end loopback benchmark: a real ``RepositoryClient`` against a fresh
``tcr-server`` subprocess, checked against a ground-truth model.

    python3 perfbench/run.py --workload query_h16 --seed 1 --seconds 20 --trace 0

One client, one connection at a time, each request sent after the previous
reply (a closed loop).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays a fixed-length prefix of the same operation stream
twice, untraced and then traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gzip
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

if not (SRC / "tcr" / "server.py").is_file():
    sys.exit(f"perfbench: no tcr sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

from reference import REFERENCE_US, Reference, slowdown, slowdowns_at  # noqa: E402
from spans import Tracer, now, self_times  # noqa: E402
from tcr import client as tcr_client  # noqa: E402
from tcr.client import (  # noqa: E402
    ProtocolFailure,
    RepositoryClient,
    RequestRejected,
    UserCredential,
    Verdict,
)
from tcr.storage import MOCK_BUILD, MOCK_COMPOSE, MOCK_IMAGE, BlobSet  # noqa: E402

OWNER, OTHER = 1, 2
ABSENT_BASE = 1 << 40  # no workload creates an index this large
MIB = 1 << 20
OPS = ("info", "fetch", "deny", "modify", "create", "acl_set")


@dataclass(frozen=True)
class Workload:
    height: int
    containers: int  # prepopulated as indices 1..containers
    setups: int  # provisions per untraced run; setup_s is their median
    warmup: int  # operations run before timing starts
    traced_ops: int  # fixed operation count of each pass of a traced run
    rss_ops: int  # timed operations after which the server's peak RSS is read
    mix: dict = field(default_factory=dict)  # op -> weight; empty: the bulk cycle
    image_bytes: int = 12 * 1024
    encrypt: bool = False

    def weights(self) -> dict:
        return self.mix or {"modify": 1, "fetch": 1, "info": 1, "deny": 1}


WORKLOADS = {
    "query_h16": Workload(
        height=16, containers=61440, setups=3, warmup=200, traced_ops=1000, rss_ops=4000,
        mix={"info": 45, "fetch": 40, "deny": 15},
    ),
    "update_h16": Workload(
        height=16, containers=61440, setups=3, warmup=200, traced_ops=1000, rss_ops=4000,
        mix={"create": 15, "modify": 25, "acl_set": 10, "info": 20, "fetch": 15, "deny": 15},
    ),
    "bulk_h10": Workload(
        height=10, containers=300, setups=5, warmup=12, traced_ops=160, rss_ops=200,
        image_bytes=256 * 1024, encrypt=True,
    ),
}


class InvalidVerdict(Exception):
    """The client classified a reply as evidence of service misbehaviour."""


# -- server process --------------------------------------------------------------


class ServerProcess:
    """A fresh ``tcr-server`` on an ephemeral loopback port with its own store."""

    def __init__(self, workdir: Path, wl: Workload, keys: dict, spans_out: Path | None) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        (workdir / "users.json").write_text(json.dumps({str(u): k.hex() for u, k in keys.items()}))
        args = [
            "--listen", "127.0.0.1:0",
            "--db", str(workdir / "repo.db"),
            "--module-state", str(workdir / "module.bin"),
            "--height", str(wl.height),
            "--data-dir", str(workdir / "blobs"),
            "--users", str(workdir / "users.json"),
        ]
        if spans_out is None:
            cmd = [sys.executable, "-m", "tcr.server", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"), str(spans_out), *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(workdir / "server.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=self._log,
                                     stderr=self._log, env=env, cwd=workdir)
        try:
            self.port = self._await_listening()
            admin = RepositoryClient("127.0.0.1", self.port, UserCredential(OWNER, keys[OWNER]))
            admin.bench_prepopulate(wl.containers, OWNER)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_listening(self) -> int:
        deadline = time.monotonic() + 60
        log = self.workdir / "server.log"
        while time.monotonic() < deadline:
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith("listening on "):
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n{log.read_text()}")
            time.sleep(0.001)
        raise RuntimeError("server did not start listening within 60 s")

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in the server's /proc status")

    def store_mib(self) -> float:
        files = [self.workdir / "repo.db", self.workdir / "repo.db-wal"]
        files += [p for p in (self.workdir / "blobs").rglob("*") if p.is_file()]
        return sum(p.stat().st_size for p in files if p.exists()) / MIB

    def wal_checkpoint_seq(self) -> int:
        """The checkpoint sequence number in the WAL header (big-endian u32 at
        bytes 12-15); sqlite increments it each time a checkpoint lets the WAL
        restart from the beginning."""
        with open(self.workdir / "repo.db-wal", "rb") as fp:
            return int.from_bytes(fp.read(16)[12:16], "big")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# -- seeded operation stream with its expected outcomes ------------------------------


class Exerciser:
    """Generates a workload's operations from a seed and checks each reply.

    The model knows, for every container the stream touched, its version
    count, its latest content and whether user 2 was granted read access;
    prepopulated containers start at one version of the mock content.
    """

    def __init__(self, wl: Workload, seed: int, port: int, keys: dict) -> None:
        self.wl = wl
        self.rng = random.Random(f"ops/{seed}")
        self.owner = RepositoryClient("127.0.0.1", port, UserCredential(OWNER, keys[OWNER]))
        self.other = RepositoryClient("127.0.0.1", port, UserCredential(OTHER, keys[OTHER]))
        images = random.Random(f"images/{seed}")
        self.pool = [
            BlobSet(images.randbytes(wl.image_bytes), MOCK_BUILD, MOCK_COMPOSE) for _ in range(8)
        ]
        self.versions: dict[int, int] = {}
        self.content: dict[int, BlobSet] = {}
        self.granted: set[int] = set()
        self.recent: deque[int] = deque(maxlen=64)
        self.next_fresh = wl.containers + 1

    def stream(self):
        """Endless ``(label, thunk)`` pairs; a thunk returns (matched, image bytes moved)."""
        if not self.wl.mix:
            while True:
                idx = self._uniform()
                yield "modify", partial(self.modify, idx)
                yield "fetch", partial(self.fetch, idx)
                yield "info", partial(self.info, idx)
                yield "deny", self.deny_thunk(idx)
        labels, weights = zip(*self.wl.mix.items())
        while True:
            label = self.rng.choices(labels, weights)[0]
            if label == "create":
                self.next_fresh += 1
                yield label, partial(self.create, self.next_fresh - 1)
            elif label == "deny":
                yield label, self.deny_thunk(self._readable())
            elif label == "acl_set":
                yield label, partial(self.acl_set, self._pick(lambda i: i not in self.granted))
            elif label == "modify":
                yield label, partial(self.modify, self._pick(lambda i: True))
            else:
                yield label, partial(getattr(self, label), self._readable())

    def _uniform(self) -> int:
        return self.rng.randint(1, self.wl.containers)

    def _pick(self, want) -> int:
        """A recently touched container meeting ``want`` half the time, else a uniform one."""
        if self.recent and self.rng.random() < 0.5:
            idx = self.rng.choice(self.recent)
            if want(idx):
                return idx
        while True:
            idx = self._uniform()
            if want(idx):
                return idx

    def _readable(self) -> int:
        return self._pick(lambda i: self._version(i) > 0)

    def _version(self, idx: int) -> int:
        return self.versions.get(idx, 1)

    def deny_thunk(self, idx: int):
        """Half absent indices, half user 2 on a container it holds no grant for."""
        if self.rng.random() < 0.5:
            absent = ABSENT_BASE + self.rng.randrange(ABSENT_BASE)
            return partial(self._expect_denial, self.owner, absent)
        while idx in self.granted:
            idx = self._readable()
        return partial(self._expect_denial, self.other, idx)

    @staticmethod
    def _verdict(outcome):
        if outcome.verdict is Verdict.INVALID:
            raise InvalidVerdict("reply failed verification")
        return outcome.verdict

    def _expect_denial(self, who: RepositoryClient, idx: int):
        return self._verdict(who.info(idx)) is Verdict.DENIED, 0

    def info(self, idx: int):
        who = self.other if idx in self.granted and self.rng.random() < 0.5 else self.owner
        outcome = who.info(idx)
        version = self._version(idx)
        return (self._verdict(outcome) is Verdict.VERIFIED
                and outcome.response.max_version == version
                and outcome.response.requested_version == version), 0

    def fetch(self, idx: int):
        outcome = self.owner.fetch(idx)
        expected = self.content.get(idx, BlobSet(MOCK_IMAGE, MOCK_BUILD, MOCK_COMPOSE))
        ok = (self._verdict(outcome) is Verdict.VERIFIED
              and outcome.version == self._version(idx) and outcome.blobs == expected)
        return ok, len(expected.image)

    def modify(self, idx: int):
        blobs = self.rng.choice(self.pool)
        body = self.owner.modify(idx, blobs.image, blobs.build, blobs.compose,
                                 encrypt=self.wl.encrypt)
        ok = int(body["version"]) == self._version(idx) + 1
        if ok:
            self.versions[idx] = self._version(idx) + 1
            self.content[idx] = blobs
            self.recent.append(idx)
        return ok, len(blobs.image)

    def create(self, idx: int):
        self.owner.create(idx)
        self.versions[idx] = 0
        self.recent.append(idx)
        return True, 0

    def acl_set(self, idx: int):
        self.owner.acl_set(idx, OTHER, 1)
        self.granted.add(idx)
        self.recent.append(idx)
        return True, 0


@dataclass
class Tally:
    # (start_ns, label, duration_ns, bytes moved, cycle_ns); a cycle adds
    # drawing the operation from the stream to its duration
    records: list = field(default_factory=list)
    speed: list = field(default_factory=list)  # (t_ns, ns) reference samples
    at_op: object = None  # what drive's ``at_op`` function returned
    attempted: int = 0
    failed: int = 0
    invalid: int = 0
    elapsed_ns: int = 0

    def samples(self) -> dict:
        """Durations in ns by op label."""
        out = defaultdict(list)
        for _start, label, duration, _moved, _cycle in self.records:
            out[label].append(duration)
        return out


SAMPLE_NS = 50_000_000  # reference sampling interval in the timed phase


def drive(stream, *, count: int = 0, seconds: float = 0.0, tracer=None,
          reference: Reference | None = None, at_op: tuple | None = None) -> Tally:
    """Run ``count`` operations, or as many as fit in ``seconds``, timing each.

    With a ``reference``, sample it between operations every ``SAMPLE_NS``;
    the samples fall outside every operation's time.  ``at_op`` is ``(n,
    fn)``: ``fn()`` runs after the n-th operation, outside its time.
    """
    tally = Tally()
    start = now()
    deadline = start + int(seconds * 1e9)
    next_sample = start
    while len(tally.records) < count if count else now() < deadline:
        if reference is not None and now() >= next_sample:
            tally.speed.append((now(), reference.sample()))
            next_sample = now() + SAMPLE_NS
        begin = now()
        label, thunk = next(stream)
        t0 = now()
        try:
            if tracer is None:
                ok, moved = thunk()
            else:
                ok, moved = tracer.call("client", "op." + label, thunk)
        except InvalidVerdict:
            ok, moved = False, 0
            tally.invalid += 1
        except (RequestRejected, ProtocolFailure):
            ok, moved = False, 0
        except Exception:  # a bug in the harness or client: count it, show it, go on
            if tally.failed < 3:
                traceback.print_exc(file=sys.stderr)
            ok, moved = False, 0
        t1 = now()
        tally.records.append((t0, label, t1 - t0, moved, t1 - begin))
        if at_op is not None and len(tally.records) == at_op[0]:
            tally.at_op = at_op[1]()
        tally.attempted += 1
        tally.failed += not ok
    tally.elapsed_ns = now() - start
    return tally


# -- end-to-end run -----------------------------------------------------------------------

SETUP_SAMPLE_S = 0.1  # reference sampling interval while a server is provisioned


def pct(values, q: int) -> float:
    """The q-th percentile (q in 10..90) of one or more values."""
    if q == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def mix_pct(ms: dict, weights: dict, q: int) -> float:
    """Per-op-type percentiles averaged with the workload's mix weights."""
    return sum(w * pct(ms[op], q) for op, w in weights.items()) / sum(weights.values())


def timed_metrics(records, slowdowns, weights: dict):
    """Rates and latencies of the timed phase, each operation's time divided
    by the host's slowdown when it ran; also the scaled latencies by op."""
    ms = defaultdict(list)
    busy_s = 0.0
    for (_start, label, duration, _moved, cycle), slow in zip(records, slowdowns):
        ms[label].append(duration / slow / 1e6)
        busy_s += cycle / slow / 1e9
    out = {
        "throughput_ops_s": len(records) / busy_s,
        "payload_mib_s": sum(r[3] for r in records) / MIB / busy_s,
        "mix_p90_ms": mix_pct(ms, weights, 90),
    }
    for key in ("info_p50_ms", "info_p90_ms", "fetch_p90_ms", "deny_p50_ms"):
        op, q, _ = key.split("_")
        out[key] = pct(ms[op], int(q[1:]))
    return out, ms


def run_untraced(name: str, wl: Workload, seed: int, seconds: float, keys: dict, workdir: Path):
    reference = Reference()
    setups, setup_slowdowns = [], []
    for i in range(wl.setups):
        with reference.sampling(SETUP_SAMPLE_S) as samples:
            server = ServerProcess(workdir / f"setup{i}", wl, keys, None)
        setups.append(server.setup_s)
        setup_slowdowns.append(slowdown(samples))
        if i < wl.setups - 1:
            server.stop()
            shutil.rmtree(server.workdir)
    try:
        store_mib = server.store_mib()
        stream = Exerciser(wl, seed, server.port, keys).stream()
        warm = drive(stream, count=wl.warmup)
        checkpoint_seq = server.wal_checkpoint_seq()
        # The server's memory grows with every operation while sqlite's page
        # cache fills, so its peak is read at a fixed operation count; at the
        # end of the run it would grow with host speed.
        tally = drive(stream, seconds=seconds, reference=reference,
                      at_op=(wl.rss_ops, server.peak_rss_mib))
        checkpoints = server.wal_checkpoint_seq() - checkpoint_seq
        rss = tally.at_op
        if rss is None:
            print(f"# server_rss_mib read at the end: the timed phase ran fewer than"
                  f" {wl.rss_ops} operations")
            rss = server.peak_rss_mib()
    finally:
        server.stop()

    slowdowns = slowdowns_at(tally.speed, [r[0] for r in tally.records])
    scaled, ms = timed_metrics(tally.records, slowdowns, wl.weights())
    raw, raw_ms = timed_metrics(tally.records, [1.0] * len(tally.records), wl.weights())
    attempted = warm.attempted + tally.attempted
    failed = warm.failed + tally.failed
    units = {"throughput_ops_s": "1/s", "payload_mib_s": "MiB/s"}
    metrics = {
        "setup_s": (statistics.median(s / slow for s, slow in zip(setups, setup_slowdowns)), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "server_rss_mib": (rss, "MiB"),
        "store_mib": (store_mib, "MiB"),
    }
    metrics.update({key: (value, units.get(key, "ms")) for key, value in scaled.items()})

    print(f"# {name} seed={seed}: {tally.attempted} timed ops in {tally.elapsed_ns / 1e9:.2f} s"
          f" after {warm.attempted} warm-up ops; {len(tally.speed)} reference samples")
    print(f"#   host slowdown (reference time / {REFERENCE_US:g} us): timed phase median"
          f" {slowdown(tally.speed):.3f}, range {min(slowdowns):.3f}-{max(slowdowns):.3f};"
          f" setups {', '.join(f'{s:.3f}' for s in setup_slowdowns)}")
    print(f"#   unscaled: setups {', '.join(f'{s:.3f}' for s in setups)} s; "
          + "; ".join(f"{key} {value:.4f}" for key, value in raw.items()))
    for op in OPS:
        if op in ms:
            print(f"#   {op}_p50_ms {pct(ms[op], 50):.4f} ms  {op}_p90_ms {pct(ms[op], 90):.4f} ms"
                  f"  (n={len(ms[op])}; unscaled {pct(raw_ms[op], 50):.4f} and"
                  f" {pct(raw_ms[op], 90):.4f} ms)")
    print(f"#   mix_p50_ms {mix_pct(ms, wl.weights(), 50):.4f} ms")
    print(f"#   wal_checkpoints {checkpoints} count (WAL restarts during the timed phase)")
    print(f"#   failed_ratio {failed / attempted:.6f} ratio ({failed} of {attempted},"
          f" {warm.invalid + tally.invalid} invalid)")
    return metrics, attempted, failed, warm.invalid + tally.invalid


# -- traced run ---------------------------------------------------------------------------


class _CountingFile:
    """File proxy that reports the bytes a wire function moves."""

    def __init__(self, fp, tracer: Tracer) -> None:
        self._fp, self._tracer = fp, tracer

    def write(self, data: bytes) -> int:
        self._tracer.event("wire_bytes", len(data))
        return self._fp.write(data)

    def flush(self) -> None:
        self._fp.flush()

    def readline(self, *args) -> bytes:
        line = self._fp.readline(*args)
        self._tracer.event("wire_bytes", len(line))
        return line


def install_client_tracing(tracer: Tracer) -> None:
    tracer.wrap_attrs(RepositoryClient, "client", ["create", "info", "modify", "acl_set", "fetch"])
    tracer.wrap_attrs(UserCredential, "client", ["verify_ack"])
    keystream = tcr_client.xor_keystream

    def sized_keystream(secret, data):
        tracer.event("keystream_bytes", len(data))
        return keystream(secret, data)

    tcr_client.xor_keystream = sized_keystream
    tracer.wrap_attrs(tcr_client, "client", ["xor_keystream", "check_info_response",
                                             "unwrap_secret", "predicted_acl_root"])
    for name in ("write_message", "read_message"):
        fn = getattr(tcr_client, name)
        counted = (lambda fp, *args, _fn=fn: _fn(_CountingFile(fp, tracer), *args))
        setattr(tcr_client, name, tracer.wrapped("wire", "wire." + name, counted))
    socket.create_connection = tracer.wrapped("wire", "socket.create_connection",
                                              socket.create_connection)


VERIFY_SPANS = {"client.check_info_response", "UserCredential.verify_ack", "client.unwrap_secret"}
# StepClock labels each op's requests record; fetch and modify include their INFO.
OP_STEPS = {
    "info": ("record_lookup", "certificates", "module_verify"),
    "deny": ("record_lookup", "certificates", "module_verify"),
    "fetch": ("record_lookup", "certificates", "module_verify", "secret_release"),
    "modify": ("record_lookup", "certificates", "module_verify", "content_digest",
               "secret_store", "root_update", "persist_records"),
    "create": ("eq_certificate", "placeholder_insert", "ru_certificate", "root_update",
               "persist_records"),
    "acl_set": ("record_lookup", "certificates", "module_verify"),
}
PER_OP = {"client.us": "us", "client.self_us": "us", "client.verify_us": "us",
          "wire.round_trips": "count", "wire.bytes": "bytes", "wire.transport_us": "us",
          "server.dispatch_us": "us", "service.self_us": "us", "storage.sql_stmts": "count",
          "storage.us": "us", "storage.commits": "count", "iomt.path_reads": "count",
          "iomt.self_us": "us", "module.calls": "count", "module.us": "us"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit; counts and times are per operation."""
    units = {f"{m}.{op}": unit for op in OPS for m, unit in PER_OP.items()}
    units.update({"client.keystream_us.modify": "us", "client.keystream_us.fetch": "us",
                  "client.keystream_mib.modify": "MiB", "client.keystream_mib.fetch": "MiB",
                  "client.acl_predict_us.acl_set": "us"})
    units.update({f"service.step.{label}_us.{op}": "us"
                  for op, labels in OP_STEPS.items() for label in labels})
    units.update({"service.cert_cache_hit_ratio": "ratio", "trace.overhead_pct": "%",
                  "trace.unjoined_pct": "%", "trace.stray_records": "count"})
    return units


def join_check(client_spans, server_spans, server_events) -> dict:
    """What the time join between the two processes fails to account for.

    Each client request runs from ``socket.create_connection`` to the end of
    its ``read_message``; the server's ``dispatch`` of that request must lie
    inside it, one per request.  Between the first and the last dispatch,
    every other server span and event must lie inside a dispatch.  A clock
    mismatch or a missing record shows as unjoined dispatch time or as
    stray records.
    """
    trips, start = [], None
    for _sid, _parent, _layer, name, t0, t1 in sorted(client_spans, key=lambda s: s[4]):
        if name == "socket.create_connection":
            start = t0
        elif name == "wire.read_message" and start is not None:
            trips.append((start, t1))
            start = None
    dispatches = sorted((s[4], s[5]) for s in server_spans if s[3] == "RepositoryServer.dispatch")

    def inside(intervals, starts, t0, t1):
        i = bisect.bisect_right(starts, t0) - 1
        return i if i >= 0 and t1 <= intervals[i][1] else None

    trip_starts = [t[0] for t in trips]
    joined = [inside(trips, trip_starts, t0, t1) for t0, t1 in dispatches]
    total_ns = sum(t1 - t0 for t0, t1 in dispatches)
    unjoined_ns = sum(t1 - t0 for (t0, t1), trip in zip(dispatches, joined) if trip is None)
    per_trip = defaultdict(int)
    for trip in joined:
        if trip is not None:
            per_trip[trip] += 1
    stray = sum(per_trip.get(i, 0) != 1 for i in range(len(trips)))
    if dispatches:
        first, last = dispatches[0][0], dispatches[-1][1]
        d_starts = [d[0] for d in dispatches]
        times = [(s[4], s[5]) for s in server_spans if s[3] != "RepositoryServer.dispatch"]
        times += [(e[0], e[0]) for e in server_events]
        stray += sum(first <= t0 <= last and inside(dispatches, d_starts, t0, t1) is None
                     for t0, t1 in times)
    return {"trace.unjoined_pct": 100 * unjoined_ns / total_ns if total_ns else 100.0,
            "trace.stray_records": stray}


def attribute(client_tracer: Tracer, server_dump: dict):
    """Join both processes' spans and events to the client operation they served.

    Returns per-op sums, per-op counts, and merged span rows carrying the
    request id (the client's round-trip number) and the op label.
    """
    roots = sorted((s for s in client_tracer.spans if s[3].startswith("op.")), key=lambda s: s[4])
    root_starts = [s[4] for s in roots]
    conns = sorted(s[4] for s in client_tracer.spans if s[3] == "socket.create_connection")

    def owner(t: int):
        i = bisect.bisect_right(root_starts, t) - 1
        if i >= 0 and t <= roots[i][5]:
            return roots[i][3][3:]
        return None

    def rid(t: int) -> int:
        return bisect.bisect_right(conns, t) - 1

    sums: dict = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    rows = []
    for side, spans in (("client", client_tracer.spans), ("server", server_dump["spans"])):
        selfs = self_times(spans)
        for sid, parent, layer, name, start, end in spans:
            op = owner(start)
            if op is None:
                continue
            rows.append({"side": side, "sid": sid, "parent": parent, "layer": layer, "name": name,
                         "start_ns": start, "end_ns": end, "rid": rid(start), "op": op})
            acc = sums[op]
            acc[layer + ".self_ns"] += selfs[sid]
            if name.startswith("op."):
                counts[op] += 1
                acc["total_ns"] += end - start
            elif name == "client.xor_keystream":
                acc["keystream_ns"] += end - start
            elif name in VERIFY_SPANS:
                acc["verify_ns"] += end - start
            elif name == "client.predicted_acl_root":
                acc["acl_predict_ns"] += end - start
            elif name == "socket.create_connection":
                acc["round_trips"] += 1
            elif name == "RepositoryServer.dispatch":
                acc["dispatch_ns"] += end - start
            elif name == "Iomt.complement_path":
                acc["path_reads"] += 1
            if layer == "module":
                acc["module_calls"] += 1
    for t, kind, value in client_tracer.events + [tuple(e) for e in server_dump["events"]]:
        op = owner(t)
        if op is None:
            continue
        acc = sums[op]
        if kind == "sql":
            acc["sql"] += 1
            acc["commits"] += value == "COMMIT"
        else:  # byte counts, cache lookups and hits, step nanoseconds
            acc[kind] += value
    return sums, counts, rows


def scaled_total_ns(tally: Tally) -> float:
    """The operations' total time at the reference host speed."""
    slowdowns = slowdowns_at(tally.speed, [r[0] for r in tally.records])
    return sum(r[2] / slow for r, slow in zip(tally.records, slowdowns))


def layer_metrics(sums, counts, untraced: Tally, traced: Tally) -> dict:
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    for op, n in counts.items():
        a = sums[op]
        us = lambda key: a[key] / n / 1000  # noqa: E731
        metrics.update({
            f"client.us.{op}": us("total_ns"),
            f"client.self_us.{op}": us("client.self_ns"),
            f"client.verify_us.{op}": us("verify_ns"),
            f"wire.round_trips.{op}": a["round_trips"] / n,
            f"wire.bytes.{op}": a["wire_bytes"] / n,
            f"wire.transport_us.{op}": (a["wire.self_ns"] - a["dispatch_ns"]) / n / 1000,
            f"server.dispatch_us.{op}": us("dispatch_ns"),
            f"service.self_us.{op}": us("service.self_ns"),
            f"storage.sql_stmts.{op}": a["sql"] / n,
            f"storage.us.{op}": us("storage.self_ns"),
            f"storage.commits.{op}": a["commits"] / n,
            f"iomt.path_reads.{op}": a["path_reads"] / n,
            f"iomt.self_us.{op}": us("iomt.self_ns"),
            f"module.calls.{op}": a["module_calls"] / n,
            f"module.us.{op}": us("module.self_ns"),
        })
        if op in ("modify", "fetch"):
            metrics[f"client.keystream_us.{op}"] = us("keystream_ns")
            metrics[f"client.keystream_mib.{op}"] = a["keystream_bytes"] / n / MIB
        if op == "acl_set":
            metrics["client.acl_predict_us.acl_set"] = us("acl_predict_ns")
        for label in OP_STEPS[op]:
            metrics[f"service.step.{label}_us.{op}"] = us("step." + label)
    gets = sum(a["cache_get"] for a in sums.values())
    hits = sum(a["cache_hit"] for a in sums.values())
    metrics["service.cert_cache_hit_ratio"] = hits / gets if gets else 0.0
    metrics["trace.overhead_pct"] = 100 * (scaled_total_ns(traced) / scaled_total_ns(untraced) - 1)
    return metrics


def run_traced(name: str, wl: Workload, seed: int, keys: dict, workdir: Path):
    reference = Reference()
    server = ServerProcess(workdir / "untraced", wl, keys, None)
    try:
        stream = Exerciser(wl, seed, server.port, keys).stream()
        warm_plain = drive(stream, count=wl.warmup)
        plain = drive(stream, count=wl.traced_ops, reference=reference)
    finally:
        server.stop()
    shutil.rmtree(server.workdir)

    # The client records through the traced server's whole life, so that
    # every request the server saw can be joined to one the client made.
    tracer = Tracer()
    install_client_tracing(tracer)
    spans_out = workdir / "server-spans.json.gz"
    server = ServerProcess(workdir / "traced", wl, keys, spans_out)
    try:
        stream = Exerciser(wl, seed, server.port, keys).stream()
        warm_traced = drive(stream, count=wl.warmup)
        traced = drive(stream, count=wl.traced_ops, tracer=tracer, reference=reference)
    finally:
        server.stop()
    with gzip.open(spans_out, "rt") as fp:
        server_dump = json.load(fp)

    sums, counts, rows = attribute(tracer, server_dump)
    metrics = layer_metrics(sums, counts, plain, traced)
    metrics.update(join_check(tracer.spans, server_dump["spans"], server_dump["events"]))
    out = RUNS / f"trace-{name}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with gzip.open(out / "spans.jsonl.gz", "wt", compresslevel=1) as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")

    print(f"# {name} seed={seed}: {wl.traced_ops} ops per pass; spans in "
          f"{out.relative_to(ROOT)}/spans.jsonl.gz")
    print(f"#   host slowdown: untraced pass {slowdown(plain.speed):.3f}, traced pass"
          f" {slowdown(traced.speed):.3f}; trace.overhead_pct scales each op by it,"
          f" the means below do not")
    plain_ns, traced_ns = plain.samples(), traced.samples()
    for op in OPS:
        if op in plain_ns:
            base = statistics.mean(plain_ns[op]) / 1000
            over = statistics.mean(traced_ns[op]) / 1000
            print(f"#   {op:8s} mean untraced {base:9.1f} us  traced {over:9.1f} us"
                  f"  overhead {over - base:+9.1f} us")
    tallies = (warm_plain, plain, warm_traced, traced)
    return (metrics, sum(t.attempted for t in tallies), sum(t.failed for t in tallies),
            sum(t.invalid for t in tallies))


# -- entry point -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    # Client and server share one CPU; the closed loop keeps one of them
    # runnable at a time, and handing each message to the other vCPU would
    # put the host's wake-up latency on the critical path.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    keys_rng = random.Random(f"keys/{args.seed}")
    keys = {OWNER: keys_rng.randbytes(32), OTHER: keys_rng.randbytes(32)}
    workdir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            values, attempted, failed, invalid = run_traced(args.workload, wl, args.seed, keys,
                                                             workdir)
            units = per_layer_units()
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        else:
            values, attempted, failed, invalid = run_untraced(args.workload, wl, args.seed,
                                                               args.seconds, keys, workdir)
            metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and invalid == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
