"""Host-speed reference: a fixed piece of work timed between operations.

The benchmark shares a few cores of a host with other tenants, and on such
a host the same Python code runs up to 1.6 times slower in some stretches
than in others, for seconds or minutes at a time.  No run can choose its
stretch, so the benchmark times this reference next to the operations and
scales each operation's time to the speed at which the reference takes
``REFERENCE_US`` microseconds.

The reference is point lookups in an in-memory sqlite table of 200,000
rows from a Python loop: interpreter, sqlite and cache misses, as in a
``tcr`` request.  It uses nothing from ``src/``, so a change to the
program moves the scaled times and leaves the reference alone.  Its time is
the sampling thread's CPU time, which excludes time the thread waited for
the CPU.

Over 2-second stretches of one run on a shared 2-vCPU VM, this scaling cut
the coefficient of variation of median operation latency from 0.10-0.22 to
0.04-0.09.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import sqlite3
import statistics
import threading
import time

ROWS = 200_000
LOOKUPS = 200
# About the reference's time on the baseline VM in a fast stretch; scaled
# times read as that VM's times then.
REFERENCE_US = 1000.0
WINDOW_NS = 500_000_000  # samples within this distance set an operation's speed


class Reference:
    def __init__(self) -> None:
        rng = random.Random("reference")
        self._db = sqlite3.connect(":memory:", check_same_thread=False)
        self._db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v BLOB)")
        self._db.executemany("INSERT INTO t VALUES (?, ?)",
                             ((k, rng.randbytes(200)) for k in range(ROWS)))
        self._keys = [rng.randrange(ROWS) for _ in range(LOOKUPS)]
        self._lock = threading.Lock()
        for _ in range(20):
            self.sample()

    def sample(self) -> int:
        """CPU nanoseconds the reference took this time."""
        with self._lock:
            t0 = time.thread_time_ns()
            for key in self._keys:
                self._db.execute("SELECT v FROM t WHERE k = ?", (key,)).fetchone()
            return time.thread_time_ns() - t0

    @contextlib.contextmanager
    def sampling(self, interval_s: float):
        """Sample from a background thread while the body runs; yields the
        list the ``(t_ns, ns)`` samples go to."""
        samples: list = []
        stop = threading.Event()

        def loop() -> None:
            while True:
                samples.append((time.perf_counter_ns(), self.sample()))
                if stop.wait(interval_s):
                    return

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield samples
        finally:
            stop.set()
            thread.join()


def slowdown(samples) -> float:
    """How much slower than the reference speed the host ran over ``samples``."""
    return statistics.median(ns for _t, ns in samples) / (REFERENCE_US * 1000)


def slowdowns_at(samples, times) -> list[float]:
    """The slowdown at each time, from the samples within ``WINDOW_NS`` of it."""
    stamps = [t for t, _ns in samples]
    out = []
    for t in times:
        lo = bisect.bisect_left(stamps, t - WINDOW_NS)
        hi = bisect.bisect_right(stamps, t + WINDOW_NS)
        out.append(slowdown(samples[lo:hi] or samples))
    return out
