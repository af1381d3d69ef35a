from __future__ import annotations

import csv
import gc

import pytest

from tcr import service
from tcr.bench import (
    CSV_HEADER,
    OPERATIONS,
    STEP_ORDER,
    BenchConfig,
    TimingRow,
    emit_csv,
    parse_heights,
    run_bench,
)


def read_csv(path) -> list[TimingRow]:
    """Rows of a CSV written by :func:`emit_csv`."""
    with open(path, newline="") as fp:
        return [
            TimingRow(
                int(record["h"]),
                record["operation"],
                record["step"],
                float(record["median_us"]),
                float(record["stderr_us"]),
            )
            for record in csv.DictReader(fp)
        ]


def test_parse_heights():
    assert parse_heights("10..13") == (10, 11, 12, 13)
    assert parse_heights("12,16,20") == (12, 16, 20)
    assert parse_heights("9") == (9,)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(heights=())
    with pytest.raises(ValueError):
        BenchConfig(heights=(10,), ops=0)


@pytest.fixture(scope="module")
def smoke_rows():
    return run_bench(BenchConfig(heights=(8,), ops=12, repeats=2), log=lambda _: None)


def test_smoke_run_covers_all_operations(smoke_rows):
    assert {row.operation for row in smoke_rows} == set(OPERATIONS)
    assert all(row.median_us >= 0 for row in smoke_rows)
    totals = [row for row in smoke_rows if row.step == "total"]
    assert len(totals) == len(OPERATIONS)
    assert all(row.median_us > 0 for row in totals)


def test_rows_sorted_deterministically(smoke_rows):
    keys = [(row.height, OPERATIONS.index(row.operation)) for row in smoke_rows]
    assert keys == sorted(keys)
    for op in OPERATIONS:
        steps = [row.step for row in smoke_rows if row.operation == op]
        order = [s for s in STEP_ORDER[op] if s in steps]
        assert steps == order


def test_steps_sum_close_to_total(smoke_rows):
    # Medians of different steps come from different samples, so the sum only
    # brackets the whole-operation median up to scheduling jitter.
    for op in OPERATIONS:
        total = next(r.median_us for r in smoke_rows if r.operation == op and r.step == "total")
        parts = sum(r.median_us for r in smoke_rows if r.operation == op and r.step != "total")
        assert parts <= 1.2 * total
        assert parts >= 0.4 * total


def test_csv_round_trip(tmp_path, smoke_rows):
    path = tmp_path / "rows.csv"
    emit_csv(smoke_rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    back = read_csv(path)
    assert [(r.height, r.operation, r.step) for r in back] == [
        (r.height, r.operation, r.step) for r in smoke_rows
    ]
    emit_csv(smoke_rows, path)
    assert read_csv(path) == back  # stable re-emission


def test_csv_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text().strip() == ",".join(CSV_HEADER)
    assert read_csv(path) == []


def test_aborted_run_leaves_marked_partial_csv(tmp_path, monkeypatch):
    from tcr import bench as bench_module
    from tcr.bench import BenchError, main

    calls = {"n": 0}
    real = bench_module._one_repeat

    def failing(cfg, height, seed):
        calls["n"] += 1
        if height == 9:
            raise BenchError("simulated failure")
        return real(cfg, height, seed)

    monkeypatch.setattr(bench_module, "_one_repeat", failing)
    out = tmp_path / "rows.csv"
    rc = main(["--heights", "8,9", "--ops", "2", "--repeats", "1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    partial = read_csv(tmp_path / "rows.csv.partial")
    assert partial and {row.height for row in partial} == {8}


def test_operations_are_timed_with_the_cyclic_collector_paused(monkeypatch, tmp_path):
    collector_on: list[bool] = []
    handle_fetch = service.Service.handle_fetch

    def recording_fetch(self, *args, **kwargs):
        collector_on.append(gc.isenabled())
        return handle_fetch(self, *args, **kwargs)

    monkeypatch.setattr(service.Service, "handle_fetch", recording_fetch)
    assert gc.isenabled()
    run_bench(BenchConfig(heights=(4,), ops=3, repeats=1, workdir=tmp_path), log=lambda _: None)
    assert collector_on == [False] * 6  # fetch and fetch_encrypted, 3 each
    assert gc.isenabled()  # and switched back on afterwards
