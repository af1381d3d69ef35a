"""Steadiness self-check for the benchmark in ``BENCHMARK.json``.

    python3 perfbench/steady.py [--out FILE]

Runs every workload once per seed 1-10 with ``--trace 0``, twice over, and
reports for each end-to-end metric the median of each sweep and its spread:
the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median.  Then it runs each
workload traced twice on seed 1.  It exits 1 when

- a spread is above the metric's bound (``setup_s`` exempt: the benchmark
  reports it as the median of several provisions, and its bound only
  limits drift between sweeps);
- a second-sweep median is worse than the first by more than the bound;
- a count metric differs between the two traced runs;
- a traced run could not join every server record to a client request
  (``trace.unjoined_pct`` or ``trace.stray_records`` above 0).

The steadiness target is stricter: every spread (``setup_s`` again exempt)
at most a third of its bound.  The last line says ``steady`` only when the
target is met, and otherwise names each spread that missed it.

``--out FILE`` writes the medians, quartiles and values of both sweeps, and
the per-layer metrics of the first traced run of each workload, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
EXACT = ("sql_stmts", "calls", "round_trips", "path_reads", "bytes", "commits")


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect: {lines[-1][:300]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def sweep(bench: dict, workloads: list[str]) -> dict:
    out = {}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            runs.append(run(bench, workload, seed, 0))
            print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
        out[workload] = {m["name"]: summarize([r[m["name"]] for r in runs])
                         for m in bench["end_to_end"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    failures, wide = [], []
    first, second = sweep(bench, workloads), sweep(bench, workloads)
    for workload in workloads:
        print(f"{workload}:")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[workload][name], second[workload][name]
            worse = (b["median"] / a["median"] - 1) * (1 if metric["better"] == "lower" else -1)
            line = (f"  {name:18s} median {a['median']:12.4f} {metric['unit']:6s}"
                    f" spreads {a['spread']:7.2%} {b['spread']:7.2%} (target {bound / 3:.2%})"
                    f"  second median {b['median']:12.4f} ({worse:+.2%} worse, bound {bound:.0%})")
            spread = max(a["spread"], b["spread"])
            if name != "setup_s" and spread > bound:
                failures.append(f"{workload} {name} spread")
                line += " OVER BOUND"
            elif name != "setup_s" and spread > bound / 3:
                wide.append(f"{workload} {name} {spread:.1%}")
                line += " WIDE"
            if worse > bound:
                failures.append(f"{workload} {name} second median")
                line += " OVER BOUND"
            print(line)

    traced = {}
    for workload in workloads:
        a, b = run(bench, workload, 1, 1), run(bench, workload, 1, 1)
        traced[workload] = a
        counts = [k for k in a if k.split(".")[1] in EXACT]
        differ = [k for k in counts if a[k] != b[k]]
        print(f"{workload}: {len(counts)} count metrics, {len(differ)} differ between two "
              f"traced runs of seed 1" + (f": {differ}" if differ else ""))
        print(f"  tracing overhead {a['trace.overhead_pct']:+.1f}% and"
              f" {b['trace.overhead_pct']:+.1f}%; unjoined server time"
              f" {a['trace.unjoined_pct']:.2f}% and {b['trace.unjoined_pct']:.2f}%;"
              f" stray server records {a['trace.stray_records']} and {b['trace.stray_records']}")
        if differ:
            failures.append(f"{workload} counts")
        for r in (a, b):
            if r["trace.unjoined_pct"] > 0 or r["trace.stray_records"] > 0:
                failures.append(f"{workload} join")

    if args.out:
        args.out.write_text(json.dumps({"run_seconds": bench["run_seconds"], "seeds": list(SEEDS),
                                        "sets": [first, second], "traced": traced},
                                       indent=1) + "\n")
    if failures:
        print(f"FAILED: {', '.join(failures)}")
    elif wide:
        print(f"within bounds, NOT steady: {len(wide)} spreads above a third of their bound:"
              f" {', '.join(wide)}")
    else:
        print("within bounds, steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
