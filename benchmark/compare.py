#!/usr/bin/env python3
"""Compare two sets of benchmark runs: one row per (end-to-end metric, workload).

Each input holds the JSON lines that `--json PATH` appends, one per run:

    for seed in 1 2 3; do
        bash benchmark/run.sh --workload qcif_decode --seed $seed --json A.jsonl
    done

Usage: python3 benchmark/compare.py A.jsonl B.jsonl

B is read as the change and A as its parent. With the bound BENCHMARK.json
fixes for each metric, a row reads:

  improved    each side has at least 10 runs, B wins at least 9 in 10 of
              all (A run, B run) pairs, and the medians differ by more than
              A's quartile spread;
  unresolved  otherwise, when a side has a single run, or when either
              side's quartile spread (as a share of its median) is wider
              than the bound, unless every run of B is better than every
              run of A;
  worse       B's median is worse than A's by more than the bound;
  unchanged   otherwise.
"""

import json
import statistics
import sys
from pathlib import Path


def load(path):
    runs = {}
    noisy = 0
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] != 0:
            continue
        noisy += rec["host"]["noisy"]
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault((name, rec["workload"]), []).append(m["value"])
    return runs, noisy


def quartile_spread(values):
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(a, b, bound, lower):
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    ma, mb = statistics.median(a), statistics.median(b)
    wins = sum(better(y, x) for x in a for y in b) / (len(a) * len(b))
    if min(len(a), len(b)) >= 10 and wins >= 0.9 and abs(mb - ma) > quartile_spread(a):
        return "improved"
    if min(len(a), len(b)) < 2:
        return "unresolved"
    spread = max(quartile_spread(a) / ma, quartile_spread(b) / mb)
    if spread > bound and wins < 1.0:
        return "unresolved"
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    return "worse" if worse_by > bound else "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    (a, noisy_a), (b, noisy_b) = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'metric':<14} {'workload':<16} {'A median':>12} {'B median':>12} {'change':>8}  verdict")
    for m in spec["end_to_end"]:
        for w in spec["workloads"]:
            key = (m["name"], w["name"])
            if key not in a or key not in b:
                continue
            ma, mb = statistics.median(a[key]), statistics.median(b[key])
            v = verdict(a[key], b[key], m["bound"], m["better"] == "lower")
            print(f"{key[0]:<14} {key[1]:<16} {ma:>12.4f} {mb:>12.4f} {100 * (mb / ma - 1):>+7.2f}%  {v}")
    if noisy_a or noisy_b:
        print(f"note: {noisy_a} run(s) of A and {noisy_b} of B were marked noisy")


if __name__ == "__main__":
    main()
