"""Spread of repeated benchmark runs.

    python3 bench/summarize.py [RESULT_DIR]      # default bench/results

For each workload and metric of the untraced runs: the run count, the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  For each workload with a traced run, the tracing overhead:
the traced run's median operation time minus the untraced runs' median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    folder = Path(argv[1]) if len(argv) > 1 else ROOT / "bench" / "results"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [json.loads(p.read_text()) for p in sorted(folder.glob("*.json"))]
    print(f"{'workload':18} {'metric':12} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for w in spec["workloads"]:
        plain = [r for r in runs if r["workload"] == w["name"] and r["trace"] == 0]
        if len(plain) < 2:
            continue
        for metric, bound in bounds.items():
            values = [r["end_to_end"][metric] for r in plain]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{w['name']:18} {metric:12} {len(values):4d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:8.2%} {bound:6.2f}")
        shares = {r["failed"] / r["attempted"] for r in plain}
        print(f"{w['name']:18} failed share {sorted(shares)}; all correct: {all(r['correct'] for r in plain)}")
        traced = [r for r in runs if r["workload"] == w["name"] and r["trace"] == 1]
        if traced:
            base = statistics.median(r["end_to_end"]["op_p50_s"] for r in plain)
            over = statistics.median(r["end_to_end"]["op_p50_s"] for r in traced) - base
            print(f"{w['name']:18} tracing overhead {over:+.4g} s per operation ({over / base:+.2%} of {base:.4g} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
