"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S --trace 0|1      # every workload

Each workload runs in a child process of its own with the BLAS thread count
fixed to one in its environment.  The child's metric lines are passed
through; with ``--workload`` the last line is the result JSON, with ``--trace
0`` holding the end-to-end metrics of BENCHMARK.json and with ``--trace 1``
its per-layer metrics.  Every run also writes ``bench/results/<workload>-
seed<N>-trace<T>.json`` with the environment, the raw times and any failed
check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gaussht" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no gaussht sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads(spec_path.read_text())["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ, **SINGLE_THREAD)
    status = 0
    for name in [args.workload] if args.workload else names:
        command = [
            sys.executable, str(BENCH / "workload.py"),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        try:
            child = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        if child.returncode != 0:
            print(f"{name}: workload process exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        lines = child.stdout.rstrip("\n").split("\n")
        if args.workload:
            print("\n".join(lines))
        else:
            print("\n".join(lines[:-1]))
            status |= 0 if json.loads(lines[-1])["correct"] else 4
    return status


if __name__ == "__main__":
    sys.exit(main())
