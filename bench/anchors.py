"""Single-call timings at the sizes of the ROADMAP re-anchor table.

    python3 bench/anchors.py

Runs with one BLAS thread, like the workloads, unless the BLAS thread
variables are set in the environment.  Prints one line per row: the median
of a few calls, the call count and the size.  Chernoff at
N = 1024 and the N = 4096 build are left out: each takes a minute or more.
"""

from __future__ import annotations

import os

for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_key, "1")

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gaussht import (  # noqa: E402
    AsymptoticProblem,
    DiscriminationProblem,
    FiniteProblem,
    GaussianStateSpec,
    build_basis,
    lattice_state,
    make_displacement,
    make_trig_symbol,
    quasi_power_trace,
)


def pair(dim: int, displaced: bool) -> DiscriminationProblem:
    zero = (0,) * dim
    axes = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    q1 = make_trig_symbol(dim, {zero: 1.0 + 0.5 * dim, **{a: 0.25 for a in axes}})
    q2 = make_trig_symbol(dim, {zero: 2.0, **{a: 0.2 - 0.1j for a in axes}})
    y2 = make_displacement(dim, {zero: 0.4} if displaced else None)
    return DiscriminationProblem(
        GaussianStateSpec(q1, make_displacement(dim), 0.5),
        GaussianStateSpec(q2, y2, 0.5),
    )


def median_time(fn, calls: int) -> float:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    for n in (256, 1024):
        for displaced in (False, True):
            fp = FiniteProblem(pair(1, displaced), n)
            calls = 9 if n == 256 else 3
            label = "displaced" if displaced else "undisplaced"
            print(f"FiniteProblem.psi      N = {n:5d}, {label:11}  "
                  f"{median_time(lambda: fp.psi(0.37), calls):9.4f} s  ({calls} calls)")
    for dim in (1, 2):
        ap = AsymptoticProblem(pair(dim, displaced=False))
        r = 0.5 * -ap.dpsi_boundary("right_at_0")
        print(f"hoeffding_threshold    dim {dim}     {median_time(lambda: ap.hoeffding_threshold(r), 3):9.4f} s  (3 calls)")
    problem = pair(1, displaced=False)
    basis = build_basis(8, 6)
    s1 = lattice_state(problem.state1, 8, 6, basis=basis)
    s2 = lattice_state(problem.state2, 8, 6, basis=basis)
    qpt = median_time(lambda: quasi_power_trace(s1, s2, 0.5), 1)
    print(f"quasi_power_trace      8 modes, cutoff 6, basis {basis.dimension}  {qpt:9.4f} s  (1 call)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
