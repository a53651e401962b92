"""One workload in one process: seeded set-up, timed operations, checks.

Run through ``bench/run.py``, which fixes the BLAS thread count in this
process's environment.  Timing covers only the program's public calls; the
references, the checks and the choice of rates run outside every timed
region.  The references run in a process of their own (``reference.py``), so
this process holds only the interpreter, numpy and the program, and its peak
resident memory is the program's.  The last line of standard output is the
result JSON; the full record goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gaussht  # noqa: E402
from gaussht import asymptotics, cli, finite, fock  # noqa: E402
from gaussht.errors import GaussHTError  # noqa: E402

from generate import SHAPES, constant_pair_doc, problem_doc  # noqa: E402
from trace import Recorder  # noqa: E402

EPS = float(np.finfo(float).eps)
SETUP_REPEATS = 3  # set-ups per operation, each of a document of its own
FOCK_TS = (0.1, 0.3, 0.5, 0.7, 0.9)
FINITE_GRID = tuple(i / 10 for i in range(11))
RATE_FRACTIONS = (0.2, 0.5, 0.8)  # asymptotic rates as fractions of d21
FINITE_RATE_FRACTION = 0.5  # the finite Hoeffding rate as a fraction of D21
REFINED_POINTS = 32  # torus reference grid, twice the program's 16 points per axis
# Golden section stops at a bracket of 1e-10 in t, so a minimum's value is off
# by psi'' (1e-10)^2 / 2, far below rounding; bisection stops at 1e-10 in a.
SEARCH_VALUE_BUDGET = 1e-11
SEARCH_ARG_BUDGET = 1e-9


@dataclass(frozen=True)
class Check:
    """``low - tol <= value <= high + tol`` for one output: the bounds
    ``low`` and ``high`` (one may be infinite) widened by the error budget
    ``tol``.  ``scale`` is the size of the quantity, against which a defect
    is measured."""

    name: str
    value: float
    low: float
    high: float
    tol: float
    scale: float

    def accepts(self, value: float) -> bool:
        return self.low - self.tol <= value <= self.high + self.tol

    def defects(self, size: float) -> list[float]:
        """Outputs that miss a finite bound by ``size * scale``; each must be rejected."""
        return [
            bound + side * size * self.scale
            for bound, side in ((self.low, -1.0), (self.high, 1.0))
            if math.isfinite(bound)
        ]


def near(name, out, key, ref, tol, scale=None) -> Check:
    value = out[key]
    return Check(name, value, ref, ref, tol, scale or max(abs(ref), abs(value)))


def at_most(name, out, key, bound, tol) -> Check:
    value = out[key]
    return Check(name, value, -math.inf, bound, tol, max(abs(bound), abs(value)))


def at_least(name, out, key, bound, tol) -> Check:
    value = out[key]
    return Check(name, value, bound, math.inf, tol, max(abs(bound), abs(value)))


class References:
    """Client of the reference process: one JSON request, one JSON reply."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self, call: str, **args):
        self.proc.stdin.write(json.dumps({"call": call, **args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the reference process ended during {call}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply["value"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Api:
    """The program's public calls.  Traced, each call is wrapped in a span, and
    the module globals through which the program calls ``make_trig_symbol``,
    ``restrict_symbol`` and ``displacement_operator`` are wrapped as well."""

    CALLS = {
        "cli.parse_config": (cli, "parse_config"),
        "finite.FiniteProblem": (finite, "FiniteProblem"),
        "asymptotics.AsymptoticProblem": (asymptotics, "AsymptoticProblem"),
        "fock.build_basis": (fock, "build_basis"),
        "fock.lattice_state": (fock, "lattice_state"),
        "fock.quasi_power_trace": (fock, "quasi_power_trace"),
        "fock.neyman_pearson": (fock, "neyman_pearson"),
        "fock.nussbaum_szkola": (fock, "nussbaum_szkola"),
    }
    INNER = {
        "symbols.make_trig_symbol": (cli, "make_trig_symbol"),
        "lattice.restrict_symbol": (finite, "restrict_symbol"),
        "fock.displacement_operator": (fock, "displacement_operator"),
    }
    METHODS = {
        "finite": ("psi", "chernoff", "hoeffding", "relative_entropy"),
        "asymptotics": (
            "psi", "mean_chernoff", "mean_hoeffding", "polar",
            "hoeffding_threshold", "dpsi_boundary",
        ),
    }
    SEARCHES = frozenset({
        "finite.chernoff", "finite.hoeffding",
        "asymptotics.mean_chernoff", "asymptotics.mean_hoeffding",
        "asymptotics.polar", "asymptotics.hoeffding_threshold",
    })

    def __init__(self, recorder: Recorder | None):
        self.recorder = recorder
        for name, (module, attr) in self.CALLS.items():
            fn = getattr(module, attr)
            setattr(self, attr, recorder.wrap(name, fn) if recorder else fn)
        if recorder:
            for name, (module, attr) in self.INNER.items():
                setattr(module, attr, recorder.wrap(name, getattr(module, attr)))

    def instrument(self, obj, layer: str):
        """Wrap the public methods of an object the benchmark built; the
        program's own calls through ``self`` then pass through the spans."""
        if self.recorder:
            for attr in self.METHODS[layer]:
                setattr(obj, attr, self.recorder.wrap(f"{layer}.{attr}", getattr(obj, attr)))
        return obj


class FiniteExponents:
    """Exponent sheet of one displaced pair on the cube of side 12."""

    layer = "finite"
    defect = 1e-6  # the rounding budgets stayed below 1e-9 relative

    def __init__(self):
        self.side = SHAPES["finite-exponents"].side

    def prepare(self, refs, doc):
        entropies = refs("relative_entropies", doc=doc, side=self.side)
        return {"doc": doc, "entropies": entropies, "r": FINITE_RATE_FRACTION * entropies["21"]["value"]}

    def setup(self, api, doc):
        config = api.parse_config(doc)
        return api.FiniteProblem(config.problem, self.side)

    def operate(self, api, fp, prep):
        xi, t_star = fp.chernoff()
        return {
            "xi": xi,
            "t_star": t_star,
            "h": fp.hoeffding(prep["r"]),
            "d12": fp.relative_entropy("12"),
            "d21": fp.relative_entropy("21"),
        }

    def derive(self, refs, fp, raw, prep):
        for t in FINITE_GRID:
            raw[f"psi[{t}]"] = fp.psi(t)
        [prep["psi_ref"]] = refs("psi", doc=prep["doc"], side=self.side, ts=[raw["t_star"]])
        return raw

    def checks(self, out, prep):
        psi_ref = prep["psi_ref"]
        tol = psi_ref["budget"]
        found = [near("psi_n(t*) = -xi matches the scipy reference", out, "xi", -psi_ref["value"], tol)]
        for d, ref in prep["entropies"].items():
            found.append(near(f"D{d} matches the logm reference", out, f"d{d}", ref["value"], ref["budget"]))
        found.append(at_least("xi >= 0", out, "xi", 0.0, tol))
        found.append(at_most("xi <= D12", out, "xi", out["d12"], tol))
        found.append(at_most("xi <= D21", out, "xi", out["d21"], tol))
        r = prep["r"]
        for t in FINITE_GRID:
            psi = out[f"psi[{t}]"]
            found.append(at_least(f"-psi_n({t}) <= xi", out, "xi", -psi, tol))
            if t < 1.0:
                objective = (-t * r - psi) / (1.0 - t)
                found.append(at_least(f"hoeffding >= objective at t={t}", out, "h", objective, tol))
        found.append(at_most("hoeffding <= D12", out, "h", out["d12"], tol))
        return found


class AsymptoticRates:
    """Rate sheet of one pair on the 16-point rule in dim 3 (4096 nodes)."""

    layer = "asymptotics"
    defect = 1e-5  # the quadrature and search budgets stayed below 1e-7 relative

    def prepare(self, refs, doc):
        dim = SHAPES["asymptotic-rates"].dim
        sheets = refs(
            "torus_sheets", doc=doc, fine_points=REFINED_POINTS,
            coarse_points=asymptotics.DEFAULT_POINTS[dim], fractions=list(RATE_FRACTIONS),
        )
        fine, coarse = sheets["fine"], sheets["coarse"]
        # the program's rule carries the quadrature error of the 16-point grid,
        # estimated as its distance from the refined grid
        budget = {
            key: 2.0 * abs(coarse[key] - fine[key])
            + (SEARCH_ARG_BUDGET if key.startswith("a[") else SEARCH_VALUE_BUDGET)
            for key in fine
        }
        return {"rates": sheets["rates"], "ref": fine, "budget": budget}

    def setup(self, api, doc):
        return api.AsymptoticProblem(api.parse_config(doc).problem)

    def operate(self, api, ap, prep):
        xi, t_star = ap.mean_chernoff()
        out = {
            "xi": xi,
            "t_star": t_star,
            "d12": ap.dpsi_boundary("left_at_1"),
            "d21": -ap.dpsi_boundary("right_at_0"),
        }
        for k, r in enumerate(prep["rates"]):
            out[f"h[{k}]"] = ap.mean_hoeffding(r)
            out[f"a[{k}]"] = ap.hoeffding_threshold(r)
            out[f"polar[{k}]"] = ap.polar(out[f"a[{k}]"])
        return out

    def derive(self, refs, ap, raw, prep):
        return raw

    def checks(self, out, prep):
        ref, budget = prep["ref"], prep["budget"]
        # as r runs over (0, d21), a_r sweeps psi'(t) from d12 down to -d21
        # (0 where r = xi) and the Hoeffding value falls from d12 to 0, so the
        # size of a_r, of polar(a_r) = a_r + r and of the Hoeffding value is d12 + d21
        span = ref["d12"] + ref["d21"]
        found = [
            near(f"{key} matches the refined-grid reference", out, key, ref[key], budget[key],
                 span if key.startswith(("a[", "h[")) else None)
            for key in ref
        ]
        for k, r in enumerate(prep["rates"]):
            found.append(
                near(f"polar(a_r) - a_r = r at rate {k}", out, f"polar[{k}]",
                     out[f"a[{k}]"] + r, SEARCH_ARG_BUDGET, span)
            )
        return found


class FockWorkload:
    """Quasi-power traces, optimal test and Nussbaum-Szkola tables of one pair
    on the 3-site chain, as actual density matrices on a truncated Fock space."""

    layer = None  # module-level calls only; nothing to instrument

    def __init__(self, name, defect):
        self.name = name
        self.shape = SHAPES[name]
        self.defect = defect

    def prepare(self, refs, doc):
        psi = refs("psi", doc=doc, side=self.shape.side, ts=list(FOCK_TS))
        return {"qpt_ref": [math.exp(p["value"]) for p in psi]}

    def setup(self, api, doc):
        problem = api.parse_config(doc).problem
        side, cutoff = self.shape.side, self.shape.cutoff
        basis = api.build_basis(side**self.shape.dim, cutoff)
        return tuple(
            api.lattice_state(state, side, cutoff, basis=basis)
            for state in (problem.state1, problem.state2)
        )

    def operate(self, api, states, prep):
        s1, s2 = states
        out = {f"qpt[{t}]": api.quasi_power_trace(s1, s2, t) for t in FOCK_TS}
        out["e"] = api.neyman_pearson(s1, s2, 0.0).e
        out["tables"] = api.nussbaum_szkola(s1, s2)
        return out

    def derive(self, refs, states, raw, prep):
        s1, s2 = states
        p1, p2 = raw.pop("tables")
        both = (p1 > 0) & (p2 > 0)  # other entries add 0 to every sum below
        p1, p2 = p1[both], p2[both]
        raw["ns_lower"] = 0.5 * float(np.minimum(p1, p2).sum())
        for t in FOCK_TS:
            raw[f"ns_sum[{t}]"] = float(np.sum(p1**t * p2 ** (1.0 - t)))
        # the truncated tail carries at most the two trace deficits; rounding
        # adds a few hundred eps per basis state
        prep["rounding"] = 256 * s1.basis.dimension * EPS
        prep["budget"] = s1.trace_deficit + s2.trace_deficit + prep["rounding"]
        return raw

    def checks(self, out, prep):
        budget = prep["budget"]
        found = []
        for t, qpt_ref in zip(FOCK_TS, prep["qpt_ref"]):
            found.append(near(f"quasi_power_trace({t}) matches exp(psi_n)", out, f"qpt[{t}]", qpt_ref, budget))
            found.append(
                near(f"Nussbaum-Szkola tables give quasi_power_trace({t})", out, f"ns_sum[{t}]",
                     out[f"qpt[{t}]"], prep["rounding"])
            )
        found.append(at_least("Nussbaum-Szkola lower bound <= e", out, "e", out["ns_lower"], budget))
        audenaert = min(out[f"qpt[{t}]"] for t in FOCK_TS)
        found.append(at_most("e <= Audenaert bound", out, "e", audenaert, budget))
        return found

    def constant_pair_problems(self, api, refs, seed) -> list[str]:
        """One untimed constant-symbol pair: the optimal error against mpmath."""
        doc = constant_pair_doc(self.name, seed)
        states = self.setup(api, doc)
        [q1], [q2] = ([r["re"] for r in json.loads(doc)[key]] for key in ("q1", "q2"))
        modes = self.shape.side**self.shape.dim
        out = {"e_const": api.neyman_pearson(*states, 0.0).e}
        exact = refs("negative_binomial_error", q1=q1, q2=q2, modes=modes)
        budget = sum(s.trace_deficit for s in states) + 256 * states[0].basis.dimension * EPS

        def checks(values, _prep):
            return [near("neyman_pearson matches the mpmath negative-binomial error", values, "e_const", exact, budget)]

        return audit(checks, out, None, self.defect)


WORKLOADS = {
    "finite-exponents": FiniteExponents(),
    "asymptotic-rates": AsymptoticRates(),
    # the Fock budgets are the trace deficits of the truncation; over 300
    # seeded problems they reached 3.7e-4 of the error e at cutoff 20 and
    # 1.6e-2 at cutoff 12, so the Fock checks must catch 1% and 10% defects
    "fock-blocks": FockWorkload("fock-blocks", defect=1e-2),
    "fock-displaced": FockWorkload("fock-displaced", defect=0.1),
}


def audit(checks_fn, out, prep, defect: float) -> list[str]:
    """Run the checks, then test each one: an output that misses a bound by
    ``defect`` (relative) must be rejected, so a budget too loose to see a
    defect of that size fails the run."""
    problems = []
    found = checks_fn(out, prep)
    for c in found:
        if not c.accepts(c.value):
            problems.append(f"check failed: {c.name}: {c.value:.17g} not in "
                            f"[{c.low - c.tol:.17g}, {c.high + c.tol:.17g}]")
        if any(c.accepts(wrong) for wrong in c.defects(defect)):
            problems.append(f"self-test failed: {c.name} accepts a {defect:g} relative defect "
                            f"(budget {c.tol:.3g})")
    if not found:
        problems.append("no check ran")
    return problems


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not Path(gaussht.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gaussht was imported from {gaussht.__file__}, not from this checkout", file=sys.stderr)
        return 2
    refs = References()
    try:
        return run(args, refs)
    finally:
        refs.close()


def run(args, refs: References) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = args.workload
    wl = WORKLOADS[name]
    recorder = Recorder()
    api = Api(recorder if args.trace else None)
    problems: list[str] = []

    def one(k, timed):
        """Set up the documents of operation ``k``, run the operation on the
        last of them and check it; returns (set-up times, op time or None)."""
        docs = [problem_doc(name, args.seed, SETUP_REPEATS * k + j) for j in range(SETUP_REPEATS)]
        prep = wl.prepare(refs, docs[-1])
        setups = []
        op_time = None
        recorder.active = bool(args.trace) and timed
        try:
            for doc in docs:
                with recorder.span("setup"):
                    start = time.perf_counter()
                    obj = wl.setup(api, doc)
                    setups.append(time.perf_counter() - start)
            if wl.layer:
                api.instrument(obj, wl.layer)
            with recorder.span("op"):
                start = time.perf_counter()
                raw = wl.operate(api, obj, prep)
                op_time = time.perf_counter() - start
        except GaussHTError as exc:
            print(f"operation {k} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return setups, None
        finally:
            recorder.active = False
        out = wl.derive(refs, obj, raw, prep)
        problems.extend(f"operation {k}: {p}" for p in audit(wl.checks, out, prep, wl.defect))
        return setups, op_time

    warm_setups, warm_op = one(0, timed=False)
    if warm_op is None:
        problems.append("the warm-up operation failed")

    setup_times: list[float] = []
    op_times: list[float] = []
    attempted = 0
    measured = 0.0
    k = 1
    while attempted == 0 or measured < args.seconds:
        setups, op_time = one(k, timed=True)
        attempted += 1
        setup_times.extend(setups)
        measured += sum(setups) + (op_time or 0.0)
        if op_time is not None:
            op_times.append(op_time)
        k += 1

    if isinstance(wl, FockWorkload):
        problems.extend(f"constant pair: {p}" for p in wl.constant_pair_problems(Api(None), refs, args.seed))

    if not op_times:
        print("every operation failed", file=sys.stderr)
        return 1
    failed = attempted - len(op_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB to MiB
    end_to_end = {
        # the fastest set-up of the run: the machine alternates between a fast
        # and a slow phase, and a run's median set-up follows the share of the
        # run spent in the slow one (see the README)
        "setup_s": min(setup_times),
        "op_p50_s": statistics.median(op_times),
        "ops_per_s": len(op_times) / sum(op_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        figures = recorder.layer_figures(Api.SEARCHES)
        listed = spec["per_layer"]
    else:
        figures = end_to_end
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": figures.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}

    for p in problems:
        print(p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(),
        end_to_end=end_to_end,
        setup_times=setup_times,
        op_times=op_times,
        warmup={"setup_s": warm_setups, "op_s": warm_op},
        problems=problems,
    )
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for key, m in metrics.items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
