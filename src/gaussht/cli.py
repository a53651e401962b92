"""Batch front end: JSON problem description in, machine-readable reports out.

The configuration is a single JSON document; the command-line flags override
only the output directory, the report format and the dense-matrix cap.
Unknown keys are rejected, and identical configurations produce
byte-identical report files.  The ``finite`` and ``asymptotic`` reports call
the methods of ``FiniteProblem`` and ``AsymptoticProblem`` directly; the one
check on the psi curve, the rate filter and the clamp of every exponent at 0
are written once here, for both.  The Szego check of ``verify`` reads
``FiniteStateData.logN`` against the torus values ``AsymptoticProblem.q1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _search, asymptotics, finite, fock
from .errors import DomainError, GaussHTError, IoError, ParseError, ValidationError
from .lattice import DENSE_CAP
from .symbols import (
    DiscriminationProblem,
    DisplacementSpec,
    GaussianStateSpec,
    SymbolSpec,
    make_displacement,
    make_trig_symbol,
    strict_positivity_required,
)

COMMANDS = ("finite", "asymptotic", "simulate", "verify", "sweep")

_TOP_KEYS = {
    "command",
    "dim",
    "kappa",
    "q1",
    "q2",
    "y1",
    "y2",
    "t_grid",
    "n_list",
    "r_list",
    "a_list",
    "quadrature_points",
    "symbol_grid",
    "fock_cutoff",
    "basis_cap",
    "dense_cap",
    "format",
    "output",
}


@dataclass
class RunConfig:
    """A validated configuration; ``parse_config`` fills in every default."""

    problem: DiscriminationProblem
    command: str
    t_grid: int
    n_list: tuple[int, ...]
    r_list: tuple[float, ...]
    a_list: tuple[float, ...]
    quadrature_points: int | None
    fock_cutoff: int
    basis_cap: int
    dense_cap: int
    format: str
    output: str | None
    digest: str


def _is_int(value) -> bool:
    """A JSON integer; bool is a subclass of int but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number; the json module accepts NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _complex(name: str, re, im=0.0) -> complex:
    if not (_is_number(re) and _is_number(im)):
        raise ValidationError(name, "real and imaginary parts must be finite numbers")
    return complex(re, im)


def _index(name: str, parts) -> tuple:
    if not isinstance(parts, list) or not all(_is_int(k) for k in parts):
        raise ValidationError(name, "an index or site must be a list of integers")
    return tuple(parts)


def _parse_symbol(name: str, value, dim: int, grid: int | None) -> SymbolSpec:
    coeffs = {}
    if isinstance(value, dict):
        for key, entry in value.items():
            try:
                index = tuple(int(part) for part in str(key).split(","))
            except ValueError:
                raise ValidationError(name, f"cannot parse index {key!r}") from None
            if isinstance(entry, dict):
                extra = set(entry) - {"re", "im"}
                if extra:
                    raise ValidationError(name, f"unknown coefficient keys {sorted(extra)}")
                coeffs[index] = _complex(name, entry.get("re", 0.0), entry.get("im", 0.0))
            else:
                coeffs[index] = _complex(name, entry)
    elif isinstance(value, list):
        for rec in value:
            if not isinstance(rec, dict):
                raise ValidationError(name, "coefficient records must be objects")
            extra = set(rec) - {"index", "re", "im"}
            if extra:
                raise ValidationError(name, f"unknown coefficient keys {sorted(extra)}")
            if "index" not in rec:
                raise ValidationError(name, "coefficient record is missing 'index'")
            coeffs[_index(name, rec["index"])] = _complex(
                name, rec.get("re", 0.0), rec.get("im", 0.0)
            )
    else:
        raise ValidationError(name, "symbol must be an object or a list of records")
    return make_trig_symbol(dim, coeffs, grid_points_per_axis=grid)


def _parse_displacement(name: str, value, dim: int) -> DisplacementSpec:
    if value is not None and not isinstance(value, list):
        raise ValidationError(name, "displacement must be a list of records")
    support = {}
    for rec in value or []:
        if not isinstance(rec, dict):
            raise ValidationError(name, "displacement records must be objects")
        extra = set(rec) - {"site", "re", "im"}
        if extra:
            raise ValidationError(name, f"unknown displacement keys {sorted(extra)}")
        if "site" not in rec:
            raise ValidationError(name, "displacement record is missing 'site'")
        support[_index(name, rec["site"])] = _complex(
            name, rec.get("re", 0.0), rec.get("im", 0.0)
        )
    return make_displacement(dim, support)


def parse_config(text: str) -> RunConfig:
    """Validate a JSON configuration document; unknown keys are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("configuration must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown configuration key")
    for key in ("command", "dim", "kappa", "q1", "q2"):
        if key not in doc:
            raise ValidationError(key, "required key is missing")
    command = doc["command"]
    if command not in COMMANDS:
        raise ValidationError("command", f"must be one of {COMMANDS}")
    dim = doc["dim"]
    if not _is_int(dim) or dim < 1:
        raise ValidationError("dim", "must be a positive integer")
    kappa = doc["kappa"]
    if not _is_number(kappa) or kappa <= 0:
        raise ValidationError("kappa", "must be a positive finite number")

    grid = doc.get("symbol_grid")
    if grid is not None and (not _is_int(grid) or grid < 2):
        raise ValidationError("symbol_grid", "must be an integer >= 2")
    q1 = _parse_symbol("q1", doc["q1"], dim, grid)
    q2 = _parse_symbol("q2", doc["q2"], dim, grid)
    y1 = _parse_displacement("y1", doc.get("y1"), dim)
    y2 = _parse_displacement("y2", doc.get("y2"), dim)
    problem = DiscriminationProblem(
        state1=GaussianStateSpec(symbol=q1, displacement=y1, kappa=float(kappa)),
        state2=GaussianStateSpec(symbol=q2, displacement=y2, kappa=float(kappa)),
    )

    def positive_int(key, default):
        value = doc.get(key, default)
        if value is not None and (not _is_int(value) or value < 1):
            raise ValidationError(key, "must be a positive integer")
        return value

    t_grid = doc.get("t_grid", 101)
    if not _is_int(t_grid) or t_grid < 0:
        raise ValidationError("t_grid", "must be a nonnegative integer")
    n_list = doc.get("n_list", [1, 2, 3, 4])
    if not isinstance(n_list, list) or not all(_is_int(n) and n >= 1 for n in n_list):
        raise ValidationError("n_list", "must be a list of positive integers")
    r_list = doc.get("r_list", [])
    if not isinstance(r_list, list) or not all(_is_number(r) and r >= 0 for r in r_list):
        raise ValidationError("r_list", "rates must be nonnegative finite numbers")
    a_list = doc.get("a_list", [])
    if not isinstance(a_list, list) or not all(_is_number(a) for a in a_list):
        raise ValidationError("a_list", "must be a list of finite numbers")
    fmt = doc.get("format", "json")
    if fmt not in ("csv", "json"):
        raise ValidationError("format", "must be 'csv' or 'json'")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ValidationError("output", "must be a string")

    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return RunConfig(
        problem=problem,
        command=command,
        t_grid=t_grid,
        n_list=tuple(n_list),
        r_list=tuple(float(r) for r in r_list),
        a_list=tuple(float(a) for a in a_list),
        quadrature_points=positive_int("quadrature_points", None),
        fock_cutoff=positive_int("fock_cutoff", 60),
        basis_cap=positive_int("basis_cap", fock.BASIS_CAP),
        dense_cap=positive_int("dense_cap", DENSE_CAP),
        format=fmt,
        output=output,
        digest=digest,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def emit(report: dict, fmt: str, path: Path) -> list[Path]:
    """Write a report; CSV gets a sibling *_scalars.csv with the scalar block."""
    written = []
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            target = path.with_suffix(".json")
            target.write_text(json.dumps(report, indent=2) + "\n")
            written.append(target)
        else:
            target = path.with_suffix(".csv")
            lines = [",".join(report["columns"])]
            for row in report["rows"]:
                lines.append(",".join(_fmt(v) for v in row))
            target.write_text("\n".join(lines) + "\n")
            written.append(target)
            scalars = path.with_name(path.stem + "_scalars.csv")
            lines = ["name,value", f"config_digest,{report['config_digest']}"]
            for key, value in report.get("bookkeeping", {}).items():
                lines.append(f"{key},{_fmt(value)}")
            for key, value in report.get("scalars", {}).items():
                lines.append(f"{key},{_fmt(value)}")
            scalars.write_text("\n".join(lines) + "\n")
            written.append(scalars)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return written


def _base_report(config: RunConfig, bookkeeping: dict) -> dict:
    return {
        "command": config.command,
        "config_digest": config.digest,
        "bookkeeping": bookkeeping,
    }


def _rule(config: RunConfig):
    return asymptotics.make_rule(config.problem.dim, config.quadrature_points)


def _max_psi_gap(config: RunConfig, ap: asymptotics.AsymptoticProblem, n: int, ts) -> float:
    """max over ts of |psi_n(t) / n^dim - psi(t)|, the cube against the torus."""
    fp = finite.FiniteProblem(config.problem, n, dense_cap=config.dense_cap)
    site = n**config.problem.dim
    return max(abs(fp.psi(t) / site - ap.psi(t)) for t in ts)


def _psi_curve(psi, t_grid: int) -> list[tuple[float, float]]:
    """(t, psi(t)) at t_grid points of [0, 1]; psi <= 0, so a value above 1e-9 fails."""
    curve = [(float(t), psi(t)) for t in np.linspace(0.0, 1.0, t_grid)]
    worst = max((p for _, p in curve), default=0.0)
    if worst > 1e-9:
        raise DomainError(f"psi exceeded its nonpositivity tolerance: {worst:.3e}")
    return curve


def _exponents(config: RunConfig, chernoff, hoeffding) -> tuple[float, float, dict]:
    """(Chernoff value, its t, {rate: Hoeffding value}), each value clamped at 0.

    The rate 0 is the relative entropy, so it is reported only when both
    symbols are strictly positive.
    """
    value, t_star = chernoff()
    strict = strict_positivity_required(config.problem)
    rates = {r: _search.nonnegative(hoeffding(r)) for r in config.r_list if r > 0 or strict}
    return _search.nonnegative(value), t_star, rates


def _run_finite(config: RunConfig) -> dict:
    report = _base_report(config, {"dense_cap": config.dense_cap, "t_points": config.t_grid})
    strict = strict_positivity_required(config.problem)
    rows = []
    scalars = {}
    for n in config.n_list:
        fp = finite.FiniteProblem(config.problem, n, dense_cap=config.dense_cap)
        site = n**config.problem.dim
        rows += [[n, t, p, p / site] for t, p in _psi_curve(fp.psi, config.t_grid)]
        chernoff, t_star, hoeffding = _exponents(config, fp.chernoff, fp.hoeffding)
        scalars[f"n={n}/chernoff"] = chernoff
        scalars[f"n={n}/t_star"] = t_star
        for r, value in hoeffding.items():
            scalars[f"n={n}/hoeffding[r={_fmt(r)}]"] = value
        scalars[f"n={n}/rel_entropy_12"] = fp.relative_entropy("12") if strict else None
        scalars[f"n={n}/rel_entropy_21"] = fp.relative_entropy("21") if strict else None
    report["columns"] = ["n", "t", "psi_n", "psi_n_per_site"]
    report["rows"] = rows
    report["scalars"] = scalars
    return report


def _run_asymptotic(config: RunConfig) -> dict:
    rule = _rule(config)
    ap = asymptotics.AsymptoticProblem(config.problem, rule)
    strict = strict_positivity_required(config.problem)
    report = _base_report(config, {"quadrature_points_per_axis": rule.points_per_axis})
    report["columns"] = ["t", "psi"]
    report["rows"] = [[t, p] for t, p in _psi_curve(ap.psi, config.t_grid)]
    chernoff, t_star, hoeffding = _exponents(config, ap.mean_chernoff, ap.mean_hoeffding)
    polar = {a: ap.polar(a) for a in config.a_list}
    scalars = {
        "mean_chernoff": chernoff,
        "t_star": t_star,
        "d12": ap.dpsi_boundary("left_at_1") if strict else None,
        "d21": -ap.dpsi_boundary("right_at_0") if strict else None,
    }
    for r, value in hoeffding.items():
        scalars[f"hoeffding[r={_fmt(r)}]"] = value
    for a, value in polar.items():
        scalars[f"polar[a={_fmt(a)}]"] = value
    report["scalars"] = scalars
    return report


def _run_simulate(config: RunConfig) -> dict:
    a = config.a_list[0] if config.a_list else 0.0
    rows = fock.error_exponent_sweep(
        config.problem,
        config.n_list,
        config.fock_cutoff,
        a=a,
        dense_cap=config.dense_cap,
        basis_cap=config.basis_cap,
    )
    report = _base_report(
        config,
        {"fock_cutoff": config.fock_cutoff, "basis_cap": config.basis_cap, "a": a},
    )
    report["columns"] = ["n", "alpha", "beta", "e", "exponent", "trace_deficit"]
    report["rows"] = [
        [r.n, r.alpha, r.beta, r.e, r.exponent, r.trace_deficit] for r in rows
    ]
    report["scalars"] = {}
    return report


def _run_sweep(config: RunConfig) -> dict:
    rule = _rule(config)
    ap = asymptotics.AsymptoticProblem(config.problem, rule)
    ts = np.linspace(0.0, 1.0, max(config.t_grid, 2)) if config.t_grid else np.linspace(0, 1, 11)
    report = _base_report(
        config,
        {
            "quadrature_points_per_axis": rule.points_per_axis,
            "dense_cap": config.dense_cap,
            "t_points": len(ts),
        },
    )
    report["columns"] = ["n", "max_abs_gap"]
    report["rows"] = [[n, _max_psi_gap(config, ap, n, ts)] for n in config.n_list]
    report["scalars"] = {}
    return report


def _run_verify(config: RunConfig) -> dict:
    problem = config.problem
    rule = _rule(config)
    ap = asymptotics.AsymptoticProblem(problem, rule)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str):
        checks.append((name, ok, detail))

    # closed-form psi against the Fock-space simulator on one site
    cutoff = config.fock_cutoff
    fp1 = finite.FiniteProblem(problem, 1, dense_cap=config.dense_cap)
    s1 = fock.lattice_state(problem.state1, 1, cutoff, basis_cap=config.basis_cap)
    s2 = fock.lattice_state(problem.state2, 1, cutoff, basis_cap=config.basis_cap)
    budget = 1e-6 + s1.trace_deficit + s2.trace_deficit
    worst = max(
        abs(math.exp(fp1.psi(t)) - fock.quasi_power_trace(s1, s2, t))
        for t in (0.25, 0.5, 0.75)
    )
    record("finite_vs_fock", worst <= budget, f"max gap {worst:.3e} budget {budget:.3e}")

    p1, p2 = fock.nussbaum_szkola(s1, s2)
    ns_gap = max(
        abs(
            float(np.sum(np.where(p1 > 0, p1, 0) ** t * np.where(p2 > 0, p2, 0) ** (1 - t)))
            - fock.quasi_power_trace(s1, s2, t)
        )
        for t in np.linspace(0.1, 0.9, 9)
    )
    record("nussbaum_szkola_consistency", ns_gap <= 1e-10, f"max gap {ns_gap:.3e}")

    # Szego limit: Tr log(I + Q_n) / n^dim = -log N_n / n^dim against mean log(1 + q1)
    torus = float(np.sum(np.log1p(ap.q1)) * rule.weight)
    gaps = []
    for n in [8, 16, 32, 64] if problem.dim == 1 else [2, 4, 8]:
        data = finite.build_state_data(problem.state1, n, config.dense_cap)
        gaps.append(abs(-data.logN / n**problem.dim - torus))
    ok = all(b <= a * 1.1 + 1e-12 for a, b in zip(gaps, gaps[1:]))
    record("szego_tracelog", ok, "gaps " + " ".join(f"{g:.3e}" for g in gaps))

    # finite-n per-site curves approach the asymptotic curve
    ts = np.linspace(0.0, 1.0, 11)
    n_tr = [4, 8, 16] if problem.dim == 1 else [2, 3, 4]
    conv = [_max_psi_gap(config, ap, n, ts) for n in n_tr]
    ok = all(b <= a * 1.1 + 1e-12 for a, b in zip(conv, conv[1:]))
    record("psi_convergence", ok, "gaps " + " ".join(f"{g:.3e}" for g in conv))

    # boundary and interior derivatives against finite differences
    if strict_positivity_required(problem):
        h = 1e-5
        d12 = ap.dpsi_boundary("left_at_1")
        d21 = -ap.dpsi_boundary("right_at_0")
        left = (ap.psi(1.0) - ap.psi(1.0 - h)) / h
        right = (ap.psi(h) - ap.psi(0.0)) / h
        ok = abs(left - d12) <= 1e-3 and abs(right + d21) <= 1e-3
        record(
            "boundary_derivatives",
            ok,
            f"left gap {abs(left - d12):.3e} right gap {abs(right + d21):.3e}",
        )
        hh = 1e-4
        fd = (ap.psi(0.5 + hh) - 2 * ap.psi(0.5) + ap.psi(0.5 - hh)) / hh**2
        if fd != 0:
            weighted = abs(ap.psi_second(0.5) - fd) / abs(fd)
            record("psi_second_fd", weighted <= 1e-6, f"weighted integrand rel err {weighted:.3e}")
        else:
            record("psi_second_fd", True, "curvature is zero (identical symbols)")
    else:
        record("boundary_derivatives", True, "skipped: symbols not strictly positive")
        record("psi_second_fd", True, "skipped: symbols not strictly positive")

    report = _base_report(
        config,
        {
            "fock_cutoff": cutoff,
            "quadrature_points_per_axis": rule.points_per_axis,
            "trace_deficit_budget": budget,
        },
    )
    report["columns"] = ["check", "status", "detail"]
    report["rows"] = [[name, "PASS" if ok else "FAIL", detail] for name, ok, detail in checks]
    report["scalars"] = {"failed": sum(1 for _, ok, _ in checks if not ok)}
    return report


def run(config: RunConfig, out_dir: Path | None = None) -> int:
    """Execute one command and write its report; returns the process exit code."""
    runners = {
        "finite": _run_finite,
        "asymptotic": _run_asymptotic,
        "simulate": _run_simulate,
        "sweep": _run_sweep,
        "verify": _run_verify,
    }
    try:
        report = runners[config.command](config)
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GaussHTError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    stem = config.output or config.command
    path = (out_dir or Path(".")) / stem
    for target in emit(report, config.format, path):
        print(f"wrote {target}")

    if config.command == "verify":
        for name, status, detail in report["rows"]:
            print(f"check {name}: {status} ({detail})")
        if report["scalars"]["failed"]:
            return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gauss-ht",
        description="Error exponents for discriminating two bosonic Gaussian lattice states",
    )
    parser.add_argument("config", help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), help="override output format")
    parser.add_argument("--cap", type=int, help="override the dense-matrix size cap")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GaussHTError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.format:
        config.format = args.format
    if args.cap:
        config.dense_cap = args.cap
    return run(config, out_dir=Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
