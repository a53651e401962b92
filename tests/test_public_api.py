"""The public surface: each quantity has one way in, the names the benchmark
harness reaches stay put, and the README's library sketch runs."""

import math
import re
from pathlib import Path

import pytest

import gaussht
from gaussht import asymptotics, cli, errors, finite, fock, lattice, symbols

# module-level second routes to class methods, and test-only oracles
REMOVED = (
    "psi_n",
    "psi_n_extended",
    "chernoff_finite",
    "hoeffding_finite",
    "relative_entropy_finite",
    "displacement_factor",
    "psi_asym",
    "dpsi_boundary",
    "psi_second",
    "mean_chernoff",
    "mean_hoeffding",
    "polar",
    "hoeffding_threshold",
    "integrate",
    "sandwich_power",
    "trace_fn",
    "positive_part_projector",
    "second_quantized_trace_check",
    "eval_symbol",
    "fock_operator",
    "szego_check",
    "apply_fn",
    # the cube indexer, replaced by np.ravel_multi_index
    "SiteIndexer",
    # report records that only copied class-method values for the CLI
    "FiniteReport",
    "finite_report",
    "AsymptoticReport",
    "asymptotic_report",
)

# second routes and the code that only they used, gone from their modules,
# the hand-built index maps that numpy replaced, and the site-basis matrices
# that only the tests read
GONE = {
    asymptotics: ("szego_check", "SzegoRow"),
    finite: ("W_ONE_TOL", "site_frame"),
    finite.FiniteStateData: ("Q", "R"),
    finite.FiniteProblem: ("psi_extended",),
    errors: ("NotTraceClass", "DisplacementMismatch"),
    lattice: ("SiteIndexer",),
    fock: ("_compositions",),
    fock.FockBasis: ("creation_matrix",),
    fock.build_basis(2, 2): ("index",),
    symbols.SymbolSpec: ("max_index",),
}

# what bench/workload.py and bench/anchors.py look up
HOOKS = {
    cli: ("parse_config", "make_trig_symbol"),
    finite: ("FiniteProblem", "restrict_symbol"),
    asymptotics: ("AsymptoticProblem", "DEFAULT_POINTS"),
    fock: (
        "build_basis",
        "lattice_state",
        "quasi_power_trace",
        "neyman_pearson",
        "nussbaum_szkola",
        "displacement_operator",
    ),
    errors: ("GaussHTError",),
    gaussht: (
        "AsymptoticProblem",
        "DiscriminationProblem",
        "FiniteProblem",
        "GaussianStateSpec",
        "build_basis",
        "lattice_state",
        "make_displacement",
        "make_trig_symbol",
        "quasi_power_trace",
    ),
    finite.FiniteProblem: ("psi", "chernoff", "hoeffding", "relative_entropy"),
    asymptotics.AsymptoticProblem: (
        "psi",
        "mean_chernoff",
        "mean_hoeffding",
        "polar",
        "hoeffding_threshold",
        "dpsi_boundary",
    ),
}


def test_public_surface():
    exported = {}
    exec("from gaussht import *", exported)
    for name in REMOVED:
        assert name not in exported
        with pytest.raises(ImportError):
            exec(f"from gaussht import {name}", {})
    for owner, names in GONE.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    for owner, names in HOOKS.items():
        for name in names:
            assert hasattr(owner, name), (owner, name)


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", sketch, re.DOTALL).group(1)
    ns = {}
    exec(code, ns)
    s1, s2 = ns["s1"], ns["s2"]
    budget = s1.trace_deficit + s2.trace_deficit + 1e-8
    assert gaussht.quasi_power_trace(s1, s2, 0.5) == pytest.approx(
        math.exp(ns["one"].psi(0.5)), abs=budget
    )
