"""Seeded problem generator: every problem is written as a CLI JSON document.

The benchmark gives the program only these documents.  A problem is fixed by
(seed, workload, index), so the same seed gives the same inputs and every
operation of a run queries a problem of its own.

Positivity is proved here, not taken from the program: ``SymbolSpec.eta`` is a
grid minimum, not a lower bound.  For a trigonometric polynomial
``q(x) = sum_j c_j e^{i j.x}`` one has ``q(x) >= c_0 - sum_{j != 0} |c_j|``
for every x, so a symbol is accepted only when that sum leaves ``margin``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload's problems."""

    command: str
    dim: int
    side: int
    offsets: tuple  # coefficient indices drawn at random; mirrors are implied
    coeff_scale: float  # real and imaginary parts uniform in [-scale, scale]
    margin: tuple  # (low, high) of the proved lower bound of q
    displaced_sites: int  # sites of the second state's displacement
    displacement_scale: float  # real and imaginary parts uniform in [-scale, scale]
    kappa: tuple  # (low, high)
    cutoff: int = 0  # Fock photon-number cutoff, 0 when no Fock layer is used


SHAPES = {
    "finite-exponents": Shape(
        command="finite", dim=2, side=12,
        offsets=((1, 0), (0, 1), (1, 1), (1, -1)),
        coeff_scale=0.3, margin=(0.3, 1.0),
        displaced_sites=2, displacement_scale=0.5, kappa=(0.5, 1.5),
    ),
    "asymptotic-rates": Shape(
        command="asymptotic", dim=3, side=0,
        offsets=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)),
        coeff_scale=0.3, margin=(0.3, 1.0),
        displaced_sites=0, displacement_scale=0.0, kappa=(0.5, 1.5),
    ),
    "fock-blocks": Shape(
        command="simulate", dim=1, side=3,
        offsets=((1,), (2,)),
        coeff_scale=0.15, margin=(0.2, 0.5),
        displaced_sites=0, displacement_scale=0.0, kappa=(0.5, 1.5), cutoff=20,
    ),
    "fock-displaced": Shape(
        command="simulate", dim=1, side=3,
        offsets=((1,), (2,)),
        coeff_scale=0.15, margin=(0.2, 0.5),
        displaced_sites=2, displacement_scale=0.3, kappa=(0.5, 1.5), cutoff=12,
    ),
}

WORKLOAD_IDS = {name: i for i, name in enumerate(SHAPES)}


def hermitian_completion(coeffs: dict) -> dict:
    """Add c(-j) = conj(c(j)) for every stored j."""
    full = dict(coeffs)
    for j, c in coeffs.items():
        full.setdefault(tuple(-k for k in j), complex(c).conjugate())
    return full


def proved_lower_bound(coeffs: dict, dim: int) -> float:
    """c_0 - sum_{j != 0} |c_j| over the Hermitian completion: q >= this everywhere."""
    full = hermitian_completion(coeffs)
    zero = (0,) * dim
    return full.get(zero, 0.0).real - sum(abs(c) for j, c in full.items() if j != zero)


def _symbol(rng: np.random.Generator, shape: Shape) -> dict:
    coeffs = {
        j: complex(*rng.uniform(-shape.coeff_scale, shape.coeff_scale, 2))
        for j in shape.offsets
    }
    margin = float(rng.uniform(*shape.margin))
    off_sum = 2.0 * sum(abs(c) for c in coeffs.values())
    coeffs[(0,) * shape.dim] = complex(off_sum + margin)
    if proved_lower_bound(coeffs, shape.dim) < 0.999 * margin:
        raise AssertionError("generated symbol does not keep its positivity margin")
    return coeffs


def _records(coeffs: dict) -> list:
    return [{"index": list(j), "re": c.real, "im": c.imag} for j, c in sorted(coeffs.items())]


def problem_doc(workload: str, seed: int, index: int) -> str:
    """The CLI JSON document of problem ``index`` of ``workload`` under ``seed``."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], 0, index])
    doc = {
        "command": shape.command,
        "dim": shape.dim,
        "kappa": float(rng.uniform(*shape.kappa)),
        "q1": _records(_symbol(rng, shape)),
        "q2": _records(_symbol(rng, shape)),
    }
    if shape.displaced_sites:
        cells = shape.side**shape.dim
        chosen = rng.choice(cells, size=shape.displaced_sites, replace=False)
        doc["y2"] = [
            {
                "site": [int(k) for k in np.unravel_index(int(c), (shape.side,) * shape.dim)],
                "re": float(rng.uniform(-shape.displacement_scale, shape.displacement_scale)),
                "im": float(rng.uniform(-shape.displacement_scale, shape.displacement_scale)),
            }
            for c in sorted(chosen)
        ]
    if shape.cutoff:
        doc["n_list"] = [shape.side]
        doc["fock_cutoff"] = shape.cutoff
    return json.dumps(doc, sort_keys=True)


def constant_pair_doc(workload: str, seed: int) -> str:
    """An undisplaced pair of constant symbols on a Fock workload's lattice."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], 1, 0])
    low = float(rng.uniform(0.2, 0.4))
    high = low + float(rng.uniform(0.1, 0.3))
    zero = [0] * shape.dim
    doc = {
        "command": "simulate",
        "dim": shape.dim,
        "kappa": 1.0,
        "q1": [{"index": zero, "re": low}],
        "q2": [{"index": zero, "re": high}],
        "n_list": [shape.side],
        "fock_cutoff": shape.cutoff,
    }
    return json.dumps(doc, sort_keys=True)
