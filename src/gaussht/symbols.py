"""Translation-invariant symbols on the torus and the states they generate.

A symbol is a real-valued trigonometric polynomial q on [0, 2pi)^dim given
by finitely many Fourier coefficients; this module evaluates q itself, and
the layers form the derived functions (a = 1 + 2q, r = q / (1 + q)) from it.
A Gaussian state spec couples a symbol with a finitely supported
displacement vector and the commutation parameter kappa.

Every torus grid (symbol validation, quadrature) is a uniform tensor grid
of at most ``GRID_CAP`` = 2**24 nodes.  That is the largest default grid, 8
points per axis in dimension 8, whose array of float64 nodes takes 1 GiB.
A larger grid raises ``SizeOverflow`` before anything is allocated, instead
of a raw numpy allocation error or a many-gigabyte allocation that might
be attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    NegativeSymbol,
    NonHermitianCoefficients,
    SizeOverflow,
    ValidationError,
)

HERMITIAN_TOL = 1e-12
IMAG_TOL = 1e-10

# Points per axis of the default grids (symbol validation, torus quadrature),
# by lattice dimension; 8 above dimension 3.
DEFAULT_POINTS = {1: 512, 2: 64, 3: 16}

# Most nodes in one tensor grid (see the module docstring).
GRID_CAP = 2**24


def default_points(dim: int) -> int:
    return DEFAULT_POINTS.get(dim, 8)


def _as_multi_index(key, dim: int) -> tuple:
    if isinstance(key, (int, np.integer)):
        key = (int(key),)
    else:
        key = tuple(int(k) for k in key)
    if len(key) != dim:
        raise ValidationError("dim", f"index {key} does not have {dim} entries")
    return key


@dataclass(frozen=True)
class SymbolSpec:
    """A nonnegative trigonometric polynomial on the dim-torus.

    ``coeffs`` maps multi-indices j in Z^dim to Fourier coefficients, with
    Hermitian symmetry c(-j) = conj(c(j)) so that q is real.  ``eta`` is a
    certified lower bound for q on a uniform validation grid (0 when only
    nonnegativity is certified).
    """

    dim: int
    coeffs: Mapping[tuple, complex]
    eta: float

    @property
    def is_vacuum(self) -> bool:
        """True when q is identically zero."""
        return all(abs(c) <= 1e-15 for c in self.coeffs.values())


def same_symbol(a: SymbolSpec, b: SymbolSpec) -> bool:
    """True when the two symbols have the same nonzero Fourier coefficients;
    a coefficient stored as an explicit zero does not tell them apart."""
    nonzero_a, nonzero_b = ({j: c for j, c in s.coeffs.items() if c != 0} for s in (a, b))
    return nonzero_a == nonzero_b


def uniform_grid(dim: int, points_per_axis: int) -> np.ndarray:
    """Tensor grid of points 2*pi*k/N per axis, shape (N^dim, dim).

    Raises SizeOverflow, before anything is allocated, above GRID_CAP nodes.
    """
    if points_per_axis**dim > GRID_CAP:
        raise SizeOverflow(
            f"grid of {points_per_axis}^{dim} nodes exceeds cap {GRID_CAP}"
        )
    axis = 2.0 * np.pi * np.arange(points_per_axis) / points_per_axis
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def symbol_values(sym: SymbolSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate q at an (N, dim) array of points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.zeros(points.shape[0], dtype=complex)
    for j, c in sym.coeffs.items():
        vals += c * np.exp(1j * points @ np.asarray(j, dtype=float))
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    if np.max(np.abs(vals.imag), initial=0.0) > IMAG_TOL * scale:
        raise NonHermitianCoefficients(
            "symbol evaluated to a non-real value; coefficients are inconsistent"
        )
    return vals.real


def make_trig_symbol(
    dim: int,
    coeffs: Mapping,
    grid_points_per_axis: int | None = None,
) -> SymbolSpec:
    """Build a SymbolSpec, completing Hermitian symmetry and certifying q >= 0.

    The nonnegativity certificate (and eta) comes from exhaustive evaluation
    on a uniform tensor grid with ``grid_points_per_axis`` points per axis,
    which must resolve the polynomial (at least 2*max_index + 1).
    """
    if dim < 1:
        raise ValidationError("dim", "lattice dimension must be >= 1")
    normalized: dict[tuple, complex] = {}
    for key, value in coeffs.items():
        normalized[_as_multi_index(key, dim)] = complex(value)
    if not np.all(np.isfinite(list(normalized.values()))):
        raise ValidationError("coeffs", "Fourier coefficients must be finite")

    completed: dict[tuple, complex] = {}
    for j, c in sorted(normalized.items()):
        neg = tuple(-k for k in j)
        if neg in normalized:
            mirror = normalized[neg]
            if abs(mirror - np.conj(c)) > HERMITIAN_TOL * max(1.0, abs(c)):
                raise NonHermitianCoefficients(
                    f"coefficient at {neg} is {mirror}, expected conj of {c} at {j}"
                )
        if j == neg:
            # j = 0 (or 2j = 0 componentwise): coefficient must be real
            if abs(c.imag) > HERMITIAN_TOL * max(1.0, abs(c)):
                raise NonHermitianCoefficients(f"coefficient at {j} must be real, got {c}")
            completed[j] = complex(c.real, 0.0)
        else:
            completed[j] = c
            completed.setdefault(neg, np.conj(c))

    max_index = max((max(abs(k) for k in j) for j in completed), default=0)
    if grid_points_per_axis is None:
        grid_points_per_axis = max(default_points(dim), 2 * max_index + 1)
    if grid_points_per_axis < max(2, 2 * max_index + 1):
        raise ValidationError(
            "grid_points_per_axis",
            f"need at least {max(2, 2 * max_index + 1)} points per axis",
        )

    sym = SymbolSpec(dim=dim, coeffs=MappingProxyType(completed), eta=0.0)
    grid_min = float(np.min(symbol_values(sym, uniform_grid(dim, grid_points_per_axis))))
    if grid_min < -1e-12:
        raise NegativeSymbol(f"symbol minimum on the validation grid is {grid_min}")
    return SymbolSpec(dim=dim, coeffs=MappingProxyType(completed), eta=max(grid_min, 0.0))


@dataclass(frozen=True)
class DisplacementSpec:
    """Finitely supported displacement vector, sites in the nonnegative orthant."""

    dim: int
    support: Mapping[tuple, complex] = field(default_factory=dict)


def make_displacement(dim: int, support: Mapping | None = None) -> DisplacementSpec:
    """Validate and build a DisplacementSpec; rejects sites outside the orthant."""
    entries: dict[tuple, complex] = {}
    for key, value in (support or {}).items():
        site = _as_multi_index(key, dim)
        if any(k < 0 for k in site):
            raise ValidationError(
                "support", f"site {site} lies outside the nonnegative orthant"
            )
        entries[site] = complex(value)
        if not np.isfinite(entries[site]):
            raise ValidationError("support", f"displacement at site {site} is not finite")
    return DisplacementSpec(dim=dim, support=MappingProxyType(entries))


@dataclass(frozen=True)
class GaussianStateSpec:
    """One hypothesis: quasi-free symbol, displacement, and CCR parameter kappa."""

    symbol: SymbolSpec
    displacement: DisplacementSpec
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValidationError("kappa", "must be positive and finite")
        if self.symbol.dim != self.displacement.dim:
            raise ValidationError("dim", "symbol and displacement dimensions differ")


@dataclass(frozen=True)
class DiscriminationProblem:
    """Ordered pair of Gaussian state specs sharing dim and kappa."""

    state1: GaussianStateSpec
    state2: GaussianStateSpec

    def __post_init__(self):
        if self.state1.symbol.dim != self.state2.symbol.dim:
            raise ValidationError("dim", "the two states have different lattice dimensions")
        if self.state1.kappa != self.state2.kappa:
            raise ValidationError("kappa", "the two states have different kappa")

    @property
    def dim(self) -> int:
        return self.state1.symbol.dim

    @property
    def kappa(self) -> float:
        return self.state1.kappa


def strict_positivity_required(problem: DiscriminationProblem) -> bool:
    """True iff both symbols are certified >= eta > 0.

    Boundary-derivative and relative-entropy operations demand this.
    """
    return problem.state1.symbol.eta > 0 and problem.state2.symbol.eta > 0
