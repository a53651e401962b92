"""Finite-volume restrictions: multilevel Toeplitz matrices and truncated vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeOverflow, ValidationError
from .symbols import DisplacementSpec, SymbolSpec

DENSE_CAP = 4096


@dataclass(frozen=True)
class SiteIndexer:
    """Lexicographic bijection between the cube C_n in Z^dim and 0..n^dim-1."""

    dim: int
    side: int

    @property
    def total(self) -> int:
        return self.side**self.dim

    def index(self, site) -> int:
        idx = 0
        for k in site:
            if not 0 <= k < self.side:
                raise ValidationError("site", f"{tuple(site)} outside cube of side {self.side}")
            idx = idx * self.side + int(k)
        return idx

    def site(self, index: int) -> tuple:
        if not 0 <= index < self.total:
            raise ValidationError("index", f"{index} out of range")
        out = []
        for _ in range(self.dim):
            out.append(index % self.side)
            index //= self.side
        return tuple(reversed(out))

    def contains(self, site) -> bool:
        return len(site) == self.dim and all(0 <= k < self.side for k in site)


def restrict_symbol(sym: SymbolSpec, n: int, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """The n^dim x n^dim compression of the symbol's convolution operator.

    Entries are M[idx(k), idx(k')] = c(k - k'), taken directly from the
    Fourier coefficients, so the matrix is exact (no quadrature) and
    multilevel Toeplitz in the lexicographic site ordering.
    """
    if n < 1:
        raise ValidationError("n", "cube side must be >= 1")
    size = n**sym.dim
    if size > dense_cap:
        raise SizeOverflow(f"dense matrix of size {size} exceeds cap {dense_cap}")
    out = np.zeros((size, size), dtype=complex)
    for j, c in sym.coeffs.items():
        if any(abs(k) >= n for k in j):
            continue
        term = np.eye(n, k=-j[0])
        for k in j[1:]:
            term = np.kron(term, np.eye(n, k=-k))
        out += c * term
    return out


def restrict_displacement(disp: DisplacementSpec, n: int) -> np.ndarray:
    """Truncate the displacement to the cube C_n; sites outside are dropped."""
    indexer = SiteIndexer(dim=disp.dim, side=n)
    vec = np.zeros(indexer.total, dtype=complex)
    for site, value in disp.support.items():
        if indexer.contains(site):
            vec[indexer.index(site)] = value
    return vec
