"""Finite-volume restrictions: multilevel Toeplitz matrices and truncated vectors.

The sites of the cube C_n = {0, ..., n-1}^dim are indexed in C order, as
``np.ravel_multi_index`` numbers them: the last coordinate varies fastest.
Reversing that index reverses every coordinate at once, which is the
reversal J that ``finite.real_frame`` relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeOverflow, ValidationError
from .symbols import DisplacementSpec, SymbolSpec

DENSE_CAP = 4096


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
    shape = (n,) * disp.dim
    vec = np.zeros(n**disp.dim, dtype=complex)
    for site, value in disp.support.items():
        if all(0 <= k < n for k in site):
            vec[np.ravel_multi_index(site, shape)] = value
    return vec
