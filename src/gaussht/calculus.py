"""Hermitian eigendecomposition and scalar functional calculus.

Everything routes through a full eigendecomposition: one ``eigh`` per matrix,
then any number of scalar functions of it.  Powers of positive semidefinite
matrices follow the support convention 0**t = 0 for every real t, so t = 0
yields the support projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure, DomainError

PSD_CLIP = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with the unitary matrix of eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray


def require_hermitian(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    m = np.asarray(m)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > tol * scale:
        raise DomainError(f"matrix is not Hermitian (defect {defect:.3e})")
    return m


def eigh(m: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, values sorted ascending."""
    m = require_hermitian(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenSystem(values=values, vectors=vectors)


def _apply_values(es: EigenSystem, fvals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(fvals)):
        raise DomainError("function is not finite at an eigenvalue")
    m = (es.vectors * fvals) @ es.vectors.conj().T
    return 0.5 * (m + m.conj().T)


def apply_fn(es: EigenSystem, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """V diag(f(values)) V^*, re-Hermitized by averaging with its adjoint."""
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(es.values), dtype=float)
    return _apply_values(es, fvals)


def trace_fn(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sum of f over the eigenvalues of a Hermitian matrix."""
    values = eigh(m).values
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(values), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise DomainError("function is not finite at an eigenvalue")
    return float(np.sum(fvals))


def psd_values(values: np.ndarray, clip: float = PSD_CLIP) -> np.ndarray:
    """Clamp rounding noise in (-clip, 0) to 0; reject genuinely negative values."""
    values = np.asarray(values, dtype=float)
    low = float(values.min(initial=0.0))
    if low < -clip:
        raise DomainError(f"matrix has a negative eigenvalue {low:.3e}")
    return np.maximum(values, 0.0)


def support_power(values: np.ndarray, t: float) -> np.ndarray:
    """values**t with the convention 0**t = 0 for every real t."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    pos = values > 0
    out[pos] = values[pos] ** t
    return out


def sandwich_power(r1: np.ndarray, r2: np.ndarray, t: float) -> np.ndarray:
    """R1^(t/2) R2^(1-t) R1^(t/2), powers taken on the support only.

    For t outside [0, 1] both factors must be positive definite.
    """
    es1, es2 = eigh(r1), eigh(r2)
    v1 = psd_values(es1.values)
    v2 = psd_values(es2.values)
    if not 0.0 <= t <= 1.0:
        if v1.min(initial=1.0) <= 0 or v2.min(initial=1.0) <= 0:
            raise DomainError(f"singular factor with t = {t} outside [0, 1]")
    a = _apply_values(es1, support_power(v1, t / 2.0))
    b = _apply_values(es2, support_power(v2, 1.0 - t))
    w = a @ b @ a
    return 0.5 * (w + w.conj().T)


def positive_part_projector(m: np.ndarray, zero_tol: float = 0.0) -> np.ndarray:
    """Orthogonal projector onto eigenvectors with eigenvalue > zero_tol."""
    es = eigh(m)
    keep = es.vectors[:, es.values > zero_tol]
    p = keep @ keep.conj().T
    return 0.5 * (p + p.conj().T)
