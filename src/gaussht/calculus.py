"""Hermitian eigendecomposition and scalar functions of eigenvalues.

Everything routes through a full eigendecomposition: one ``eigh`` per matrix,
then any number of scalar functions of its eigenvalues.  Powers of positive
semidefinite matrices follow the support convention 0**t = 0 for every real
t, so t = 0 yields the support projection.  The dense matrix functions built
on these (``apply_fn``, sandwiched powers, spectral traces, positive-part
projectors) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
