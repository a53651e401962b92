"""Closed-form finite-volume quantities on the cube C_n.

For each hypothesis the one-particle data is the restricted symbol matrix
Q, the contraction R = Q (Q + I)^-1, and the normalization
log N = -Tr log(I + Q).  The quasi-power trace of the two restricted states
is, for t in [0, 1],

    psi_n(t) = log c_t + t log N_1 + (1 - t) log N_2 - Tr log(I - W_t),

with W_t = R_1^(t/2) R_2^(1-t) R_1^(t/2) and c_t the displacement factor.

Real frame.  Let J reverse the lexicographic site index (it flips every axis
of the cube) and U = (I + iJ)/sqrt(2).  Every restricted symbol matrix is
Hermitian multilevel Toeplitz, so J Q J = conj(Q), and

    U* Q U = (Q + JQJ)/2 + i (QJ - JQ)/2

is real symmetric; it is formed in O(N^2) by index reversal.  The same U
serves both states, so each state is diagonalised once, in real arithmetic:
U* Q U = V diag(q) V^T, and r = q / (1 + q) are the eigenvalues of R.  Only
the displacement stays complex, as U* ybar.

Per problem, C = V_2^T V_1 and z = V_1^T U* ybar are formed once.  Per t,

    K = diag(r_2^((1-t)/2)) C diag(r_1^(t/2))      (powers with 0^t = 0),

whose Gram matrix K^T K has the spectrum of W_t, so

    -Tr log(I - W_t) = -2 sum log diag chol(I - K^T K).

A failed Cholesky means W_t has an eigenvalue >= 1, and ``psi`` raises
DomainError.  The displacement factor is
c_t = exp(-2 kappa <B^-1 z, z>) with the bracket, in the eigenbasis of
state 1,

    B = diag(f_t(r_1)) + (sqrt(f_(1-t)(r_2)) C)^T (sqrt(f_(1-t)(r_2)) C),

f_s(r) = (1 + r^s) / (1 - r^s); one Cholesky of B is solved against the real
and imaginary parts of z, and a failed one raises DomainError.  At t = 0
and t = 1 the bracket of a vacuum state is 2 Q + 2 I of the other state,
diagonal in its eigenbasis.  psi(0) is exactly 0 when state 1 has full
support (its power 0 is then the identity and state 2 has unit trace), and
psi(1) likewise when state 2 has.  The relative entropies are spectral sums
over the overlaps P = (V_b^T V_a)^2.  Two identical states (the same nonzero
symbol coefficients and equal displacements on the cube) give psi = 0 and
relative entropies 0 exactly, where the formulas above would leave rounding
noise.  ``logN / n^dim`` is the finite side of the Szego limit that the
``verify`` command checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _search
from .calculus import eigh, psd_values, support_power
from .errors import DomainError, NegativeParameter, StrictPositivityRequired, ValidationError
from .lattice import DENSE_CAP, restrict_displacement, restrict_symbol
from .symbols import (
    DiscriminationProblem,
    GaussianStateSpec,
    same_symbol,
    strict_positivity_required,
)


def real_frame(m: np.ndarray) -> np.ndarray:
    """U* M U with U = (I + iJ)/sqrt(2), J the reversal of the site index.

    Real symmetric when J M J = conj(M), as for every restricted symbol
    matrix; the imaginary part, zero in that case, is not formed.
    """
    return m.real + 0.5 * (m[::-1].imag - m[:, ::-1].imag)


@dataclass(frozen=True)
class FiniteStateData:
    """One hypothesis restricted to C_n, held by its real-frame eigensystem.

    ``q`` are the eigenvalues of the restricted symbol matrix Q, with rounding
    noise in (-1e-9, 0) clipped to 0; ``clipped`` is the most negative value
    so clipped (0.0 when none was).  ``V`` holds the real orthonormal
    eigenvectors of U* Q U, ``logN = -Tr log(I + Q)``, and ``y`` is the
    displacement on the sites.
    """

    n: int
    q: np.ndarray
    V: np.ndarray
    logN: float
    y: np.ndarray
    clipped: float


def build_state_data(
    state: GaussianStateSpec, n: int, dense_cap: int = DENSE_CAP
) -> FiniteStateData:
    """Restrict a Gaussian state spec to the cube of side n."""
    es = eigh(real_frame(restrict_symbol(state.symbol, n, dense_cap=dense_cap)))
    q = psd_values(es.values, clip=1e-9)
    return FiniteStateData(
        n=n,
        q=q,
        V=es.vectors,
        logN=-float(np.sum(np.log1p(q))),
        y=restrict_displacement(state.displacement, n),
        clipped=float(es.values.min(initial=0.0)),
    )


def _bracket_weights(r: np.ndarray, s: float) -> np.ndarray:
    # f_s on the symbol a = 1 + 2q, expressed through r = q/(1+q):
    # f_s(a) = (1 + r^s) / (1 - r^s), with 0^s = 0 on the kernel.
    u = support_power(r, s)
    return (1.0 + u) / (1.0 - u)


class FiniteProblem:
    """Cached finite-volume data for one (problem, n) pair.

    Builds both FiniteStateData once, then the overlap C = V2^T V1 and the
    displacement z = V1^T U* ybar; each t costs a Gram product and a
    Cholesky (two of each with a displacement).
    """

    def __init__(self, problem: DiscriminationProblem, n: int, dense_cap: int = DENSE_CAP):
        self.problem = problem
        self.n = n
        self.kappa = problem.kappa
        self.data1 = build_state_data(problem.state1, n, dense_cap)
        self.data2 = build_state_data(problem.state2, n, dense_cap)
        self.ybar = self.data2.y - self.data1.y
        self._r1 = self.data1.q / (1.0 + self.data1.q)
        self._r2 = self.data2.q / (1.0 + self.data2.q)
        self._c = self.data2.V.T @ self.data1.V
        self._z = self.data1.V.T @ ((self.ybar - 1j * self.ybar[::-1]) / np.sqrt(2.0))
        same = same_symbol(problem.state1.symbol, problem.state2.symbol)
        self._identical = same and not self.has_displacement

    @property
    def has_displacement(self) -> bool:
        return bool(np.any(self.ybar != 0))

    def displacement_factor(self, t: float) -> float:
        """The factor c_t in (0, 1]; equals 1 exactly when the displacements agree."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"displacement factor is defined for t in [0, 1], got {t}")
        if not self.has_displacement:
            return 1.0
        if t == 0.0:
            if not self.problem.state1.symbol.is_vacuum:
                return 1.0
            # bracket 2 Q2 + 2 I, diagonal in the eigenbasis of state 2
            quad = np.sum(np.abs(self._c @ self._z) ** 2 / (2.0 * self.data2.q + 2.0))
        elif t == 1.0:
            if not self.problem.state2.symbol.is_vacuum:
                return 1.0
            quad = np.sum(np.abs(self._z) ** 2 / (2.0 * self.data1.q + 2.0))
        else:
            # Cholesky of [[B, Z], [Z^T, Z^T Z + I]], Z = [Re z, Im z]: its last
            # two rows hold (L_B^-1 Z)^T, and it is positive definite since B >= I
            size = len(self._c)
            s = np.sqrt(_bracket_weights(self._r2, 1.0 - t))[:, None] * self._c
            z = np.stack([self._z.real, self._z.imag], axis=1)
            bordered = np.empty((size + 2, size + 2))
            bordered[:size, :size] = s.T @ s
            diag = np.arange(size)
            bordered[diag, diag] += _bracket_weights(self._r1, t)
            bordered[:size, size:] = z
            bordered[size:, :size] = z.T
            bordered[size:, size:] = z.T @ z + np.eye(2)
            try:
                low = np.linalg.cholesky(bordered)
            except np.linalg.LinAlgError:
                raise DomainError("bracket matrix is singular") from None
            quad = np.sum(low[size:, :size] ** 2)
        return float(np.exp(-2.0 * self.kappa * quad))

    def _log_trace_term(self, t: float) -> float:
        """-Tr log(I - W_t) = -log det(I - K^T K); W_t must stay below I."""
        k = (
            support_power(self._r2, (1.0 - t) / 2.0)[:, None]
            * self._c
            * support_power(self._r1, t / 2.0)
        )
        g = -(k.T @ k)
        g.flat[:: len(g) + 1] += 1.0
        try:
            low = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise DomainError(f"sandwiched product has an eigenvalue >= 1 at t = {t}") from None
        return -2.0 * float(np.sum(np.log(np.diagonal(low))))

    def psi(self, t: float) -> float:
        """log of the quasi-power trace of the two restricted states, t in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"psi_n is defined for t in [0, 1], got {t}")
        if self._identical:
            return 0.0
        faithful = self._r1 if t == 0.0 else self._r2 if t == 1.0 else None
        if faithful is not None and np.all(faithful > 0.0):
            return 0.0
        log_c = float(np.log(self.displacement_factor(t)))
        base = t * self.data1.logN + (1.0 - t) * self.data2.logN
        return log_c + base + self._log_trace_term(t)

    def chernoff(self) -> tuple[float, float]:
        """(-min psi over [0,1], minimizing t); psi is convex in t."""
        return _search.chernoff(self.psi)

    def hoeffding(self, r: float) -> float:
        """sup over t in [0,1) of (-t r - psi(t)) / (1 - t); r = 0 uses the derivative identity."""
        if r < 0:
            raise NegativeParameter(f"rate parameter must be >= 0, got {r}")
        if r == 0:
            return self.relative_entropy("12")
        return _search.hoeffding(self.psi, r)

    def relative_entropy(self, direction: str = "12") -> float:
        """Relative entropy of the restricted states; needs strictly positive symbols.

        D(a||b) = Tr Q_a (log R_a - log R_b) + log N_a - log N_b
        - kappa <ybar, log R_b ybar>, summed over the eigenpairs with the
        overlaps P[j, i] = <vb_j, va_i>^2.
        """
        if not strict_positivity_required(self.problem):
            raise StrictPositivityRequired(
                "relative entropy needs both symbols bounded away from zero"
            )
        overlap = self._c**2
        if direction == "12":
            da, db, zb = self.data1, self.data2, self._c @ self._z
        elif direction == "21":
            da, db, zb, overlap = self.data2, self.data1, self._z, overlap.T
        else:
            raise ValidationError("direction", "must be '12' or '21'")
        if self._identical:
            return 0.0
        with np.errstate(divide="ignore"):
            log_ra = np.log(da.q) - np.log1p(da.q)
            log_rb = np.log(db.q) - np.log1p(db.q)
        if not (np.all(np.isfinite(log_ra)) and np.all(np.isfinite(log_rb))):
            raise DomainError("function is not finite at an eigenvalue")
        value = float(da.q @ log_ra - log_rb @ overlap @ da.q) + da.logN - db.logN
        if self.has_displacement:
            value -= self.kappa * float(log_rb @ np.abs(zb) ** 2)
        return value
