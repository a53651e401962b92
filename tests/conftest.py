import itertools
import math
import sys

import numpy as np
import pytest

from gaussht import (
    DiscriminationProblem,
    EigenSystem,
    GaussianStateSpec,
    eigh,
    make_displacement,
    make_trig_symbol,
    restrict_displacement,
    restrict_symbol,
)
from gaussht._search import bisect_decreasing
from gaussht.calculus import psd_values, support_power
from gaussht.errors import DomainError
from gaussht.fock import _power_or_support
from oracles import apply_fn, sandwich_power


def make_problem(coeffs1, coeffs2, kappa=0.5, dim=1, y1=None, y2=None):
    """Build a discrimination problem from coefficient dicts (or constants)."""
    if not isinstance(coeffs1, dict):
        coeffs1 = {(0,) * dim: coeffs1}
    if not isinstance(coeffs2, dict):
        coeffs2 = {(0,) * dim: coeffs2}
    return DiscriminationProblem(
        state1=GaussianStateSpec(
            symbol=make_trig_symbol(dim, coeffs1),
            displacement=make_displacement(dim, y1),
            kappa=kappa,
        ),
        state2=GaussianStateSpec(
            symbol=make_trig_symbol(dim, coeffs2),
            displacement=make_displacement(dim, y2),
            kappa=kappa,
        ),
    )


def classical_min_error(q1, q2, copies):
    """Independent oracle for the optimal error e = alpha + beta of two
    thermal states with constant symbols ``q1, q2 > 0`` on ``copies`` sites.

    The states commute and are products of geometric distributions, so the
    optimal error is the classical overlap of two negative-binomial laws,
    ``sum_k C(k + copies - 1, k) min(p1(k), p2(k))`` with
    ``pj(k) = (1 - xj)^copies xj^k`` and ``xj = qj / (1 + qj)``.  Terms are
    formed in log space (``math.lgamma``) so that large ``copies`` cannot
    overflow.  Past the mode each term is at most the negative-binomial term
    of the faster-decaying law, whose tail is bounded by a geometric series;
    the sum stops once that tail is below float resolution of the sum.
    """
    def log_term(x, k):
        return (
            math.lgamma(k + copies) - math.lgamma(k + 1) - math.lgamma(copies)
            + copies * math.log1p(-x) + k * math.log(x)
        )

    x1, x2 = q1 / (1 + q1), q2 / (1 + q2)
    xs = min(x1, x2)
    acc = 0.0
    for k in itertools.count():
        acc += math.exp(min(log_term(x1, k), log_term(x2, k)))
        # ratio of the next two terms of the faster-decaying law; it only falls
        ratio = (k + 1 + copies) / (k + 2) * xs
        if ratio < 1 and math.exp(log_term(xs, k + 1)) / (1 - ratio) <= sys.float_info.epsilon * acc:
            return acc


def nested_hoeffding_threshold(ap, r):
    """Independent oracle for ``AsymptoticProblem.hoeffding_threshold``: the
    a with polar(a) - a = r, by bisection over a, each step running a full
    golden-section ``polar`` search.  The bracket [-d21, d12] is padded by
    1e-12 on each side."""
    lo = ap.dpsi_boundary("right_at_0") - 1e-12
    hi = ap.dpsi_boundary("left_at_1") + 1e-12
    return bisect_decreasing(lambda a: (ap.polar(a) - a) - r, lo, hi)


class DenseFiniteOracle:
    """Independent oracle for ``FiniteProblem``: the dense site-basis
    algorithm that the real-frame engine replaced.  Each state keeps its
    complex ``Q``, ``R`` and eigensystem; each t forms ``W_t`` by
    ``sandwich_power`` and takes its ``eigvalsh``, the displacement factor
    takes an ``eigh`` of the bracket ``f_t(R1) + f_(1-t)(R2)``, and the
    relative entropy is a trace of ``apply_fn`` matrix logarithms."""

    def __init__(self, problem, n):
        self.problem = problem
        self.kappa = problem.kappa
        self.es, self.Q, self.R, self.logN, self.y = [], [], [], [], []
        for state in (problem.state1, problem.state2):
            q = restrict_symbol(state.symbol, n)
            es = eigh(q)
            es = EigenSystem(values=psd_values(es.values, clip=1e-9), vectors=es.vectors)
            self.es.append(es)
            self.Q.append(q)
            self.R.append(apply_fn(es, lambda s: s / (1.0 + s)))
            self.logN.append(-float(np.sum(np.log1p(es.values))))
            self.y.append(restrict_displacement(state.displacement, n))
        self.ybar = self.y[1] - self.y[0]

    def _f_matrix(self, es, t):
        r = es.values / (1.0 + es.values)
        u = support_power(r, t)
        return (es.vectors * ((1.0 + u) / (1.0 - u))) @ es.vectors.conj().T

    def displacement_factor(self, t):
        if not np.any(self.ybar != 0):
            return 1.0
        eye = np.eye(len(self.ybar))
        if t == 0.0:
            if not self.problem.state1.symbol.is_vacuum:
                return 1.0
            bracket = 2.0 * self.Q[1] + 2.0 * eye
        elif t == 1.0:
            if not self.problem.state2.symbol.is_vacuum:
                return 1.0
            bracket = 2.0 * self.Q[0] + 2.0 * eye
        else:
            bracket = self._f_matrix(self.es[0], t) + self._f_matrix(self.es[1], 1.0 - t)
        es = eigh(bracket)
        if es.values.min(initial=np.inf) <= 0:
            raise DomainError("bracket matrix is singular")
        z = es.vectors.conj().T @ self.ybar
        quad = float(np.real(np.sum(np.abs(z) ** 2 / es.values)))
        return float(np.exp(-2.0 * self.kappa * quad))

    def psi(self, t):
        w = np.linalg.eigvalsh(sandwich_power(self.R[0], self.R[1], t))
        if w.max(initial=0.0) >= 1.0:
            raise DomainError(f"sandwiched product has eigenvalue {w.max():.12g} >= 1 at t = {t}")
        base = t * self.logN[0] + (1.0 - t) * self.logN[1]
        return float(np.log(self.displacement_factor(t))) + base - float(np.sum(np.log1p(-w)))

    def relative_entropy(self, direction):
        a, b = (0, 1) if direction == "12" else (1, 0)
        log_ra = apply_fn(self.es[a], lambda s: np.log(s) - np.log1p(s))
        log_rb = apply_fn(self.es[b], lambda s: np.log(s) - np.log1p(s))
        log_ia = apply_fn(self.es[a], lambda s: -np.log1p(s))  # log(I - R_a)
        log_ib = apply_fn(self.es[b], lambda s: -np.log1p(s))
        eye = np.eye(len(self.R[a]))
        s2 = self.R[a] @ (log_ra - log_rb) + (eye - self.R[a]) @ (log_ia - log_ib)
        value = float(np.real(np.trace((self.Q[a] + eye) @ s2)))
        if np.any(self.ybar != 0):
            value -= self.kappa * float(np.real(self.ybar.conj() @ (log_rb @ self.ybar)))
        return value


class DenseFockOracle:
    """Independent oracle for ``quasi_power_trace`` and ``nussbaum_szkola``:
    the algorithm that the cached block eigensystems replaced.  Both whole
    ``.matrix`` are diagonalised densely, whatever their block structure, and
    every sum runs over all eigenpairs of the whole basis, so the t = 0
    support cutoff sees the largest eigenvalue of the whole state."""

    def __init__(self, s1, s2):
        (v1, u1), (v2, u2) = (np.linalg.eigh(s.matrix) for s in (s1, s2))
        self.v1 = psd_values(v1, clip=1e-10)
        self.v2 = psd_values(v2, clip=1e-10)
        self.overlap = np.abs(u1.conj().T @ u2) ** 2

    def quasi_power_trace(self, t):
        return float(_power_or_support(self.v1, t) @ self.overlap @ _power_or_support(self.v2, 1.0 - t))

    def tables(self):
        return self.v1[:, None] * self.overlap, self.overlap * self.v2[None, :]


def hellinger_sum(p1, p2, t):
    """sum p1^t p2^(1-t) over the entries where both tables are positive."""
    both = (p1 > 0) & (p2 > 0)
    return float(np.sum(p1[both] ** t * p2[both] ** (1.0 - t)))


def random_hermitian(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.conj().T)


def random_psd_contraction(rng, n, top=0.9):
    """Random PSD matrix with norm at most ``top`` (< 1)."""
    m = random_hermitian(rng, n)
    vals, vecs = np.linalg.eigh(m)
    vals = top * (vals - vals.min()) / (vals.max() - vals.min() + 1e-12)
    return (vecs * vals) @ vecs.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
