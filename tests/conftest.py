import itertools
import math
import sys

import numpy as np
import pytest

from gaussht import (
    DiscriminationProblem,
    GaussianStateSpec,
    make_displacement,
    make_trig_symbol,
)
from gaussht._search import bisect_decreasing


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
