"""Per-site asymptotic quantities by quadrature over the torus.

The per-site limit of the quasi-power trace log is

    psi(t) = -mean log[ (1+q1)^t (1+q2)^(1-t) - q1^t q2^(1-t) ],

the mean taken with the normalized tensor trapezoid rule, which is exact
for trigonometric polynomials.  psi(0) is exactly 0 when q1 > 0 at every
node, and psi(1) likewise when q2 > 0; psi is exactly 0 at every t when the
two symbols have the same nonzero coefficients.  Boundary derivatives come
from closed-form integrals of the scalar Bernoulli relative entropy, never
from one-sided differences (those, and a node-by-node quadrature, are test
oracles in ``tests/oracles.py``).  The per-site Szego limit of
Tr log(I + Q_n) / n^dim is the mean of log(1 + q) on the same rule; the
``verify`` command compares it with the finite layer's log N_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _search
from .calculus import support_power
from .errors import (
    DomainError,
    NegativeParameter,
    NonFiniteIntegrand,
    ParameterOutOfRange,
    StrictPositivityRequired,
)
from .symbols import (
    DEFAULT_POINTS,  # re-exported: make_rule's default points per axis
    DiscriminationProblem,
    default_points,
    same_symbol,
    symbol_values,
    strict_positivity_required,
    uniform_grid,
)


@dataclass(frozen=True)
class QuadratureRule:
    """Uniform tensor grid on [0, 2pi)^dim with equal weights summing to 1."""

    dim: int
    points_per_axis: int
    nodes: np.ndarray
    weight: float


def make_rule(dim: int, points_per_axis: int | None = None) -> QuadratureRule:
    if points_per_axis is None:
        points_per_axis = default_points(dim)
    nodes = uniform_grid(dim, points_per_axis)
    return QuadratureRule(
        dim=dim,
        points_per_axis=points_per_axis,
        nodes=nodes,
        weight=1.0 / len(nodes),
    )


def bernoulli_relative_entropy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative entropy of the Bernoulli pairs (a, 1-a) and (b, 1-b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a * (np.log(a) - np.log(b)) + (1.0 - a) * (np.log1p(-a) - np.log1p(-b))


class AsymptoticProblem:
    """Symbol values cached on the quadrature grid for one problem."""

    def __init__(self, problem: DiscriminationProblem, rule: QuadratureRule | None = None):
        if rule is None:
            rule = make_rule(problem.dim)
        self.problem = problem
        self.rule = rule
        q1 = symbol_values(problem.state1.symbol, rule.nodes)
        q2 = symbol_values(problem.state2.symbol, rule.nodes)
        if min(q1.min(), q2.min()) < -1e-9:
            raise NonFiniteIntegrand("symbol is negative at a quadrature node")
        self.q1 = np.maximum(q1, 0.0)
        self.q2 = np.maximum(q2, 0.0)
        self.r1 = self.q1 / (1.0 + self.q1)
        self.r2 = self.q2 / (1.0 + self.q2)
        self._log1p_q1 = np.log1p(self.q1)
        self._log1p_q2 = np.log1p(self.q2)
        self._identical = same_symbol(problem.state1.symbol, problem.state2.symbol)

    def _mean(self, vals: np.ndarray) -> float:
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrand("integrand is not finite at a quadrature node")
        return float(np.sum(vals) * self.rule.weight)

    def _require_strict(self):
        if not strict_positivity_required(self.problem):
            raise StrictPositivityRequired(
                "operation needs both symbols bounded away from zero"
            )

    def _w(self, t: float) -> np.ndarray:
        # r1^t r2^(1-t) with the support convention 0^t = 0
        return support_power(self.r1, t) * support_power(self.r2, 1.0 - t)

    def psi(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"psi is defined for t in [0, 1], got {t}")
        if self._identical:
            return 0.0
        faithful = self.r1 if t == 0.0 else self.r2 if t == 1.0 else None
        if faithful is not None and np.all(faithful > 0.0):
            return 0.0
        w = self._w(t)
        if w.max(initial=0.0) >= 1.0:
            raise NonFiniteIntegrand("integrand diverges: r1^t r2^(1-t) reaches 1")
        vals = -(t * self._log1p_q1 + (1.0 - t) * self._log1p_q2 + np.log1p(-w))
        return self._mean(vals)

    def _log_ratio(self) -> np.ndarray:
        return np.log(self.r1) - np.log(self.r2)

    def psi_prime(self, t: float) -> float:
        """Closed-form derivative of psi on (0, 1); needs strict positivity."""
        self._require_strict()
        w = self._w(t)
        vals = -(self._log1p_q1 - self._log1p_q2) + w * self._log_ratio() / (1.0 - w)
        return self._mean(vals)

    def psi_second(self, t: float) -> float:
        """Second derivative of psi on (0, 1); needs strict positivity.

        The integrand carries the factor w_t = r1^t r2^(1-t); the
        finite-difference oracle in the tests is the arbiter for that factor,
        against the unweighted candidate in ``tests/oracles.py``.
        """
        self._require_strict()
        if not 0.0 < t < 1.0:
            raise DomainError(f"psi'' is defined on (0, 1), got {t}")
        w = self._w(t)
        L = self._log_ratio()
        return self._mean(w * L**2 / (1.0 - w) ** 2)

    def dpsi_boundary(self, side: str) -> float:
        self._require_strict()
        if side == "left_at_1":
            vals = (1.0 + self.q1) * bernoulli_relative_entropy(self.r1, self.r2)
            return self._mean(vals)
        if side == "right_at_0":
            vals = (1.0 + self.q2) * bernoulli_relative_entropy(self.r2, self.r1)
            return -self._mean(vals)
        raise DomainError(f"side must be 'left_at_1' or 'right_at_0', got {side!r}")

    def mean_chernoff(self) -> tuple[float, float]:
        value, t_star = _search.chernoff(self.psi)
        return _search.nonnegative(value), t_star

    def mean_hoeffding(self, r: float) -> float:
        if r < 0:
            raise NegativeParameter(f"rate parameter must be >= 0, got {r}")
        if r == 0:
            return self.dpsi_boundary("left_at_1")
        return _search.hoeffding(self.psi, r)

    def polar(self, a: float) -> float:
        """sup over t in [0, 1] of t a - psi(t); concave objective."""
        value, _ = _search.maximize_concave(lambda t: t * a - self.psi(t), 0.0, 1.0)
        return value

    def _legendre_gap(self, t: float) -> float:
        """g(t) = (t - 1) psi'(t) - psi(t), summed node by node.

        With s = 1 - t, L = log(r1 / r2) and w = r1 exp(-s L), the node term
        log(1 + q1) + log(1 - w) - s w L / (1 - w) is written with
        (1 + q1)(1 - w) = 1 - q1 expm1(-s L).  Both parts are O(s) and g is
        O(s^2) near t = 1.  Formed as psi' and psi, g carries float noise of
        about 1e-16, which moves a_r by up to sqrt(2e-16 psi'') at small r
        (2.5e-9 at r = 0 for the constant pair q1 = 1, q2 = 2).
        """
        s = 1.0 - t
        w = self._w(t)
        L = self._log_ratio()
        return self._mean(np.log1p(-self.q1 * np.expm1(-s * L)) - s * w * L / (1.0 - w))

    def hoeffding_threshold(self, r: float) -> float:
        """The unique a with polar(a) - a = r, for 0 <= r < d21.

        By Legendre duality a_r = psi'(t_r), where t_r is the one root in
        [0, 1] of g(t) = (t - 1) psi'(t) - psi(t) = r: g decreases, since
        g'(t) = (t - 1) psi''(t) <= 0, from g(0) = d21 to g(1) = 0.  The
        root is bisected in t to a tolerance that keeps the error of a_r
        below 1e-11 absolute while max psi'' <= 2e4.  The same root gives
        polar(a_r) = t_r a_r - psi(t_r) in closed form, and that value is
        cross-checked against the one independent search: it must equal
        mean_hoeffding(r) to 1e-7.
        """
        self._require_strict()
        d21 = -self.dpsi_boundary("right_at_0")
        if not 0.0 <= r < d21:
            raise ParameterOutOfRange(f"r must lie in [0, {d21:.12g}), got {r}")
        # Budget on a_r: |error| <= max psi'' * tol_t / 2 <= 1e-11, since
        # w_t <= m = max(r1, r2) nodewise and w / (1 - w)^2 increases, so
        # psi''(t) <= mean(m L^2 / (1 - m)^2) on [0, 1].  The 1e-15 floor
        # keeps the bracket above the float spacing near t = 1; it binds
        # only for curvature bounds above 2e4, where the budget becomes
        # 5e-16 times the bound.
        m = np.maximum(self.r1, self.r2)
        curvature = self._mean(m * self._log_ratio() ** 2 / (1.0 - m) ** 2)
        tol_t = max(2e-11 / curvature, 1e-15)
        t_r = _search.bisect_decreasing(lambda t: self._legendre_gap(t) - r, 0.0, 1.0, tol=tol_t)
        a_r = self.psi_prime(t_r)
        # polar(a_r) = t_r a_r - psi(t_r) by duality, since psi'(t_r) = a_r
        gap = abs(t_r * a_r - self.psi(t_r) - self.mean_hoeffding(r))
        if gap > 1e-7:
            raise DomainError(
                f"polar({a_r:.12g}) disagrees with the Hoeffding value by {gap:.3e}"
            )
        return a_r

