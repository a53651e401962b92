"""Deterministic scalar searches, and the two exponent searches built on them.

A coarse grid of ``COARSE`` points picks the bracketing interval and golden
section refines it to ``TOL`` in the argument; bisection finds roots.  The
Chernoff and Hoeffding searches over a convex curve psi on [0, 1] serve the
finite-volume and the asymptotic layer alike.
"""

from __future__ import annotations

import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
COARSE = 33
TOL = 1e-10


def minimize_convex(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Global minimum of a convex function on [lo, hi]: (value, argmin)."""
    grid = [lo + (hi - lo) * i / (COARSE - 1) for i in range(COARSE)]
    vals = [f(x) for x in grid]
    i = min(range(COARSE), key=lambda k: vals[k])
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, COARSE - 1)]
    if a == b:
        return vals[i], grid[i]

    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    fm = f(xm)
    # keep the best point actually evaluated (endpoints included)
    best = min((fm, xm), (f1, x1), (f2, x2), (vals[i], grid[i]))
    return best


def maximize_concave(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Global maximum of a concave (or unimodal) function on [lo, hi]."""
    value, arg = minimize_convex(lambda x: -f(x), lo, hi)
    return -value, arg


def bisect_decreasing(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = TOL,
) -> float:
    """Root of a monotonically decreasing function on [lo, hi]."""
    glo, ghi = g(lo), g(hi)
    if glo < 0:
        return lo
    if ghi > 0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chernoff(psi: Callable[[float], float]) -> tuple[float, float]:
    """(-min psi over [0, 1], minimizing t); psi is convex."""
    value, t_star = minimize_convex(psi, 0.0, 1.0)
    return -value, t_star


def hoeffding(psi: Callable[[float], float], r: float) -> float:
    """sup over t in [0, 1) of (-t r - psi(t)) / (1 - t), for a rate r > 0.

    The objective has a pole at t = 1; the search stops at 1 - 1e-6.
    """
    value, _ = maximize_concave(lambda t: (-t * r - psi(t)) / (1.0 - t), 0.0, 1.0 - 1e-6)
    return value


def nonnegative(value: float) -> float:
    """The exponents are >= 0; this drops negative rounding, and -0.0, from reports."""
    return value if value > 0.0 else 0.0
