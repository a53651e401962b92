"""Independent references for the benchmark's checks.

Nothing here calls gaussht.  Each reference reads the problem's CLI JSON
document itself and computes with scipy or mpmath:

- ``FiniteReference``: psi_n(t) from the benchmark's own multilevel Toeplitz
  matrices with ``fractional_matrix_power``, ``slogdet`` and a linear solve for
  the displacement factor; relative entropies with ``logm``.
- ``TorusReference``: torus means on a grid of the benchmark's own, the
  derivative of psi by complex step, the Chernoff point and the Hoeffding
  threshold by ``brentq``.
- ``negative_binomial_error``: the exact optimal error of two constant-symbol
  thermal states, as a negative-binomial sum in mpmath.

Run as a script, this module serves those references to a workload process
over its standard input and output, one JSON request and one JSON reply a
line, so that scipy, mpmath and the reference matrices stay out of the
process whose time and memory are measured.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import fractional_matrix_power, logm
from scipy.optimize import brentq

from generate import hermitian_completion

EPS = np.finfo(float).eps
COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class Pair:
    """A problem document read without the program's parser."""

    dim: int
    kappa: float
    coeffs1: dict
    coeffs2: dict
    y1: dict
    y2: dict


def _coeffs(records) -> dict:
    return hermitian_completion(
        {tuple(r["index"]): complex(r.get("re", 0.0), r.get("im", 0.0)) for r in records}
    )


def _sites(records) -> dict:
    return {tuple(r["site"]): complex(r.get("re", 0.0), r.get("im", 0.0)) for r in records or []}


def read_pair(text: str) -> Pair:
    doc = json.loads(text)
    return Pair(
        dim=doc["dim"],
        kappa=float(doc["kappa"]),
        coeffs1=_coeffs(doc["q1"]),
        coeffs2=_coeffs(doc["q2"]),
        y1=_sites(doc.get("y1")),
        y2=_sites(doc.get("y2")),
    )


def toeplitz(coeffs: dict, dim: int, n: int) -> np.ndarray:
    """Q[k, k'] = c(k - k') over the cube of side n, sites in lexicographic order."""
    sites = np.array(list(np.ndindex(*(n,) * dim)))
    diff = sites[:, None, :] - sites[None, :, :]
    out = np.zeros((len(sites), len(sites)), dtype=complex)
    for j, c in coeffs.items():
        out[np.all(diff == np.array(j), axis=-1)] += c
    return out


def site_vector(support: dict, dim: int, n: int) -> np.ndarray:
    vec = np.zeros(n**dim, dtype=complex)
    for site, value in support.items():
        if all(0 <= k < n for k in site):
            vec[np.ravel_multi_index(site, (n,) * dim)] = value
    return vec


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _logdet(m: np.ndarray) -> float:
    sign, value = np.linalg.slogdet(m)
    if abs(sign - 1.0) > 1e-9:
        raise ArithmeticError(f"determinant has sign {sign}, expected a positive matrix")
    return float(value)


class FiniteReference:
    """psi_n and relative entropies of one pair restricted to the cube of side n."""

    def __init__(self, pair: Pair, n: int):
        self.kappa = pair.kappa
        self.size = n**pair.dim
        eye = np.eye(self.size)
        self.Q = [toeplitz(c, pair.dim, n) for c in (pair.coeffs1, pair.coeffs2)]
        self.R = [_hermitian(np.linalg.solve(eye + q, q)) for q in self.Q]
        self.logN = [-_logdet(eye + q) for q in self.Q]
        self.ybar = site_vector(pair.y2, pair.dim, n) - site_vector(pair.y1, pair.dim, n)
        self._eye = eye

    def _f(self, r: np.ndarray, s: float) -> np.ndarray:
        p = fractional_matrix_power(r, s)
        return np.linalg.solve(self._eye - p, self._eye + p)

    def psi_terms(self, t: float) -> tuple:
        """The four summands of psi_n(t), t in (0, 1): log c_t, the two
        normalisation terms and -log det(I - W_t)."""
        r1, r2 = self.R
        a = fractional_matrix_power(r1, t / 2.0)
        w = _hermitian(a @ fractional_matrix_power(r2, 1.0 - t) @ a)
        log_c = 0.0
        if np.any(self.ybar != 0):
            bracket = _hermitian(self._f(r1, t) + self._f(r2, 1.0 - t))
            quad = float(np.real(self.ybar.conj() @ np.linalg.solve(bracket, self.ybar)))
            log_c = -2.0 * self.kappa * quad
        return (log_c, t * self.logN[0], (1.0 - t) * self.logN[1], -_logdet(self._eye - w))

    def relative_entropy_terms(self) -> dict:
        """The summands of D(rho_a || rho_b) for directions "12" and "21"."""
        log_r = [logm(r) for r in self.R]
        terms = {}
        for direction, a, b in (("12", 0, 1), ("21", 1, 0)):
            trace = float(np.real(np.trace(self.Q[a] @ (log_r[a] - log_r[b]))))
            disp = -self.kappa * float(np.real(self.ybar.conj() @ (log_r[b] @ self.ybar)))
            terms[direction] = (self.logN[a], -self.logN[b], trace, disp)
        return terms

    def budget(self, terms: tuple) -> float:
        """Rounding budget of a sum of N-site log-determinant and trace terms:
        16 N eps times the summed magnitude of the terms.  A strictly positive
        symbol keeps every matrix involved well conditioned."""
        return 16 * self.size * EPS * max(1.0, sum(abs(x) for x in terms))


def torus_nodes(dim: int, points: int) -> np.ndarray:
    axis = 2.0 * np.pi * np.arange(points) / points
    return np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)


def torus_values(coeffs: dict, nodes: np.ndarray) -> np.ndarray:
    vals = np.zeros(len(nodes), dtype=complex)
    for j, c in coeffs.items():
        vals += c * np.exp(1j * (nodes @ np.array(j, dtype=float)))
    return vals.real


class TorusReference:
    """Per-site psi of an undisplaced pair as a mean over a uniform torus grid."""

    def __init__(self, pair: Pair, points: int):
        nodes = torus_nodes(pair.dim, points)
        q1 = torus_values(pair.coeffs1, nodes)
        q2 = torus_values(pair.coeffs2, nodes)
        if min(q1.min(), q2.min()) <= 0:
            raise ArithmeticError("the torus reference needs strictly positive symbols")
        self.l1, self.l2 = np.log1p(q1), np.log1p(q2)
        self.lr1, self.lr2 = np.log(q1) - self.l1, np.log(q2) - self.l2

    def psi(self, t):
        """Accepts complex t, so that psi'(t) = Im psi(t + ih) / h."""
        w = np.exp(t * self.lr1 + (1.0 - t) * self.lr2)
        return -np.mean(t * self.l1 + (1.0 - t) * self.l2 + np.log1p(-w))

    def dpsi(self, t: float) -> float:
        return float(np.imag(self.psi(t + 1j * COMPLEX_STEP)) / COMPLEX_STEP)

    def chernoff(self) -> tuple:
        t_star = brentq(self.dpsi, 0.0, 1.0, xtol=1e-15, rtol=4 * EPS)
        return -float(np.real(self.psi(t_star))), t_star

    def d12(self) -> float:
        return self.dpsi(1.0)

    def d21(self) -> float:
        return -self.dpsi(0.0)

    def threshold(self, r: float) -> tuple:
        """(a_r, Hoeffding value): the root t_r of (t-1) psi'(t) - psi(t) = r,
        a_r = psi'(t_r) and the value t_r a_r - psi(t_r) = phi(a_r)."""

        def g(t):
            return (t - 1.0) * self.dpsi(t) - float(np.real(self.psi(t))) - r

        t_r = brentq(g, 0.0, 1.0, xtol=1e-15, rtol=4 * EPS)
        a_r = self.dpsi(t_r)
        return a_r, t_r * a_r - float(np.real(self.psi(t_r)))


def negative_binomial_error(q1: float, q2: float, modes: int, digits: int = 40) -> float:
    """Exact min over tests of alpha + beta for two thermal states with constant
    symbols q1 != q2 on ``modes`` modes.

    Both states are diagonal in the occupation basis and depend on it only
    through the total photon number k, which is negative binomial:
    P(k) = C(k + d - 1, d - 1) (1 - r)^d r^k with r = q / (1 + q).  The optimal
    error is sum_k min(P1(k), P2(k)); the likelihood ratio is monotone in k, so
    the sum splits at one k0 into two finite sums and a complement.
    """
    with mpmath.workdps(digits):
        r1, r2 = (mpmath.mpf(q) / (1 + mpmath.mpf(q)) for q in (q1, q2))
        if r1 > r2:
            r1, r2 = r2, r1

        def p(r, k):
            return mpmath.binomial(k + modes - 1, modes - 1) * (1 - r) ** modes * r**k

        # P1(k) > P2(k) exactly for k < k0: the cooler state wins at low k
        k0 = int(mpmath.ceil(modes * mpmath.log((1 - r2) / (1 - r1)) / mpmath.log(r1 / r2)))
        low1 = mpmath.fsum(p(r1, k) for k in range(k0))
        low2 = mpmath.fsum(p(r2, k) for k in range(k0))
        return float(low2 + (1 - low1))


class Server:
    """Answers one request at a time; keeps the last finite reference, so the
    psi values asked for after an operation reuse its matrices."""

    def __init__(self):
        self._finite_key = None
        self._finite = None

    def _finite_reference(self, doc: str, side: int) -> FiniteReference:
        if self._finite_key != (doc, side):
            self._finite = FiniteReference(read_pair(doc), side)
            self._finite_key = (doc, side)
        return self._finite

    def relative_entropies(self, doc: str, side: int) -> dict:
        ref = self._finite_reference(doc, side)
        return {d: {"value": sum(terms), "budget": ref.budget(terms)}
                for d, terms in ref.relative_entropy_terms().items()}

    def psi(self, doc: str, side: int, ts: list) -> list:
        ref = self._finite_reference(doc, side)
        out = []
        for t in ts:
            terms = ref.psi_terms(t)
            out.append({"value": sum(terms), "budget": ref.budget(terms)})
        return out

    def torus_sheets(self, doc: str, fine_points: int, coarse_points: int, fractions: list) -> dict:
        """Chernoff value, d12, d21 and (a_r, Hoeffding value) at rates that are
        ``fractions`` of the fine grid's d21, on the fine and on the coarse grid."""
        pair = read_pair(doc)
        fine = TorusReference(pair, fine_points)
        rates = [f * fine.d21() for f in fractions]

        def sheet(ref):
            xi, _ = ref.chernoff()
            values = {"xi": xi, "d12": ref.d12(), "d21": ref.d21()}
            for k, r in enumerate(rates):
                values[f"a[{k}]"], values[f"h[{k}]"] = ref.threshold(r)
            return values

        return {"rates": rates, "fine": sheet(fine), "coarse": sheet(TorusReference(pair, coarse_points))}

    def negative_binomial_error(self, q1: float, q2: float, modes: int) -> float:
        return negative_binomial_error(q1, q2, modes)


def serve() -> int:
    server = Server()
    for line in sys.stdin:
        request = json.loads(line)
        call = request.pop("call")
        try:
            reply = {"value": getattr(server, call)(**request)}
        except Exception as exc:  # reported to the workload, which fails the run
            reply = {"error": f"{call}: {type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve())
