"""Test-only oracles: dense or brute-force versions of quantities that the
package computes by faster routes, and one rejected candidate formula."""

import math
from itertools import combinations_with_replacement, product

import numpy as np

from gaussht import build_basis, build_state_data, eigh
from gaussht.calculus import psd_values, support_power
from gaussht.errors import (
    DomainError,
    NonFiniteIntegrand,
    SpectralRadiusError,
    UnitarityDefect,
    ValidationError,
)
from gaussht.fock import (
    TruncatedFockState,
    _common_blocks,
    _require_same_basis,
    _whole,
    exponential_vector,
    fock_operator_blocks,
)
from gaussht.symbols import symbol_values


def eval_symbol(sym, x, kind="q"):
    """q, a = 1 + 2q or r = q / (1 + q) at a single point of [0, 2pi)^dim."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (sym.dim,):
        raise ValidationError("x", f"point must have {sym.dim} coordinates")
    q = float(symbol_values(sym, x[None, :])[0])
    return {"q": q, "a": 1.0 + 2.0 * q, "r": q / (1.0 + q)}[kind]


def occupation_sectors(modes, cutoff):
    """Every occupation vector with total <= cutoff, one sorted list per total."""
    return [
        sorted(
            tuple(combo.count(i) for i in range(modes))
            for combo in combinations_with_replacement(range(modes), total)
        )
        for total in range(cutoff + 1)
    ]


def creation_matrix(basis, mode):
    """Dense truncated creation operator of one mode, read off the raise map."""
    a = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    valid = basis.raise_idx[:, mode] >= 0
    a[basis.raise_idx[valid, mode], np.flatnonzero(valid)] = basis.raise_amp[valid, mode]
    return a


def fock_operator(x, basis):
    """Dense matrix of the Fock operator (block diagonal in total photon number)."""
    out = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for sl, block in zip(basis.block_slices, fock_operator_blocks(x, basis)):
        out[sl, sl] = block
    return out


def displacement_operator_dense(y, kappa, basis):
    """Truncated Weyl unitary exp(sqrt(kappa) sum_i (y_i a_i^+ - conj(y_i) a_i)).

    The inner product in the defining action on exponential vectors is
    conjugate linear in the first argument; a self-test against that action
    on the low-photon sectors runs here, and fails when the cutoff is too
    small for the displacement.  -i times the generator is one scatter of
    -i sqrt(kappa) y along the basis raise map plus its adjoint, which
    touches no entry of the scatter, so it is exactly Hermitian in floating
    point; W = V exp(i Lambda) V* is formed from its eigendecomposition, so W
    is unitary up to eigensolver rounding and is not checked for that.
    """
    y = np.asarray(y, dtype=complex).reshape(basis.modes)
    g, i = np.nonzero(basis.raise_idx >= 0)
    herm = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    herm[basis.raise_idx[g, i], g] = -1j * math.sqrt(kappa) * y[i] * basis.raise_amp[g, i]
    herm += herm.conj().T
    vals, vecs = np.linalg.eigh(herm)
    del herm
    w = (vecs * np.exp(1j * vals)) @ vecs.conj().T

    low = basis.block_slices[basis.cutoff // 2].stop
    for z in (np.zeros(basis.modes), np.full(basis.modes, 0.15 - 0.1j)):
        lhs = w @ exponential_vector(z, basis)
        phase = np.exp(
            -0.5 * kappa * float(np.vdot(y, y).real)
            - math.sqrt(kappa) * np.vdot(y, z)
        )
        rhs = phase * exponential_vector(z + math.sqrt(kappa) * y, basis)
        err = float(np.max(np.abs(lhs[:low] - rhs[:low])))
        if err > 1e-6:
            raise UnitarityDefect(
                f"displacement convention self-test failed (error {err:.3e})"
            )
    return w


def site_frame(m):
    """U M U*, the inverse of ``finite.real_frame`` on real symmetric matrices."""
    return 0.5 * (m + m[::-1, ::-1]) + 0.5j * (m[::-1] - m[:, ::-1])


def site_Q(data):
    """The restricted symbol matrix Q of a ``FiniteStateData``, in the site basis."""
    return site_frame((data.V * data.q) @ data.V.T)


def site_R(data):
    """The contraction R = Q (Q + I)^-1 of a ``FiniteStateData``, in the site basis."""
    return site_frame((data.V * (data.q / (1.0 + data.q))) @ data.V.T)


def site_lattice_state(state, n, cutoff, basis=None):
    """``fock.lattice_state`` built in the site basis: the Fock blocks of the
    complex R, displaced by the site displacement y through the dense
    generator (``displacement_operator_dense``), and given by its matrices
    alone, so that each block is diagonalised by an eigensolver."""
    data = build_state_data(state, n)
    if basis is None:
        basis = build_basis(n**state.symbol.dim, cutoff)
    blocks = [math.exp(data.logN) * b for b in fock_operator_blocks(site_R(data), basis)]
    rho = TruncatedFockState.from_blocks(basis, blocks, basis.block_slices, None)
    if np.any(data.y != 0):
        w = displacement_operator_dense(data.y, state.kappa, basis)
        rho = TruncatedFockState.from_matrix(basis, w @ rho.matrix @ w.conj().T)
    return rho


def nussbaum_szkola_dense(s1: TruncatedFockState, s2: TruncatedFockState):
    """Classical weight tables p1, p2 on eigenpair indices, as dense D x D
    arrays: the layout oracle for ``fock.nussbaum_szkola``'s flat tables.

    p1[i, j] = lambda1_i |<e1_i, e2_j>|^2 and p2[i, j] = lambda2_j
    |<e1_i, e2_j>|^2; their Hellinger-type sums reproduce the quantum
    quasi-power traces.  The eigenpairs are ordered blockwise (see the
    ``gaussht.fock`` docstring), so only sums over the tables are meaningful.
    """
    dim = s1.basis.dimension
    p1 = np.zeros((dim, dim))
    p2 = np.zeros((dim, dim))
    for sl, v1, v2, overlap in _common_blocks(s1, s2):
        p1[sl, sl] = v1[:, None] * overlap
        p2[sl, sl] = overlap * v2[None, :]
    return p1, p2


def neyman_pearson_projector(s1: TruncatedFockState, s2: TruncatedFockState, a, scale=1):
    """(alpha, beta, e) of the optimal test for e^(-scale a) alpha + beta, each
    read off the projector P onto the positive part of e^(-scale a) rho1 - rho2:
    alpha = 1 - Tr rho1 P, beta = Tr rho2 P and e = e^(-scale a) alpha + beta.
    The oracle for ``fock.neyman_pearson``, which takes e from the spectrum."""
    _require_same_basis(s1, s2)
    pairs = zip(s1.blocks, s2.blocks) if s1.slices == s2.slices else [(_whole(s1), _whole(s2))]
    factor = math.exp(-scale * a)
    tr1 = 0.0
    tr2 = 0.0
    for b1, b2 in pairs:
        vals, vecs = np.linalg.eigh(factor * b1 - b2)
        keep = vecs[:, vals > 0.0]
        tr1 += float(np.real(np.sum(keep.conj() * (b1 @ keep))))
        tr2 += float(np.real(np.sum(keep.conj() * (b2 @ keep))))
    alpha = 1.0 - tr1
    return alpha, tr2, factor * alpha + tr2


def apply_fn(es, f):
    """V diag(f(values)) V^*, re-Hermitized by averaging with its adjoint."""
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(es.values), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise DomainError("function is not finite at an eigenvalue")
    m = (es.vectors * fvals) @ es.vectors.conj().T
    return 0.5 * (m + m.conj().T)


def sandwich_power(r1, r2, t):
    """R1^(t/2) R2^(1-t) R1^(t/2), powers taken on the support only.

    For t outside [0, 1] both factors must be positive definite.
    """
    es1, es2 = eigh(r1), eigh(r2)
    v1 = psd_values(es1.values)
    v2 = psd_values(es2.values)
    if not 0.0 <= t <= 1.0:
        if v1.min(initial=1.0) <= 0 or v2.min(initial=1.0) <= 0:
            raise DomainError(f"singular factor with t = {t} outside [0, 1]")
    a = apply_fn(es1, lambda _: support_power(v1, t / 2.0))
    b = apply_fn(es2, lambda _: support_power(v2, 1.0 - t))
    w = a @ b @ a
    return 0.5 * (w + w.conj().T)


def trace_fn(m, f):
    """Sum of f over the eigenvalues of a Hermitian matrix."""
    values = eigh(m).values
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(values), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise DomainError("function is not finite at an eigenvalue")
    return float(np.sum(fvals))


def positive_part_projector(m, zero_tol=0.0):
    """Orthogonal projector onto eigenvectors with eigenvalue > zero_tol."""
    es = eigh(m)
    keep = es.vectors[:, es.values > zero_tol]
    p = keep @ keep.conj().T
    return 0.5 * (p + p.conj().T)


def integrate(f, rule):
    """Normalized integral of a scalar function over the torus, node by node."""
    vals = np.array([float(f(x if rule.dim > 1 else x[0])) for x in rule.nodes])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand is not finite at a quadrature node")
    return float(np.sum(vals) * rule.weight)


def psi_second_unweighted(ap, t):
    """The integrand of ``AsymptoticProblem.psi_second`` without its w_t factor:
    the rejected candidate that the finite-difference arbitration rules out.
    Needs both symbols strictly positive."""
    w = ap.r1**t * ap.r2 ** (1.0 - t)
    log_ratio = np.log(ap.r1) - np.log(ap.r2)
    return float(np.sum(log_ratio**2 / (1.0 - w) ** 2) * ap.rule.weight)


def permanent_repeated(x, row_mult, col_mult):
    """Permanent of x with row i repeated row_mult[i] times, column j col_mult[j] times.

    Ryser's inclusion-exclusion with the repeated columns compressed into
    multiplicities; a small-block oracle, cost prod(col_mult + 1).
    """
    row_mult = np.asarray(row_mult, dtype=np.int64)
    col_mult = np.asarray(col_mult, dtype=np.int64)
    m = int(col_mult.sum())
    if m != int(row_mult.sum()):
        return 0.0
    if m == 0:
        return 1.0
    total = 0.0 + 0.0j
    for k in product(*[range(c + 1) for c in col_mult]):
        k = np.asarray(k)
        coeff = (-1.0) ** int(k.sum())
        for kj, cj in zip(k, col_mult):
            coeff *= math.comb(int(cj), int(kj))
        rows = x @ k
        total += coeff * np.prod(rows**row_mult)
    return (-1.0) ** m * total


def second_quantized_trace_check(a, b, basis):
    """(lhs, rhs) of Tr A_F Gamma(B) = det(I - A)^-1 Tr A (I - A)^-1 B on the truncation."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    avals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    if avals.max(initial=0.0) >= 1.0 or avals.min(initial=0.0) < -1e-12:
        raise SpectralRadiusError("need 0 <= A < I")
    gamma = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    adags = [creation_matrix(basis, i) for i in range(basis.modes)]
    for i in range(basis.modes):
        for j in range(basis.modes):
            if b[i, j] != 0:
                gamma += b[i, j] * (adags[i] @ adags[j].conj().T)
    lhs = complex(np.trace(fock_operator(a, basis) @ gamma)).real
    avals = psd_values(avals)
    rhs_det = math.exp(-float(np.sum(np.log1p(-avals))))
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    middle = (vecs * (psd_values(vals) / (1.0 - psd_values(vals)))) @ vecs.conj().T
    rhs = rhs_det * float(np.real(np.trace(middle @ b)))
    return lhs, rhs
