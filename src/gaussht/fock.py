"""Brute-force verifier on the total-photon-truncated symmetric Fock space.

States, tests and traces are built as explicit matrices over occupation
vectors (m_1, ..., m_d) with m_1 + ... + m_d <= M.  The truncation respects
the block structure in total photon number, so operators of the form
"same matrix on every factor" are exactly block multiplicative and all
closed-form trace identities hold blockwise; only the tail above M is lost,
and that loss is carried around explicitly as ``trace_deficit``.

Each state diagonalises its blocks once, on first use, and keeps the
eigensystems (``TruncatedFockState.spectra``); every quasi-power trace and
Nussbaum-Szkola table of the state reuses them.  When the two states are
blocked alike, both are read block by block.  When they are not (a
block-diagonal state against a displaced, dense one), the whole basis is one
block, over which each state's own block eigenvectors are laid out; a
block-diagonal state is never diagonalised as one dense matrix.  Eigenpairs
are then ordered blockwise, not by eigenvalue, so only sums over eigenpairs,
which do not depend on that order, are meaningful.  The brute-force
oracles for these blocks (Ryser permanents, the second-quantized trace
identity, the dense Fock operator) live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .calculus import psd_values, support_power
from .errors import (
    BasisMismatch,
    DomainError,
    SizeOverflow,
    SpectralRadiusError,
    UnitarityDefect,
)
from .finite import build_state_data
from .lattice import DENSE_CAP
from .symbols import DiscriminationProblem, GaussianStateSpec

BASIS_CAP = 20000


class FockBasis:
    """Occupation basis with total photon number at most ``cutoff``.

    States are ordered by (total, occupation) lexicographically, which makes
    each total-photon sector a contiguous index range (``block_slices``).
    """

    def __init__(self, modes: int, cutoff: int, cap: int = BASIS_CAP):
        if modes < 1 or cutoff < 0:
            raise DomainError("need modes >= 1 and cutoff >= 0")
        dimension = math.comb(cutoff + modes, modes)
        if dimension > cap:
            raise SizeOverflow(
                f"basis dimension {dimension} = C({cutoff + modes}, {modes}) exceeds cap {cap}"
            )
        self.modes = modes
        self.cutoff = cutoff
        states: list[tuple[int, ...]] = []
        slices: list[slice] = []
        for m in range(cutoff + 1):
            start = len(states)
            states.extend(_compositions(m, modes))
            slices.append(slice(start, len(states)))
        self.occupations = np.array(states, dtype=np.int64)
        self.dimension = len(states)
        self.index = {s: i for i, s in enumerate(states)}
        self.block_slices = slices
        self._raise_idx, self._raise_amp = self._build_raise_maps()

    def _build_raise_maps(self):
        idx = np.full((self.dimension, self.modes), -1, dtype=np.int64)
        amp = np.zeros((self.dimension, self.modes))
        for g, occ in enumerate(self.occupations):
            if int(occ.sum()) == self.cutoff:
                continue
            for i in range(self.modes):
                target = list(occ)
                target[i] += 1
                idx[g, i] = self.index[tuple(target)]
                amp[g, i] = math.sqrt(occ[i] + 1)
        return idx, amp

    def creation_matrix(self, mode: int) -> np.ndarray:
        """Dense truncated creation operator for one mode."""
        a = np.zeros((self.dimension, self.dimension), dtype=complex)
        valid = self._raise_idx[:, mode] >= 0
        a[self._raise_idx[valid, mode], np.flatnonzero(valid)] = self._raise_amp[valid, mode]
        return a

    def compatible(self, other: "FockBasis") -> bool:
        return self.modes == other.modes and self.cutoff == other.cutoff


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def build_basis(modes: int, cutoff: int, cap: int = BASIS_CAP) -> FockBasis:
    return FockBasis(modes, cutoff, cap=cap)


def fock_operator_blocks(x: np.ndarray, basis: FockBasis) -> list[np.ndarray]:
    """Per-sector matrices of the operator acting as x on every tensor factor.

    Columns are grown one photon at a time through the exact intertwining of
    the operator with creation: applying it after a creation in mode j equals
    the x-weighted combination of creations applied after it.
    """
    x = np.asarray(x, dtype=complex)
    d = basis.modes
    if x.shape != (d, d):
        raise DomainError(f"matrix must be {d} x {d} for a {d}-mode basis")
    blocks = [np.ones((1, 1), dtype=complex)]
    for m in range(1, basis.cutoff + 1):
        src = basis.block_slices[m - 1]
        dst = basis.block_slices[m]
        size = dst.stop - dst.start
        prev = blocks[m - 1]
        tgt_local = basis._raise_idx[src] - dst.start
        amp = basis._raise_amp[src]
        occs = basis.occupations[dst]
        # column c grows from its parent occ - e_j, j its first occupied mode;
        # raising in one mode is injective, so each scatter below hits
        # distinct rows and needs no accumulation
        first = np.argmax(occs > 0, axis=1)
        cur = np.zeros((size, size), dtype=complex)
        for j in range(d):
            cols = np.flatnonzero(first == j)
            if cols.size == 0:
                continue
            lower = np.empty(size, dtype=np.int64)
            lower[tgt_local[:, j]] = np.arange(src.stop - src.start)
            pcols = prev[:, lower[cols]]
            grown = np.zeros((size, cols.size), dtype=complex)
            for i in range(d):
                if x[i, j] != 0:
                    grown[tgt_local[:, i]] += (x[i, j] * amp[:, i])[:, None] * pcols
            cur[:, cols] = grown / np.sqrt(occs[cols, j])
        blocks.append(cur)
    return blocks


@dataclass(frozen=True)
class TruncatedFockState:
    """Density matrix on the truncated space, stored per index block.

    ``slices`` is the list of index ranges covered by ``blocks``: the
    per-photon sectors for quasi-free states, a single full-range block once
    a displacement has made the matrix dense.  ``trace_deficit`` is
    1 - trace, the probability mass lost to the truncated tail.
    """

    basis: FockBasis
    blocks: tuple[np.ndarray, ...]
    slices: tuple[slice, ...]
    trace_deficit: float

    @property
    def trace(self) -> float:
        return 1.0 - self.trace_deficit

    @property
    def matrix(self) -> np.ndarray:
        out = np.zeros((self.basis.dimension, self.basis.dimension), dtype=complex)
        for sl, block in zip(self.slices, self.blocks):
            out[sl, sl] = block
        return out

    @cached_property
    def spectra(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(_block_eigh(b) for b in self.blocks)

    @classmethod
    def from_blocks(cls, basis: FockBasis, blocks, slices) -> "TruncatedFockState":
        tr = sum(float(np.real(np.trace(b))) for b in blocks)
        if not 0.0 < tr <= 1.0 + 1e-9:
            raise DomainError(f"state trace {tr} outside (0, 1]")
        return cls(
            basis=basis,
            blocks=tuple(0.5 * (b + b.conj().T) for b in blocks),
            slices=tuple(slices),
            trace_deficit=1.0 - tr,
        )

    @classmethod
    def from_matrix(cls, basis: FockBasis, matrix: np.ndarray) -> "TruncatedFockState":
        return cls.from_blocks(basis, [np.asarray(matrix, dtype=complex)], [slice(0, basis.dimension)])


def _require_same_basis(s1: TruncatedFockState, s2: TruncatedFockState) -> None:
    if not s1.basis.compatible(s2.basis):
        raise BasisMismatch("states live on different truncated bases")


def gaussian_density(r: np.ndarray, logN: float, basis: FockBasis) -> TruncatedFockState:
    """exp(logN) times the Fock operator of the one-particle contraction r."""
    r = np.asarray(r, dtype=complex)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (r + r.conj().T)))))
    if norm >= 1.0:
        raise SpectralRadiusError(f"one-particle contraction has norm {norm} >= 1")
    scale = math.exp(logN)
    blocks = [scale * b for b in fock_operator_blocks(r, basis)]
    return TruncatedFockState.from_blocks(basis, blocks, basis.block_slices)


def exponential_vector(z: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Truncated exponential (coherent-family) vector with components prod z^m / sqrt(m!)."""
    z = np.asarray(z, dtype=complex).reshape(basis.modes)
    occ = basis.occupations
    lgamma = np.array([math.lgamma(k + 1) for k in range(basis.cutoff + 1)])
    logz = np.where(np.abs(z) > 0, np.log(np.where(np.abs(z) > 0, z, 1.0)), 0.0)
    expo = occ @ logz - 0.5 * np.sum(lgamma[occ], axis=1)
    vec = np.exp(expo)
    dead = (occ[:, np.abs(z) == 0].sum(axis=1)) > 0
    vec[dead] = 0.0
    return vec


def displacement_operator(y: np.ndarray, kappa: float, basis: FockBasis) -> np.ndarray:
    """Truncated Weyl unitary exp(sqrt(kappa) sum_i (y_i a_i^+ - conj(y_i) a_i)).

    The inner product in the defining action on exponential vectors is
    conjugate linear in the first argument; a self-test against that action
    on the low-photon sectors runs here, and fails when the cutoff is too
    small for the displacement.  W = V exp(i Lambda) V* is formed from the
    eigendecomposition of a Hermitian matrix, so it is unitary up to
    eigensolver rounding and is not checked for that.
    """
    y = np.asarray(y, dtype=complex).reshape(basis.modes)
    gen = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for i in range(basis.modes):
        adag = basis.creation_matrix(i)
        gen += y[i] * adag - np.conj(y[i]) * adag.conj().T
    gen *= math.sqrt(kappa)
    h = -1j * gen
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
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


def displace_state(state: TruncatedFockState, w: np.ndarray) -> TruncatedFockState:
    """Conjugate a state by a (truncated) unitary; the result is stored dense."""
    m = w @ state.matrix @ w.conj().T
    return TruncatedFockState.from_matrix(state.basis, m)


def _block_eigh(block: np.ndarray):
    vals, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
    return psd_values(vals, clip=1e-10), vecs


def _power_or_support(values: np.ndarray, exponent: float) -> np.ndarray:
    # at exponent exactly 0 the power is a support indicator; a relative
    # cutoff keeps eigensolver noise on rank-deficient blocks out of it
    if exponent == 0.0:
        tol = 1e-12 * float(values.max(initial=0.0))
        return (values > tol).astype(float)
    return support_power(values, exponent)


def _common_blocks(s1: TruncatedFockState, s2: TruncatedFockState):
    """(slice, values1, values2, |U1* U2|^2) for each block the states share.

    Alike-blocked states pair block with block.  Otherwise the whole basis is
    one block: state 2's eigenvectors are laid out in the full basis and state
    1's block eigenvectors act on their rows, so eigenpairs come blockwise and
    a support cutoff sees the largest eigenvalue of the whole state.
    """
    _require_same_basis(s1, s2)
    if s1.slices == s2.slices:
        for sl, (v1, u1), (v2, u2) in zip(s1.slices, s1.spectra, s2.spectra):
            yield sl, v1, v2, np.abs(u1.conj().T @ u2) ** 2
        return
    dim = s1.basis.dimension
    u2 = np.zeros((dim, dim), dtype=complex)
    for sl, (_, u) in zip(s2.slices, s2.spectra):
        u2[sl, sl] = u
    overlap = np.empty((dim, dim))
    for sl, (_, u) in zip(s1.slices, s1.spectra):
        overlap[sl] = np.abs(u.conj().T @ u2[sl]) ** 2
    v1, v2 = (np.concatenate([v for v, _ in s.spectra]) for s in (s1, s2))
    yield slice(0, dim), v1, v2, overlap


def quasi_power_trace(s1: TruncatedFockState, s2: TruncatedFockState, t: float) -> float:
    """Tr s1^t s2^(1-t) for t in [0, 1], powers on the supports only."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return sum(
        float(_power_or_support(v1, t) @ overlap @ _power_or_support(v2, 1.0 - t))
        for _, v1, v2, overlap in _common_blocks(s1, s2)
    )


def nussbaum_szkola(s1: TruncatedFockState, s2: TruncatedFockState):
    """Classical weight tables p1, p2 on eigenpair indices.

    p1[i, j] = lambda1_i |<e1_i, e2_j>|^2 and p2[i, j] = lambda2_j
    |<e1_i, e2_j>|^2; their Hellinger-type sums reproduce the quantum
    quasi-power traces.  The eigenpairs are ordered blockwise (see the
    module docstring), so only sums over the tables are meaningful.
    """
    dim = s1.basis.dimension
    p1 = np.zeros((dim, dim))
    p2 = np.zeros((dim, dim))
    for sl, v1, v2, overlap in _common_blocks(s1, s2):
        p1[sl, sl] = v1[:, None] * overlap
        p2[sl, sl] = overlap * v2[None, :]
    return p1, p2


@dataclass(frozen=True)
class NPResult:
    alpha: float
    beta: float
    e: float


def neyman_pearson(
    s1: TruncatedFockState, s2: TruncatedFockState, a: float, scale: int = 1
) -> NPResult:
    """Optimal test for e^(-scale a) alpha + beta: project on the positive part.

    alpha uses the ideal unit trace, so the truncation deficit of s1 inflates
    it by at most s1.trace_deficit.
    """
    _require_same_basis(s1, s2)
    pairs = zip(s1.blocks, s2.blocks) if s1.slices == s2.slices else [(s1.matrix, s2.matrix)]
    factor = math.exp(-scale * a)
    tr1 = 0.0
    tr2 = 0.0
    for b1, b2 in pairs:
        diff = factor * b1 - b2
        vals, vecs = np.linalg.eigh(0.5 * (diff + diff.conj().T))
        keep = vecs[:, vals > 0.0]
        tr1 += float(np.real(np.sum(keep.conj() * (b1 @ keep))))
        tr2 += float(np.real(np.sum(keep.conj() * (b2 @ keep))))
    alpha = 1.0 - tr1
    beta = tr2
    return NPResult(alpha=alpha, beta=beta, e=factor * alpha + beta)


def lattice_state(
    state: GaussianStateSpec,
    n: int,
    cutoff: int,
    basis: FockBasis | None = None,
    dense_cap: int = DENSE_CAP,
    basis_cap: int = BASIS_CAP,
) -> TruncatedFockState:
    """The actual density matrix of a Gaussian state restricted to C_n."""
    data = build_state_data(state, n, dense_cap=dense_cap)
    modes = n**state.symbol.dim
    if basis is None:
        basis = build_basis(modes, cutoff, cap=basis_cap)
    elif basis.modes != modes:
        raise BasisMismatch(f"basis has {basis.modes} modes, cube needs {modes}")
    rho = gaussian_density(data.R, data.logN, basis)
    if np.any(data.y != 0):
        w = displacement_operator(data.y, state.kappa, basis)
        rho = displace_state(rho, w)
    return rho


@dataclass(frozen=True)
class SweepRow:
    n: int
    alpha: float
    beta: float
    e: float
    exponent: float
    trace_deficit: float


def error_exponent_sweep(
    problem: DiscriminationProblem,
    n_list: Sequence[int],
    cutoff: int,
    a: float = 0.0,
    dense_cap: int = DENSE_CAP,
    basis_cap: int = BASIS_CAP,
) -> list[SweepRow]:
    """Optimal finite-cube error and its exponent for each n in n_list."""
    rows = []
    for n in n_list:
        scale = n**problem.dim
        basis = build_basis(scale, cutoff, cap=basis_cap)
        s1 = lattice_state(problem.state1, n, cutoff, basis=basis, dense_cap=dense_cap)
        s2 = lattice_state(problem.state2, n, cutoff, basis=basis, dense_cap=dense_cap)
        res = neyman_pearson(s1, s2, a, scale=scale)
        rows.append(
            SweepRow(
                n=n,
                alpha=res.alpha,
                beta=res.beta,
                e=res.e,
                exponent=-math.log(res.e) / scale,
                trace_deficit=max(s1.trace_deficit, s2.trace_deficit),
            )
        )
    return rows
