"""Brute-force verifier on the total-photon-truncated symmetric Fock space.

States, tests and traces are built as explicit matrices over occupation
vectors (m_1, ..., m_d) with m_1 + ... + m_d <= M.  The truncation respects
the block structure in total photon number, so operators of the form
"same matrix on every factor" are exactly block multiplicative and all
closed-form trace identities hold blockwise; only the tail above M is lost,
and that loss is carried around explicitly as ``trace_deficit``.

The basis grows one total-photon sector at a time: every state of sector
m - 1 is raised in every mode, and the distinct results are sector m.  The
map from a state and a mode to its raised state (``FockBasis.raise_idx``,
with the creation amplitudes ``raise_amp``) is all that the operators built
here read: the Fock operator blocks and the chains of the displacement.

A Weyl displacement of s is a rotated one-mode displacement: for a
one-particle unitary u with u s = c e_1 it is Gamma(u)* W(c e_1) Gamma(u),
exactly on the truncation, since Gamma(u) preserves every photon sector.
Along mode 1 the truncated W(c e_1) is a direct sum of chains at most
cutoff + 1 long, so a displacement costs at most cutoff + 1 small
eigensolves and sector-by-sector products with the blocks of Gamma(u); no
eigensolver runs on the Fock-space generator (``displacement_operator``).

Every state built here is a Gaussian state, the second quantisation
Gamma(R) of a one-particle contraction R = V diag(lam) V*, scaled by
exp(logN), and so carries its eigensystem in closed form: block m has the
eigenvalues exp(logN) prod_i lam_i^(m_i) over the occupation vectors of
sector m, with 0^0 = 1, and its eigenvectors are block m of Gamma(V).  A
displaced state W Gamma(R) W* has the same eigenvalues, with eigenvectors W
times those of Gamma(R).  The eigenvectors are built on first use and kept
(``TruncatedFockState.spectra``); every quasi-power trace and
Nussbaum-Szkola table of the state reuses them, and no eigensolver runs on a
Fock-space block of such a state.  Only states given by their matrices
(``from_matrix``, ``from_blocks``) diagonalise their blocks.

Lattice states are built in the real frame of ``gaussht.finite``: the
one-particle unitary U = (I + iJ)/sqrt(2) there turns the restricted
contraction into the real symmetric V diag(r) V^T, and the displacement y
into U* y = (y - iJy)/sqrt(2).  Gamma(U) preserves every photon sector, so
every truncated trace, Neyman-Pearson error and Nussbaum-Szkola sum is that
of the site basis, while an undisplaced state is held in real arithmetic.

When the two states are blocked alike, both are read block by block.  When
they are not (a block-diagonal state against a displaced, dense one), the
whole basis is one block, over which each state's own block eigenvectors
are laid out; a block-diagonal state is never diagonalised as one dense
matrix.  Eigenpairs are then ordered blockwise, not by eigenvalue, so only
sums over eigenpairs, which do not depend on that order, are meaningful.

The eigenvector overlap |U1* U2|^2 of the shared blocks depends only on the
pair, so it is computed once per ordered pair (s1, s2) and kept on s1, keyed
weakly by s2: every quasi-power trace and Nussbaum-Szkola table of the pair
reads it, the entry goes when s2 is collected, and the whole cache with s1.
States therefore compare and hash by identity.  The Nussbaum-Szkola tables
hold the shared blocks only, as flat arrays: at 3 modes and cutoff 20 an
undisplaced pair gives 256 795 entries per table where the dense D x D
tables held 1771^2 = 3 136 441.

The optimal Neyman-Pearson error e = e^(-a) alpha + beta is e^(-a) minus the
sum of the positive eigenvalues of A = e^(-a) rho1 - rho2, with alpha on the
ideal unit trace, so ``NPResult.e`` takes it from one eigvalsh per
block.  The projector onto the positive part of A, which alpha and beta
need, costs one eigh per block and is built only when they are read (see
``NPResult``); ``error_exponent_sweep`` reads alpha first, so e is read from
the eigenvalues of that same eigh.

The brute-force oracles for the basis and these blocks (the enumerated
occupation vectors, Ryser permanents, the dense creation matrices and the
second-quantized trace identity built on them, the dense Fock operator), the
displacement from one eigendecomposition of the dense generator, and the
site-basis construction of lattice states live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

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
    Sector m is grown from sector m - 1: every state is raised in every mode
    and the distinct results, sorted, are the sector.  The same step yields
    the raise map of the creation operators a_i^+ on the truncation:
    ``raise_idx[g, i]`` is the index of ``occupations[g] + e_i`` and
    ``raise_amp[g, i] = sqrt(occupations[g, i] + 1)`` its amplitude.  On the
    top sector, whose raises leave the truncation, they are -1 and 0.
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
        self.dimension = dimension
        sectors = [np.zeros((1, modes), dtype=np.int64)]
        self.block_slices = [slice(0, 1)]
        maps = []
        for _ in range(cutoff):
            raised = sectors[-1][:, None, :] + np.eye(modes, dtype=np.int64)
            sector, inverse = np.unique(raised.reshape(-1, modes), axis=0, return_inverse=True)
            start = self.block_slices[-1].stop
            maps.append(start + inverse.reshape(-1, modes))
            sectors.append(sector)
            self.block_slices.append(slice(start, start + len(sector)))
        maps.append(np.full_like(sectors[-1], -1))
        self.occupations = np.concatenate(sectors)
        self.raise_idx = np.concatenate(maps)
        self.raise_amp = np.where(self.raise_idx >= 0, np.sqrt(self.occupations + 1.0), 0.0)

    def compatible(self, other: "FockBasis") -> bool:
        return self.modes == other.modes and self.cutoff == other.cutoff


def build_basis(modes: int, cutoff: int, cap: int = BASIS_CAP) -> FockBasis:
    return FockBasis(modes, cutoff, cap=cap)


def fock_operator_blocks(x: np.ndarray, basis: FockBasis) -> list[np.ndarray]:
    """Per-sector matrices of the operator acting as x on every tensor factor.

    Columns are grown one photon at a time through the exact intertwining of
    the operator with creation: applying it after a creation in mode j equals
    the x-weighted combination of creations applied after it.  The blocks
    have the dtype of x: real for a real x, complex otherwise.
    """
    x = np.asarray(x)
    dtype = np.result_type(x, float)
    d = basis.modes
    if x.shape != (d, d):
        raise DomainError(f"matrix must be {d} x {d} for a {d}-mode basis")
    blocks = [np.ones((1, 1), dtype=dtype)]
    for m in range(1, basis.cutoff + 1):
        src = basis.block_slices[m - 1]
        dst = basis.block_slices[m]
        size = dst.stop - dst.start
        prev = blocks[m - 1]
        tgt_local = basis.raise_idx[src] - dst.start
        amp = basis.raise_amp[src]
        occs = basis.occupations[dst]
        # column c grows from its parent occ - e_j, j its first occupied mode;
        # raising in one mode is injective, so each scatter below hits
        # distinct rows and needs no accumulation
        first = np.argmax(occs > 0, axis=1)
        cur = np.zeros((size, size), dtype=dtype)
        for j in range(d):
            cols = np.flatnonzero(first == j)
            if cols.size == 0:
                continue
            lower = np.empty(size, dtype=np.int64)
            lower[tgt_local[:, j]] = np.arange(src.stop - src.start)
            pcols = prev[:, lower[cols]]
            grown = np.zeros((size, cols.size), dtype=dtype)
            for i in range(d):
                if x[i, j] != 0:
                    grown[tgt_local[:, i]] += (x[i, j] * amp[:, i])[:, None] * pcols
            cur[:, cols] = grown / np.sqrt(occs[cols, j])
        blocks.append(cur)
    return blocks


Spectra = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class TruncatedFockState:
    """Density matrix on the truncated space, stored per index block.

    ``slices`` is the list of index ranges covered by ``blocks``: the
    per-photon sectors for quasi-free states, a single full-range block once
    a displacement has made the matrix dense.  ``trace_deficit`` is
    1 - trace, the probability mass lost to the truncated tail.
    ``eigensystem`` returns the eigenpairs of the blocks as known without an
    eigensolver, in closed form or carried through a unitary conjugation; it
    is None for a state given only by its blocks (see ``spectra``).
    States compare and hash by identity.
    """

    basis: FockBasis
    blocks: tuple[np.ndarray, ...]
    slices: tuple[slice, ...]
    trace_deficit: float
    eigensystem: Callable[[], Spectra] | None = field(repr=False, compare=False)

    @property
    def trace(self) -> float:
        return 1.0 - self.trace_deficit

    @property
    def matrix(self) -> np.ndarray:
        dim = self.basis.dimension
        out = np.zeros((dim, dim), dtype=np.result_type(*self.blocks))
        for sl, block in zip(self.slices, self.blocks):
            out[sl, sl] = block
        return out

    @cached_property
    def spectra(self) -> Spectra:
        """(eigenvalues, eigenvectors as columns) of each block, on first use.

        A state with an ``eigensystem`` reads it; a state given only by its
        blocks diagonalises each one, with rounding noise in (-1e-10, 0)
        clipped to 0.
        """
        if self.eigensystem is not None:
            return self.eigensystem()
        return tuple(_block_eigh(b) for b in self.blocks)

    @cached_property
    def _overlaps(self) -> weakref.WeakKeyDictionary:
        # partner state -> its ``_common_blocks`` with this state; the blocks
        # hold arrays only, so an entry dies with the partner and the whole
        # cache with this state
        return weakref.WeakKeyDictionary()

    @classmethod
    def from_blocks(
        cls, basis: FockBasis, blocks, slices, eigensystem: Callable[[], Spectra] | None
    ) -> "TruncatedFockState":
        tr = sum(float(np.real(np.trace(b))) for b in blocks)
        if not 0.0 < tr <= 1.0 + 1e-9:
            raise DomainError(f"state trace {tr} outside (0, 1]")
        return cls(
            basis=basis,
            blocks=tuple(0.5 * (b + b.conj().T) for b in blocks),
            slices=tuple(slices),
            trace_deficit=1.0 - tr,
            eigensystem=eigensystem,
        )

    @classmethod
    def from_matrix(cls, basis: FockBasis, matrix: np.ndarray) -> "TruncatedFockState":
        return cls.from_blocks(
            basis, [np.asarray(matrix, dtype=complex)], [slice(0, basis.dimension)], None
        )


def _require_same_basis(s1: TruncatedFockState, s2: TruncatedFockState) -> None:
    if not s1.basis.compatible(s2.basis):
        raise BasisMismatch("states live on different truncated bases")


def _quasi_free(lam: np.ndarray, v: np.ndarray, logN: float, basis: FockBasis):
    """Eigensystem of exp(logN) Gamma(V diag(lam) V*), built on first call."""
    norm = float(np.max(np.abs(lam)))
    if norm >= 1.0:
        raise SpectralRadiusError(f"one-particle contraction has norm {norm} >= 1")
    lam = psd_values(lam, clip=1e-10)
    scale = math.exp(logN)

    def eigensystem() -> Spectra:
        values = scale * np.prod(lam**basis.occupations, axis=1)
        vectors = fock_operator_blocks(v, basis)
        return tuple((values[sl], u) for sl, u in zip(basis.block_slices, vectors))

    return eigensystem


def _gaussian(r: np.ndarray, lam: np.ndarray, v: np.ndarray, logN: float, basis: FockBasis):
    """exp(logN) Gamma(r) for the Hermitian part of r = V diag(lam) V*."""
    r = 0.5 * (r + r.conj().T)
    eigensystem = _quasi_free(lam, v, logN, basis)
    blocks = [math.exp(logN) * b for b in fock_operator_blocks(r, basis)]
    return TruncatedFockState.from_blocks(basis, blocks, basis.block_slices, eigensystem)


def gaussian_density(r: np.ndarray, logN: float, basis: FockBasis) -> TruncatedFockState:
    """exp(logN) times the Fock operator of the one-particle contraction r.

    r is taken as its Hermitian part, which must satisfy 0 <= r < I; a real
    r gives real blocks.  Its eigendecomposition r = V diag(lam) V* gives the
    state's eigensystem: the values exp(logN) prod_i lam_i^(m_i) over the
    occupation vectors m (0^0 = 1, so a vacuum mode gives exact zeros), and
    the blocks of Gamma(V) as vectors, built on first use.
    """
    r = np.asarray(r)
    lam, v = np.linalg.eigh(0.5 * (r + r.conj().T))
    return _gaussian(r, lam, v, logN, basis)


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
    small for the displacement.

    W is a rotated one-mode displacement.  With s = sqrt(kappa) y and a
    one-particle unitary u taking s to c e_1, the generator of s is
    Gamma(u)* G(c e_1) Gamma(u).  Gamma(u) preserves every photon sector, so
    it commutes with the truncation, and the identity holds exactly on the
    truncated space, as does its exponential.  Along mode 1 the truncated
    G(c e_1) splits into independent chains, one per occupation of the other
    modes; a chain of length L (at most cutoff + 1) has the exponential of
    one L x L eigendecomposition, which all chains of that length share.
    W = Gamma(u)* E Gamma(u) is then assembled sector by sector from the
    blocks of Gamma(u), so no eigensolver runs on a Fock-space matrix.  W is
    unitary up to eigensolver rounding and is not checked for that.
    """
    y = np.asarray(y, dtype=complex).reshape(basis.modes)
    s = math.sqrt(kappa) * y
    q, _ = np.linalg.qr(np.column_stack([s, np.eye(basis.modes)]))
    u = q.conj().T
    c = (u @ s)[0]
    gamma = fock_operator_blocks(u, basis)
    rotated = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for sl, block in zip(basis.block_slices, gamma):
        rotated[sl, sl] = block
    # E Gamma(u), one chain length at a time: a chain of length L starts at
    # m_1 = 0 in sector cutoff + 1 - L and is raised in mode 1 to the top
    moved = np.empty_like(rotated)
    for length in range(1, basis.cutoff + 2):
        sector = basis.block_slices[basis.cutoff + 1 - length]
        first = sector.start + np.flatnonzero(basis.occupations[sector, 0] == 0)
        chains = np.empty((first.size, length), dtype=np.int64)
        chains[:, 0] = first
        for k in range(1, length):
            chains[:, k] = basis.raise_idx[chains[:, k - 1], 0]
        amp = -1j * c * np.sqrt(np.arange(1.0, length))
        vals, vecs = np.linalg.eigh(np.diag(amp, -1) + np.diag(amp.conj(), 1))
        moved[chains] = ((vecs * np.exp(1j * vals)) @ vecs.conj().T) @ rotated[chains]
    del rotated
    w = np.empty_like(moved)
    for sl, block in zip(basis.block_slices, gamma):
        w[sl] = block.conj().T @ moved[sl]

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
    """Conjugate a state by a (truncated) unitary w; the result is stored dense.

    W rho W* has the eigenvalues of rho, with eigenvectors W u: the state's
    block eigenpairs carry over, laid out in the full basis, and the dense
    matrix is formed from them, so it is never diagonalised.
    """
    return _conjugated(state.basis, state.slices, state.spectra, w)


def _conjugated(basis: FockBasis, slices, spectra: Spectra, w: np.ndarray) -> TruncatedFockState:
    values = np.concatenate([vals for vals, _ in spectra])
    vectors = np.concatenate([w[:, sl] @ u for sl, (_, u) in zip(slices, spectra)], axis=1)
    carried = ((values, vectors),)
    m = (vectors * values) @ vectors.conj().T
    return TruncatedFockState.from_blocks(basis, [m], [slice(0, basis.dimension)], lambda: carried)


def _block_eigh(block: np.ndarray):
    vals, vecs = np.linalg.eigh(block)
    return psd_values(vals, clip=1e-10), vecs


def _power_or_support(values: np.ndarray, exponent: float) -> np.ndarray:
    # at exponent exactly 0 the power is a support indicator; a relative
    # cutoff keeps eigensolver noise on rank-deficient blocks out of it
    if exponent == 0.0:
        tol = 1e-12 * float(values.max(initial=0.0))
        return (values > tol).astype(float)
    return support_power(values, exponent)


Overlaps = list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]


def _common_blocks(s1: TruncatedFockState, s2: TruncatedFockState) -> Overlaps:
    """(slice, values1, values2, |U1* U2|^2) for each block the states share.

    Computed once per ordered pair and kept on s1, keyed weakly by s2 (see
    ``TruncatedFockState._overlaps``).
    """
    _require_same_basis(s1, s2)
    blocks = s1._overlaps.get(s2)
    if blocks is None:
        blocks = s1._overlaps[s2] = _overlap_blocks(s1, s2)
    return blocks


def _overlap_blocks(s1: TruncatedFockState, s2: TruncatedFockState) -> Overlaps:
    """The blocks of ``_common_blocks``, computed afresh.

    Alike-blocked states pair block with block.  Otherwise the whole basis is
    one block: state 2's eigenvectors are laid out in the full basis and state
    1's block eigenvectors act on their rows, so eigenpairs come blockwise and
    a support cutoff sees the largest eigenvalue of the whole state.
    """
    if s1.slices == s2.slices:
        return [
            (sl, v1, v2, np.abs(u1.conj().T @ u2) ** 2)
            for sl, (v1, u1), (v2, u2) in zip(s1.slices, s1.spectra, s2.spectra)
        ]
    dim = s1.basis.dimension
    u2 = np.zeros((dim, dim), dtype=np.result_type(*(u for _, u in s2.spectra)))
    for sl, (_, u) in zip(s2.slices, s2.spectra):
        u2[sl, sl] = u
    overlap = np.empty((dim, dim))
    for sl, (_, u) in zip(s1.slices, s1.spectra):
        overlap[sl] = np.abs(u.conj().T @ u2[sl]) ** 2
    v1, v2 = (np.concatenate([v for v, _ in s.spectra]) for s in (s1, s2))
    return [(slice(0, dim), v1, v2, overlap)]


def quasi_power_trace(s1: TruncatedFockState, s2: TruncatedFockState, t: float) -> float:
    """Tr s1^t s2^(1-t) for t in [0, 1], powers on the supports only."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return sum(
        float(_power_or_support(v1, t) @ overlap @ _power_or_support(v2, 1.0 - t))
        for _, v1, v2, overlap in _common_blocks(s1, s2)
    )


def nussbaum_szkola(s1: TruncatedFockState, s2: TruncatedFockState):
    """Classical weight tables p1, p2 on the eigenpairs of the shared blocks.

    p1 = lambda1_i |<e1_i, e2_j>|^2 and p2 = lambda2_j |<e1_i, e2_j>|^2 over
    the pairs (i, j) of eigenpairs in a common block; their Hellinger-type
    sums reproduce the quantum quasi-power traces.  Pairs from different
    blocks have zero overlap and are left out, so both tables are flat
    arrays: each shared block's table raveled row by row, in block order.
    That is the order in which boolean indexing visits the dense D x D
    tables, but the eigenpairs are ordered blockwise (see the module
    docstring), so only sums over the tables are meaningful.
    """
    blocks = _common_blocks(s1, s2)
    p1 = [(v1[:, None] * overlap).ravel() for _, v1, _, overlap in blocks]
    p2 = [(overlap * v2[None, :]).ravel() for _, _, v2, overlap in blocks]
    if len(blocks) == 1:
        return p1[0], p2[0]
    return np.concatenate(p1), np.concatenate(p2)


class NPResult:
    """Optimal Neyman-Pearson test for e = e^(-scale a) alpha + beta.

    The optimal test is the projector P onto the positive part of
    A = e^(-scale a) rho1 - rho2, with alpha = 1 - Tr rho1 P (the ideal unit
    trace, so the truncation deficit of rho1 inflates alpha by at most
    rho1.trace_deficit) and beta = Tr rho2 P.  The error needs the spectrum
    alone: e = e^(-scale a) - sum of the positive eigenvalues of A, exactly on
    the truncation too.  Each value is computed on first read: e from one
    eigvalsh per block; alpha and beta from P, one eigh per block and the two
    projected traces.  Once P has been built, e reads its sum of positive
    eigenvalues from the same eigh, so a caller that reads alpha first pays
    one eigensolve per block in all.  The two states are held until P has
    been built, and released then.
    """

    def __init__(self, s1: TruncatedFockState, s2: TruncatedFockState, factor: float):
        self._states = (s1, s2)
        self._factor = factor

    def _blocks(self):
        # (A, block of rho1, block of rho2) per block; a state held as one
        # block over the whole basis is read in place
        s1, s2 = self._states
        pairs = zip(s1.blocks, s2.blocks) if s1.slices == s2.slices else [(_whole(s1), _whole(s2))]
        return ((self._factor * b1 - b2, b1, b2) for b1, b2 in pairs)

    @cached_property
    def _projected(self) -> tuple[float, float, float]:
        """(e, alpha, beta) from one eigh per block and the traces of P."""
        positive = tr1 = tr2 = 0.0
        for a, b1, b2 in self._blocks():
            vals, vecs = np.linalg.eigh(a)
            del a
            up = vals > 0.0
            keep = vecs[:, up]
            del vecs
            positive += float(np.sum(vals[up]))
            tr1 += float(np.real(np.sum(keep.conj() * (b1 @ keep))))
            tr2 += float(np.real(np.sum(keep.conj() * (b2 @ keep))))
        del self._states
        return self._factor - positive, 1.0 - tr1, tr2

    @cached_property
    def e(self) -> float:
        if "_projected" in self.__dict__:
            return self._projected[0]
        positive = 0.0
        for a, _, _ in self._blocks():
            vals = np.linalg.eigvalsh(a)
            positive += float(np.sum(vals[vals > 0.0]))
        return self._factor - positive

    @property
    def alpha(self) -> float:
        return self._projected[1]

    @property
    def beta(self) -> float:
        return self._projected[2]

    def __repr__(self) -> str:
        if "_projected" in self.__dict__:
            return f"NPResult(alpha={self.alpha!r}, beta={self.beta!r}, e={self.e!r})"
        return f"NPResult(e={self.e!r})"


def neyman_pearson(
    s1: TruncatedFockState, s2: TruncatedFockState, a: float, scale: int = 1
) -> NPResult:
    """Optimal test for e^(-scale a) alpha + beta; see ``NPResult``.

    Nothing is diagonalised here: each value is computed when it is first
    read.  A threshold whose e^(-scale a) is not a positive finite double
    raises DomainError.
    """
    _require_same_basis(s1, s2)
    try:
        factor = math.exp(-scale * a)
    except OverflowError:
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise DomainError(
            f"threshold a = {a} at scale {scale}: e^(-scale a) = {factor} is not a positive finite number"
        )
    return NPResult(s1, s2, factor)


def _whole(s: TruncatedFockState) -> np.ndarray:
    # a state held as one block over the whole basis is read in place
    if s.slices == (slice(0, s.basis.dimension),):
        return s.blocks[0]
    return s.matrix


def lattice_state(
    state: GaussianStateSpec,
    n: int,
    cutoff: int,
    basis: FockBasis | None = None,
    dense_cap: int = DENSE_CAP,
    basis_cap: int = BASIS_CAP,
) -> TruncatedFockState:
    """The actual density matrix of a Gaussian state restricted to C_n.

    Built in the real frame (see the module docstring): from the real
    contraction V diag(r) V^T and the displacement (y - iJy)/sqrt(2).
    """
    data = build_state_data(state, n, dense_cap=dense_cap)
    modes = n**state.symbol.dim
    if basis is None:
        basis = build_basis(modes, cutoff, cap=basis_cap)
    elif basis.modes != modes:
        raise BasisMismatch(f"basis has {basis.modes} modes, cube needs {modes}")
    # the finite engine's eigensystem is the contraction's: r = V diag(lam) V^T
    lam = data.q / (1.0 + data.q)
    if not np.any(data.y != 0):
        return _gaussian((data.V * lam) @ data.V.T, lam, data.V, data.logN, basis)
    # a displaced state reads only the eigensystem of the undisplaced one
    eigensystem = _quasi_free(lam, data.V, data.logN, basis)
    y = (data.y - 1j * data.y[::-1]) / math.sqrt(2.0)
    w = displacement_operator(y, state.kappa, basis)
    return _conjugated(basis, basis.block_slices, eigensystem(), w)


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
        alpha = res.alpha  # builds P first, so e is read from the same eigh
        if not res.e > 0.0:
            raise DomainError(
                f"optimal error {res.e} at n = {n}, a = {a} is not positive: no exponent"
            )
        rows.append(
            SweepRow(
                n=n,
                alpha=alpha,
                beta=res.beta,
                e=res.e,
                exponent=-math.log(res.e) / scale,
                trace_deficit=max(s1.trace_deficit, s2.trace_deficit),
            )
        )
    return rows
