import collections
import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussht import (
    FiniteProblem,
    build_basis,
    displace_state,
    displacement_operator,
    error_exponent_sweep,
    gaussian_density,
    lattice_state,
    neyman_pearson,
    nussbaum_szkola,
    quasi_power_trace,
)
from gaussht import fock
from gaussht.errors import (
    BasisMismatch,
    DomainError,
    SizeOverflow,
    SpectralRadiusError,
    UnitarityDefect,
)
from gaussht.fock import TruncatedFockState

from conftest import (
    DenseFockOracle,
    classical_min_error,
    hellinger_sum,
    make_problem,
    random_psd_contraction,
)
from oracles import (
    displacement_operator_dense,
    fock_operator,
    neyman_pearson_projector,
    nussbaum_szkola_dense,
    occupation_sectors,
    permanent_repeated,
    second_quantized_trace_check,
    site_lattice_state,
)


def thermal_pair(cutoff):
    prob = make_problem(1.0, 2.0)
    s1 = lattice_state(prob.state1, 1, cutoff)
    s2 = lattice_state(prob.state2, 1, cutoff)
    return prob, s1, s2


def test_basis_dimensions():
    assert build_basis(1, 3).dimension == 4
    assert build_basis(2, 2).dimension == 6
    assert build_basis(3, 7).dimension == 120
    with pytest.raises(SizeOverflow):
        build_basis(3, 60)
    with pytest.raises(SizeOverflow):
        build_basis(2, 5, cap=20)


def test_basis_ordering_and_blocks():
    basis = build_basis(2, 2)
    occs = [tuple(o) for o in basis.occupations]
    assert occs == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [s.stop - s.start for s in basis.block_slices] == [1, 2, 3]


@pytest.mark.parametrize("modes, cutoff", [(1, 0), (1, 60), (2, 12), (3, 20), (4, 6), (27, 2)])
def test_basis_and_raise_map_against_brute_force(modes, cutoff):
    basis = build_basis(modes, cutoff)
    sectors = occupation_sectors(modes, cutoff)
    assert [tuple(o) for o in basis.occupations] == [s for sector in sectors for s in sector]
    stops = np.cumsum([len(sector) for sector in sectors])
    assert basis.block_slices == [slice(b - len(s), b) for s, b in zip(sectors, stops)]

    occ = basis.occupations
    top = basis.block_slices[-1]
    below = occ[: top.start]
    for i in range(modes):
        raised = below + np.eye(modes, dtype=np.int64)[i]
        assert np.array_equal(occ[basis.raise_idx[: top.start, i]], raised)
    assert np.all(basis.raise_idx[top] == -1)
    assert np.array_equal(basis.raise_amp[: top.start], np.sqrt(below + 1.0))
    assert np.all(basis.raise_amp[top] == 0.0)


def test_fock_operator_identity_and_diag():
    basis = build_basis(2, 3)
    assert np.allclose(fock_operator(np.eye(2), basis), np.eye(basis.dimension))
    basis1 = build_basis(1, 5)
    lam = 0.37
    f = fock_operator(np.array([[lam]]), basis1)
    assert np.allclose(f, np.diag(lam ** np.arange(6)))


@pytest.mark.parametrize("d", [2, 3])
def test_fock_operator_multiplicative(rng, d):
    basis = build_basis(d, 4 if d == 3 else 6)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    fx = fock_operator(x, basis)
    fy = fock_operator(y, basis)
    fxy = fock_operator(x @ y, basis)
    assert np.max(np.abs(fx @ fy - fxy)) < 1e-12 * max(1.0, np.abs(fxy).max())


def test_fock_operator_matches_permanent_oracle(rng):
    d, cutoff = 2, 4
    basis = build_basis(d, cutoff)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    f = fock_operator(x, basis)
    for gi in range(basis.dimension):
        for gj in range(basis.dimension):
            mi = basis.occupations[gi]
            mj = basis.occupations[gj]
            if mi.sum() != mj.sum():
                assert f[gi, gj] == 0
                continue
            norm = math.sqrt(
                np.prod([math.factorial(k) for k in mi])
                * np.prod([math.factorial(k) for k in mj])
            )
            expected = permanent_repeated(x, mi, mj) / norm
            assert f[gi, gj] == pytest.approx(expected, abs=1e-10)


def test_gaussian_density_thermal():
    basis = build_basis(1, 60)
    state = gaussian_density(np.array([[0.5]]), -math.log(2), basis)
    assert np.allclose(state.matrix, np.diag(0.5 * 0.5 ** np.arange(61)))
    # analytic tail N lam^(M+1)/(1-lam), resolvable only up to summation rounding
    assert state.trace_deficit == pytest.approx(0.5 * 0.5**61 / 0.5, abs=1e-13)


def test_gaussian_density_vacuum_and_radius():
    basis = build_basis(2, 3)
    vac = gaussian_density(np.zeros((2, 2)), 0.0, basis)
    expected = np.zeros((basis.dimension, basis.dimension))
    expected[0, 0] = 1.0
    assert np.allclose(vac.matrix, expected)
    with pytest.raises(SpectralRadiusError):
        gaussian_density(np.eye(2), 0.0, basis)
    with pytest.raises(DomainError):
        gaussian_density(-0.5 * np.eye(2), 0.0, basis)


def test_gaussian_density_two_mode_trace():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    state = lattice_state(prob.state1, 2, 40)
    assert state.trace == pytest.approx(1.0, abs=1e-6)


def test_gaussian_density_eigenstructure():
    basis = build_basis(2, 5)
    lam = np.array([0.3, 0.6])
    logN = float(np.sum(np.log1p(-lam)))
    state = gaussian_density(np.diag(lam), logN, basis)
    expected = math.exp(logN) * np.prod(lam ** basis.occupations, axis=1)
    assert np.allclose(np.diag(state.matrix), expected)
    assert np.allclose(state.matrix, np.diag(expected))


def test_trace_identity_residual(rng):
    basis = build_basis(2, 20)
    a = random_psd_contraction(rng, 2, top=0.6)
    nrm = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    lhs = float(np.real(np.trace(fock_operator(a, basis))))
    rhs = 1.0 / float(np.real(np.linalg.det(np.eye(2) - a)))
    bound = basis.dimension * nrm ** (basis.cutoff + 1) / (1 - nrm)
    assert abs(lhs - rhs) <= bound


def test_second_quantized_trace_check():
    basis = build_basis(1, 60)
    lhs, rhs = second_quantized_trace_check(np.array([[0.5]]), np.array([[1.0]]), basis)
    assert rhs == pytest.approx(2.0, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    lhs, rhs = second_quantized_trace_check(np.array([[0.5]]), np.array([[0.0]]), basis)
    assert (lhs, rhs) == (0.0, 0.0)
    lhs, rhs = second_quantized_trace_check(np.array([[0.0]]), np.array([[1.0]]), basis)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_second_quantized_trace_check_multimode(rng):
    basis = build_basis(2, 25)
    a = random_psd_contraction(rng, 2, top=0.55)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = 0.5 * (b + b.conj().T)
    lhs, rhs = second_quantized_trace_check(a, b, basis)
    assert lhs == pytest.approx(rhs, abs=1e-4)


def test_displacement_identity():
    basis = build_basis(1, 30)
    w = displacement_operator(np.zeros(1), 0.5, basis)
    assert np.allclose(w, np.eye(basis.dimension))


def test_displacement_coherent_column():
    kappa = 0.5
    basis = build_basis(1, 40)
    w = displacement_operator(np.array([1.0]), kappa, basis)
    m = np.arange(20)
    expected = np.exp(-kappa / 2) * math.sqrt(kappa) ** m / np.sqrt(
        [math.factorial(k) for k in m]
    )
    assert np.allclose(w[:20, 0], expected, atol=1e-10)


def test_displacement_group_inverse():
    basis = build_basis(1, 40)
    w_plus = displacement_operator(np.array([0.8]), 0.5, basis)
    w_minus = displacement_operator(np.array([-0.8]), 0.5, basis)
    low = basis.block_slices[basis.cutoff // 2].stop
    prod = (w_plus @ w_minus)[:low, :low]
    assert np.max(np.abs(prod - np.eye(low))) < 1e-8


def test_displacement_unitarity_defect():
    basis = build_basis(1, 6)
    with pytest.raises(UnitarityDefect):
        displacement_operator(np.array([3.0]), 0.5, basis)


def test_quasi_power_trace_thermal():
    _, s1, s2 = thermal_pair(200)
    assert quasi_power_trace(s1, s1, 0.3) == pytest.approx(s1.trace, abs=1e-12)
    expected = (1 / math.sqrt(6)) / (1 - 1 / math.sqrt(3))
    assert quasi_power_trace(s1, s2, 0.5) == pytest.approx(expected, abs=1e-12)


def test_quasi_power_trace_displaced_ratio():
    prob = make_problem(1.0, 1.0, y2={0: 1.0})
    s1 = lattice_state(prob.state1, 1, 120)
    s2 = lattice_state(prob.state2, 1, 120)
    c = FiniteProblem(prob, 1).displacement_factor(0.5)
    ratio = quasi_power_trace(s1, s2, 0.5) / s1.trace
    assert ratio == pytest.approx(c, abs=1e-8)


def test_displacement_covariance():
    _, s1, s2 = thermal_pair(60)
    w = displacement_operator(np.array([0.5 + 0.2j]), 0.5, s1.basis)
    moved1 = displace_state(s1, w)
    moved2 = displace_state(s2, w)
    for t in (0.25, 0.5, 0.75):
        assert quasi_power_trace(moved1, moved2, t) == pytest.approx(
            quasi_power_trace(s1, s2, t), abs=1e-8
        )


# |sqrt(kappa) y| at each cutoff 0..8, a margin below the largest at which the
# convention self-test passes; above that the cutoff is too small for y
SELF_TEST_NORM = (1e-6, 3e-3, 8e-3, 0.1, 0.2, 0.4, 0.5, 0.7, 0.8)


def oracle_displacements(modes, norm):
    """y along e_1 and along e_d, with complex phases, the same with a zero
    component, and of norm 1e-12; sqrt(kappa) |y| <= norm for kappa = 0.5."""
    phases = np.exp(1j * np.arange(1, modes + 1)) / math.sqrt(modes)
    gap = phases.copy()
    gap[modes // 2] = 0.0  # y = 0 for one mode
    along = np.eye(modes, dtype=complex)
    directions = [along[0], 1j * along[-1], phases, gap]
    return [norm * math.sqrt(2.0) * v for v in directions] + [1e-12 * phases]


def assert_matches_dense_oracle(y, kappa, basis):
    got = displacement_operator(y, kappa, basis)
    assert np.abs(got - displacement_operator_dense(y, kappa, basis)).max() <= 1e-12
    return got


@pytest.mark.parametrize(
    "modes, cutoff",
    [(d, m) for d in (1, 2, 3, 4) for m in (0, 1, 5, 12)] + [(3, 20)],
)
def test_displacement_matches_dense_oracle(modes, cutoff):
    """The chain construction gives the W of the dense generator's
    eigendecomposition.  At basis sizes above 1000 one y with complex phases
    and a zero component is compared, to bound the oracle's time."""
    basis = build_basis(modes, cutoff)
    ys = oracle_displacements(modes, SELF_TEST_NORM[min(cutoff, 5)])
    for y in ys[3:4] if basis.dimension > 1000 else ys:
        assert_matches_dense_oracle(y, 0.5, basis)


# one complex component: zero, or of modulus up to 1, with a phase
COMPONENT = st.one_of(
    st.just(0j),
    st.builds(lambda a, p: a * np.exp(1j * p), st.floats(1e-3, 1.0), st.floats(0.0, 2 * math.pi)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    components=st.integers(1, 3).flatmap(lambda d: st.lists(COMPONENT, min_size=d, max_size=d)),
    cutoff=st.integers(0, 8),
    fraction=st.floats(0.0, 1.0),
)
def test_displacement_matches_dense_oracle_property(components, cutoff, fraction):
    """W matches the dense oracle and is unitary, for y up to the largest
    norm at which the convention self-test passes at its cutoff."""
    y = np.array(components)
    norm = float(np.linalg.norm(y))
    if norm > 0.0:
        y *= fraction * SELF_TEST_NORM[cutoff] * math.sqrt(2.0) / norm
    basis = build_basis(len(y), cutoff)
    w = assert_matches_dense_oracle(y, 0.5, basis)
    assert np.abs(w @ w.conj().T - np.eye(basis.dimension)).max() <= 1e-12


def test_displaced_set_up_runs_no_fock_space_eigensolve(monkeypatch):
    """Setting up a displaced state on a 455-state basis (3 modes, cutoff 12)
    diagonalises nothing larger than cutoff + 1: the one-particle matrices and
    the one-mode chains of the displacement, not the Fock-space generator."""
    sizes = []
    eigh = np.linalg.eigh

    def recording(m, *args, **kwargs):
        sizes.append(len(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    prob = make_problem(1.0, {0: 1.0, 1: 0.3, -1: 0.3}, y2={0: 0.3 + 0.2j, 2: -0.1j})
    state = lattice_state(prob.state2, 3, 12)
    assert state.basis.dimension == 455 and len(state.slices) == 1
    assert sizes and max(sizes) <= 13


def per_block(table, slices):
    """A flat Nussbaum-Szkola table cut into the n x n tables of its blocks."""
    sizes = [sl.stop - sl.start for sl in slices]
    parts = np.split(table, np.cumsum([n * n for n in sizes])[:-1])
    return [part.reshape(n, n) for part, n in zip(parts, sizes)]


def test_nussbaum_szkola_diagonal():
    _, s1, s2 = thermal_pair(40)
    p1, p2 = nussbaum_szkola(s1, s2)
    lam1 = np.sort(np.diag(s1.matrix).real)
    got = np.sort(np.concatenate([block.sum(axis=1) for block in per_block(p1, s1.slices)]))
    assert np.allclose(got, lam1, atol=1e-12)
    assert p1.sum() == pytest.approx(s1.trace, abs=1e-12)
    assert p2.sum() == pytest.approx(s2.trace, abs=1e-12)


def test_nussbaum_szkola_consistency():
    _, s1, s2 = thermal_pair(200)
    p1, p2 = nussbaum_szkola(s1, s2)
    for t in np.linspace(0.0, 1.0, 11):
        ns = float(
            np.sum(
                np.where(p1 > 0, p1, 1.0) ** t
                * np.where(p2 > 0, p2, 1.0) ** (1 - t)
                * ((p1 > 0) & (p2 > 0))
            )
        )
        assert ns == pytest.approx(quasi_power_trace(s1, s2, t), abs=1e-10)


def test_nussbaum_szkola_generic_two_mode(rng):
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    s1 = lattice_state(prob.state1, 2, 20)
    s2 = lattice_state(prob.state2, 2, 20)
    p1, _ = nussbaum_szkola(s1, s2)
    assert p1.sum() == pytest.approx(s1.trace, abs=1e-12)


def test_neyman_pearson_identical():
    _, s1, _ = thermal_pair(60)
    res = neyman_pearson(s1, s1, 0.0)
    assert res.alpha + res.beta == pytest.approx(1.0, abs=s1.trace_deficit + 1e-12)
    assert res.e == pytest.approx(1.0, abs=s1.trace_deficit + 1e-12)


def test_neyman_pearson_orthogonal_pure():
    basis = build_basis(1, 5)
    m0 = np.zeros((6, 6), dtype=complex)
    m0[0, 0] = 1.0
    m1 = np.zeros((6, 6), dtype=complex)
    m1[1, 1] = 1.0
    s0 = TruncatedFockState.from_matrix(basis, m0)
    s1 = TruncatedFockState.from_matrix(basis, m1)
    res = neyman_pearson(s0, s1, 0.0)
    assert res.alpha == pytest.approx(0.0, abs=1e-12)
    assert res.beta == pytest.approx(0.0, abs=1e-12)


def test_neyman_pearson_thermal_audenaert():
    _, s1, s2 = thermal_pair(200)
    res = neyman_pearson(s1, s2, 0.0)
    bound = quasi_power_trace(s1, s2, 0.5)
    assert 0 < res.e <= bound + s1.trace_deficit + 1e-12
    # exact value from the independent classical reduction (diagonal states)
    p = np.diag(s1.matrix).real
    q = np.diag(s2.matrix).real
    assert res.e == pytest.approx(float(np.minimum(p, q).sum() + (1 - p.sum())), abs=1e-12)


def test_neyman_pearson_optimality(rng):
    _, s1, s2 = thermal_pair(30)
    a = 0.02
    factor = math.exp(-a)
    res = neyman_pearson(s1, s2, a)
    dim = s1.basis.dimension
    m1 = s1.matrix
    m2 = s2.matrix
    for _ in range(50):
        k = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)))
        t = q @ q.conj().T
        e_rand = factor * (1 - np.real(np.trace(m1 @ t))) + np.real(np.trace(m2 @ t))
        assert res.e <= e_rand + 1e-12


@pytest.mark.parametrize("a", [0.0, 0.05])
def test_audenaert_inequality(a):
    _, s1, s2 = thermal_pair(120)
    res = neyman_pearson(s1, s2, a, scale=1)
    bound = min(
        math.exp(-t * a) * quasi_power_trace(s1, s2, t) for t in np.linspace(0, 1, 21)
    )
    assert res.e <= bound + math.exp(-a) * s1.trace_deficit + 1e-12


def test_error_exponent_sweep():
    prob = make_problem(1.0, 2.0)
    rows = error_exponent_sweep(prob, [1, 2, 3], 25)
    for row in rows:
        expected = classical_min_error(1.0, 2.0, row.n)
        budget = 5 * row.trace_deficit + 1e-12
        assert row.e == pytest.approx(expected, abs=budget)
        # mean value theorem: |log e - log e'| <= |e - e'| / min(e, e')
        exponent_budget = budget / (row.n * min(row.e, expected))
        assert row.exponent == pytest.approx(-math.log(expected) / row.n, abs=exponent_budget)
    # single-cube run reproduces the plain test
    s1 = lattice_state(prob.state1, 1, 25)
    s2 = lattice_state(prob.state2, 1, 25)
    direct = neyman_pearson(s1, s2, 0.0, scale=1)
    assert rows[0].e == pytest.approx(direct.e, abs=1e-14)

    same = error_exponent_sweep(make_problem(1.0, 1.0), [1, 2], 20)
    for row in same:
        assert row.e == pytest.approx(1.0, abs=2 * row.trace_deficit + 1e-12)
        assert row.exponent == pytest.approx(0.0, abs=1e-3)


def test_basis_mismatch():
    _, s1, _ = thermal_pair(40)
    _, _, other = thermal_pair(41)
    with pytest.raises(BasisMismatch):
        quasi_power_trace(s1, other, 0.5)


def test_nussbaum_szkola_displaced_states():
    prob = make_problem(1.0, 1.0, y2={0: 0.8})
    s1 = lattice_state(prob.state1, 1, 80)
    s2 = lattice_state(prob.state2, 1, 80)
    p1, p2 = nussbaum_szkola(s1, s2)
    assert p1.sum() == pytest.approx(s1.trace, abs=1e-10)
    assert p2.sum() == pytest.approx(s2.trace, abs=1e-10)
    for t in (0.3, 0.7):
        ns = float(np.sum(np.where(p1 > 0, p1, 0.0) ** t * np.where(p2 > 0, p2, 0.0) ** (1 - t)))
        assert ns == pytest.approx(quasi_power_trace(s1, s2, t), abs=1e-10)


CHAIN_CUTOFF = 12


def chain_states(y1=None, y2=None):
    """A non-commuting pair on the 2-site chain; a displaced state is stored dense."""
    prob = make_problem(
        {0: 1.5, 1: 0.4 + 0.3j, -1: 0.4 - 0.3j}, {0: 2.0, 1: 0.3j, -1: -0.3j}, y1=y1, y2=y2
    )
    basis = build_basis(2, CHAIN_CUTOFF)
    return tuple(
        lattice_state(state, 2, CHAIN_CUTOFF, basis=basis) for state in (prob.state1, prob.state2)
    )


def test_each_state_diagonalised_once(monkeypatch):
    """Lattice states carry their eigensystems in closed form, so no block
    eigensolver runs for them, blocked alike or not; a state given by its
    matrices diagonalises each of its blocks once, on first use."""
    sizes = []
    block_eigh = fock._block_eigh

    def counting(block):
        sizes.append(len(block))
        return block_eigh(block)

    monkeypatch.setattr(fock, "_block_eigh", counting)

    def run(s1, s2):
        sizes.clear()
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            quasi_power_trace(s1, s2, t)
        nussbaum_szkola(s1, s2)
        return sorted(sizes)

    s1, s2 = chain_states()
    blocks = sorted(sl.stop - sl.start for sl in s1.basis.block_slices)
    assert run(s1, s2) == []
    # mixed pair: a block-diagonal state against a dense, displaced one
    s1, s2 = chain_states(y2={0: 0.3 + 0.2j})
    assert len(s1.slices) == len(blocks) and len(s2.slices) == 1
    assert run(s1, s2) == []
    s1, s2 = chain_states(y1={1: 0.2j}, y2={0: 0.3 + 0.2j})
    assert len(s1.slices) == len(s2.slices) == 1
    assert run(s1, s2) == []
    # the same matrices given directly: one eigensolve per block
    given1 = TruncatedFockState.from_matrix(s1.basis, s1.matrix)
    assert run(given1, s2) == [s1.basis.dimension]
    s1, s2 = chain_states()
    given2 = TruncatedFockState.from_blocks(s2.basis, s2.blocks, s2.slices, None)
    assert run(s1, given2) == blocks
    assert run(s1, given2) == []


@pytest.mark.parametrize(
    "y1, y2",
    [(None, None), (None, {0: 0.3 + 0.2j}), ({0: 0.3 + 0.2j}, None), ({1: 0.2j}, {0: 0.3 + 0.2j})],
    ids=["block-block", "block-dense", "dense-block", "dense-dense"],
)
def test_quasi_power_trace_matches_dense_oracle(y1, y2):
    s1, s2 = chain_states(y1, y2)
    oracle = DenseFockOracle(s1, s2)
    p1, p2 = nussbaum_szkola(s1, s2)
    q1, q2 = oracle.tables()
    for t in (0.0, 0.3, 0.7, 1.0):
        assert quasi_power_trace(s1, s2, t) == pytest.approx(oracle.quasi_power_trace(t), abs=1e-12)
        assert hellinger_sum(p1, p2, t) == pytest.approx(hellinger_sum(q1, q2, t), abs=1e-12)


@pytest.mark.parametrize("cutoff", [16, 24, 32])
def test_displaced_vacuum_matches_closed_form(cutoff):
    """A displaced vacuum is pure; its carried eigenvalues off the coherent
    vector are exact zeros, so no rounding noise is raised to the power t."""
    prob = make_problem(
        {}, {0: 1.0, 1: 0.5, -1: 0.5}, y1={0: 0.3 + 0.1j}, y2={0: -0.2 + 0.2j}
    )
    fp = FiniteProblem(prob, 1)
    s1 = lattice_state(prob.state1, 1, cutoff)
    s2 = lattice_state(prob.state2, 1, cutoff)
    assert np.count_nonzero(s1.spectra[0][0]) == 1
    for t in (0.25, 0.5, 0.75):
        assert abs(math.exp(fp.psi(t)) - quasi_power_trace(s1, s2, t)) <= 1e-12


SITE_ORACLE_PAIRS = {
    "dim1-n2": (1, 2, 12, {0: 1.2, 1: 0.3 + 0.25j}, {0: 1.8, 1: -0.2 + 0.4j, 2: 0.1j}),
    "dim1-n3": (1, 3, 8, {0: 1.2, 1: 0.3 + 0.25j}, {0: 1.8, 1: -0.2 + 0.4j, 2: 0.1j}),
    "dim2-n2": (
        2, 2, 6, {(0, 0): 1.2, (1, 0): 0.2 + 0.15j, (0, 1): 0.1 - 0.2j},
        {(0, 0): 1.6, (1, 1): 0.3 + 0.25j, (1, -1): -0.1j},
    ),
}
SITE_ORACLE_SHIFTS = {
    "undisplaced": (None, None),
    "one-displaced": (None, 0.3 + 0.2j),
    "both-displaced": (-0.1 + 0.25j, 0.3 + 0.2j),
}


def site_oracle_states(pair, shift, build=lattice_state):
    """The pair SITE_ORACLE_PAIRS[pair], shifted by SITE_ORACLE_SHIFTS[shift]
    (state 1 at the last site, state 2 at the origin), built by ``build``."""
    dim, n, cutoff, c1, c2 = SITE_ORACLE_PAIRS[pair]
    origin, last = (0,) * dim, (n - 1,) * dim
    y1, y2 = SITE_ORACLE_SHIFTS[shift]
    prob = make_problem(
        c1, c2, dim=dim,
        y1=None if y1 is None else {last: y1},
        y2=None if y2 is None else {origin: y2},
    )
    basis = build_basis(n**dim, cutoff)
    return [build(s, n, cutoff, basis=basis) for s in (prob.state1, prob.state2)]


@pytest.mark.parametrize("shift", SITE_ORACLE_SHIFTS)
@pytest.mark.parametrize("pair", SITE_ORACLE_PAIRS)
def test_real_frame_matches_site_basis_oracle(pair, shift):
    """The real-frame states with carried spectra give the traces, the optimal
    test and the Nussbaum-Szkola sums of the site-basis states, which are
    diagonalised by an eigensolver."""
    frame = site_oracle_states(pair, shift)
    site = site_oracle_states(pair, shift, build=site_lattice_state)
    ts = (0.1, 0.3, 0.5, 0.7, 0.9)
    for t in ts:
        assert quasi_power_trace(*frame, t) == pytest.approx(quasi_power_trace(*site, t), abs=1e-12)
    got, want = neyman_pearson(*frame, 0.0), neyman_pearson(*site, 0.0)
    assert got.alpha == pytest.approx(want.alpha, abs=1e-12)
    assert got.beta == pytest.approx(want.beta, abs=1e-12)
    (p1, p2), (q1, q2) = nussbaum_szkola(*frame), nussbaum_szkola(*site)
    for t in ts:
        assert hellinger_sum(p1, p2, t) == pytest.approx(hellinger_sum(q1, q2, t), abs=1e-12)


def bench_shaped_pair(cutoff, displaced):
    """A non-commuting pair on 3 sites, shaped like the Fock benchmark
    workloads: undisplaced (block-diagonal) or with state 2 displaced (dense)."""
    prob = make_problem(
        {0: 1.5, 1: 0.4 + 0.3j, -1: 0.4 - 0.3j},
        {0: 2.0, 1: 0.3j, -1: -0.3j},
        y2={0: 0.3 + 0.2j, 2: -0.1j} if displaced else None,
    )
    basis = build_basis(3, cutoff)
    return tuple(lattice_state(s, 3, cutoff, basis=basis) for s in (prob.state1, prob.state2))


NP_PAIRS = {
    "thermal": lambda: thermal_pair(60)[1:],
    "thermal-identical": lambda: thermal_pair(60)[1:2] * 2,
    "thermal-reversed": lambda: thermal_pair(60)[:0:-1],
    **{
        f"site-{pair}-{shift}": functools.partial(site_oracle_states, pair, shift)
        for pair in SITE_ORACLE_PAIRS
        for shift in SITE_ORACLE_SHIFTS
    },
    "bench-blocks-cutoff20": lambda: bench_shaped_pair(20, displaced=False),
    "bench-displaced-cutoff12": lambda: bench_shaped_pair(12, displaced=True),
}


@pytest.mark.parametrize("pair", NP_PAIRS)
def test_neyman_pearson_matches_projector_oracle(pair):
    """e from the spectrum alone, and alpha and beta from the projector, agree
    with alpha, beta and e all read off the projector, whether e is read
    before alpha and beta or after them; e = e^(-a) alpha + beta holds to
    rounding."""
    s1, s2 = NP_PAIRS[pair]()
    dim = s1.basis.dimension
    for a, scale in ((0.0, 1), (0.3, 1), (-0.2, 1), (0.15, 3), (-0.4, 3)):
        factor = math.exp(-scale * a)
        want = neyman_pearson_projector(s1, s2, a, scale=scale)
        res = neyman_pearson(s1, s2, a, scale=scale)
        e_first = res.e
        assert (res.alpha, res.beta, e_first) == pytest.approx(want, abs=1e-12)
        res = neyman_pearson(s1, s2, a, scale=scale)
        alpha, beta = res.alpha, res.beta
        assert (alpha, beta, res.e) == pytest.approx(want, abs=1e-12)
        budget = 256 * dim * np.finfo(float).eps * max(1.0, factor)
        for e in (e_first, res.e):
            assert abs(e - (factor * alpha + beta)) <= budget


def test_neyman_pearson_at_large_weights():
    """alpha, beta and e stay on the oracle's for e^(-a) far from 1."""
    s1, s2 = chain_states(y2={0: 0.3 + 0.2j})
    for a in (-40.0, -20.0, 20.0, 40.0):
        res = neyman_pearson(s1, s2, a)
        alpha, beta, _ = neyman_pearson_projector(s1, s2, a)
        assert res.alpha == pytest.approx(alpha, abs=1e-12)
        assert res.beta == pytest.approx(beta, abs=1e-12)
        assert res.e == pytest.approx(math.exp(-a) * alpha + beta, rel=1e-12)


class CountingLinalg:
    """``np.linalg`` with its eigh and eigvalsh calls counted."""

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def eigh(self, m, *args, **kwargs):
        self.calls["eigh"] += 1
        return np.linalg.eigh(m, *args, **kwargs)

    def eigvalsh(self, m, *args, **kwargs):
        self.calls["eigvalsh"] += 1
        return np.linalg.eigvalsh(m, *args, **kwargs)


class CountingNumpy:
    """numpy with a ``CountingLinalg``."""

    def __init__(self):
        self.linalg = CountingLinalg()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def fock_solves(monkeypatch):
    """The eigensolver calls that ``gaussht.fock`` makes, by name."""
    numpy = CountingNumpy()
    monkeypatch.setattr(fock, "np", numpy)
    return numpy.linalg.calls


@pytest.mark.parametrize("y2", [None, {0: 0.3 + 0.2j}], ids=["blocks", "mixed"])
def test_neyman_pearson_solves_only_what_is_read(fock_solves, y2):
    """The call itself solves nothing.  Reading e first runs one eigvalsh per
    block; alpha and beta then run one eigh per block, once.  Reading alpha
    first, as the sweep does, makes alpha, beta and e cost one eigh per block
    and nothing else, and releases the states."""
    s1, s2 = chain_states(y2=y2)
    blocks = len(s1.slices) if s1.slices == s2.slices else 1
    fock_solves.clear()
    res = neyman_pearson(s1, s2, 0.1)
    assert not fock_solves
    res.e, res.e
    assert fock_solves == {"eigvalsh": blocks}
    for _ in range(2):
        res.alpha, res.beta, res.e
    assert fock_solves == {"eigvalsh": blocks, "eigh": blocks}
    fock_solves.clear()
    res = neyman_pearson(s1, s2, 0.1)
    for _ in range(2):
        res.alpha, res.beta, res.e
    assert fock_solves == {"eigh": blocks}
    assert not hasattr(res, "_states")
    assert repr(res) == f"NPResult(alpha={res.alpha!r}, beta={res.beta!r}, e={res.e!r})"


def test_error_exponent_sweep_solves_once_per_block(fock_solves):
    cutoff = 12
    rows = error_exponent_sweep(make_problem(1.0, {0: 2.0, 1: 0.3j, -1: -0.3j}), [1, 2], cutoff)
    assert len(rows) == 2
    assert fock_solves == {"eigh": 2 * (cutoff + 1)}


@pytest.mark.parametrize(
    "a, scale", [(-800.0, 1), (800.0, 1), (-300.0, 3), (math.nan, 1), (math.inf, 1), (-math.inf, 1)]
)
def test_threshold_outside_the_double_range_is_named(a, scale):
    """e^(-scale a) must be a positive finite double: an overflow, an
    underflow to 0 or a NaN is a DomainError, not a raw arithmetic error."""
    _, s1, s2 = thermal_pair(10)
    with pytest.raises(DomainError, match="not a positive finite number"):
        neyman_pearson(s1, s2, a, scale=scale)
    with pytest.raises(DomainError):
        error_exponent_sweep(make_problem(1.0, 2.0), [scale], 10, a=a)


def test_sweep_rejects_an_error_that_is_not_positive(monkeypatch):
    """An error at or below 0 (below the rounding of the spectrum) has no
    exponent; the sweep names it instead of failing in the logarithm."""
    monkeypatch.setattr(fock.NPResult, "e", 0.0)
    with pytest.raises(DomainError, match="not positive"):
        error_exponent_sweep(make_problem(1.0, 2.0), [1], 10)


def random_unitary(rng, size, real):
    m = rng.standard_normal((size, size))
    if not real:
        m = m + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def assert_spectra_rebuild_blocks(state):
    for block, (values, vectors) in zip(state.blocks, state.spectra):
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.abs(rebuilt - block).max() <= 1e-13 * np.abs(block).max()


# nonzero eigenvalues stay above 1e-6, so that no block entry at cutoff 8
# reaches the subnormal range, where it keeps no relative precision
EIGENVALUE = st.one_of(st.just(0.0), st.floats(1e-6, 0.95))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    lam=st.integers(1, 3).flatmap(lambda d: st.lists(EIGENVALUE, min_size=d, max_size=d)),
    cutoff=st.integers(0, 8),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_carried_eigenpairs_rebuild_blocks(lam, cutoff, real, seed):
    """The closed-form eigenpairs of a Gaussian state rebuild every stored
    block, and a unitary conjugation, whose dense block is formed from the
    carried eigenpairs, gives W rho W*."""
    rng = np.random.default_rng(seed)
    basis = build_basis(len(lam), cutoff)
    v = random_unitary(rng, len(lam), real)
    r = (v * np.array(lam)) @ v.conj().T
    state = gaussian_density(r, float(np.sum(np.log1p(-np.array(lam)))), basis)
    assert_spectra_rebuild_blocks(state)
    w = random_unitary(rng, basis.dimension, real)
    moved = displace_state(state, w)
    assert_spectra_rebuild_blocks(moved)
    direct = w @ state.matrix @ w.conj().T
    assert np.abs(moved.blocks[0] - direct).max() <= 1e-13 * np.abs(direct).max()


NS_LAYOUT_PAIRS = {
    "thermal": lambda: thermal_pair(40)[1:],
    "chain-blocks": chain_states,
    "undisplaced-displaced": lambda: chain_states(y2={0: 0.3 + 0.2j}),
}


@pytest.mark.parametrize("pair", NS_LAYOUT_PAIRS)
def test_nussbaum_szkola_flat_tables_match_dense(pair):
    """The flat tables are the shared blocks of the dense D x D tables, in
    the order in which boolean indexing visits them; the rest is zero."""
    s1, s2 = NS_LAYOUT_PAIRS[pair]()
    dim = s1.basis.dimension
    mask = np.zeros((dim, dim), dtype=bool)
    for sl in s1.slices if s1.slices == s2.slices else [slice(0, dim)]:
        mask[sl, sl] = True
    for flat, dense in zip(nussbaum_szkola(s1, s2), nussbaum_szkola_dense(s1, s2)):
        assert np.array_equal(flat, dense[mask])
        assert not dense[~mask].any()


def test_nussbaum_szkola_tables_hold_shared_blocks_only():
    """At 3 modes and cutoff 20 (D = 1771) an undisplaced pair shares the
    photon sectors, whose squared sizes sum to 256 795, not 1771^2."""
    prob = make_problem({0: 1.5, 1: 0.4 + 0.3j, -1: 0.4 - 0.3j}, {0: 2.0, 1: 0.3j, -1: -0.3j})
    basis = build_basis(3, 20)
    s1, s2 = (lattice_state(s, 3, 20, basis=basis) for s in (prob.state1, prob.state2))
    p1, p2 = nussbaum_szkola(s1, s2)
    assert p1.size == p2.size == 256_795


@pytest.fixture
def overlap_passes(monkeypatch):
    """Records the (s1, s2) of every overlap computation."""
    passes = []
    overlap_blocks = fock._overlap_blocks

    def counting(s1, s2):
        passes.append((s1, s2))
        return overlap_blocks(s1, s2)

    monkeypatch.setattr(fock, "_overlap_blocks", counting)
    return passes


PAIR_TS = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.mark.parametrize("y2", [None, {0: 0.3 + 0.2j}], ids=["blocks", "mixed"])
def test_overlap_computed_once_per_ordered_pair(overlap_passes, y2):
    s1, s2 = chain_states(y2=y2)
    first = [quasi_power_trace(s1, s2, t) for t in PAIR_TS]
    nussbaum_szkola(s1, s2)
    assert [quasi_power_trace(s1, s2, t) for t in PAIR_TS] == first
    assert overlap_passes == [(s1, s2)]
    # the other order has an overlap of its own, not this one
    for t in PAIR_TS:
        assert quasi_power_trace(s2, s1, t) == pytest.approx(
            quasi_power_trace(s1, s2, 1.0 - t), abs=1e-14
        )
    assert overlap_passes == [(s1, s2), (s2, s1)]
    # the same content under a new identity is a new pair
    copy = dataclasses.replace(s2)
    assert [quasi_power_trace(s1, copy, t) for t in PAIR_TS] == first
    assert overlap_passes[-1] == (s1, copy) and len(overlap_passes) == 3


def test_overlap_cache_dies_with_its_states():
    s1, s2 = chain_states(y2={0: 0.3 + 0.2j})
    quasi_power_trace(s1, s2, 0.5)
    assert len(s1._overlaps) == 1
    del s2
    gc.collect()
    assert len(s1._overlaps) == 0
    quasi_power_trace(s1, s1, 0.5)
    ref = weakref.ref(s1)
    del s1
    assert ref() is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    lams=st.integers(1, 3).flatmap(
        lambda d: st.tuples(*(st.lists(EIGENVALUE, min_size=d, max_size=d),) * 2)
    ),
    cutoff=st.integers(0, 8),
    displaced=st.sampled_from([(False, True), (True, False), (True, True), (False, False)]),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_nussbaum_szkola_hellinger_sums_property(lams, cutoff, displaced, fraction, seed):
    """The Hellinger sums of the flat tables are the quasi-power traces, for
    block-diagonal and displaced (dense) states in every combination."""
    rng = np.random.default_rng(seed)
    d = len(lams[0])
    basis = build_basis(d, cutoff)
    states = []
    for lam, moved in zip(lams, displaced):
        v = random_unitary(rng, d, real=False)
        state = gaussian_density((v * lam) @ v.conj().T, float(np.sum(np.log1p(-np.array(lam)))), basis)
        if moved:
            y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            y *= fraction * SELF_TEST_NORM[cutoff] * math.sqrt(2.0) / np.linalg.norm(y)
            state = displace_state(state, displacement_operator(y, 0.5, basis))
        states.append(state)
    p1, p2 = nussbaum_szkola(*states)
    for t in PAIR_TS:
        assert hellinger_sum(p1, p2, t) == pytest.approx(quasi_power_trace(*states, t), abs=1e-10)
