import math

import numpy as np
import pytest

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
from gaussht.errors import BasisMismatch, SizeOverflow, SpectralRadiusError, UnitarityDefect
from gaussht.fock import TruncatedFockState

from conftest import (
    DenseFockOracle,
    classical_min_error,
    hellinger_sum,
    make_problem,
    random_psd_contraction,
)
from oracles import fock_operator, permanent_repeated, second_quantized_trace_check


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


def test_nussbaum_szkola_diagonal():
    _, s1, s2 = thermal_pair(40)
    p1, p2 = nussbaum_szkola(s1, s2)
    lam1 = np.sort(np.diag(s1.matrix).real)
    got = np.sort(p1.sum(axis=1))
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
    assert run(s1, s2) == sorted(blocks + blocks)
    # mixed pair: state 1 is solved block by block, never as the dense s1.matrix
    s1, s2 = chain_states(y2={0: 0.3 + 0.2j})
    assert len(s1.slices) == len(blocks) and len(s2.slices) == 1
    assert run(s1, s2) == sorted(blocks + [s1.basis.dimension])


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
