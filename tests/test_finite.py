import itertools
import json
import math

import numpy as np
import pytest

from gaussht import (
    FiniteProblem,
    build_basis,
    build_state_data,
    lattice_state,
    quasi_power_trace,
    restrict_symbol,
)
from gaussht.cli import parse_config, run
from gaussht.finite import real_frame
from gaussht.errors import NegativeParameter, StrictPositivityRequired

from conftest import DenseFiniteOracle, make_problem
from oracles import site_frame, site_Q, site_R


def bernoulli_s2(a, b):
    return a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))


def test_build_state_data_constant():
    prob = make_problem(1.0, 2.0)
    data = build_state_data(prob.state1, 3)
    assert np.allclose(site_Q(data), np.eye(3))
    assert np.allclose(site_R(data), 0.5 * np.eye(3))
    assert data.logN == pytest.approx(-3 * math.log(2), abs=1e-12)


def test_build_state_data_cosine():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    data = build_state_data(prob.state1, 2)
    assert np.allclose(np.linalg.eigvalsh(site_R(data)), [0.5, 2 / 3], atol=1e-12)
    # R is a function of Q, so they commute
    assert np.max(np.abs(site_R(data) @ site_Q(data) - site_Q(data) @ site_R(data))) < 1e-9


def test_build_state_data_vacuum():
    prob = make_problem({}, 1.0)
    data = build_state_data(prob.state1, 2)
    assert np.allclose(site_R(data), 0.0)
    assert data.logN == 0.0


def test_displacement_factor_trivial_and_scalar():
    prob = make_problem(1.0, 2.0)
    assert FiniteProblem(prob, 2).displacement_factor(0.37) == 1.0

    prob = make_problem(1.0, 1.0, y2={0: 1.0})
    c = FiniteProblem(prob, 1).displacement_factor(0.5)
    assert c == pytest.approx(math.exp(-1 / (2 * (3 + 2 * math.sqrt(2)))), abs=1e-14)


def test_displacement_factor_vacuum_limits():
    # null hypothesis is the vacuum: t -> 0 limit keeps the bracket finite
    fp = FiniteProblem(make_problem({}, 1.0, y2={0: 1.0}), 1)
    assert fp.displacement_factor(0.0) == pytest.approx(math.exp(-0.25), abs=1e-14)
    # alternative is the vacuum: t -> 1 limit, bracket is A_1 + I
    fp = FiniteProblem(make_problem(1.0, {}, y2={0: 1.0}), 1)
    assert fp.displacement_factor(1.0) == pytest.approx(math.exp(-0.25), abs=1e-14)
    # away from the vacuum both limits are 1
    fp = FiniteProblem(make_problem(1.0, 2.0, y2={0: 1.0}), 1)
    assert fp.displacement_factor(0.0) == 1.0
    assert fp.displacement_factor(1.0) == 1.0


def test_vacuum_endpoint_against_fock():
    # Tr rho1 (rho2)^0 with a displaced vacuum alternative, via the simulator
    prob = make_problem(1.0, {}, y2={0: 1.0})
    fp = FiniteProblem(prob, 1)
    s1 = lattice_state(prob.state1, 1, 120)
    s2 = lattice_state(prob.state2, 1, 120)
    assert math.exp(fp.psi(1.0)) == pytest.approx(
        quasi_power_trace(s1, s2, 1.0), abs=1e-8 + s1.trace_deficit + s2.trace_deficit
    )


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0])
def test_psi_identical_states(t):
    prob = make_problem(1.0, 1.0)
    assert FiniteProblem(prob, 3).psi(t) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_psi_constant_symbols(n):
    prob = make_problem(1.0, 2.0)
    assert FiniteProblem(prob, n).psi(0.5) == pytest.approx(
        -n * math.log(math.sqrt(6) - math.sqrt(2)), abs=1e-10
    )


def test_psi_endpoints_zero_for_strictly_positive():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    fp = FiniteProblem(prob, 4)
    assert fp.psi(0.0) == pytest.approx(0.0, abs=1e-9)
    assert fp.psi(1.0) == pytest.approx(0.0, abs=1e-9)


def test_chernoff_finite():
    value, t_star = FiniteProblem(make_problem(1.0, 1.0), 2).chernoff()
    assert value == pytest.approx(0.0, abs=1e-10)

    prob = make_problem(1.0, 2.0)
    fp = FiniteProblem(prob, 1)
    # dense-grid scan oracle at resolution 1e-5
    ts = np.arange(0.0, 1.0 + 1e-5, 1e-5)
    scan = np.array([fp.psi(t) for t in ts])
    value, t_star = fp.chernoff()
    assert value == pytest.approx(-scan.min(), abs=1e-9)
    assert t_star == pytest.approx(ts[scan.argmin()], abs=1e-4)

    v1, _ = fp.chernoff()
    v4, _ = FiniteProblem(prob, 4).chernoff()
    assert v4 == pytest.approx(4 * v1, abs=1e-10)


def test_hoeffding_finite():
    prob = make_problem(1.0, 2.0)
    d12 = 2 * bernoulli_s2(0.5, 2 / 3)
    for n in (1, 3):
        assert FiniteProblem(prob, n).hoeffding(0.0) == pytest.approx(n * d12, abs=1e-9)
    assert FiniteProblem(make_problem(1.0, 1.0), 2).hoeffding(0.3) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(NegativeParameter):
        FiniteProblem(prob, 1).hoeffding(-0.1)

    n, r = 2, 0.05 * 2
    fp = FiniteProblem(prob, n)
    value = fp.hoeffding(r)
    assert 0 < value < n * d12
    ts = np.arange(0.0, 1.0 - 1e-6, 2e-5)
    scan = max((-t * r - fp.psi(t)) / (1 - t) for t in ts)
    assert value == pytest.approx(scan, abs=1e-8)


def test_relative_entropy_finite():
    same = FiniteProblem(make_problem(1.0, 1.0), 2)
    assert same.relative_entropy() == pytest.approx(0.0, abs=1e-10)
    fp = FiniteProblem(make_problem(1.0, 2.0), 1)
    assert fp.relative_entropy("12") == pytest.approx(
        2 * bernoulli_s2(0.5, 2 / 3), abs=1e-12
    )
    assert fp.relative_entropy("21") == pytest.approx(
        3 * bernoulli_s2(2 / 3, 0.5), abs=1e-12
    )
    with pytest.raises(StrictPositivityRequired):
        FiniteProblem(make_problem({}, 1.0), 1).relative_entropy()


def test_relative_entropy_with_displacement_fd():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0, y2={0: 0.5 + 0.25j})
    n = 3
    fp = FiniteProblem(prob, n)
    d12 = fp.relative_entropy("12")
    h = 1e-5
    fd = (fp.psi(1.0) - fp.psi(1.0 - h)) / h
    assert d12 == pytest.approx(fd, abs=1e-3 * n)


def test_convexity_random(rng):
    prob = make_problem({0: 2.0, 1: 0.4, -1: 0.4}, {0: 1.2, 2: 0.3, -2: 0.3})
    fp = FiniteProblem(prob, 3)
    for _ in range(20):
        s, t, lam = rng.uniform(0, 1, 3)
        mid = lam * s + (1 - lam) * t
        assert fp.psi(mid) <= lam * fp.psi(s) + (1 - lam) * fp.psi(t) + 1e-9


def test_displacement_separation():
    base = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    moved = make_problem(
        {0: 1.5, 1: 0.5, -1: 0.5}, 2.0, y1={1: 0.3j}, y2={0: 1.0, 2: -0.4}
    )
    fp0 = FiniteProblem(base, 3)
    fp1 = FiniteProblem(moved, 3)
    for t in (0.1, 0.5, 0.9):
        gap = fp1.psi(t) - fp0.psi(t)
        assert gap == pytest.approx(math.log(fp1.displacement_factor(t)), abs=1e-9)


def test_fock_oracle_equivalence():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    # (n, cutoff): cutoff 60 keeps the tail below 1e-6 for one and two modes;
    # three modes at cutoff 60 would blow the basis cap, so n = 3 runs at 30
    # with the measured deficits folded into the tolerance.
    for n, cutoff in ((1, 60), (2, 60), (3, 30)):
        fp = FiniteProblem(prob, n)
        s1 = lattice_state(prob.state1, n, cutoff)
        s2 = lattice_state(prob.state2, n, cutoff)
        budget = 1e-6 + s1.trace_deficit + s2.trace_deficit
        for t in (0.25, 0.5, 0.75):
            assert math.exp(fp.psi(t)) == pytest.approx(
                quasi_power_trace(s1, s2, t), abs=budget
            )


def finite_cli_report(tmp_path, q1, q2, t_grid, r_list=()):
    """The CLI ``finite`` report at n = 2 of two constant symbols, kappa 0.5."""
    doc = {"command": "finite", "dim": 1, "kappa": 0.5, "q1": q1, "q2": q2,
           "n_list": [2], "t_grid": t_grid, "r_list": list(r_list)}
    assert run(parse_config(json.dumps(doc)), out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "finite.json").read_text())
    return [row[2] for row in report["rows"]], report["scalars"]


def test_finite_report_fields(tmp_path):
    psi_values, scalars = finite_cli_report(tmp_path, {"0": 1.0}, {"0": 2.0}, 11, r_list=(0.05,))
    assert max(psi_values) <= 1e-9
    assert scalars["n=2/chernoff"] >= 0
    d12 = scalars["n=2/rel_entropy_12"]
    assert d12 == pytest.approx(2 * 2 * bernoulli_s2(0.5, 2 / 3), abs=1e-9)
    assert "n=2/hoeffding[r=0.05]" in scalars

    _, vac = finite_cli_report(tmp_path, {}, {"0": 1.0}, 5)
    assert vac["n=2/rel_entropy_12"] is None


def test_touching_zero_symbol_allowed_for_psi_only():
    # q = 1 + cos x reaches 0: fine for psi and Chernoff, gated for entropies
    prob = make_problem({0: 1.0, 1: 0.5, -1: 0.5}, 2.0)
    fp = FiniteProblem(prob, 6)
    for t in (0.0, 0.4, 1.0):
        assert fp.psi(t) <= 1e-9
    value, _ = fp.chernoff()
    assert value > 0
    with pytest.raises(StrictPositivityRequired):
        fp.relative_entropy("12")
    with pytest.raises(StrictPositivityRequired):
        fp.hoeffding(0.0)
    assert fp.hoeffding(0.01) > 0


# Symbols with complex coefficients, so that the real frame is not the site
# basis; each side comes odd (J fixes the centre site) and even (it fixes none).
ORACLE_SYMBOLS = {
    1: (
        {0: 1.6, 1: 0.3 + 0.4j, 2: -0.2 + 0.1j},
        {0: 2.0, 1: -0.25 + 0.3j, 3: 0.1 - 0.2j},
    ),
    2: (
        {(0, 0): 1.8, (1, 0): 0.2 + 0.3j, (0, 1): -0.1 + 0.25j, (1, 1): 0.15 - 0.1j},
        {(0, 0): 1.3, (1, 0): -0.2 + 0.1j, (1, -1): 0.1 + 0.2j},
    ),
    3: (
        {(0, 0, 0): 1.9, (1, 0, 0): 0.2 - 0.2j, (0, 1, 1): 0.1 + 0.3j},
        {(0, 0, 0): 1.4, (0, 0, 1): -0.15 + 0.2j, (1, -1, 0): 0.1 + 0.1j},
    ),
}
ORACLE_CASES = [(1, 4), (1, 5), (2, 3), (2, 4), (3, 2), (3, 3)]
ORACLE_TS = (0.0, 0.1, 0.37, 0.5, 0.9, 1.0)


# (site of y1, two sites of y2) inside every cube of ORACLE_CASES, none at a centre
OFF_CENTRE_SITES = {
    1: ((1,), (0,), (3,)),
    2: ((1, 0), (0, 0), (2, 1)),
    3: ((1, 0, 0), (0, 0, 0), (1, 1, 0)),
}


def off_centre_displacements(dim):
    one, corner, far = OFF_CENTRE_SITES[dim]
    return {one: -0.3 + 0.1j}, {corner: 0.5 - 0.2j, far: 0.1 + 0.4j}


def assert_matches_oracle(fp, oracle, entropies=True):
    for t in ORACLE_TS:
        # psi vanishes at the endpoints of a strictly positive pair, where only
        # the absolute rounding of its O(N) terms is meaningful
        assert fp.psi(t) == pytest.approx(oracle.psi(t), rel=1e-10, abs=1e-11)
        assert fp.displacement_factor(t) == pytest.approx(
            oracle.displacement_factor(t), rel=1e-10
        )
    if entropies:
        for direction in ("12", "21"):
            assert fp.relative_entropy(direction) == pytest.approx(
                oracle.relative_entropy(direction), rel=1e-10
            )


@pytest.mark.parametrize("dim, n", ORACLE_CASES)
def test_finite_problem_matches_dense_oracle(dim, n):
    y1, y2 = off_centre_displacements(dim)
    prob = make_problem(*ORACLE_SYMBOLS[dim], dim=dim, y1=y1, y2=y2)
    fp = FiniteProblem(prob, n)
    assert fp.has_displacement
    assert_matches_oracle(fp, DenseFiniteOracle(prob, n))


@pytest.mark.parametrize("dim, n", [(1, 5), (2, 4)])
@pytest.mark.parametrize("vacuum", ["state1", "state2"])
def test_vacuum_endpoints_match_dense_oracle(dim, n, vacuum):
    # the vacuum closed forms at t = 0 (state 1) and t = 1 (state 2)
    y1, y2 = off_centre_displacements(dim)
    q1, q2 = ORACLE_SYMBOLS[dim]
    q1, q2 = ({}, q2) if vacuum == "state1" else (q1, {})
    prob = make_problem(q1, q2, dim=dim, y1=y1, y2=y2)
    fp = FiniteProblem(prob, n)
    oracle = DenseFiniteOracle(prob, n)
    assert_matches_oracle(fp, oracle, entropies=False)
    t = 0.0 if vacuum == "state1" else 1.0
    assert fp.displacement_factor(t) < 1.0


def test_lattice_state_displaced_off_centre():
    # A 3-site chain with complex coefficients, displaced on site 0: the Fock
    # state must carry the displacement on the sites, not in the real frame
    # (the two agree only on one site, where J = I).
    prob = make_problem(
        {0: 0.45, 1: 0.1 + 0.15j, 2: -0.05 + 0.05j}, {0: 0.3, 1: -0.1 + 0.05j},
        y2={0: 0.6 - 0.3j},
    )
    fp = FiniteProblem(prob, 3)
    basis = build_basis(3, 12)
    s1 = lattice_state(prob.state1, 3, 12, basis=basis)
    s2 = lattice_state(prob.state2, 3, 12, basis=basis)
    budget = 1e-9 + s1.trace_deficit + s2.trace_deficit
    for t in (0.25, 0.5, 0.75):
        assert quasi_power_trace(s1, s2, t) == pytest.approx(math.exp(fp.psi(t)), abs=budget)


def toeplitz_by_sites(coeffs, dim, n):
    """Q[idx(k), idx(k')] = c(k - k') by direct enumeration of the cube."""
    sites = list(itertools.product(range(n), repeat=dim))
    q = np.zeros((len(sites), len(sites)), dtype=complex)
    for a, k in enumerate(sites):
        for b, kk in enumerate(sites):
            q[a, b] = coeffs.get(tuple(x - y for x, y in zip(k, kk)), 0.0)
    return q


@pytest.mark.parametrize("dim, n", [(1, 7), (1, 8), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_real_frame_identity(rng, dim, n):
    offsets = list(itertools.product(range(-2, 3), repeat=dim))
    coeffs = {}
    for j in offsets:
        if j not in coeffs:
            c = complex(*rng.standard_normal(2))
            coeffs[j] = c
            coeffs[tuple(-k for k in j)] = np.conj(c)
    coeffs[(0,) * dim] = float(rng.standard_normal())
    q = toeplitz_by_sites(coeffs, dim, n)
    size = len(q)
    u = (np.eye(size) + 1j * np.eye(size)[::-1]) / math.sqrt(2.0)
    m = u.conj().T @ q @ u
    scale = float(np.abs(q).max())
    assert float(np.abs(m.imag).max()) <= 1e-14 * scale
    assert np.linalg.eigvalsh(m.real) == pytest.approx(np.linalg.eigvalsh(q), abs=1e-12 * scale)
    assert float(np.abs(real_frame(q) - m.real).max()) <= 1e-14 * scale
    assert float(np.abs(site_frame(m.real) - q).max()) <= 1e-14 * scale


def test_build_state_data_records_clipping():
    # q = (1 - cos x)^12 touches zero to 24th order: the smallest eigenvalues
    # of its 80-site section lie below rounding, and some come out negative
    coeffs = {0: 1.0}
    for _ in range(12):
        step = {}
        for j, c in coeffs.items():
            for k, w in ((-1, -0.5), (0, 1.0), (1, -0.5)):
                step[j + k] = step.get(j + k, 0.0) + w * c
        coeffs = step
    state = make_problem(coeffs, 1.0).state1
    data = build_state_data(state, 80)
    raw = np.linalg.eigvalsh(real_frame(restrict_symbol(state.symbol, 80)))
    assert -1e-9 < data.clipped < 0.0
    assert data.q.min() == 0.0
    assert data.clipped == pytest.approx(raw.min(), abs=1e-14)
    assert build_state_data(make_problem(1.0, 2.0).state1, 3).clipped == 0.0
