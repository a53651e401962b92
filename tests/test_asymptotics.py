import math

import numpy as np
import pytest

from gaussht import FiniteProblem, build_state_data, make_rule
from gaussht.asymptotics import AsymptoticProblem
from gaussht.errors import (
    NegativeParameter,
    ParameterOutOfRange,
    StrictPositivityRequired,
)
from gaussht.lattice import restrict_symbol

from conftest import make_problem, nested_hoeffding_threshold
from oracles import integrate, psi_second_unweighted, trace_fn

RULE = make_rule(1)


def test_integrate_examples():
    assert integrate(lambda x: 3.25, RULE) == pytest.approx(3.25, abs=1e-14)
    assert integrate(np.cos, make_rule(1, 8)) == pytest.approx(0.0, abs=1e-14)
    # closed form: mean of log(a + cos x) is log((a + sqrt(a^2 - 1)) / 2)
    got = integrate(lambda x: np.log(2.5 + np.cos(x)), make_rule(1, 256))
    assert got == pytest.approx(math.log((2.5 + math.sqrt(5.25)) / 2), abs=1e-12)


def test_psi_asym_examples():
    same = make_problem(1.0, 1.0)
    for t in (0.0, 0.3, 1.0):
        assert AsymptoticProblem(same, RULE).psi(t) == pytest.approx(0.0, abs=1e-13)
    prob = make_problem(1.0, 2.0)
    assert AsymptoticProblem(prob, RULE).psi(0.5) == pytest.approx(
        -math.log(math.sqrt(6) - math.sqrt(2)), abs=1e-13
    )


def test_psi_asym_matches_finite_volume():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    n = 256
    fp = FiniteProblem(prob, n)
    assert fp.psi(0.5) / n == pytest.approx(AsymptoticProblem(prob, RULE).psi(0.5), abs=5e-3)


def test_boundary_derivatives():
    same = make_problem(1.0, 1.0)
    assert AsymptoticProblem(same, RULE).dpsi_boundary("left_at_1") == pytest.approx(0.0, abs=1e-14)
    prob = make_problem(1.0, 2.0)
    d12 = 2 * (0.5 * math.log(0.75) + 0.5 * math.log(1.5))
    d21 = 3 * ((2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3))
    ap = AsymptoticProblem(prob, RULE)
    assert ap.dpsi_boundary("left_at_1") == pytest.approx(d12, abs=1e-14)
    assert ap.dpsi_boundary("right_at_0") == pytest.approx(-d21, abs=1e-14)
    with pytest.raises(StrictPositivityRequired):
        AsymptoticProblem(make_problem({}, 1.0), RULE).dpsi_boundary("left_at_1")


def test_psi_second_scalar_value():
    prob = make_problem(1.0, 2.0)
    w = math.sqrt(1 / 3)
    L = math.log(0.5) - math.log(2 / 3)
    ap = AsymptoticProblem(prob, RULE)
    assert ap.psi_second(0.5) == pytest.approx(w * L**2 / (1 - w) ** 2, abs=1e-13)
    same = AsymptoticProblem(make_problem(1.0, 1.0), RULE)
    assert same.psi_second(0.5) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("t0", [0.3, 0.5, 0.7])
def test_psi_second_finite_difference_arbitration(t0):
    """Central differences decide between the two curvature integrands."""
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    h = 1e-4
    fd = (ap.psi(t0 + h) - 2 * ap.psi(t0) + ap.psi(t0 - h)) / h**2
    weighted = ap.psi_second(t0)
    plain = psi_second_unweighted(ap, t0)
    assert abs(weighted - fd) / abs(fd) < 1e-6
    assert abs(plain - fd) / abs(fd) > 1e-2


def test_mean_chernoff():
    value, _ = AsymptoticProblem(make_problem(1.0, 1.0), RULE).mean_chernoff()
    assert value == pytest.approx(0.0, abs=1e-12)

    prob = make_problem(1.0, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    ts = np.arange(0.0, 1.0 + 1e-5, 1e-5)
    scan = np.array([ap.psi(t) for t in ts])
    value, t_star = ap.mean_chernoff()
    assert value == pytest.approx(-scan.min(), abs=1e-9)
    assert t_star == pytest.approx(ts[scan.argmin()], abs=1e-4)

    swapped, t_swap = AsymptoticProblem(make_problem(2.0, 1.0), RULE).mean_chernoff()
    assert swapped == pytest.approx(value, abs=1e-10)
    assert t_swap == pytest.approx(1 - t_star, abs=1e-6)


def test_mean_hoeffding():
    prob = make_problem(1.0, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    assert ap.mean_hoeffding(0.0) == ap.dpsi_boundary("left_at_1")
    same = AsymptoticProblem(make_problem(1.0, 1.0), RULE)
    assert same.mean_hoeffding(0.4) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NegativeParameter):
        ap.mean_hoeffding(-1e-3)

    # r close to d21: tiny but positive value, against a dense scan oracle
    value = ap.mean_hoeffding(0.16)
    ts = np.arange(0.0, 1.0 - 1e-6, 1e-5)
    scan = max((-t * 0.16 - ap.psi(t)) / (1 - t) for t in ts)
    assert 0 < value < 0.01
    assert value == pytest.approx(scan, abs=1e-8)

    values = [ap.mean_hoeffding(r) for r in (0.0, 0.02, 0.08, 0.16)]
    assert values == sorted(values, reverse=True)


def test_polar():
    ap = AsymptoticProblem(make_problem(1.0, 2.0), RULE)
    chern, _ = ap.mean_chernoff()
    assert ap.polar(0.0) == pytest.approx(chern, abs=1e-10)
    same = AsymptoticProblem(make_problem(1.0, 1.0), RULE)
    for a in (-0.3, 0.0, 0.7):
        assert same.polar(a) == pytest.approx(max(0.0, a), abs=1e-12)
    d12 = ap.dpsi_boundary("left_at_1")
    assert ap.polar(d12) == pytest.approx(d12, abs=1e-10)


def test_hoeffding_threshold():
    prob = make_problem(1.0, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    d12 = ap.dpsi_boundary("left_at_1")
    d21 = -ap.dpsi_boundary("right_at_0")

    a0 = ap.hoeffding_threshold(0.0)
    assert a0 == pytest.approx(d12, abs=1e-8)
    assert ap.polar(a0) == pytest.approx(d12, abs=1e-8)

    # a_r decreases toward the right derivative at 0 as r grows toward d21
    previous = a0
    for r in (0.02, 0.08, 0.99 * d21):
        a_r = ap.hoeffding_threshold(r)
        assert a_r < previous
        previous = a_r
    assert previous > -d21  # stays above the lower bracket
    assert a_r - (-d21) < 0.02

    with pytest.raises(ParameterOutOfRange):
        ap.hoeffding_threshold(d21)
    for r in (0.0, 0.1):
        with pytest.raises(ParameterOutOfRange):
            AsymptoticProblem(make_problem(1.0, 1.0), RULE).hoeffding_threshold(r)


THRESHOLD_CASES = [
    (make_problem(1.0, 2.0), RULE),
    (make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0), RULE),
    (
        make_problem(
            {(0, 0): 2.0, (1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}, 1.0, dim=2
        ),
        make_rule(2, 16),
    ),
    (
        make_problem(
            {(0, 0, 0): 0.7, (1, 0, 0): 0.2, (-1, 0, 0): 0.2, (0, 0, 1): 0.1, (0, 0, -1): 0.1},
            1.6,
            dim=3,
        ),
        make_rule(3, 8),
    ),
]


@pytest.mark.parametrize(
    "prob, rule", THRESHOLD_CASES, ids=["dim1-constant", "dim1", "dim2", "dim3"]
)
def test_hoeffding_threshold_matches_nested_oracle(prob, rule):
    """The Legendre root agrees with bisection over the golden-section polar."""
    ap = AsymptoticProblem(prob, rule)
    d21 = -ap.dpsi_boundary("right_at_0")
    # the ends of the root's bracket in t: psi'(0) = -d21 and psi'(1) = d12
    assert ap.psi_prime(0.0) == pytest.approx(ap.dpsi_boundary("right_at_0"), rel=1e-12)
    assert ap.psi_prime(1.0) == pytest.approx(ap.dpsi_boundary("left_at_1"), rel=1e-12)
    for fraction in (0.0, 0.2, 0.5, 0.8, 0.99):
        r = fraction * d21
        assert ap.hoeffding_threshold(r) == pytest.approx(
            nested_hoeffding_threshold(ap, r), abs=1e-9
        )


def test_hoeffding_threshold_psi_evaluation_count():
    """One threshold is one root in t plus the polar / mean_hoeffding gate,
    about 160 psi evaluations; the nested search took about 2700."""
    ap = AsymptoticProblem(make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0), RULE)
    d21 = -ap.dpsi_boundary("right_at_0")
    calls = 0
    psi = ap.psi

    def counting_psi(t):
        nonlocal calls
        calls += 1
        return psi(t)

    ap.psi = counting_psi
    ap.hoeffding_threshold(0.5 * d21)
    assert 0 < calls <= 300


def test_hoeffding_threshold_gate_uses_closed_form_polar():
    """The gate takes polar(a_r) from the root itself, so one threshold costs
    the one mean_hoeffding search and a psi(t_r): at most 100 evaluations."""
    ap = AsymptoticProblem(
        make_problem({(0, 0, 0): 1.5, (1, 0, 0): 0.3 + 0.2j, (0, 1, 1): 0.25}, 2.0, dim=3),
        make_rule(3, 16),
    )
    d21 = -ap.dpsi_boundary("right_at_0")
    psi = ap.psi
    calls = []
    ap.psi = lambda t: calls.append(t) or psi(t)
    for fraction in (0.0, 0.2, 0.5, 0.9):
        calls.clear()
        ap.hoeffding_threshold(fraction * d21)
        assert 0 < len(calls) <= 100


def test_hoeffding_matches_polar_at_threshold():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    for r in (0.01, 0.05):
        a_r = ap.hoeffding_threshold(r)
        assert ap.polar(a_r) - a_r == pytest.approx(r, abs=1e-9)
        assert ap.mean_hoeffding(r) == pytest.approx(ap.polar(a_r), abs=1e-7)


def test_szego_tracelog_against_trace_oracle():
    """-log N_n / n^dim, which the Szego check of verify reads, is the
    normalized trace of log(I + Q_n), and it approaches the torus mean of
    log(1 + q)."""
    cases = (
        (1, {0: 1.5, 1: 0.5, -1: 0.5}, (8, 16, 32, 64)),
        (2, {(0, 0): 1.2, (1, 0): 0.2 + 0.15j, (0, 1): 0.1 - 0.2j, (1, 1): 0.05 + 0.1j}, (2, 4, 8)),
    )
    for dim, coeffs, sizes in cases:
        state = make_problem(coeffs, 1.0, dim=dim).state1
        for n in sizes:
            site = n**dim
            oracle = trace_fn(restrict_symbol(state.symbol, n), np.log1p) / site
            assert -build_state_data(state, n).logN / site == pytest.approx(oracle, abs=1e-12)

    ap = AsymptoticProblem(make_problem(cases[0][1], 1.0), make_rule(1, 512))
    torus = float(np.sum(np.log1p(ap.q1)) * ap.rule.weight)
    assert torus == pytest.approx(math.log((2.5 + math.sqrt(5.25)) / 2), abs=1e-12)
    gaps = [abs(-build_state_data(ap.problem.state1, n).logN / n - torus) for n in cases[0][2]]
    assert gaps == sorted(gaps, reverse=True)


def test_psi_endpoint_values():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    assert ap.psi(0.0) == pytest.approx(0.0, abs=1e-12)
    assert ap.psi(1.0) == pytest.approx(0.0, abs=1e-12)
    # faithful states: exactly 0, not rounding noise (-2.2e-16 by the formula)
    ap = AsymptoticProblem(make_problem({0: 1.5, 1: 0.3 + 0.2j, -1: 0.3 - 0.2j}, 2.0), RULE)
    assert (ap.psi(0.0), ap.psi(1.0)) == (0.0, 0.0)
    # the vacuum has no full support: psi(0) = log <0|rho2|0> = -log(1 + q2)
    ap = AsymptoticProblem(make_problem({}, 1.0), RULE)
    assert ap.psi(0.0) == pytest.approx(-math.log(2.0), abs=1e-15)
    assert ap.psi(1.0) == 0.0


def test_uniform_convergence_surrogate():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    ts = np.linspace(0, 1, 21)
    gaps = []
    for n in (8, 16, 32, 64):
        fp = FiniteProblem(prob, n)
        gaps.append(max(abs(fp.psi(t) / n - ap.psi(t)) for t in ts))
    for before, after in zip(gaps, gaps[1:]):
        assert after <= before * 1.1


def test_legendre_consistency():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    for t0 in (0.25, 0.5, 0.8):
        a = ap.psi_prime(t0)
        assert ap.polar(a) == pytest.approx(t0 * a - ap.psi(t0), abs=1e-8)


def test_psi_prime_matches_finite_difference():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    h = 1e-6
    for t0 in (0.3, 0.6):
        fd = (ap.psi(t0 + h) - ap.psi(t0 - h)) / (2 * h)
        assert ap.psi_prime(t0) == pytest.approx(fd, abs=1e-8)


def test_swap_symmetry():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    swapped = make_problem(2.0, {0: 1.5, 1: 0.5, -1: 0.5})
    ap = AsymptoticProblem(prob, RULE)
    sw = AsymptoticProblem(swapped, RULE)
    for t in np.linspace(0, 1, 11):
        assert ap.psi(t) == pytest.approx(sw.psi(1 - t), abs=1e-12)


def test_chernoff_below_entropies():
    prob = make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 2.0)
    ap = AsymptoticProblem(prob, RULE)
    chern, _ = ap.mean_chernoff()
    d12 = ap.dpsi_boundary("left_at_1")
    d21 = -ap.dpsi_boundary("right_at_0")
    assert 0 <= chern <= min(d12, d21)


def test_two_dimensional_lattice_end_to_end():
    coeffs1 = {(0, 0): 2.0, (1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}
    prob = make_problem(coeffs1, 1.0, dim=2)
    rule2 = make_rule(2)
    assert rule2.points_per_axis == 64
    ap = AsymptoticProblem(prob, rule2)

    # rate-function sanity on the two-dimensional torus
    assert ap.psi(0.0) == pytest.approx(0.0, abs=1e-12)
    assert ap.psi(1.0) == pytest.approx(0.0, abs=1e-12)
    chern, _ = ap.mean_chernoff()
    d12 = ap.dpsi_boundary("left_at_1")
    d21 = -ap.dpsi_boundary("right_at_0")
    assert 0 < chern <= min(d12, d21)

    # finite cubes approach the per-site curve as the side grows
    gaps = []
    for n in (2, 4, 6):
        fp = FiniteProblem(prob, n)
        gaps.append(max(abs(fp.psi(t) / n**2 - ap.psi(t)) for t in (0.25, 0.5, 0.75)))
    assert gaps[2] < gaps[0]

    # one-site cube against the Fock simulator
    from gaussht import lattice_state, quasi_power_trace

    fp1 = FiniteProblem(prob, 1)
    s1 = lattice_state(prob.state1, 1, 80)
    s2 = lattice_state(prob.state2, 1, 80)
    budget = 1e-8 + s1.trace_deficit + s2.trace_deficit
    assert math.exp(fp1.psi(0.5)) == pytest.approx(quasi_power_trace(s1, s2, 0.5), abs=budget)


def test_integrate_two_dimensional():
    rule2 = make_rule(2, 16)
    assert integrate(lambda x: 1.25, rule2) == pytest.approx(1.25, abs=1e-14)
    assert integrate(lambda x: np.cos(x[0]) * np.cos(x[1]), rule2) == pytest.approx(0.0, abs=1e-13)
    assert integrate(lambda x: np.cos(x[0]) ** 2, rule2) == pytest.approx(0.5, abs=1e-13)
