import numpy as np
import pytest

from gaussht import (
    DiscriminationProblem,
    GaussianStateSpec,
    make_displacement,
    make_trig_symbol,
    strict_positivity_required,
)
from gaussht.errors import NegativeSymbol, NonHermitianCoefficients, ValidationError
from gaussht.symbols import symbol_values, uniform_grid

from conftest import make_problem
from oracles import eval_symbol


def test_constant_symbol():
    sym = make_trig_symbol(1, {0: 1.0})
    assert sym.eta == pytest.approx(1.0, abs=1e-14)
    assert eval_symbol(sym, 0.3) == pytest.approx(1.0, abs=1e-14)


def test_shifted_cosine_eta():
    sym = make_trig_symbol(1, {0: 1.5, 1: 0.5, -1: 0.5})
    assert sym.eta == pytest.approx(0.5, abs=1e-12)
    assert eval_symbol(sym, np.pi) == pytest.approx(0.5, abs=1e-12)


def test_negative_symbol_rejected():
    with pytest.raises(NegativeSymbol):
        make_trig_symbol(1, {0: 0.4, 1: 0.5, -1: 0.5})


def test_hermitian_completion_and_violation():
    sym = make_trig_symbol(1, {0: 1.0, 1: 0.25 + 0.1j})
    assert sym.coeffs[(-1,)] == pytest.approx(0.25 - 0.1j)
    with pytest.raises(NonHermitianCoefficients):
        make_trig_symbol(1, {0: 1.0, 1: 0.25, -1: 0.5})
    with pytest.raises(NonHermitianCoefficients):
        make_trig_symbol(1, {0: 1.0 + 0.5j})


def test_grid_too_coarse_rejected():
    with pytest.raises(ValidationError):
        make_trig_symbol(1, {0: 2.0, 2: 0.5, -2: 0.5}, grid_points_per_axis=3)


def test_eval_kinds():
    one = make_trig_symbol(1, {0: 1.0})
    two = make_trig_symbol(1, {0: 2.0})
    cosine = make_trig_symbol(1, {0: 1.5, 1: 0.5, -1: 0.5})
    assert eval_symbol(one, 1.7, "r") == pytest.approx(0.5, abs=1e-14)
    assert eval_symbol(two, 0.0, "a") == pytest.approx(5.0, abs=1e-14)
    assert eval_symbol(cosine, np.pi, "q") == pytest.approx(0.5, abs=1e-12)


def test_eval_relations_on_grid():
    sym = make_trig_symbol(2, {(0, 0): 2.0, (1, 0): 0.5, (0, 2): 0.25j})
    pts = uniform_grid(2, 9)
    q = symbol_values(sym, pts)
    a = np.array([eval_symbol(sym, x, "a") for x in pts])
    r = np.array([eval_symbol(sym, x, "r") for x in pts])
    assert np.max(np.abs(a - (1 + 2 * q))) < 1e-12
    assert np.max(np.abs(r * (1 + q) - q)) < 1e-12


def test_eval_real_on_random_sample(rng):
    sym = make_trig_symbol(1, {0: 2.0, 1: 0.3 - 0.2j, 3: 0.1j})
    pts = rng.uniform(0, 2 * np.pi, size=(1000, 1))
    vals = np.zeros(1000, dtype=complex)
    for j, c in sym.coeffs.items():
        vals += c * np.exp(1j * pts[:, 0] * j[0])
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_r_range(rng):
    sym = make_trig_symbol(1, {0: 2.0, 1: 0.3 - 0.2j, 3: 0.1j})
    pts = rng.uniform(0, 2 * np.pi, size=(200, 1))
    r = np.array([eval_symbol(sym, x, "r") for x in pts])
    sup = max(
        symbol_values(sym, uniform_grid(1, 4096)).max(),
        symbol_values(sym, pts).max(),
    )
    assert np.all(r >= 0)
    assert np.all(r <= sup / (1 + sup) + 1e-12)
    assert np.all(r < 1)


def test_strict_positivity():
    assert strict_positivity_required(make_problem(1.0, 2.0))
    assert not strict_positivity_required(make_problem({}, 1.0))
    assert strict_positivity_required(make_problem({0: 1.5, 1: 0.5, -1: 0.5}, 1.0))


def test_displacement_validation():
    disp = make_displacement(1, {0: 1 + 2j, 5: -1.0})
    assert disp.support[(5,)] == -1.0
    with pytest.raises(ValidationError):
        make_displacement(1, {-1: 1.0})
    with pytest.raises(ValidationError):
        make_displacement(2, {(0, -3): 1.0})
    with pytest.raises(ValidationError):
        make_displacement(1, {0: complex(float("nan"), 0.0)})


def test_problem_consistency_checks():
    q1 = make_trig_symbol(1, {0: 1.0})
    q2d = make_trig_symbol(2, {(0, 0): 1.0})
    with pytest.raises(ValidationError):
        DiscriminationProblem(
            GaussianStateSpec(q1, make_displacement(1), 0.5),
            GaussianStateSpec(q2d, make_displacement(2), 0.5),
        )
    with pytest.raises(ValidationError):
        DiscriminationProblem(
            GaussianStateSpec(q1, make_displacement(1), 0.5),
            GaussianStateSpec(q1, make_displacement(1), 0.25),
        )
    with pytest.raises(ValidationError):
        GaussianStateSpec(q1, make_displacement(1), -1.0)


def test_vacuum_flag():
    assert make_trig_symbol(1, {}).is_vacuum
    assert make_trig_symbol(1, {0: 0.0}).is_vacuum
    assert not make_trig_symbol(1, {0: 1e-9}).is_vacuum


@pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
def test_non_finite_kappa_rejected(kappa):
    with pytest.raises(ValidationError) as err:
        GaussianStateSpec(
            symbol=make_trig_symbol(1, {0: 1.0}),
            displacement=make_displacement(1),
            kappa=kappa,
        )
    assert err.value.field == "kappa"


@pytest.mark.parametrize(
    "coeff", [float("nan"), float("inf"), complex(0.1, float("nan")), complex(float("-inf"), 0)]
)
def test_non_finite_coefficients_rejected(coeff):
    with pytest.raises(ValidationError) as err:
        make_trig_symbol(1, {0: 2.0, 1: coeff})
    assert err.value.field == "coeffs"
