import numpy as np
import pytest

from gaussht import eigh
from gaussht.errors import DomainError

from conftest import random_hermitian, random_psd_contraction
from oracles import apply_fn, positive_part_projector, sandwich_power, trace_fn


def test_eigh_examples():
    assert np.allclose(eigh(np.diag([3.0, 1.0, 2.0])).values, [1, 2, 3])
    assert np.allclose(eigh(np.array([[1.5, 0.5], [0.5, 1.5]])).values, [1, 2])
    pauli = np.array([[0, 1j], [-1j, 0]])
    assert np.allclose(eigh(pauli).values, [-1, 1])


def test_eigh_validates_invariants(rng):
    m = random_hermitian(rng, 6)
    es = eigh(m)
    scale = np.abs(m).max()
    assert np.max(np.abs(m @ es.vectors - es.vectors * es.values)) < 1e-10 * scale
    assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(6))) < 1e-10
    with pytest.raises(DomainError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_apply_fn_examples():
    es = eigh(np.diag([1.0, 4.0]))
    assert np.allclose(apply_fn(es, np.sqrt), np.diag([1.0, 2.0]))
    es = eigh(np.diag([0.5]))
    assert np.allclose(apply_fn(es, lambda s: s / (1 + s)), np.diag([1 / 3]))


def test_apply_fn_identity(rng):
    m = random_hermitian(rng, 5)
    assert np.max(np.abs(apply_fn(eigh(m), lambda s: s) - m)) < 1e-10


def test_apply_fn_domain_error():
    es = eigh(np.diag([0.0, 1.0]))
    with pytest.raises(DomainError):
        apply_fn(es, np.log)


def test_sandwich_power_examples(rng):
    r = random_psd_contraction(rng, 4, top=0.8) + 0.05 * np.eye(4)
    assert np.max(np.abs(sandwich_power(r, r, 0.5) - r)) < 1e-10
    assert np.allclose(sandwich_power(np.diag([0.5]), np.diag([2 / 3]), 1.0), np.diag([0.5]))
    w = sandwich_power(np.diag([0.5]), np.diag([2 / 3]), 0.5)
    assert w[0, 0] == pytest.approx(1 / np.sqrt(3), abs=1e-14)


def test_sandwich_power_endpoints(rng):
    r1 = random_psd_contraction(rng, 4, top=0.7) + 0.1 * np.eye(4)
    r2 = random_psd_contraction(rng, 4, top=0.7) + 0.1 * np.eye(4)
    assert np.max(np.abs(sandwich_power(r1, r2, 0.0) - r2)) < 1e-10
    assert np.max(np.abs(sandwich_power(r1, r2, 1.0) - r1)) < 1e-10


def test_sandwich_power_errors():
    with pytest.raises(DomainError):
        sandwich_power(np.diag([-0.5]), np.diag([0.5]), 0.5)
    # singular factor is fine inside [0, 1] (support convention) ...
    w = sandwich_power(np.diag([0.0, 0.5]), np.diag([0.5, 0.5]), 0.5)
    assert np.allclose(np.diag(w), [0.0, 0.5])
    # ... but rejected outside
    with pytest.raises(DomainError):
        sandwich_power(np.diag([0.0, 0.5]), np.diag([0.5, 0.5]), 1.5)


def test_trace_fn_examples():
    assert trace_fn(np.eye(3), np.log) == pytest.approx(0.0, abs=1e-14)
    assert trace_fn(np.diag([1.0, 2.0]), np.log1p) == pytest.approx(np.log(2) + np.log(3))
    m = np.array([[1.5, 0.5], [0.5, 1.5]])
    assert trace_fn(m, np.log1p) == pytest.approx(np.log(2) + np.log(3), abs=1e-12)


def test_positive_part_projector():
    assert np.allclose(positive_part_projector(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))
    assert np.allclose(positive_part_projector(np.zeros((3, 3))), np.zeros((3, 3)))
    p = positive_part_projector(np.diag([3.0, 2.0, -5.0]))
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]))


def test_projector_idempotent(rng):
    m = random_hermitian(rng, 7)
    p = positive_part_projector(m)
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.max(np.abs(p - p.conj().T)) < 1e-10


def test_composition_invariant(rng):
    for _ in range(5):
        m = random_psd_contraction(rng, 5, top=0.9) + 0.2 * np.eye(5)
        es = eigh(m)
        g = lambda s: s / (1 + s)
        f = np.log
        direct = apply_fn(es, lambda s: f(g(s)))
        chained = apply_fn(eigh(apply_fn(es, g)), f)
        assert np.max(np.abs(direct - chained)) < 1e-9


def test_trace_matches_apply(rng):
    m = random_hermitian(rng, 6) + 8 * np.eye(6)
    f = np.log
    assert trace_fn(m, f) == pytest.approx(np.real(np.trace(apply_fn(eigh(m), f))), abs=1e-10)


def test_sandwich_power_outside_unit_interval():
    # positive definite scalars: plain arithmetic oracle at t = -0.5
    w = sandwich_power(np.diag([0.5]), np.diag([2 / 3]), -0.5)
    assert w[0, 0] == pytest.approx(0.5**-0.5 * (2 / 3) ** 1.5, abs=1e-13)
    w = sandwich_power(np.diag([0.5]), np.diag([2 / 3]), 1.5)
    assert w[0, 0] == pytest.approx(0.5**1.5 * (2 / 3) ** -0.5, abs=1e-13)
