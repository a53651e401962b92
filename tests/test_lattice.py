import numpy as np
import pytest

from gaussht import DisplacementSpec, make_displacement, make_trig_symbol, restrict_displacement, restrict_symbol
from gaussht.errors import SizeOverflow
from gaussht.symbols import symbol_values, uniform_grid


def test_constant_symbol_restricts_to_identity():
    sym = make_trig_symbol(2, {(0, 0): 2.5})
    m = restrict_symbol(sym, 2)
    assert np.allclose(m, 2.5 * np.eye(4))


def test_cosine_restriction_n2():
    sym = make_trig_symbol(1, {0: 1.5, 1: 0.5, -1: 0.5})
    m = restrict_symbol(sym, 2)
    assert np.allclose(m, [[1.5, 0.5], [0.5, 1.5]])


def test_cosine_restriction_n3_eigenvalues():
    sym = make_trig_symbol(1, {0: 1.5, 1: 0.5, -1: 0.5})
    got = np.linalg.eigvalsh(restrict_symbol(sym, 3))
    # oracle: eigenvalues of the explicit 3x3 tridiagonal matrix
    tri = np.array([[1.5, 0.5, 0.0], [0.5, 1.5, 0.5], [0.0, 0.5, 1.5]])
    oracle = np.linalg.eigvalsh(tri)
    assert np.allclose(got, oracle, atol=1e-12)
    assert np.allclose(
        np.sort(got), np.sort([1.5, 1.5 - np.sqrt(2) / 2, 1.5 + np.sqrt(2) / 2]), atol=1e-12
    )


def test_size_cap():
    sym = make_trig_symbol(1, {0: 1.0})
    with pytest.raises(SizeOverflow):
        restrict_symbol(sym, 5000)
    restrict_symbol(sym, 5, dense_cap=5)
    with pytest.raises(SizeOverflow):
        restrict_symbol(sym, 6, dense_cap=5)


def test_restrict_displacement_examples():
    assert np.allclose(restrict_displacement(make_displacement(1), 2), np.zeros(2))
    v = restrict_displacement(make_displacement(1, {0: 1.0}), 3)
    assert np.allclose(v, [1, 0, 0])
    v = restrict_displacement(make_displacement(1, {5: 2j}), 3)
    assert np.allclose(v, np.zeros(3))
    # C order: site (1, 2) of the side-3 square is index 1 * 3 + 2
    v = restrict_displacement(make_displacement(2, {(1, 2): 3.0, (1, 4): 1j}), 3)
    assert np.array_equal(v, np.eye(9)[5] * 3.0)
    v = restrict_displacement(DisplacementSpec(dim=2, support={(-1, 0): 1.0}), 3)
    assert np.array_equal(v, np.zeros(9))


def test_toeplitz_structure(rng):
    sym = make_trig_symbol(2, {(0, 0): 2.0, (1, 0): 0.4, (1, 1): 0.2 - 0.1j})
    n = 4
    m = restrict_symbol(sym, n)
    sites = np.stack(np.unravel_index(np.arange(n**2), (n, n)), axis=1)
    for _ in range(50):
        i, j, k, l = rng.integers(0, n**2, size=4)
        di = tuple(a - b for a, b in zip(sites[i], sites[j]))
        dk = tuple(a - b for a, b in zip(sites[k], sites[l]))
        if di == dk:
            assert m[i, j] == pytest.approx(m[k, l], abs=1e-14)


def test_spectrum_containment():
    sym = make_trig_symbol(1, {0: 2.0, 1: 0.5 + 0.2j, 2: 0.3})
    grid_vals = symbol_values(sym, uniform_grid(1, 4096))
    for n in (2, 5, 17):
        ev = np.linalg.eigvalsh(restrict_symbol(sym, n))
        assert ev.min() >= grid_vals.min() - 1e-9
        assert ev.max() <= grid_vals.max() + 1e-9


def test_nesting():
    sym = make_trig_symbol(2, {(0, 0): 2.0, (1, 0): 0.4, (0, 1): 0.25j})
    n = 3
    big = restrict_symbol(sym, n)
    small = restrict_symbol(sym, n - 1)
    small_sites = np.unravel_index(np.arange((n - 1) ** 2), (n - 1, n - 1))
    rows = np.ravel_multi_index(small_sites, (n, n))
    assert np.allclose(big[np.ix_(rows, rows)], small, atol=1e-14)
