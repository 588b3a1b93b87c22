import numpy as np
import pytest

from fomcert.linalg import DimensionMismatch, LinearMap


def test_identity_map_copies():
    A = LinearMap.identity(3)
    x = np.array([1.0, -2.0, 3.0])
    y = A.apply(x)
    assert np.array_equal(y, x) and y is not x
    u = A.adjoint_apply(x)
    assert np.array_equal(u, x) and u is not x


def test_dense_map_apply_and_adjoint():
    M = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    A = LinearMap.dense(M)
    assert (A.out_dim, A.in_dim) == (3, 2)
    x = np.array([1.0, -1.0])
    assert np.allclose(A.apply(x), M @ x)
    u = np.array([1.0, 0.0, -2.0])
    assert np.allclose(A.adjoint_apply(u), M.T @ u)


def test_adjoint_identity_inner_products():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 3))
    A = LinearMap.dense(M)
    for _ in range(20):
        x = rng.standard_normal(3)
        u = rng.standard_normal(5)
        assert abs(float(A.apply(x) @ u) - float(x @ A.adjoint_apply(u))) <= 1e-12


def test_dimension_mismatch():
    A = LinearMap.dense(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        A.apply(np.ones(3))
    with pytest.raises(DimensionMismatch):
        A.adjoint_apply(np.ones(2))


def test_constructor_validation():
    with pytest.raises(ValueError):
        LinearMap()
    with pytest.raises(ValueError):
        LinearMap.dense(np.ones(3))
    with pytest.raises(ValueError):
        LinearMap.dense(np.array([[np.inf, 0.0]]))
