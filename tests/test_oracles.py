import numpy as np
import pytest

from fomcert.linalg import LinearMap
from fomcert.oracles import (
    BoxIndicator,
    L1BallIndicator,
    L1Norm,
    ProblemInstance,
    SimplexIndicator,
    SmoothOracle,
    ZeroFunction,
)
from fomcert.reference import SquaredEuclidean, ZeroReference

INF = float("inf")


def test_fenchel_young_equality_quadratic():
    # f(y) = |y|^2/2 has f* = f; at a gradient pair the equality is exact.
    y = np.array([1.5, -2.0])
    g = y  # gradient of the quadratic at y
    value = 0.5 * float(y @ y)
    # f*(g) = <g, y> - f(y), exact whenever g is a subgradient of f at y.
    assert abs((float(g @ y) - value) - value) <= 1e-14


def test_l1_norm():
    psi = L1Norm(0.5)
    assert psi.value(np.array([1.0, -2.0])) == 1.5
    assert psi.conjugate(np.array([0.5, -0.5])) == 0.0
    assert psi.conjugate(np.array([0.6, 0.0])) == INF
    with pytest.raises(ValueError):
        L1Norm(0.0)


def test_box_indicator():
    psi = BoxIndicator(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert psi.value(np.array([0.5, 1.0])) == 0.0
    assert psi.value(np.array([1.5, 1.0])) == INF
    # Support function: sum max(v*lo, v*hi).
    v = np.array([2.0, -3.0])
    assert psi.conjugate(v) == 2.0 * 1.0 + (-3.0) * 0.0
    assert np.allclose(psi.linmin(np.array([1.0, -1.0])), [-1.0, 2.0])
    with pytest.raises(ValueError):
        BoxIndicator(np.array([1.0]), np.array([0.0]))


def test_simplex_indicator():
    psi = SimplexIndicator()
    assert psi.value(np.array([0.25, 0.75])) == 0.0
    assert psi.value(np.array([0.5, 0.6])) == INF
    assert psi.value(np.array([-0.1, 1.1])) == INF
    assert psi.conjugate(np.array([3.0, -1.0])) == 3.0
    # linmin: lowest-index vertex on ties.
    assert np.allclose(psi.linmin(np.array([0.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
    assert np.allclose(psi.linmin(np.array([1.0, -2.0])), [0.0, 1.0])


def test_l1_ball_indicator():
    psi = L1BallIndicator(2.0)
    assert psi.value(np.array([1.0, -1.0])) == 0.0
    assert psi.value(np.array([1.5, -1.0])) == INF
    assert psi.conjugate(np.array([0.5, -3.0])) == 6.0
    # Vertex -R sign(c_j) e_j at the largest |c_j|.
    assert np.allclose(psi.linmin(np.array([1.0, -3.0])), [0.0, 2.0])
    assert np.allclose(psi.linmin(np.array([4.0, -3.0])), [-2.0, 0.0])
    with pytest.raises(ValueError):
        L1BallIndicator(-1.0)


def test_zero_function():
    psi = ZeroFunction()
    assert psi.value(np.array([3.0])) == 0.0
    assert psi.conjugate(np.array([0.0, 0.0])) == 0.0
    assert psi.conjugate(np.array([0.1, 0.0])) == INF


def test_conjugates_dominate_fenchel_young():
    # Psi(x) + Psi*(v) >= <v, x> on sampled pairs for every simple part.
    rng = np.random.default_rng(8)
    cases = [
        (L1Norm(0.7), lambda r: r.standard_normal(4)),
        (BoxIndicator(-np.ones(4), np.ones(4)),
         lambda r: r.uniform(-1.0, 1.0, 4)),
        (SimplexIndicator(), lambda r: r.dirichlet(np.ones(4))),
        (L1BallIndicator(1.5),
         lambda r: r.dirichlet(np.ones(4)) * r.uniform(0.0, 1.5)),
    ]
    for psi, draw in cases:
        for _ in range(30):
            x = draw(rng)
            v = rng.standard_normal(4)
            star = psi.conjugate(v)
            if star == INF:
                continue
            assert psi.value(x) + star >= float(v @ x) - 1e-9


def test_problem_instance_helpers():
    f = SmoothOracle(value=lambda y: float(y @ y),
                     subgradient=lambda y: 2.0 * y,
                     conjugate=lambda u: 0.25 * float(u @ u))
    inst = ProblemInstance(A=LinearMap.identity(2), f=f, psi=ZeroFunction(),
                           h=ZeroReference(),
                           feasible_start=np.zeros(2))
    assert inst.zero_reference
    assert inst.primal_value(np.array([1.0, 2.0])) == 5.0
    inst2 = ProblemInstance(A=LinearMap.identity(2), f=f, psi=ZeroFunction(),
                            h=SquaredEuclidean(),
                            feasible_start=np.zeros(2))
    assert not inst2.zero_reference
