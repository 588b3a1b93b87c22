import numpy as np
import pytest

from fomcert.linalg import LinearMap
from fomcert.oracles import ProblemInstance, SmoothOracle, ZeroFunction
from fomcert.reference import SquaredEuclidean


def quadratic_1d(start=1.0, curvature=1.0):
    """f(x) = curvature * x^2 / 2 in one dimension, Psi = 0, h = |.|^2/2."""
    L = float(curvature)
    f = SmoothOracle(
        value=lambda y: 0.5 * L * float(y @ y),
        subgradient=lambda y: L * y,
        conjugate=lambda u: 0.5 * float(u @ u) / L,
    )
    return ProblemInstance(
        A=LinearMap.identity(1), f=f, psi=ZeroFunction(),
        h=SquaredEuclidean(), feasible_start=np.array([float(start)]),
        constants={"L": L}, name="quadratic-1d", condition="smooth.1")


@pytest.fixture
def quad1d():
    return quadratic_1d()


def segment_excess_unhoisted(instance, x, g, s, theta):
    """The segment excess with every term evaluated at each call (three
    A-applications, two f and three Psi evaluations), in the arithmetic
    order engine.segment_excess must reproduce bit for bit."""
    A, f, psi = instance.A, instance.f, instance.psi
    comb = x + theta * (s - x)
    Ax, Acomb = A.apply(x), A.apply(comb)
    D_f = f.value(Acomb) - f.value(Ax) - theta * float(g @ (A.apply(s) - Ax))
    return D_f + psi.value(comb) - (1.0 - theta) * psi.value(x) - theta * psi.value(s)
