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
from fomcert.prox import (
    NotAdmissible,
    UnsupportedPair,
    prox_step,
)
from fomcert.reference import Burg, DomainError, Entropy, SquaredEuclidean, ZeroReference

from conftest import optimality_residual

_DUMMY_F = SmoothOracle(value=lambda y: 0.0,
                        subgradient=lambda y: np.zeros_like(y),
                        conjugate=lambda u: 0.0)


def _instance(h, psi, n):
    return ProblemInstance(A=LinearMap.identity(n), f=_DUMMY_F, psi=psi, h=h,
                           feasible_start=np.zeros(n))


def test_sq_zero_is_plain_step():
    inst = _instance(SquaredEuclidean(), ZeroFunction(), 2)
    c = np.array([1.0, -2.0])
    s_prev = np.array([0.5, 0.5])
    s, g_psi = prox_step(inst, c, 0.25, s_prev)
    assert np.allclose(s, s_prev - 0.25 * c)
    assert np.array_equal(g_psi, np.zeros(2))


def test_sq_l1_soft_threshold():
    inst = _instance(SquaredEuclidean(), L1Norm(0.5), 1)
    # argmin t(c s + 0.5|s|) + (s - s_prev)^2/2 = soft(s_prev - tc, 0.5 t).
    s, g_psi = prox_step(inst, np.array([-1.0]), 1.0, np.array([0.0]))
    assert np.allclose(s, [0.5])
    assert optimality_residual(inst, np.array([-1.0]), 1.0,
                              np.array([0.0]), s, g_psi) <= 1e-12


def test_entropy_simplex_example():
    inst = _instance(Entropy(), SimplexIndicator(), 2)
    c = np.array([np.log(2.0), 0.0])
    s_prev = np.array([0.5, 0.5])
    s, g_psi = prox_step(inst, c, 1.0, s_prev)
    assert np.allclose(s, [1.0 / 3.0, 2.0 / 3.0])
    # g_psi is a constant vector (a valid simplex-indicator subgradient).
    assert abs(g_psi[0] - g_psi[1]) <= 1e-14
    assert optimality_residual(inst, c, 1.0, s_prev, s, g_psi) <= 1e-12


def test_entropy_prox_domain_errors():
    inst = _instance(Entropy(), SimplexIndicator(), 2)
    with pytest.raises(DomainError):
        prox_step(inst, np.zeros(2), 1.0, np.array([0.0, 1.0]))
    # Extreme tilt underflows one coordinate past the representable floor.
    with pytest.raises(DomainError):
        prox_step(inst, np.array([1e6, 0.0]), 1.0, np.array([0.5, 0.5]))


def test_burg_box():
    lo, hi = np.array([0.1]), np.array([10.0])
    inst = _instance(Burg(), BoxIndicator(lo, hi), 1)
    c = np.array([1.0])
    s_prev = np.array([2.0])
    s, g_psi = prox_step(inst, c, 0.5, s_prev)
    # Interior solution: s = s_prev / (1 + t c s_prev) = 1.
    assert np.allclose(s, [1.0])
    assert optimality_residual(inst, c, 0.5, s_prev, s, g_psi) <= 1e-12


def test_burg_unbounded_without_upper_bound():
    inst = _instance(Burg(), BoxIndicator(np.array([0.1]),
                                          np.array([np.inf])), 1)
    with pytest.raises(NotAdmissible):
        prox_step(inst, np.array([-10.0]), 1.0, np.array([1.0]))


def test_zero_reference_is_unsupported():
    # A zero h's subproblem is a linear minimization, which the
    # conditional-gradient step solves itself with the linmin oracle.
    inst = _instance(ZeroReference(), L1BallIndicator(1.0), 2)
    with pytest.raises(UnsupportedPair):
        prox_step(inst, np.array([0.5, -2.0]), 3.0, np.zeros(2))


def test_unsupported_pair():
    inst = _instance(Entropy(), L1Norm(1.0), 2)
    with pytest.raises(UnsupportedPair):
        prox_step(inst, np.zeros(2), 1.0, np.array([0.5, 0.5]))


def test_nonpositive_step_rejected():
    inst = _instance(SquaredEuclidean(), ZeroFunction(), 1)
    with pytest.raises(ValueError):
        prox_step(inst, np.zeros(1), 0.0, np.zeros(1))


def _random_cases(pair, rng, n=6):
    """Yield (instance, c, t, s_prev) tuples in the solver pair's domain."""
    h, psi_factory, draw_prev = pair
    for _ in range(100):
        psi = psi_factory()
        inst = _instance(h, psi, n)
        c = rng.standard_normal(n)
        t = float(rng.uniform(0.01, 1.0))
        yield inst, c, t, draw_prev(rng)


_PAIRS = [
    ("sq+zero", (SquaredEuclidean(), ZeroFunction,
                 lambda r: r.standard_normal(6))),
    ("sq+l1", (SquaredEuclidean(), lambda: L1Norm(0.3),
               lambda r: r.standard_normal(6))),
    ("sq+box", (SquaredEuclidean(),
                lambda: BoxIndicator(-np.ones(6), np.ones(6)),
                lambda r: r.uniform(-1.0, 1.0, 6))),
    ("sq+simplex", (SquaredEuclidean(), SimplexIndicator,
                    lambda r: r.dirichlet(np.ones(6)))),
    ("entropy+simplex", (Entropy(), SimplexIndicator,
                         lambda r: r.dirichlet(np.ones(6)) + 1e-3)),
    ("burg+box", (Burg(), lambda: BoxIndicator(0.1 * np.ones(6),
                                               10.0 * np.ones(6)),
                  lambda r: r.uniform(0.2, 5.0, 6))),
]


@pytest.mark.parametrize("name,pair", _PAIRS, ids=[p[0] for p in _PAIRS])
def test_optimality_residual_random(name, pair):
    rng = np.random.default_rng(17)
    for inst, c, t, s_prev in _random_cases(pair, rng):
        if name == "entropy+simplex":
            s_prev = s_prev / s_prev.sum()
        try:
            s, g_psi = prox_step(inst, c, t, s_prev)
        except DomainError:
            continue  # underflow at the simplex boundary: rejected, not wrong
        assert optimality_residual(inst, c, t, s_prev, s, g_psi) <= 1e-8
        assert inst.psi.value(s) < np.inf


@pytest.mark.parametrize("name,pair", _PAIRS, ids=[p[0] for p in _PAIRS])
def test_prox_minimizes_subproblem(name, pair):
    # The returned point beats random feasible competitors on the objective.
    rng = np.random.default_rng(23)
    h = pair[0]
    for inst, c, t, s_prev in list(_random_cases(pair, rng))[:20]:
        if name == "entropy+simplex":
            s_prev = s_prev / s_prev.sum()
        try:
            s, _ = prox_step(inst, c, t, s_prev)
        except DomainError:
            continue
        obj = lambda v: (t * (float(c @ v) + inst.psi.value(v))
                         + h.bregman(v, s_prev))
        base = obj(s)
        for _ in range(10):
            if name in ("sq+zero", "sq+l1"):
                v = s + 0.1 * rng.standard_normal(6)
            elif name in ("sq+box",):
                v = rng.uniform(-1.0, 1.0, 6)
            elif name == "burg+box":
                v = rng.uniform(0.2, 5.0, 6)
            else:
                v = rng.dirichlet(np.ones(6))
            try:
                assert obj(v) >= base - 1e-9 * max(1.0, abs(base))
            except DomainError:
                continue
