"""The per-trial oracles, kernels, Bregman distances, prox solvers,
condition sides and linear maps call ndarray reductions (a.any(), a.sum(),
a.max(), a.clip(), a.sort(), a.cumsum(), a.nonzero()), ndarray.dot and
np.vdot; each must return exactly what its module-function or @ form in
conftest returns, bit for bit, and raise the same error, on random,
boundary, NaN, +-inf and empty inputs."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

import conftest as old
from fomcert import _kernels, methods
from fomcert.linalg import LinearMap
from fomcert.oracles import (
    BoxIndicator,
    L1BallIndicator,
    L1Norm,
    SimplexIndicator,
    ZeroFunction,
)
from fomcert.problems import REGISTRY_NAMES, SplitMix64, make_instance
from fomcert.prox import prox_step
from fomcert.reference import Burg, Entropy, SquaredEuclidean

_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0)


def _vectors(n, seed=0):
    """Random points, boundary points (zeros, unit sup and l1 norms, the
    simplex), and points with one special coordinate; none when n = 0
    except the empty vector."""
    if n == 0:
        return [np.zeros(0)]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        v = rng.normal(size=n)
        p = rng.uniform(0.01, 2.0, n)
        out += [v, p, 5.0 * v, v / np.abs(v).max(), v / np.abs(v).sum(),
                p / p.sum(), -p]
    out += [np.zeros(n), np.ones(n), -np.ones(n), np.full(n, 1.0 / n),
            np.full(n, 0.1), np.full(n, 10.0)]
    for special in _SPECIALS:
        for base in (rng.uniform(0.05, 1.0, n), rng.normal(size=n)):
            v = base.copy()
            v[rng.integers(n)] = special
            out.append(v)
    return out


def _outcome(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return ("ok", _bits(fn(*args)))
        except Exception as exc:  # the error itself is what is compared
            return ("raised", type(exc), str(exc))


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    a = np.asarray(value)
    return (type(value), a.dtype, a.shape, a.tobytes())


def _pairs(vs):
    return [(a, b) for a in vs for b in vs[::7]]


def _check(new, reference, cases):
    raised = 0
    for args in cases:
        got, want = _outcome(new, *args), _outcome(reference, *args)
        assert got == want, args
        raised += got[0] == "raised"
    return raised


_SIZES = (0, 1, 6)


@pytest.mark.parametrize("n", _SIZES)
def test_reference_functions_match_module_forms(n):
    vs = _vectors(n)
    raised = 0
    for new, ref in ((Entropy().value, old.old_entropy_value),
                     (Entropy().gradient, old.old_entropy_gradient),
                     (Burg().value, old.old_burg_value),
                     (Burg().gradient, old.old_burg_gradient)):
        raised += _check(new, ref, [(v,) for v in vs])
    for new, ref in ((Entropy().bregman, old.old_entropy_bregman),
                     (Burg().bregman, old.old_burg_bregman),
                     (_kernels.entropy_bregman, old.old_entropy_bregman_kernel),
                     (_kernels.burg_bregman, old.old_burg_bregman_kernel)):
        raised += _check(new, ref, _pairs(vs))
    assert raised > 0 or n == 0  # the DomainError paths were exercised


@pytest.mark.parametrize("n", _SIZES)
def test_entropy_prox_kernel_matches_module_form(n):
    # An empty w makes both forms raise the same zero-size ValueError.
    _check(_kernels.entropy_prox_simplex, old.old_entropy_prox_simplex,
           _pairs(_vectors(n)))


@pytest.mark.parametrize("n", _SIZES)
def test_simple_functions_match_module_forms(n):
    vs = _vectors(n)
    ones = np.ones(n)
    cases = [
        (ZeroFunction().conjugate, old.old_zero_conjugate),
        (SimplexIndicator().value, old.old_simplex_value),
        (SimplexIndicator().conjugate, old.old_simplex_conjugate),
    ]
    for lam in (1.0, 0.7):
        cases += [(L1Norm(lam).value, lambda x, lam=lam: old.old_l1_value(lam, x)),
                  (L1Norm(lam).conjugate,
                   lambda v, lam=lam: old.old_l1_conjugate(lam, v)),
                  (L1BallIndicator(lam).value,
                   lambda x, r=lam: old.old_l1ball_value(r, x)),
                  (L1BallIndicator(lam).conjugate,
                   lambda v, r=lam: old.old_l1ball_conjugate(r, v))]
    for lo, hi in ((-ones, ones), (0.1 * ones, 10.0 * ones),
                   (-ones, np.full(n, np.inf))):
        cases.append((BoxIndicator(lo, hi).conjugate,
                      lambda v, lo=lo, hi=hi: old.old_box_conjugate(lo, hi, v)))
    for new, ref in cases:
        _check(new, ref, [(v,) for v in vs])


@pytest.mark.parametrize("name", ["poisson-burg", "l1-regression"])
def test_smooth_part_matches_module_forms(name):
    inst = make_instance(name, seed=0)
    b = inspect.getclosurevars(inst.f.conjugate).nonlocals["b"]
    if name == "poisson-burg":
        value, conjugate = old.old_poisson_value, old.old_poisson_conjugate
    else:
        value, conjugate = (old.old_l1_regression_value,
                            old.old_l1_regression_conjugate)
    rng = np.random.default_rng(1)
    vs = _vectors(b.size) + [b.copy(), b + rng.normal(size=b.size),
                             rng.uniform(-2.0, 0.99, b.size)]
    _check(inst.f.value, lambda y: value(b, y), [(v,) for v in vs])
    _check(inst.f.conjugate, lambda u: conjugate(b, u), [(v,) for v in vs])


def _prox(h, psi, t):
    """(c, s_prev) -> the (s, g_psi) that prox_step unpacks to, for the
    registered (h, psi) pair at step t."""
    pair = SimpleNamespace(h=h, psi=psi)
    return lambda c, s_prev: tuple(prox_step(pair, c, t, s_prev))


@pytest.mark.parametrize("n", (1, 6))
def test_prox_solvers_match_module_forms(n):
    vs = _vectors(n)
    ones = np.ones(n)
    boxes = [BoxIndicator(-ones, ones), BoxIndicator(0.1 * ones, 10.0 * ones),
             BoxIndicator(0.1 * ones, np.full(n, np.inf))]
    raised = 0
    for t in (0.5, 3.0):
        for psi in boxes:
            raised += _check(
                _prox(SquaredEuclidean(), psi, t),
                lambda c, s, psi=psi: old.old_solve_sq_box(c, t, s, psi),
                _pairs(vs))
            raised += _check(
                _prox(Burg(), psi, t),
                lambda c, s, psi=psi: old.old_solve_burg_box(c, t, s, psi),
                _pairs(vs))
        raised += _check(
            _prox(Entropy(), SimplexIndicator(), t),
            lambda c, s: old.old_solve_entropy_simplex(c, t, s),
            _pairs(vs))
    assert raised > 0  # DomainError and NotAdmissible paths were exercised


@pytest.mark.parametrize("n", _SIZES)
def test_kernels_match_sort_and_matmul_forms(n):
    vs = _vectors(n)
    # A +inf or NaN entry, and the empty vector, raise DomainError.
    assert _check(_kernels.project_simplex, old.old_project_simplex,
                  [(v,) for v in vs]) > 0
    _check(SquaredEuclidean().value, old.old_sq_euclid_value, [(v,) for v in vs])
    for new in (_kernels.sq_euclid_bregman, SquaredEuclidean().bregman):
        _check(new, old.old_sq_euclid_bregman_kernel, _pairs(vs))


def _check_map(matrix, xs, us):
    A = LinearMap.dense(matrix)
    # ndarray.dot multiplies two one-element operands directly, so a 1x1
    # map keeps the sign of a zero product, which @ adds to +0.0; adding
    # +0.0 to both forms makes them agree there, and only there.
    same = (lambda v: v + 0.0) if matrix.shape == (1, 1) else (lambda v: v)
    _check(lambda x: same(A.apply(x)),
           lambda x: same(old.old_apply(A._matrix, x)), [(x,) for x in xs])
    _check(lambda u: same(A.adjoint_apply(u)),
           lambda u: same(old.old_adjoint_apply(A._matrix, u)),
           [(u,) for u in us])


@pytest.mark.parametrize("n", _SIZES)
def test_linear_maps_match_matmul_forms(n):
    rng = np.random.default_rng(3)
    for m in (0, 1, 4, n):
        matrix = rng.normal(size=(m, n))
        # A C-ordered matrix, and an F-ordered one (the transpose of one).
        for mat in (matrix, np.ascontiguousarray(matrix.T).T):
            _check_map(mat, _vectors(n), _vectors(m))


def test_large_dense_map_matches_matmul_forms():
    # The shape of the large-n lasso map.
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(1500, 1000))
    vectors = {}
    for size in (1000, 1500):
        x = rng.normal(size=size)
        vectors[size] = [x, np.zeros(size), x / np.abs(x).sum()]
        for special in (np.nan, np.inf, -np.inf):
            v = x.copy()
            v[rng.integers(size)] = special
            vectors[size].append(v)
    _check_map(matrix, vectors[1000], vectors[1500])


def _closure(fn):
    return inspect.getclosurevars(fn).nonlocals


def _smallest(name):
    """The instance's parameters of size 1, where a product of two vectors
    has one term: then ndarray.dot would keep the sign of a zero."""
    return {"n": 1} if name in ("simplex-quadratic", "cg-ball") else {"n": 1, "m": 1}


@pytest.mark.parametrize("small", [False, True], ids=["default", "size-1"])
@pytest.mark.parametrize("name", ["simplex-quadratic", "cg-ball", "lasso",
                                  "holder", "l1-regression"])
def test_smooth_products_match_matmul_forms(name, small):
    f = make_instance(name, seed=0, **(_smallest(name) if small else {})).f
    if name == "lasso":
        b = _closure(f.value)["b"]
        cases = [(f.value, lambda y: old.old_lasso_value(b, y)),
                 (f.conjugate, lambda u: old.old_lasso_conjugate(b, u))]
    elif name == "l1-regression":
        b = _closure(f.conjugate)["b"]
        cases = [(f.conjugate, lambda u: old.old_l1_regression_conjugate(b, u))]
    elif name == "holder":
        b, p = _closure(f.value)["b"], _closure(f.value)["p"]
        nu = _closure(f.subgradient)["nu"]
        cases = [(f.value, lambda y: old.old_holder_value(b, p, y)),
                 (f.subgradient, lambda y: old.old_holder_subgradient(b, nu, y)),
                 (f.conjugate, lambda u: old.old_holder_conjugate(b, p, nu, u))]
    else:
        Q, b = _closure(f.value)["Q"], _closure(f.value)["q"]  # b is q here
        Qinv = _closure(f.conjugate)["Qinv"]
        cases = [(f.value, lambda x: old.old_quadratic_value(Q, b, x)),
                 (f.subgradient, lambda x: old.old_quadratic_subgradient(Q, b, x)),
                 (f.conjugate, lambda u: old.old_quadratic_conjugate(Qinv, b, u))]
    # The data vector b (q for a quadratic) and a point near it join the
    # random, boundary and special vectors.
    rng = np.random.default_rng(1)
    vs = _vectors(b.size) + [b.copy(), b + rng.normal(size=b.size)]
    for new, ref in cases:
        _check(new, ref, [(v,) for v in vs])


@pytest.mark.parametrize("small", [False, True], ids=["default", "size-1"])
@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_condition_sides_match_matmul_forms(name, small):
    inst = make_instance(name, seed=0, **(_smallest(name) if small else {}))
    width, points = inst.sampler
    sampled = list(points(SplitMix64(7).uniforms(6 * width).reshape(6, width)))
    vs = sampled + _vectors(inst.A.in_dim)[::3]
    con = {"M": 2.0}
    _check(lambda u, v: methods._composite_bregman(inst, u, v),
           lambda u, v: old.old_composite_bregman(inst, u, v), _pairs(vs))
    _check(lambda x, s: methods._relcont_sides(inst, con, x, s, 0.3),
           lambda x, s: old.old_relcont_sides(inst, con, x, s, 0.3), _pairs(vs))
