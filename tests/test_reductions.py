"""The per-trial oracles, kernels, Bregman distances and prox solvers call
ndarray reductions (a.any(), a.sum(), a.max(), a.clip()); each must return
exactly what its module-function form in conftest returns, bit for bit, and
raise the same error, on random, boundary, NaN, +-inf and empty inputs."""

import inspect

import numpy as np
import pytest

import conftest as old
from fomcert import _kernels
from fomcert.oracles import (
    BoxIndicator,
    L1BallIndicator,
    L1Norm,
    SimplexIndicator,
    ZeroFunction,
)
from fomcert.problems import make_instance
from fomcert.prox import _solve_burg_box, _solve_entropy_simplex, _solve_sq_box
from fomcert.reference import Burg, Entropy

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
                lambda c, s, psi=psi: _solve_sq_box(c, t, s, None, psi),
                lambda c, s, psi=psi: old.old_solve_sq_box(c, t, s, psi),
                _pairs(vs))
            raised += _check(
                lambda c, s, psi=psi: _solve_burg_box(c, t, s, None, psi),
                lambda c, s, psi=psi: old.old_solve_burg_box(c, t, s, psi),
                _pairs(vs))
        raised += _check(
            lambda c, s: _solve_entropy_simplex(c, t, s, None, None),
            lambda c, s: old.old_solve_entropy_simplex(c, t, s),
            _pairs(vs))
    assert raised > 0  # DomainError and NotAdmissible paths were exercised
