"""Desk-scale benchmark instances with declared constants, domain samplers,
registered optima, and a numerical verifier of their condition classes."""

import inspect
import math
from typing import Callable, NamedTuple

import numpy as np

from . import methods
from .linalg import LinearMap
from .methods import (
    ConfigError,
    ReferenceBracketError,
    check_number,
    check_positive_int,
)
from .oracles import (
    BoxIndicator,
    L1BallIndicator,
    L1Norm,
    ProblemInstance,
    SimplexIndicator,
    SmoothOracle,
)
from .reference import Burg, Entropy, SquaredEuclidean, ZeroReference

INF = float("inf")

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The same constants as numpy scalars, so that block arithmetic stays uint64
# (and wraps mod 2**64) under both numpy 1.x and 2.x promotion rules.
_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MIX2 = np.uint64(0x94D049BB133111EB)
_U_30, _U_27, _U_31, _U_11 = (np.uint64(b) for b in (30, 27, 31, 11))

# The most variates SplitMix64.normals draws per block.  Drawn as one
# block, the 1500 x 1000 lasso matrix raised a large-n run's peak RSS by
# 10%, and in blocks of 2**16 by 0.7%; at 2**13 it reads as row by row.
_NORMALS_CHUNK = 1 << 13


class SplitMix64:
    """Seeded 64-bit generator; fixed algorithm for reproducibility.

    SplitMix64 (Steele, Lea & Flood 2014) is counter-based: its scalar
    draw next_u64 adds gamma to the state mod 2**64 and outputs
    mix(state).  The block methods u64s, uniforms and normals return
    exactly what n scalar draws (next_u64, uniform, normal) would, in
    order, leaving state where those draws would leave it.
    """

    def __init__(self, seed):
        self.state = seed & _MASK

    def u64s(self, n):
        """The next n outputs of next_u64 as a uint64 array.

        Output i is mixed from state + i * gamma, computed in place with
        uint64 arithmetic, which wraps mod 2**64 like the scalar masks.
        """
        if n < 0:
            raise ValueError("cannot draw %r values" % (n,))
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U_GAMMA
        z += np.uint64(self.state)
        self.state = (self.state + n * _GAMMA) & _MASK
        z ^= z >> _U_30
        z *= _U_MIX1
        z ^= z >> _U_27
        z *= _U_MIX2
        z ^= z >> _U_31
        return z

    def uniforms(self, n):
        """The next n values of uniform, (next_u64 >> 11) * 2**-53."""
        return (self.u64s(n) >> _U_11) * (2.0 ** -53)

    def normals(self, n):
        """The next n values of normal, the Box-Muller variate
        sqrt(-2 log max(u1, 1e-300)) cos(2 pi u2) of two uniforms, from
        one block of 2n uniforms.

        log and cos go through math per element: numpy's SIMD log and cos
        may differ from libm in the last bit (3,517 of a million log values
        on an AVX-512 CPU), which would change every seeded instance.  The
        max, products and sqrt are correctly rounded in both, so they run
        in numpy.  They run on chunks of at most _NORMALS_CHUNK = 2**13
        variates, each from its own block of uniforms, into one output
        array, so the temporaries stay a few MB at any n.
        """
        out = np.empty(n)  # ValueError for n < 0, as u64s
        for start in range(0, n, _NORMALS_CHUNK):
            u = self.uniforms(2 * min(_NORMALS_CHUNK, n - start))
            out[start:start + u.size // 2] = _box_muller(u[0::2], u[1::2])
        return out


def _box_muller(u1, u2):
    """The variates of SplitMix64.normals for equal-shaped arrays of their
    two uniforms u1 and u2, with log and cos per element through math."""
    size = u1.size
    logs = np.fromiter(map(math.log, np.maximum(u1, 1e-300).ravel().tolist()),
                       np.float64, size)
    coss = np.fromiter(map(math.cos, (2.0 * math.pi * u2).ravel().tolist()),
                       np.float64, size)
    return (np.sqrt(-2.0 * logs) * coss).reshape(u1.shape)


# Boundary margin for sampling: conditions are tested away from the region
# where Bregman distances blow up.
_MARGIN = 1e-3


class Sampler(NamedTuple):
    """An instance's sample points as a pure map of uniforms: points maps a
    (k, width) block of uniforms in [0, 1) to k points, one per row, each
    drawn from its row's width uniforms in order."""

    width: int
    points: Callable


def _quadratic_oracle(Q, q):
    # f(x) = 0.5 x'Qx + q'x with Q positive definite.
    Qinv = np.linalg.inv(Q)

    def conjugate(u):
        d = u - q
        return 0.5 * float(np.vdot(d, Qinv.dot(d)))

    return SmoothOracle(
        value=lambda x: 0.5 * float(np.vdot(x, Q.dot(x))) + float(np.vdot(q, x)),
        subgradient=lambda x: Q.dot(x) + q,
        conjugate=conjugate,
    )


def _make_simplex_quadratic(rng, n=20, reference="entropy"):
    G = rng.normals(n * n).reshape(n, n)
    Q = G.T @ G / n + 0.1 * np.eye(n)
    q = 0.5 * rng.normals(n)
    L = float(np.linalg.eigvalsh(Q)[-1])
    f = _quadratic_oracle(Q, q)
    h = Entropy() if reference == "entropy" else SquaredEuclidean()
    start = np.full(n, 1.0 / n)

    def points(u):
        p = -np.log(np.maximum(u, 1e-12))
        p = p / p.sum(axis=1, keepdims=True)
        return (p + 2 * _MARGIN) / (1.0 + 2 * _MARGIN * n)

    # Pinsker: entropy is 1-strongly convex on the simplex in the l1 norm,
    # so D_f <= lambda_max(Q) * D_h there; the same constant covers the
    # Euclidean reference.
    return ProblemInstance(
        A=LinearMap.identity(n), f=f, psi=SimplexIndicator(), h=h,
        feasible_start=start, constants={"L": L},
        name="simplex-quadratic", condition="smooth.1"), Sampler(n, points)


def _make_lasso(rng, n=20, m=30, lam=None, cond=1e5):
    G = rng.normals(m * n).reshape(m, n)
    # Stretch the spectrum so the fast method stays in its sublinear regime.
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    s = np.geomspace(1.0, 1.0 / cond, s.size)
    B = (U * s) @ Vt
    x_true = rng.normals(n)
    x_true[np.abs(x_true) < 0.8] = 0.0
    b = B @ x_true + 0.05 * rng.normals(m)
    if lam is None:
        lam = 0.05 * float(np.max(np.abs(B.T @ b)))
    L = float(np.linalg.eigvalsh(B.T @ B)[-1])

    def value(y):
        d = y - b
        return 0.5 * float(d.dot(d))

    f = SmoothOracle(
        value=value,
        subgradient=lambda y: y - b,
        conjugate=lambda u: 0.5 * float(u.dot(u)) + float(np.vdot(u, b)),
    )
    start = np.zeros(n)
    scale = max(1.0, float(np.max(np.abs(x_true))))

    points = lambda u: scale * (2.0 * u - 1.0)
    return ProblemInstance(
        A=LinearMap.dense(B), f=f, psi=L1Norm(lam), h=SquaredEuclidean(),
        feasible_start=start, constants={"L": L},
        name="lasso", condition="smooth.1"), Sampler(n, points)


def _make_poisson_burg(rng, n=10, m=15, lo=0.1, hi=10.0):
    B = 0.5 + rng.uniforms(m * n).reshape(m, n)
    x_true = 0.5 + rng.uniforms(n)
    b = B @ x_true

    def value(y):
        if (y <= 0.0).any():
            return INF
        return float((y - b * np.log(y)).sum())

    f = SmoothOracle(
        value=value,
        subgradient=lambda y: 1.0 - b / y,
        conjugate=lambda u: (float((b * np.log(b / (1.0 - u)) - b).sum())
                             if (u < 1.0).all() else INF),
    )
    L = float(np.sum(b))
    start = np.ones(n)

    points = lambda u: lo + _MARGIN + (hi - lo - 2 * _MARGIN) * u
    return ProblemInstance(
        A=LinearMap.dense(B), f=f, psi=BoxIndicator(np.full(n, lo), np.full(n, hi)),
        h=Burg(), feasible_start=start, constants={"L": L},
        name="poisson-burg", condition="smooth.1"), Sampler(n, points)


def _make_l1_regression(rng, n=10, m=20, box=1.0):
    B = rng.normals(m * n).reshape(m, n)
    x_true = box * (2.0 * rng.uniforms(n) - 1.0)
    b = B @ x_true + 0.1 * rng.normals(m)

    f = SmoothOracle(
        value=lambda y: float(np.abs(y - b).sum()),
        subgradient=lambda y: np.sign(y - b),
        conjugate=lambda u: (float(np.vdot(u, b))
                             if np.abs(u).max(initial=0.0) <= 1.0 + 1e-9 else INF),
    )
    # Relative continuity constant: squared bound on any subgradient of
    # x -> |Bx - b|_1, namely (sum of row norms)^2.
    M = float(np.sum(np.linalg.norm(B, axis=1))) ** 2
    start = np.zeros(n)

    points = lambda u: (box - _MARGIN) * (2.0 * u - 1.0)
    return ProblemInstance(
        A=LinearMap.dense(B), f=f,
        psi=BoxIndicator(np.full(n, -box), np.full(n, box)),
        h=SquaredEuclidean(), feasible_start=start, constants={"M": M},
        solve_optimum=lambda: _l1_regression_optimum(B, b, box),
        name="l1-regression", condition="relcont"), Sampler(n, points)


def _l1_regression_optimum(B, b, box):
    # min |Bx - b|_1 over the box is a linear program in (x, r).
    from scipy.optimize import linprog
    m, n = B.shape
    c = np.concatenate([np.zeros(n), np.ones(m)])
    A_ub = np.block([[B, -np.eye(m)], [-B, -np.eye(m)]])
    b_ub = np.concatenate([b, -b])
    bounds = [(-box, box)] * n + [(0, None)] * m
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.x is None:
        raise ReferenceBracketError("linprog failed: %s" % res.message)
    # The multipliers of Bx - r <= b and -Bx - r <= -b, clipped into
    # dom f* = {|u|_inf <= 1}, give the dual point.
    marginals = res.ineqlin.marginals
    return res.x[:n], np.clip(marginals[m:] - marginals[:m], -1.0, 1.0)


def _make_holder(rng, n=10, m=12, nu=0.5, box=2.0):
    B = rng.normals(m * n).reshape(m, n)
    x_true = 0.5 * box * (2.0 * rng.uniforms(n) - 1.0)
    b = B @ x_true + 0.1 * rng.normals(m)
    p = 1.0 + nu

    def value(y):
        d = y - b
        return math.sqrt(d.dot(d)) ** p / p

    def subgradient(y):
        d = y - b
        nrm = math.sqrt(d.dot(d))
        if nrm == 0.0:
            return np.zeros_like(d)
        return nrm ** (nu - 1.0) * d

    def conjugate(u):
        q = p / nu  # conjugate exponent of 1+nu
        return float(np.vdot(u, b)) + math.sqrt(u.dot(u)) ** q / q

    f = SmoothOracle(value=value, subgradient=subgradient, conjugate=conjugate)
    sigma = float(np.linalg.svd(B, compute_uv=False)[0])
    M = 2.0 ** (1.0 - nu) * sigma ** p
    start = np.full(n, 0.75 * box)

    points = lambda u: (box - _MARGIN) * (2.0 * u - 1.0)
    return ProblemInstance(
        A=LinearMap.dense(B), f=f,
        psi=BoxIndicator(np.full(n, -box), np.full(n, box)),
        h=SquaredEuclidean(), feasible_start=start,
        constants={"M": M, "nu": nu},
        solve_optimum=lambda: _holder_optimum(B, b, nu, box, n),
        name="holder", condition="smooth.3"), Sampler(n, points)


def _holder_optimum(B, b, nu, box, n):
    from scipy.optimize import minimize
    p = 1.0 + nu

    def fun(x):
        d = B @ x - b
        nrm = np.linalg.norm(d)
        grad = B.T @ (nrm ** (nu - 1.0) * d) if nrm > 0 else np.zeros(n)
        return nrm ** p / p, grad

    res = minimize(fun, np.zeros(n), jac=True, method="L-BFGS-B",
                   bounds=[(-box, box)] * n,
                   options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-12})
    return res.x, None


def _make_cg_ball(rng, n=10, radius=1.0):
    G = rng.normals(n * n).reshape(n, n)
    Q = G.T @ G / n + 0.1 * np.eye(n)
    # Put the unconstrained minimizer outside the ball so the constraint binds.
    x_unc = rng.normals(n)
    x_unc *= 2.0 * radius / float(np.sum(np.abs(x_unc)))
    q = -Q @ x_unc
    L = float(np.linalg.eigvalsh(Q)[-1])
    f = _quadratic_oracle(Q, q)
    M = L * (2.0 * radius) ** 2  # curvature constant: diameter^2 * lambda_max
    start = np.zeros(n)

    def points(u):
        # The normals' 2n uniforms, then one for the l1 norm of the point.
        y = _box_muller(u[:, 0:2 * n:2], u[:, 1:2 * n:2])
        target = radius * (1.0 - _MARGIN) * u[:, 2 * n:]
        return y * target / np.abs(y).sum(axis=1, keepdims=True)

    return ProblemInstance(
        A=LinearMap.identity(n), f=f, psi=L1BallIndicator(radius),
        h=ZeroReference(), feasible_start=start,
        constants={"M": M, "nu": 1.0},
        solve_optimum=lambda: _cg_ball_optimum(Q, q, radius),
        name="cg-ball", condition="curv.nu"), Sampler(2 * n + 1, points)


def _cg_ball_optimum(Q, q, radius):
    """min 0.5 x'Qx + q'x over |x|_1 <= radius by SLSQP on x = p - p' with
    p, p' >= 0 and sum(p + p') <= radius, scaled back into the ball.  At
    u = Qx + q the Fenchel gap is the Frank-Wolfe gap <u, x> + radius
    |u|_inf (Jaggi, 2013)."""
    from scipy.optimize import minimize
    n = q.size

    def fun(z):
        x = z[:n] - z[n:]
        g = Q @ x + q
        return 0.5 * float(x @ (Q @ x)) + float(q @ x), np.concatenate([g, -g])

    ball = {"type": "ineq", "fun": lambda z: radius - z.sum(),
            "jac": lambda z: -np.ones(2 * n)}
    res = minimize(fun, np.zeros(2 * n), jac=True, method="SLSQP",
                   bounds=[(0.0, None)] * (2 * n), constraints=[ball],
                   options={"maxiter": 1000, "ftol": 1e-16})
    x = res.x[:n] - res.x[n:]
    norm = float(np.abs(x).sum())
    if norm > radius:  # the gap bounds the optimum only from a feasible x
        x *= radius / norm
    return x, None


_REGISTRY = {
    "simplex-quadratic": _make_simplex_quadratic,
    "lasso": _make_lasso,
    "poisson-burg": _make_poisson_burg,
    "l1-regression": _make_l1_regression,
    "holder": _make_holder,
    "cg-ball": _make_cg_ball,
}

REGISTRY_NAMES = tuple(_REGISTRY)

# Each builder's parameters after rng, with their defaults.
_PARAMS = {name: {p.name: p.default
                  for p in list(inspect.signature(build).parameters.values())[1:]}
           for name, build in _REGISTRY.items()}


class UnknownInstance(ConfigError, KeyError):
    """A name the registry does not hold."""
    __str__ = ConfigError.__str__  # the message, not KeyError's repr of it


def _check_spec(name, seed, params):
    """Raise ConfigError for a seed or an instance parameter out of range."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK:
        raise ConfigError("seed must be an integer in [0, 2**64), got %r" % (seed,))
    spec = dict(_PARAMS[name])
    for key, value in params.items():
        if key not in spec:
            raise ConfigError("%s is not a %s parameter (it takes %s)"
                              % (key, name, ", ".join(spec)))
        if key in ("n", "m"):
            check_positive_int(value, key)
        elif key == "reference":
            if value not in ("entropy", "euclidean"):
                raise ConfigError("reference must be 'entropy' or 'euclidean', "
                                  "got %r" % (value,))
        elif not (key == "lam" and value is None):  # lam=None: the default
            check_number(value, key, *methods._KEY_LIMITS[key])
        spec[key] = value
    if spec.get("nu", 1.0) > 1.0:  # a Hoelder exponent lies in (0, 1]
        raise ConfigError("nu must be at most 1, got %r" % (spec["nu"],))
    if "lo" in spec and spec["lo"] >= spec["hi"]:
        raise ConfigError("lo must be below hi, got %r >= %r"
                          % (spec["lo"], spec["hi"]))


def check_constants(instance, values, what):
    """Raise ConfigError for a key of values that names no declared constant
    of instance, or a value not a finite number > 0 (nor above 1 for nu)."""
    for key, value in values.items():
        if key not in instance.constants:
            raise ConfigError("%s%s is not a constant %s declares (it declares "
                              "%s)" % (what, key, instance.name,
                                       ", ".join(instance.constants)))
        check_number(value, what + key, 0.0, strict=True)
        if key == "nu" and value > 1.0:
            raise ConfigError("%s%s must be at most 1, got %r" % (what, key, value))


def make_instance(name, seed=0, **params):
    """Build a registry instance deterministically from its seed.

    Raises UnknownInstance (a KeyError and a ConfigError) for an unknown
    name, and ConfigError for a seed outside [0, 2**64), a parameter the
    instance does not take or out of range, or parameters that make a
    declared constant other than a finite number > 0.  Runs no solve: a
    registered optimum is solved on first use (reference_optimum).
    """
    if name not in _REGISTRY:
        raise UnknownInstance("unknown instance %r; choose from %s"
                              % (name, ", ".join(REGISTRY_NAMES)))
    _check_spec(name, seed, params)
    rng = SplitMix64(seed)
    try:
        instance, sampler = _REGISTRY[name](rng, **params)
    except OverflowError as exc:
        raise ConfigError("a declared constant of %s overflows: %s" % (name, exc))
    check_constants(instance, instance.constants, "the declared constant ")
    instance.sampler = sampler
    return instance


# verify_constants draws the uniforms of at most this many samples as one
# block.  Blocks of 64 and 1024 samples run at the same speed, but the
# block's memory grows with it: a traced peak of 0.12 MB against 1.8 MB.
_CHUNK = 64


def verify_constants(instance, samples=1000, seed=12345, constants=None):
    """Sample the claimed condition class and report the worst violation ratio.

    The ratio at a sample is lhs / rhs, the sides of the inequality of the
    instance's class (methods.CONDITIONS; ValueError for a class it lacks)
    under the declared constants, updated by constants.  Passes iff
    max_ratio <= 1 + 1e-9.  A sample is skipped only where the right side
    without its constant (D_h, theta^(1+nu), ...) is below 1e-12.

    Sample i takes its points, then its scalar uniform, from the stream
    SplitMix64(seed) right after sample i - 1's; the samples of one chunk
    are drawn as one block of uniforms.
    """
    con = dict(instance.constants)
    if constants:
        con.update(constants)
    if instance.condition not in methods.CONDITIONS:
        raise ValueError("instance claims no known condition class")
    _, (npoints, nscalars), sides = methods.CONDITIONS[instance.condition]
    width, points = instance.sampler
    span = npoints * width
    rng = SplitMix64(seed)
    max_ratio = 0.0

    for start in range(0, samples, _CHUNK):
        k = min(_CHUNK, samples - start)
        block = rng.uniforms(k * (span + nscalars)).reshape(k, span + nscalars)
        drawn = points(block[:, :span].reshape(k * npoints, width))
        for P, a in zip(drawn.reshape(k, npoints, -1),
                        block[:, span:].tolist()):
            lhs, rhs, rest = sides(instance, con, *P, *a)
            # lhs <= 0 cannot raise max_ratio; lhs > 0 over rhs = 0 fails.
            if rest >= 1e-12 and lhs > 0.0:
                max_ratio = max(max_ratio, lhs / rhs if rhs > 0.0 else INF)

    return {
        "instance": instance.name,
        "condition": instance.condition,
        "constants": con,
        "samples": samples,
        "max_ratio": max_ratio,
        "passed": max_ratio <= 1.0 + 1e-9,
    }


# A registered solve is accepted when its Fenchel gap, a bound on
# value - optimum, is at most this relative to max(1, |value|).
REFERENCE_GAP_TOL = 1e-5


def reference_optimum(instance, budget=20000):
    """Optimal value and point.

    An instance with a registered solver (solve_optimum) solves on the
    first call and keeps the result in instance.optimum.  The solve is
    accepted only if its value F(point) is finite and its Fenchel gap
    instance.fenchel_gap(point, u), at the dual point u the solver returns,
    is at most REFERENCE_GAP_TOL relative to max(1, |value|); otherwise, or
    when the solver fails, ReferenceBracketError is raised.  Any other
    instance gets a long reference run of the matching method
    (methods.reference_run, of budget iterations).
    """
    if instance.solve_optimum is None:
        return methods.reference_run(instance, budget)
    if instance.optimum is None:
        point, u = instance.solve_optimum()
        value = instance.primal_value(point)
        gap = instance.fenchel_gap(point, u)
        if not (math.isfinite(value)
                and abs(gap) <= REFERENCE_GAP_TOL * max(1.0, abs(value))):
            raise ReferenceBracketError(
                "registered solve (%s): value %r with Fenchel gap %r, "
                "beyond %g relative" % (instance.name, value, gap,
                                        REFERENCE_GAP_TOL))
        instance.optimum = (value, point)
    return instance.optimum
