import math

import numpy as np
import pytest

from fomcert import engine
from fomcert.linalg import LinearMap
from fomcert.oracles import FEAS_TOL, INF, ProblemInstance, SmoothOracle, ZeroFunction
from fomcert.problems import _GAMMA, _MARGIN, _MASK, SplitMix64, reference_optimum
from fomcert.prox import NotAdmissible
from fomcert.reference import MIN_POSITIVE, DomainError, SquaredEuclidean


class ScalarSplitMix64(SplitMix64):
    """SplitMix64 with its scalar draws, one value per call: the stream that
    the block methods u64s, uniforms and normals must reproduce."""

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self):
        # Box-Muller; discard the second variate for simplicity.
        u1 = max(self.uniform(), 1e-300)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def advance(config, state, instance, prev=None):
    """One iteration of config as methods.run takes it: the method's step
    proposes a trial, and engine.commit folds it in.  Returns the trial."""
    trial = config.step(state, instance, prev)
    engine.commit(state, instance, trial)
    return trial


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


def registered_optimum(inst):
    """The instance's registered optimum (value, point), solved and
    certified on first use; None for an instance without a solver."""
    return reference_optimum(inst) if inst.solve_optimum is not None else None


def sample_point(inst, rng):
    """The instance's next sample point from the SplitMix64 stream rng: one
    row of the instance's block sampler."""
    width, points = inst.sampler
    return points(rng.uniforms(width).reshape(1, width))[0]


def per_point_sampler(inst):
    """The registry instance's sampler as one draw per point, r -> point,
    in the arithmetic that its block sampler must reproduce bit for bit.
    The data it reads come from the instance: the lasso scale is the block
    sampler's point at u = 1."""
    n = inst.A.in_dim
    if inst.name == "simplex-quadratic":
        def sample(r):
            p = -np.log(np.maximum(r.uniforms(n), 1e-12))
            p = p / p.sum()
            return (p + 2 * _MARGIN) / (1.0 + 2 * _MARGIN * n)
    elif inst.name == "lasso":
        scale = float(inst.sampler.points(np.ones((1, n)))[0, 0])

        def sample(r):
            return scale * (2.0 * r.uniforms(n) - 1.0)
    elif inst.name == "poisson-burg":
        lo, hi = float(inst.psi.lo[0]), float(inst.psi.hi[0])

        def sample(r):
            return lo + _MARGIN + (hi - lo - 2 * _MARGIN) * r.uniforms(n)
    elif inst.name in ("l1-regression", "holder"):
        box = float(inst.psi.hi[0])

        def sample(r):
            return (box - _MARGIN) * (2.0 * r.uniforms(n) - 1.0)
    elif inst.name == "cg-ball":
        radius = inst.psi.radius

        def sample(r):
            y = r.normals(n)
            target = radius * (1.0 - _MARGIN) * r.uniform()
            return y * target / float(np.sum(np.abs(y)))
    else:
        raise KeyError(inst.name)
    return sample


def matrix_of(A):
    """The matrix of the LinearMap A, built column by column as A e_j."""
    return np.column_stack([A.apply(e) for e in np.eye(A.in_dim)])


def segment_excess_unhoisted(instance, x, g, s, theta):
    """The segment excess with every term evaluated at each call (three
    A-applications, two f and three Psi evaluations), in the arithmetic
    order engine.segment_excess must reproduce bit for bit."""
    A, f, psi = instance.A, instance.f, instance.psi
    comb = x + theta * (s - x)
    Ax, Acomb = A.apply(x), A.apply(comb)
    D_f = f.value(Acomb) - f.value(Ax) - theta * float(g @ (A.apply(s) - Ax))
    return D_f + psi.value(comb) - (1.0 - theta) * psi.value(x) - theta * psi.value(s)


def combination_excess(instance, x, y, g, s, theta):
    """The four-point excess function behind the gradient-form identity."""
    A, f, psi = instance.A, instance.f, instance.psi
    comb = x + theta * (s - x)
    F = lambda v: f.value(A.apply(v)) + psi.value(v)
    As, Ay = A.apply(s), A.apply(y)
    D_fa = f.value(As) - f.value(Ay) - float(g @ (As - Ay))
    return F(comb) - (1.0 - theta) * F(x) - theta * F(s) + theta * D_fa


def optimality_residual(instance, c, t, s_prev, s, g_psi):
    """Max-norm residual of the prox optimality conditions
    t*(c + g_psi) + grad h(s) - grad h(s_prev) = 0 (zero reference: 0)."""
    h = instance.h
    if h.kind == "zero":
        return 0.0
    r = t * (c + g_psi) + h.gradient(s) - h.gradient(s_prev)
    return float(np.max(np.abs(r), initial=0.0))


def step_ratio_bound(k, gamma, L):
    """Upper bound L * (gamma / (k + gamma))^gamma on theta_k / t_k."""
    return L * (gamma / (k + gamma)) ** gamma


def maximal_t_sequence(gamma, L, K, tol=1e-14):
    """Step sequence taking the largest t allowed by theta^(gamma-1) * t = 1/L
    at every iteration (theta_0 = 1).  Used to probe the theta/t bound."""
    ts, thetas = [], []
    T = 0.0
    for k in range(K):
        if k == 0:
            t = 1.0 / L
            theta = 1.0
        else:
            # Solve (t/(T+t))^(gamma-1) * t = 1/L for t by bisection; the
            # left side is increasing in t.
            target = 1.0 / L
            lo, hi = 0.0, max(1.0, 4.0 * ts[-1])
            f = lambda t: (t / (T + t)) ** (gamma - 1.0) * t
            while f(hi) < target:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(mid) < target:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < tol * max(1.0, hi):
                    break
            t = 0.5 * (lo + hi)
            theta = t / (T + t)
        ts.append(t)
        thetas.append(theta)
        T += t
    return ts, thetas


# The module-function forms (np.any, np.sum, np.max, np.clip, ...) that the
# per-trial oracles, kernels, Bregman distances and prox solvers had before
# they called the ndarray methods.  The rewritten forms must return exactly
# these values and raise the same errors.
def old_entropy_value(x):
    if np.any(x < 0.0):
        raise DomainError("entropy needs nonnegative coordinates")
    mask = x > 0.0
    return float(np.sum(x[mask] * np.log(x[mask])))


def old_entropy_gradient(x):
    if np.any(x <= 0.0):
        raise DomainError("entropy gradient needs strictly positive coordinates")
    return 1.0 + np.log(x)


def old_entropy_bregman_kernel(s, z):
    out = 0.0
    mask = s > 0.0
    out = float(np.sum(s[mask] * np.log(s[mask] / z[mask])))
    return out - float(np.sum(s)) + float(np.sum(z))


def old_entropy_bregman(s, z):
    if np.any(s < 0.0) or np.any(z <= 0.0):
        raise DomainError("entropy Bregman distance outside domain")
    return old_entropy_bregman_kernel(s, z)


def old_burg_value(x):
    if np.any(x <= 0.0):
        raise DomainError("Burg entropy needs strictly positive coordinates")
    return -float(np.sum(np.log(x)))


def old_burg_gradient(x):
    if np.any(x <= 0.0):
        raise DomainError("Burg gradient needs strictly positive coordinates")
    return -1.0 / x


def old_burg_bregman_kernel(s, z):
    r = s / z
    return float(np.sum(r - np.log(r) - 1.0))


def old_burg_bregman(s, z):
    if np.any(s <= 0.0) or np.any(z <= 0.0):
        raise DomainError("Burg Bregman distance outside domain")
    return old_burg_bregman_kernel(s, z)


def old_entropy_prox_simplex(log_s_prev, tc):
    w = log_s_prev - tc
    m = np.max(w)
    e = np.exp(w - m)
    z = np.sum(e)
    log_z = m + np.log(z)
    return e / z, log_z


def old_zero_conjugate(v):
    return 0.0 if np.max(np.abs(v), initial=0.0) <= FEAS_TOL else INF


def old_l1_value(lam, x):
    return lam * float(np.sum(np.abs(x)))


def old_l1_conjugate(lam, v):
    if np.max(np.abs(v), initial=0.0) <= lam * (1.0 + FEAS_TOL):
        return 0.0
    return INF


def old_box_conjugate(lo, hi, v):
    return float(np.sum(np.maximum(v * lo, v * hi)))


def old_simplex_value(x):
    if np.any(x < -FEAS_TOL) or abs(float(np.sum(x)) - 1.0) > FEAS_TOL * x.size:
        return INF
    return 0.0


def old_simplex_conjugate(v):
    return float(np.max(v))


def old_l1ball_value(radius, x):
    if float(np.sum(np.abs(x))) <= radius * (1.0 + FEAS_TOL):
        return 0.0
    return INF


def old_l1ball_conjugate(radius, v):
    return radius * float(np.max(np.abs(v), initial=0.0))


def old_poisson_value(b, y):
    if np.any(y <= 0.0):
        return INF
    return float(np.sum(y - b * np.log(y)))


def old_poisson_conjugate(b, u):
    return (float(np.sum(b * np.log(b / (1.0 - u)) - b))
            if np.all(u < 1.0) else INF)


def old_l1_regression_value(b, y):
    return float(np.sum(np.abs(y - b)))


def old_l1_regression_conjugate(b, u):
    return (float(u @ b)
            if np.max(np.abs(u), initial=0.0) <= 1.0 + 1e-9 else INF)


def old_solve_sq_box(c, t, s_prev, psi):
    s = np.clip(s_prev - t * c, psi.lo, psi.hi)
    return s, (s_prev - s) / t - c


def old_solve_entropy_simplex(c, t, s_prev):
    if np.any(s_prev <= 0.0):
        raise DomainError("entropy prox needs a strictly positive previous point")
    s, log_z = old_entropy_prox_simplex(np.log(s_prev), t * c)
    if np.any(s < MIN_POSITIVE):
        raise DomainError("entropy prox underflow at the simplex boundary")
    return s, np.full_like(s, log_z / t)


def old_solve_burg_box(c, t, s_prev, psi):
    if np.any(s_prev <= 0.0):
        raise DomainError("Burg prox needs a strictly positive previous point")
    denom = 1.0 + t * c * s_prev
    if np.any(denom <= 0.0) and not np.all(np.isfinite(psi.hi)):
        raise NotAdmissible("Burg subproblem unbounded below without an upper box bound")
    s_unc = np.where(denom > 0.0, s_prev / np.where(denom > 0.0, denom, 1.0), np.inf)
    s = np.clip(s_unc, psi.lo, psi.hi)
    return s, (-1.0 / s_prev + 1.0 / s) / t - c


# The @, np.linalg.norm, np.sort, np.cumsum and np.nonzero forms of the
# per-trial products, norms and sorts, before they called ndarray.dot,
# np.vdot and the ndarray methods.  The rewritten forms must return exactly
# these values (a 1x1 map up to the sign of a zero; see linalg.LinearMap).
def old_apply(matrix, x):
    return matrix @ x


def old_adjoint_apply(matrix, u):
    return matrix.T @ u


def old_sq_euclid_value(x):
    return 0.5 * float(x @ x)


def old_sq_euclid_bregman_kernel(s, z):
    d = s - z
    return 0.5 * float(d @ d)


def old_project_simplex(v):
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    passing = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0]
    if not passing.size:
        raise DomainError("simplex projection of a +inf or NaN entry")
    rho = passing[-1]
    lam = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - lam, 0.0)


def old_quadratic_value(Q, q, x):
    return 0.5 * float(x @ (Q @ x)) + float(q @ x)


def old_quadratic_subgradient(Q, q, x):
    return Q @ x + q


def old_quadratic_conjugate(Qinv, q, u):
    d = u - q
    return 0.5 * float(d @ (Qinv @ d))


def old_lasso_value(b, y):
    return 0.5 * float((y - b) @ (y - b))


def old_lasso_conjugate(b, u):
    return 0.5 * float(u @ u) + float(u @ b)


def old_holder_value(b, p, y):
    return float(np.linalg.norm(y - b)) ** p / p


def old_holder_subgradient(b, nu, y):
    d = y - b
    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        return np.zeros_like(d)
    return nrm ** (nu - 1.0) * d


def old_holder_conjugate(b, p, nu, u):
    q = p / nu
    return float(u @ b) + float(np.linalg.norm(u)) ** q / q


def old_composite_bregman(instance, u, v):
    A, f = instance.A, instance.f
    Au, Av = A.apply(u), A.apply(v)
    g = A.adjoint_apply(f.subgradient(Av))
    return f.value(Au) - f.value(Av) - float(g @ (u - v))


def old_relcont_sides(instance, con, x, s, a):
    t = 1e-3 + a
    g = instance.A.adjoint_apply(instance.f.subgradient(instance.A.apply(x)))
    return (-t * float(g @ (s - x)) - instance.h.bregman(s, x),
            con["M"] * t * t / 2.0, t * t / 2.0)
