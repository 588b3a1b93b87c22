"""Step-size selection: schedules, the t <-> theta correspondence, r-large
backtracking for the descent conditions, and the CG line search."""

from dataclasses import dataclass

from . import engine
from .engine import propose, segment_ends, segment_excess
from .prox import NotAdmissible
from .reference import DomainError


class BacktrackFailed(RuntimeError):
    """Descent condition still failing at the smallest step on the grid."""


@dataclass
class BacktrackSmooth:
    r: float = 2.0
    t_init: float = 1.0
    max_halvings: int = 60
    max_growth: int = 60


@dataclass
class BacktrackUniversal:
    eps: float
    r: float = 2.0
    t_init: float = 1.0
    max_halvings: int = 60
    max_growth: int = 60


def theta_from_history(t_k, T_prev):
    """theta_k = t_k / (T_prev + t_k)."""
    if t_k <= 0:
        raise ValueError("step size must be positive")
    return t_k / (T_prev + t_k)


def t_from_theta(theta_k, T_prev):
    """Inverse of theta_from_history: t_k = theta_k * T_prev / (1 - theta_k)."""
    if not 0.0 < theta_k < 1.0:
        raise ValueError("theta must lie strictly inside (0, 1) when T_prev > 0")
    return theta_k * T_prev / (1.0 - theta_k)


def cg_theta(k, nu):
    """Schedule theta_k = (1 + nu) / (k + 1 + nu)."""
    return (1.0 + nu) / (k + 1.0 + nu)


def step_ratio_bound(k, gamma, L):
    """Upper bound L * (gamma / (k + gamma))^gamma on theta_k / t_k."""
    return L * (gamma / (k + gamma)) ** gamma


def amgm_check(a, b, alpha, beta, tol=1e-12):
    """Weighted AM-GM: a^alpha * b^beta <= ((alpha a + beta b)/(alpha+beta))^(alpha+beta)."""
    if a <= 0 or b <= 0 or alpha < 0 or beta < 0 or alpha + beta <= 0:
        raise ValueError("need a, b > 0 and alpha, beta >= 0 with alpha + beta > 0")
    lhs = a ** alpha * b ** beta
    rhs = ((alpha * a + beta * b) / (alpha + beta)) ** (alpha + beta)
    return lhs <= rhs * (1.0 + tol)


def _condition_holds(trial, eps):
    # t * D(...)/theta <= D_h(s, s_prev) [+ t*eps], with a rounding allowance.
    slack = trial.Dh + trial.t * eps - (trial.t * trial.excess / trial.theta)
    return slack >= -1e-12 * max(1.0, trial.Dh)


def backtrack(state, instance, ysel, rule, t_start=None):
    """Find a step on the geometric grid {t_start * r^j} whose descent
    condition holds while the next grid point's fails.

    Returns (trial, upper_probe_failed).  upper_probe_failed is False only
    when the growth cap stopped the search.
    """
    eps = getattr(rule, "eps", 0.0)
    r = rule.r
    if r <= 1.0:
        raise ValueError("backtracking ratio must exceed 1")
    t = rule.t_init if t_start is None else t_start

    # A step leaving the reference function's domain (e.g. an entropy prox
    # underflowing at the simplex boundary) counts as a failed condition.
    def attempt(tc):
        try:
            trial = propose(state, instance, ysel, tc)
        except (DomainError, NotAdmissible):
            return None
        return trial if _condition_holds(trial, eps) else None

    trial = attempt(t)
    if trial is not None:
        for _ in range(rule.max_growth):
            probe = attempt(t * r)
            if probe is not None:
                trial, t = probe, t * r
            else:
                return trial, True
        return trial, False
    for _ in range(rule.max_halvings):
        t /= r
        trial = attempt(t)
        if trial is not None:
            return trial, True
    raise BacktrackFailed(
        "descent condition unsatisfied down to t = %g; the declared "
        "smoothness constants are likely wrong" % t)


def linesearch_cg(instance, x, g, s, cggap, max_iters=64, interval_tol=1e-10):
    """Golden-section minimization of (1-theta)*CGgap + D(x, s, theta) on [0,1].

    The segment's theta-independent terms (segment_ends) are computed once;
    each of the evals trial thetas then costs one segment_excess call, i.e.
    one A-application, one f and one Psi evaluation at the combination
    point.  A whole search makes evals + 2 A-applications, evals + 1 f and
    evals + 2 Psi evaluations.
    """
    ends = segment_ends(instance, x, g, s)
    phi = lambda theta: (1.0 - theta) * cggap + segment_excess(
        instance, x, g, s, theta, ends=ends)
    invphi = (5 ** 0.5 - 1) / 2
    lo, hi = 0.0, 1.0
    a = hi - invphi * (hi - lo)
    b = lo + invphi * (hi - lo)
    fa, fb = phi(a), phi(b)
    for _ in range(max_iters):
        if hi - lo < interval_tol:
            break
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = phi(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = phi(b)
    return 0.5 * (lo + hi)


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
