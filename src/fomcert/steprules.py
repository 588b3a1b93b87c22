"""Step-size selection: schedules, the t <-> theta correspondence, r-large
backtracking for the descent conditions, and the CG line search."""

from .engine import StepOutOfRange, propose, segment_ends, segment_excess
from .prox import NotAdmissible
from .reference import DomainError

# The most grid points backtrack tries beyond its first, in either direction.
MAX_GRID_STEPS = 60

# The most backtrack lets the steps' sum T reach: the square root of the
# float range, so that the weighted sums behind the certificate (T times an
# oracle value or a gradient entry) stay finite wherever those are below it.
T_MAX = 2.0 ** 512

# Golden-section search: at most this many shrinks, down to this interval.
_GOLDEN_MAX_ITERS = 64
_GOLDEN_INTERVAL = 1e-10


class BacktrackFailed(RuntimeError):
    """No step on the backtracking grid was accepted, down to its smallest."""


def t_from_theta(theta_k, T_prev):
    """t_k = theta_k * T_prev / (1 - theta_k), the inverse of the weight
    theta_k = t_k / (T_prev + t_k) that engine.propose gives a step."""
    if not 0.0 < theta_k < 1.0:
        raise ValueError("theta must lie strictly inside (0, 1) when T_prev > 0")
    return theta_k * T_prev / (1.0 - theta_k)


def cg_theta(k, nu):
    """Schedule theta_k = (1 + nu) / (k + 1 + nu)."""
    return (1.0 + nu) / (k + 1.0 + nu)


def _condition_holds(trial, eps):
    # t * D(...)/theta <= D_h(s, s_prev) [+ t*eps], with a rounding allowance.
    slack = trial.Dh + trial.t * eps - (trial.t * trial.excess / trial.theta)
    return slack >= -1e-12 * max(1.0, trial.Dh)


def backtrack(state, instance, ysel, r, t, eps=0.0):
    """Find a step on the geometric grid {t * r^j}, starting from the step t,
    whose descent condition, with the slack t * eps (zero for the smooth
    methods, the accuracy eps of the universal method), holds while the
    next grid point's fails.  Returns the accepted trial.

    Raises BacktrackFailed when no grid point down to t / r^MAX_GRID_STEPS
    is accepted.  The message names the last error when every trial left
    the domain of h or Psi, or every trial was out of range, and blames the
    declared smoothness constants only when some trial failed the descent
    condition itself.
    """
    if r <= 1.0:
        raise ValueError("backtracking ratio must exceed 1")
    domain_errors, range_errors = [], []

    # A step leaving the reference function's domain (e.g. an entropy prox
    # underflowing at the simplex boundary) counts as a failed condition,
    # and so does a step out of range: one whose weight theta is not
    # positive, or that takes T past T_MAX.
    def attempt(tc):
        try:
            trial = propose(state, instance, ysel, tc)
        except (DomainError, NotAdmissible) as exc:
            domain_errors.append(str(exc))
            return None
        except StepOutOfRange as exc:
            range_errors.append(str(exc))
            return None
        if not state.T.total + tc <= T_MAX:
            range_errors.append("step t = %g takes the steps' sum T past "
                                "2**512" % tc)
            return None
        return trial if _condition_holds(trial, eps) else None

    trial = attempt(t)
    if trial is not None:
        for _ in range(MAX_GRID_STEPS):
            probe = attempt(t * r)
            if probe is None:
                break
            trial, t = probe, t * r
        return trial
    for _ in range(MAX_GRID_STEPS):
        t /= r
        trial = attempt(t)
        if trial is not None:
            return trial
    for errors, what in ((domain_errors, "left the domain"),
                         (range_errors, "was out of range")):
        if len(errors) == MAX_GRID_STEPS + 1:
            raise BacktrackFailed("every trial step down to t = %g %s; the "
                                  "last: %s" % (t, what, errors[-1]))
    raise BacktrackFailed(
        "descent condition unsatisfied down to t = %g; the declared "
        "smoothness constants are likely wrong" % t)


def linesearch_cg(instance, x, g, s, cggap, x_side=None, s_side=None):
    """Golden-section minimization of (1-theta)*CGgap + D(x, s, theta) on [0,1].

    The segment's theta-independent terms (segment_ends) are computed once;
    each of the evals trial thetas then costs one segment_excess call, i.e.
    one A-application, one f and one Psi evaluation at the combination
    point.  A whole search makes evals + 2 A-applications, evals + 1 f and
    evals + 2 Psi evaluations.  A caller passing x_side = (Ax, f(Ax),
    Psi(x)) saves one of each; one passing s_side = (As, Psi(s)) saves an
    A-application and a Psi evaluation.
    """
    ends = segment_ends(instance, x, g, s, x_side=x_side, s_side=s_side)
    phi = lambda theta: (1.0 - theta) * cggap + segment_excess(
        instance, x, g, s, theta, ends=ends)
    invphi = (5 ** 0.5 - 1) / 2
    lo, hi = 0.0, 1.0
    a = hi - invphi * (hi - lo)
    b = lo + invphi * (hi - lo)
    fa, fb = phi(a), phi(b)
    for _ in range(_GOLDEN_MAX_ITERS):
        if hi - lo < _GOLDEN_INTERVAL:
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
