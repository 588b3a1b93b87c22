"""Generic first-order engine: iterates, average sequences, and duality
certificates with runtime identity residuals."""

import math
from dataclasses import dataclass

import numpy as np

from .prox import prox_step

PROX_POINT = "prox_point"          # y_k = s_{k-1}
CURRENT_AVERAGE = "current_average"  # y_k = x_k
FAST_COMBO = "fast_combo"          # y_k = (1-theta_k) x_k + theta_k s_{k-1}


class InfeasibleStart(ValueError):
    pass


class StepOutOfRange(ValueError):
    """A trial step t whose weight theta = t / (T + t) is not positive: t is
    not finite, or T + t overflowed."""


class _Kahan:
    """Compensated (Neumaier) scalar accumulator."""

    __slots__ = ("s", "c")

    def __init__(self, value=0.0):
        self.s = float(value)
        self.c = 0.0

    def add(self, x):
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def total(self):
        return self.s + self.c


@dataclass
class Certificate:
    primal: float
    dual_surrogate: float
    gap: float
    delta: float
    thm1_residual: float
    thm2_residual: float
    # Plain Fenchel-dual gap primal - (-f*(u) - Psi*(-A*u)); nonnegative by
    # weak duality, possibly +inf when -A*u falls outside dom(Psi*).  The
    # perturbed gap above is the one bounded by delta; it is not a weak
    # duality statement.
    weak_gap: float = float("inf")


class EngineState:
    """Mutable per-run state: current iterate data plus the running sums
    behind the average sequences and the conjugate accumulators."""

    def __init__(self, instance):
        start = np.asarray(instance.feasible_start, dtype=float)
        psi_start = instance.psi.value(start)
        if not math.isfinite(psi_start):
            raise InfeasibleStart("starting point outside dom(Psi)")
        instance.h.value(start)  # raises DomainError outside dom(h)
        self.k = 0
        self.s_prev = start.copy()
        self.s_anchor = start.copy()
        self.x = start.copy()
        self.z = start.copy()
        self.Ax = instance.A.apply(start)
        f_start = instance.f.value(self.Ax)
        self.F_x = f_start + psi_start  # F(x_k), kept by commit
        # (A s_prev, f(A s_prev), Psi(s_prev)): the PROX_POINT y-side's
        # image, replaced by commit with the accepted trial's.
        self.s_prev_side = (self.Ax, f_start, psi_start)
        self.grad_h_anchor = None  # grad h(s_anchor), set by d_conjugate
        self.Az = self.Ax.copy()
        self.T = _Kahan()
        self.U = np.zeros(instance.A.out_dim)
        self.W = np.zeros(instance.A.in_dim)
        self.Cf = _Kahan()      # sum t_i f*(g_i)
        self.Cpsi = _Kahan()    # sum t_i Psi*(g_i^Psi)
        self.Sfy = _Kahan()     # sum t_i f(A y_i)
        self.Spsiy = _Kahan()   # sum t_i Psi(y_i)
        self.Ssub = _Kahan()    # right side accumulator, subgradient identity
        self.Sgrad = _Kahan()   # right side accumulator, gradient identity
        self.cggap = 0.0
        # Per-iteration y-side data (y, Ay, g, c, f(Ay), Psi(y)) by selector,
        # for the selectors whose y does not depend on t; cleared by commit.
        self.y_side = {}


@dataclass(slots=True, eq=False)
class TrialStep:
    """A fully solved candidate iteration, not yet committed to the state.
    It keeps form_g_psi, not g_psi: only commit forms g_psi."""

    t: float
    theta: float
    y: np.ndarray
    g: np.ndarray
    c: np.ndarray
    s: np.ndarray
    form_g_psi: object
    Ay: np.ndarray
    fAy: float
    psi_y: float
    As: np.ndarray
    fAs: float
    psi_s: float
    Dh: float
    excess: float
    sgrad_term: float
    x_comb: np.ndarray
    Ax_comb: np.ndarray
    F_comb: float


def _y_side(instance, y, image=None):
    """(y, Ay, g, c, f(Ay), Psi(y)) with g = f'(Ay) and c = A* g; a caller
    that already holds image = (Ay, f(Ay), Psi(y)) passes it in."""
    A = instance.A
    if image is None:
        Ay = A.apply(y)
        image = (Ay, instance.f.value(Ay), instance.psi.value(y))
    Ay, fAy, psi_y = image
    g = instance.f.subgradient(Ay)
    return y, Ay, g, A.adjoint_apply(g), fAy, psi_y


def cached_y_side(state, instance, ysel):
    """(y, Ay, g, c, f(Ay), Psi(y)) for PROX_POINT or CURRENT_AVERAGE, whose
    y does not depend on t: computed once per iteration, kept on the state
    until commit.

    For PROX_POINT, y = s_prev and A y, f(A y), Psi(y) are the accepted
    trial's A s, f(A s), Psi(s), which commit carries on the state (the
    start point's at k = 0); only g and c = A* g are computed here.
    """
    cached = state.y_side.get(ysel)
    if cached is None:
        if ysel == PROX_POINT:
            cached = _y_side(instance, state.s_prev, state.s_prev_side)
        elif ysel == CURRENT_AVERAGE:
            cached = _y_side(instance, state.x)
        else:
            raise ValueError("unknown y selector: %r" % (ysel,))
        state.y_side[ysel] = cached
    return cached


def propose(state, instance, ysel, t, solved=None):
    """Solve one candidate iteration at step size t without committing it.

    For PROX_POINT and CURRENT_AVERAGE the y-side data do not depend on t,
    so every backtracking trial of one iteration reuses them.  A caller
    that has already solved the subproblem passes solved = (s, form_g_psi,
    As, Psi(s)) and skips prox_step, as the conditional-gradient step does
    with its linmin.  Beyond the y-side cache, only commit changes the state.
    """
    if t <= 0:
        raise ValueError("step size must be positive")
    T_prev = state.T.total
    theta = t / (T_prev + t)
    if not theta > 0.0:  # also NaN
        raise StepOutOfRange("step t = %g after the steps' sum T = %g has "
                             "weight theta = %g" % (t, T_prev, theta))

    if ysel == FAST_COMBO:
        y_side = _y_side(instance, (1.0 - theta) * state.x + theta * state.s_prev)
    else:
        y_side = cached_y_side(state, instance, ysel)

    if solved is None:
        sol = prox_step(instance, y_side[3], t, state.s_prev)
        solved = (sol.s, sol.form_g_psi, instance.A.apply(sol.s),
                  instance.psi.value(sol.s))
    return finish_trial(state, instance, t, theta, y_side, *solved)


def finish_trial(state, instance, t, theta, y_side, s, form_g_psi, As, psi_s):
    """Evaluate the objective pieces a trial needs for its descent terms,
    given y_side = (y, Ay, g, c, f(Ay), Psi(y)) and As = A s, psi_s = Psi(s)."""
    y, Ay, g, c, fAy, psi_y = y_side
    f, psi, h = instance.f, instance.psi, instance.h
    fAs = f.value(As)
    Dh = h.bregman(s, state.s_prev)

    # script D(x_k, y_k, s_k, theta_k); the combination point is x_{k+1}.
    Ax_comb = (1.0 - theta) * state.Ax + theta * As
    x_comb = (1.0 - theta) * state.x + theta * s
    F_comb = f.value(Ax_comb) + psi.value(x_comb)
    F_s = fAs + psi_s
    D_fa = fAs - fAy - float(np.vdot(g, As - Ay))
    excess = F_comb - (1.0 - theta) * state.F_x - theta * F_s + theta * D_fa
    sgrad_term = t * excess / theta - Dh
    return TrialStep(t, theta, y, g, c, s, form_g_psi, Ay, fAy, psi_y,
                     As, fAs, psi_s, Dh, excess, sgrad_term, x_comb, Ax_comb,
                     F_comb)


def commit(state, instance, trial):
    """Fold an accepted trial into the state and advance one iteration.

    It forms the trial's g_psi.  The trial's s becomes s_prev, and its
    (As, f(As), Psi(s)) becomes s_prev_side, the image the next PROX_POINT
    y-side reuses.
    """
    t, theta, s = trial.t, trial.theta, trial.s
    g_psi = trial.form_g_psi()
    ssub_term = (t * (trial.psi_y - trial.psi_s
                      - float(np.vdot(trial.c, s - trial.y))) - trial.Dh)

    state.Cf.add(t * (float(np.vdot(trial.g, trial.Ay)) - trial.fAy))
    state.Cpsi.add(t * (float(np.vdot(g_psi, s)) - trial.psi_s))
    state.Sfy.add(t * trial.fAy)
    state.Spsiy.add(t * trial.psi_y)
    state.Ssub.add(ssub_term)
    state.Sgrad.add(trial.sgrad_term)
    state.U += t * trial.g
    state.W += t * (trial.c + g_psi)

    if instance.zero_reference:
        if state.k == 0:
            state.cggap = trial.excess  # theta_0 = 1: D(x_0, s_0, 1)
        else:  # the CG gap recursion (1 - theta) * gap + D
            state.cggap = (1.0 - theta) * state.cggap + trial.excess

    state.x = trial.x_comb
    state.Ax = trial.Ax_comb
    state.F_x = trial.F_comb
    state.z = (1.0 - theta) * state.z + theta * trial.y
    state.Az = (1.0 - theta) * state.Az + theta * trial.Ay

    state.s_prev = s
    state.s_prev_side = (trial.As, trial.fAs, trial.psi_s)
    state.y_side.clear()
    state.T.add(t)
    state.k += 1
    return state


def d_conjugate(state, instance):
    """Closed form of the perturbation conjugate d_k*(-w_k).

    Zero for the zero reference function; otherwise
    (<grad h(s_{k-1}) - grad h(s_{-1}), s_{k-1}> - D_h(s_{k-1}, s_{-1})) / T.
    grad h(s_{-1}) is constant for a run: the first call computes it and
    keeps it on the state as grad_h_anchor.
    """
    if instance.zero_reference:
        return 0.0
    if state.k < 1:
        raise ValueError("perturbation conjugate needs at least one iteration")
    h = instance.h
    if state.grad_h_anchor is None:
        state.grad_h_anchor = h.gradient(state.s_anchor)
    diff = h.gradient(state.s_prev) - state.grad_h_anchor
    num = float(np.vdot(diff, state.s_prev)) - h.bregman(state.s_prev, state.s_anchor)
    return num / state.T.total


def segment_ends(instance, x, g, s, x_side=None, s_side=None):
    """The theta-independent terms of segment_excess along x -> s.

    Returns the tuple (s - x, f(Ax), <g, As - Ax>, Psi(x), Psi(s)): two
    A-applications, one f and two Psi evaluations, paid once per segment.
    A caller that already holds x_side = (Ax, f(Ax), Psi(x)) or s_side =
    (As, Psi(s)) passes it in, which saves the evaluations at that end.
    """
    A = instance.A
    if x_side is None:
        Ax = A.apply(x)
        x_side = (Ax, instance.f.value(Ax), instance.psi.value(x))
    if s_side is None:
        s_side = (A.apply(s), instance.psi.value(s))
    Ax, fAx, psi_x = x_side
    As, psi_s = s_side
    return (s - x, fAx, float(np.vdot(g, As - Ax)), psi_x, psi_s)


def segment_excess(instance, x, g, s, theta, ends=None):
    """Simplified excess along the segment from x to s (the y = x case).

    ends is segment_ends(instance, x, g, s), computed here when omitted.  A
    caller evaluating many theta on one segment passes it in, so that each
    call costs one A-application, one f and one Psi evaluation (at the
    combination point) instead of three, two and three; the result is
    bitwise the same either way.
    """
    if ends is None:
        ends = segment_ends(instance, x, g, s)
    d, fAx, slope, psi_x, psi_s = ends
    comb = x + theta * d
    D_f = instance.f.value(instance.A.apply(comb)) - fAx - theta * slope
    return D_f + instance.psi.value(comb) - (1.0 - theta) * psi_x - theta * psi_s


def identity_residuals(state, instance, dstar):
    """Relative residuals of the two running identities (subgradient and
    gradient form), each scaled by max(1, |RHS|); dstar is d_conjugate's
    value at the state."""
    T = state.T.total
    lhs1 = (state.Sfy.total + state.Spsiy.total
            + state.Cf.total + state.Cpsi.total) / T + dstar
    rhs1 = state.Ssub.total / T
    res1 = abs(lhs1 - rhs1) / max(1.0, abs(rhs1))

    lhs2 = state.F_x + (state.Cf.total + state.Cpsi.total) / T + dstar
    rhs2 = state.Sgrad.total / T
    res2 = abs(lhs2 - rhs2) / max(1.0, abs(rhs2))
    return res1, res2


def certificate(state, instance, mode="x"):
    """Duality certificate at the current averages.

    mode "x" reports the s-average point with the gradient-form slack;
    mode "z" reports the y-average point with the subgradient-form slack.
    """
    if state.k < 1:
        raise ValueError("certificates require at least one iteration")
    T = state.T.total
    if mode == "x":
        primal = state.F_x
        delta = state.Sgrad.total / T
    elif mode == "z":
        primal = instance.f.value(state.Az) + instance.psi.value(state.z)
        delta = state.Ssub.total / T
    else:
        raise ValueError("mode must be 'x' or 'z'")

    u = state.U / T
    w = state.W / T
    Astar_u = instance.A.adjoint_apply(u)
    fstar = instance.f.conjugate(u)
    psistar = instance.psi.conjugate(w - Astar_u)
    dstar = d_conjugate(state, instance)
    dual = -fstar - psistar - dstar
    # Plain Fenchel dual value at the averaged gradient; a true lower bound
    # on the optimum, unlike the perturbed surrogate above.
    plain_dual = -fstar - instance.psi.conjugate(-Astar_u)
    res1, res2 = identity_residuals(state, instance, dstar)
    return Certificate(primal=primal, dual_surrogate=dual, gap=primal - dual,
                       delta=delta, thm1_residual=res1, thm2_residual=res2,
                       weak_gap=primal - plain_dual)
