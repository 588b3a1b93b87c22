"""Generic first-order engine: iterates, average sequences, and duality
certificates with runtime identity residuals."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .prox import prox_step

PROX_POINT = "prox_point"          # y_k = s_{k-1}
CURRENT_AVERAGE = "current_average"  # y_k = x_k
FAST_COMBO = "fast_combo"          # y_k = (1-theta_k) x_k + theta_k s_{k-1}

# Residual tolerance: relative 1e-8 with absolute floor 1e-10.
RESIDUAL_RTOL = 1e-8
RESIDUAL_ATOL = 1e-10


class InfeasibleStart(ValueError):
    pass


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
    bound: Optional[float] = None
    # Plain Fenchel-dual gap primal - (-f*(u) - Psi*(-A*u)); nonnegative by
    # weak duality, possibly +inf when -A*u falls outside dom(Psi*).  The
    # perturbed gap above is the one bounded by delta; it is not a weak
    # duality statement.
    weak_gap: float = float("inf")


class EngineState:
    """Mutable per-run state: current iterate data plus the running sums
    behind the average sequences and the conjugate accumulators."""

    def __init__(self, instance, record_history=False):
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
        self.F_x = instance.f.value(self.Ax) + psi_start  # F(x_k), kept by commit
        self.Az = self.Ax.copy()
        self.T = _Kahan()
        self.U = np.zeros(instance.A.out_dim)
        self.W = np.zeros(instance.A.in_dim)
        self.Cf = _Kahan()      # sum t_i f*(g_i)
        self.Cpsi = _Kahan()    # sum t_i Psi*(g_i^Psi)
        self.Sfy = _Kahan()     # sum t_i f(A y_i)
        self.Spsiy = _Kahan()   # sum t_i Psi(y_i)
        self.Sprimal_s = _Kahan()
        self.Ssub = _Kahan()    # right side accumulator, subgradient identity
        self.Sgrad = _Kahan()   # right side accumulator, gradient identity
        self.Ssq = _Kahan()     # sum t_i^2 (subgradient rate bookkeeping)
        self.Seps = _Kahan()    # sum max(0, t D/theta - D_h)
        self.cggap = 0.0
        self.last_t = None
        self.last_theta = None
        self.history = [] if record_history else None
        # Per-iteration y-side data (y, Ay, g, c, f(Ay), Psi(y)) by selector,
        # for the selectors whose y does not depend on t; cleared by commit.
        self.y_side = {}


def init(instance, record_history=False):
    return EngineState(instance, record_history=record_history)


class TrialStep:
    """A fully solved candidate iteration, not yet committed to the state."""

    __slots__ = ("t", "theta", "y", "g", "c", "s", "g_psi",
                 "Ay", "fAy", "psi_y", "As", "fAs", "psi_s",
                 "Dh", "excess", "sgrad_term", "x_comb", "Ax_comb", "F_comb")

    def __init__(self, t, theta, y, g, c, s, g_psi, Ay, fAy, psi_y,
                 As, fAs, psi_s, Dh, excess, sgrad_term, x_comb, Ax_comb,
                 F_comb):
        self.t = t
        self.theta = theta
        self.y = y
        self.g = g
        self.c = c
        self.s = s
        self.g_psi = g_psi
        self.Ay = Ay
        self.fAy = fAy
        self.psi_y = psi_y
        self.As = As
        self.fAs = fAs
        self.psi_s = psi_s
        self.Dh = Dh
        self.excess = excess
        self.sgrad_term = sgrad_term
        self.x_comb = x_comb
        self.Ax_comb = Ax_comb
        self.F_comb = F_comb


def _y_side(instance, y):
    """(Ay, g, c): the image of y, g = f'(Ay) and c = A* g."""
    A = instance.A
    Ay = A.apply(y)
    g = instance.f.subgradient(Ay)
    return Ay, g, A.adjoint_apply(g)


def cached_y_side(state, instance, ysel):
    """(y, Ay, g, c, f(Ay), Psi(y)) for PROX_POINT or CURRENT_AVERAGE, whose
    y does not depend on t: computed once per iteration, kept on the state
    until commit."""
    cached = state.y_side.get(ysel)
    if cached is None:
        if ysel == PROX_POINT:
            y = state.s_prev
        elif ysel == CURRENT_AVERAGE:
            y = state.x
        else:
            raise ValueError("unknown y selector: %r" % (ysel,))
        Ay, g, c = _y_side(instance, y)
        cached = (y, Ay, g, c, instance.f.value(Ay), instance.psi.value(y))
        state.y_side[ysel] = cached
    return cached


def propose(state, instance, ysel, t):
    """Solve one candidate iteration at step size t without committing it.

    For PROX_POINT and CURRENT_AVERAGE the y-side data do not depend on t,
    so every backtracking trial of one iteration reuses them.
    """
    if t <= 0:
        raise ValueError("step size must be positive")
    T_prev = state.T.total
    theta = t / (T_prev + t)

    if ysel == FAST_COMBO:
        y = (1.0 - theta) * state.x + theta * state.s_prev
        Ay, g, c = _y_side(instance, y)
        fAy, psi_y = instance.f.value(Ay), instance.psi.value(y)
    else:
        y, Ay, g, c, fAy, psi_y = cached_y_side(state, instance, ysel)

    s, g_psi = prox_step(instance, c, t, state.s_prev)
    return finish_trial(state, instance, t, theta, y, g, c, s, g_psi, Ay,
                        fAy, psi_y)


def finish_trial(state, instance, t, theta, y, g, c, s, g_psi, Ay, fAy,
                 psi_y):
    """Evaluate the objective pieces a trial needs for its descent terms,
    given fAy = f(Ay) and psi_y = Psi(y)."""
    A, f, psi, h = instance.A, instance.f, instance.psi, instance.h
    As = A.apply(s)
    fAs = f.value(As)
    psi_s = psi.value(s)
    Dh = h.bregman(s, state.s_prev)

    # script D(x_k, y_k, s_k, theta_k); the combination point is x_{k+1}.
    Ax_comb = (1.0 - theta) * state.Ax + theta * As
    x_comb = (1.0 - theta) * state.x + theta * s
    F_comb = f.value(Ax_comb) + psi.value(x_comb)
    F_s = fAs + psi_s
    D_fa = fAs - fAy - float(g @ (As - Ay))
    excess = F_comb - (1.0 - theta) * state.F_x - theta * F_s + theta * D_fa
    sgrad_term = t * excess / theta - Dh
    return TrialStep(t, theta, y, g, c, s, g_psi, Ay, fAy, psi_y,
                     As, fAs, psi_s, Dh, excess, sgrad_term, x_comb, Ax_comb,
                     F_comb)


def commit(state, instance, trial):
    """Fold an accepted trial into the state and advance one iteration."""
    t, theta, s = trial.t, trial.theta, trial.s
    ssub_term = (t * (trial.psi_y - trial.psi_s - float(trial.c @ (s - trial.y)))
                 - trial.Dh)

    state.Cf.add(t * (float(trial.g @ trial.Ay) - trial.fAy))
    state.Cpsi.add(t * (float(trial.g_psi @ s) - trial.psi_s))
    state.Sfy.add(t * trial.fAy)
    state.Spsiy.add(t * trial.psi_y)
    state.Sprimal_s.add(t * (trial.fAs + trial.psi_s))
    state.Ssub.add(ssub_term)
    state.Sgrad.add(trial.sgrad_term)
    state.Ssq.add(t * t)
    state.Seps.add(max(0.0, trial.sgrad_term))
    state.U += t * trial.g
    state.W += t * (trial.c + trial.g_psi)

    if instance.zero_reference:
        if state.k == 0:
            state.cggap = trial.excess  # theta_0 = 1: D(x_0, s_0, 1)
        else:
            state.cggap = cggap_update(state.cggap, trial.excess, theta)

    state.x = trial.x_comb
    state.Ax = trial.Ax_comb
    state.F_x = trial.F_comb
    state.z = (1.0 - theta) * state.z + theta * trial.y
    state.Az = (1.0 - theta) * state.Az + theta * trial.Ay

    if state.history is not None:
        state.history.append((t, trial.y.copy(), s.copy(), trial.g.copy()))

    state.s_prev = s
    state.y_side.clear()
    state.T.add(t)
    state.k += 1
    state.last_t = t
    state.last_theta = theta
    return state


def iterate(state, instance, ysel, t):
    """One full iteration of the meta-algorithm at a caller-chosen step size."""
    return commit(state, instance, propose(state, instance, ysel, t))


def cggap_update(cggap, Dval, theta):
    """Conditional-gradient gap recursion: (1-theta) * gap + D value."""
    return (1.0 - theta) * cggap + Dval


def d_conjugate(state, instance):
    """Closed form of the perturbation conjugate d_k*(-w_k).

    Zero for the zero reference function; otherwise
    (<grad h(s_{k-1}) - grad h(s_{-1}), s_{k-1}> - D_h(s_{k-1}, s_{-1})) / T.
    """
    if instance.zero_reference:
        return 0.0
    if state.k < 1:
        raise ValueError("perturbation conjugate needs at least one iteration")
    h = instance.h
    diff = h.gradient(state.s_prev) - h.gradient(state.s_anchor)
    num = float(diff @ state.s_prev) - h.bregman(state.s_prev, state.s_anchor)
    return num / state.T.total


def combination_excess(instance, x, y, g, s, theta):
    """The four-point excess function behind the gradient-form identity."""
    A, f, psi = instance.A, instance.f, instance.psi
    comb = x + theta * (s - x)
    F = lambda v: f.value(A.apply(v)) + psi.value(v)
    As, Ay = A.apply(s), A.apply(y)
    D_fa = f.value(As) - f.value(Ay) - float(g @ (As - Ay))
    return F(comb) - (1.0 - theta) * F(x) - theta * F(s) + theta * D_fa


def segment_ends(instance, x, g, s):
    """The theta-independent terms of segment_excess along x -> s.

    Returns the tuple (s - x, f(Ax), <g, As - Ax>, Psi(x), Psi(s)): two
    A-applications, one f and two Psi evaluations, paid once per segment.
    """
    A = instance.A
    Ax = A.apply(x)
    return (s - x, instance.f.value(Ax), float(g @ (A.apply(s) - Ax)),
            instance.psi.value(x), instance.psi.value(s))


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


def certificate(state, instance, mode="x", bound=None):
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
                       bound=bound, weak_gap=primal - plain_dual)


def averages_from_history(state):
    """Recompute (x_k, z_k, u_k) directly from the stored per-iteration data."""
    if not state.history:
        raise ValueError("state was created without history recording")
    T = sum(t for t, _, _, _ in state.history)
    x = sum(t * s for t, _, s, _ in state.history) / T
    z = sum(t * y for t, y, _, _ in state.history) / T
    u = sum(t * g for t, _, _, g in state.history) / T
    return x, z, u
