"""Closed-form solvers for the Bregman proximal subproblem.

Each registered (reference, simple) pair solves

    argmin_s  t * (<c, s> + Psi(s)) + D_h(s, s_prev)

and returns s with form_g_psi, which forms g_psi: a subgradient of Psi at s
satisfying the first-order optimality conditions
t*(c + g_psi) + grad h(s) - grad h(s_prev) = 0.
"""

import numpy as np

from . import _kernels
from .oracles import BoxIndicator, L1Norm, SimplexIndicator, ZeroFunction
from .reference import MIN_POSITIVE, DomainError


class NotAdmissible(RuntimeError):
    """The subproblem objective is unbounded below for this step size."""


class UnsupportedPair(KeyError):
    """No closed-form solver registered for this (h, Psi) pair."""


def _solve_sq_zero(c, t, s_prev, h, psi):
    s = s_prev - t * c
    return s, lambda: np.zeros_like(s)


def _gpsi_sq(c, t, s_prev, s):
    # From the optimality conditions with grad h = identity.
    return (s_prev - s) / t - c


def _solve_sq_l1(c, t, s_prev, h, psi):
    s = _kernels.soft_threshold(s_prev - t * c, t * psi.lam)
    return s, lambda: _gpsi_sq(c, t, s_prev, s)


def _solve_sq_box(c, t, s_prev, h, psi):
    s = (s_prev - t * c).clip(psi.lo, psi.hi)
    return s, lambda: _gpsi_sq(c, t, s_prev, s)


def _solve_sq_simplex(c, t, s_prev, h, psi):
    s = _kernels.project_simplex(s_prev - t * c)
    return s, lambda: _gpsi_sq(c, t, s_prev, s)


def _solve_entropy_simplex(c, t, s_prev, h, psi):
    if (s_prev <= 0.0).any():
        raise DomainError("entropy prox needs a strictly positive previous point")
    s, log_z = _kernels.entropy_prox_simplex(np.log(s_prev), t * c)
    if (s < MIN_POSITIVE).any():
        raise DomainError("entropy prox underflow at the simplex boundary")
    # grad h(s_prev) - grad h(s) = t*c + log_z, so g_psi is the constant
    # vector log_z / t, a subgradient of the simplex indicator everywhere.
    return s, lambda: np.full_like(s, log_z / t)


def _solve_burg_box(c, t, s_prev, h, psi):
    if (s_prev <= 0.0).any():
        raise DomainError("Burg prox needs a strictly positive previous point")
    denom = 1.0 + t * c * s_prev
    if not psi.bounded_above and (denom <= 0.0).any():
        raise NotAdmissible("Burg subproblem unbounded below without an upper box bound")
    positive = denom > 0.0
    s_unc = np.where(positive, s_prev / np.where(positive, denom, 1.0), np.inf)
    s = s_unc.clip(psi.lo, psi.hi)
    return s, lambda: (-1.0 / s_prev + 1.0 / s) / t - c


_REGISTRY = {
    ("sq_euclid", ZeroFunction): _solve_sq_zero,
    ("sq_euclid", L1Norm): _solve_sq_l1,
    ("sq_euclid", BoxIndicator): _solve_sq_box,
    ("sq_euclid", SimplexIndicator): _solve_sq_simplex,
    ("entropy", SimplexIndicator): _solve_entropy_simplex,
    ("burg", BoxIndicator): _solve_burg_box,
}


class ProxSolution:
    """prox_step's s and form_g_psi; it unpacks as (s, g_psi)."""

    __slots__ = ("s", "form_g_psi")

    def __init__(self, s, form_g_psi):
        self.s, self.form_g_psi = s, form_g_psi

    def __iter__(self):
        return iter((self.s, self.form_g_psi()))


def prox_step(instance, c, t, s_prev):
    """Solve the Bregman proximal subproblem for a registered pair.

    Returns a ProxSolution, which unpacks as (s, g_psi).  g_psi is formed
    only then or by form_g_psi(): the engine forms it in commit, so a
    backtracking trial that is rejected never does.  Raises UnsupportedPair
    for any other pair, the zero reference function's included: its
    subproblem is the linear minimization that the conditional-gradient
    step solves itself.
    """
    if t <= 0:
        raise ValueError("step size must be positive")
    h, psi = instance.h, instance.psi
    solver = _REGISTRY.get((h.kind, type(psi)))
    if solver is None:
        raise UnsupportedPair("no solver for (%s, %s)" % (h.kind, type(psi).__name__))
    return ProxSolution(*solver(c, t, s_prev, h, psi))
