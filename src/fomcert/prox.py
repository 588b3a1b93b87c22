"""Closed-form solvers for the Bregman proximal subproblem.

Each registered (reference, simple) pair solves

    argmin_s  t * (<c, s> + Psi(s)) + D_h(s, s_prev)

and returns (s, g_psi) with g_psi a subgradient of Psi at s satisfying the
first-order optimality conditions t*(c + g_psi) + grad h(s) - grad h(s_prev) = 0.
"""

import numpy as np

from . import _kernels
from .oracles import (
    BoxIndicator,
    L1BallIndicator,
    L1Norm,
    SimplexIndicator,
    ZeroFunction,
)
from .reference import MIN_POSITIVE, DomainError


class NotAdmissible(RuntimeError):
    """The subproblem objective is unbounded below for this step size."""


class UnsupportedPair(KeyError):
    """No closed-form solver registered for this (h, Psi) pair."""


def _solve_sq_zero(c, t, s_prev, h, psi):
    s = s_prev - t * c
    return s, np.zeros_like(s)


def _gpsi_sq(c, t, s_prev, s):
    # From the optimality conditions with grad h = identity.
    return (s_prev - s) / t - c


def _solve_sq_l1(c, t, s_prev, h, psi):
    s = _kernels.soft_threshold(s_prev - t * c, t * psi.lam)
    return s, _gpsi_sq(c, t, s_prev, s)


def _solve_sq_box(c, t, s_prev, h, psi):
    s = (s_prev - t * c).clip(psi.lo, psi.hi)
    return s, _gpsi_sq(c, t, s_prev, s)


def _solve_sq_simplex(c, t, s_prev, h, psi):
    s = _kernels.project_simplex(s_prev - t * c)
    return s, _gpsi_sq(c, t, s_prev, s)


def _solve_entropy_simplex(c, t, s_prev, h, psi):
    if (s_prev <= 0.0).any():
        raise DomainError("entropy prox needs a strictly positive previous point")
    s, log_z = _kernels.entropy_prox_simplex(np.log(s_prev), t * c)
    if (s < MIN_POSITIVE).any():
        raise DomainError("entropy prox underflow at the simplex boundary")
    # grad h(s_prev) - grad h(s) = t*c + log_z, so g_psi is the constant
    # vector log_z / t, a subgradient of the simplex indicator everywhere.
    g_psi = np.full_like(s, log_z / t)
    return s, g_psi


def _solve_burg_box(c, t, s_prev, h, psi):
    if (s_prev <= 0.0).any():
        raise DomainError("Burg prox needs a strictly positive previous point")
    denom = 1.0 + t * c * s_prev
    if (denom <= 0.0).any() and not psi.bounded_above:
        raise NotAdmissible("Burg subproblem unbounded below without an upper box bound")
    s_unc = np.where(denom > 0.0, s_prev / np.where(denom > 0.0, denom, 1.0), np.inf)
    s = s_unc.clip(psi.lo, psi.hi)
    g_psi = (-1.0 / s_prev + 1.0 / s) / t - c
    return s, g_psi


def _solve_zero_linmin(c, t, s_prev, h, psi):
    s = psi.linmin(c)
    return s, -c


_REGISTRY = {
    ("sq_euclid", ZeroFunction): _solve_sq_zero,
    ("sq_euclid", L1Norm): _solve_sq_l1,
    ("sq_euclid", BoxIndicator): _solve_sq_box,
    ("sq_euclid", SimplexIndicator): _solve_sq_simplex,
    ("entropy", SimplexIndicator): _solve_entropy_simplex,
    ("burg", BoxIndicator): _solve_burg_box,
}


def prox_step(instance, c, t, s_prev):
    """Solve the Bregman proximal subproblem for a registered pair.

    Returns (s, g_psi).  For the zero reference function any simple part
    with a linmin oracle is supported and g_psi = -c.
    """
    if t <= 0:
        raise ValueError("step size must be positive")
    h, psi = instance.h, instance.psi
    if h.kind == "zero":
        if not hasattr(psi, "linmin"):
            raise UnsupportedPair("zero reference needs a linmin oracle")
        return _solve_zero_linmin(c, t, s_prev, h, psi)
    solver = _REGISTRY.get((h.kind, type(psi)))
    if solver is None:
        raise UnsupportedPair("no solver for (%s, %s)" % (h.kind, type(psi).__name__))
    return solver(c, t, s_prev, h, psi)
