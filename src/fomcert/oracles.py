"""Oracle contracts: smooth part f, simple part, and the problem bundle."""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import LinearMap
from .reference import ReferenceFunction, ZeroReference

INF = float("inf")

# Slack used when deciding membership for indicator functions and conjugate
# domains; convex combinations of feasible points drift by rounding only.
FEAS_TOL = 1e-9


@dataclass
class SmoothOracle:
    """The smooth (outer) part f with a subgradient and conjugate oracle."""

    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    conjugate: Callable[[np.ndarray], float]


class SimpleFunction:
    """The simple part of the objective (Psi): possibly nonsmooth, possibly
    an indicator; evaluable and conjugable.  A subclass whose domain is
    compact also defines linmin(c) = argmin_s <c, s> + Psi(s), the
    lowest-index vertex on ties; the zero reference function needs it."""

    def value(self, x):
        raise NotImplementedError

    def conjugate(self, v):
        """Psi*(v) = sup_x <v, x> - Psi(x)."""
        raise NotImplementedError


class ZeroFunction(SimpleFunction):
    def value(self, x):
        return 0.0

    def conjugate(self, v):
        return 0.0 if np.abs(v).max(initial=0.0) <= FEAS_TOL else INF


class L1Norm(SimpleFunction):
    def __init__(self, lam):
        if lam <= 0:
            raise ValueError("l1 weight must be positive")
        self.lam = float(lam)

    def value(self, x):
        return self.lam * float(np.abs(x).sum())

    def conjugate(self, v):
        if np.abs(v).max(initial=0.0) <= self.lam * (1.0 + FEAS_TOL):
            return 0.0
        return INF


class BoxIndicator(SimpleFunction):
    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.lo > self.hi):
            raise ValueError("empty box")
        # Whether every coordinate has a finite upper bound (read by the
        # Burg prox on every trial).
        self.bounded_above = bool(np.isfinite(self.hi).all())
        # Membership bounds, widened by FEAS_TOL relative to the bound size.
        scale = 1.0 + np.maximum(np.abs(self.lo), np.abs(self.hi))
        self._lo_feas = self.lo - FEAS_TOL * scale
        self._hi_feas = self.hi + FEAS_TOL * scale

    def value(self, x):
        if ((x >= self._lo_feas) & (x <= self._hi_feas)).all():
            return 0.0
        return INF

    def conjugate(self, v):
        # Support function of the box.
        return float(np.maximum(v * self.lo, v * self.hi).sum())

    def linmin(self, c):
        return np.where(c > 0, self.lo, np.where(c < 0, self.hi, self.lo))


class SimplexIndicator(SimpleFunction):
    def value(self, x):
        if (x < -FEAS_TOL).any() or abs(float(x.sum()) - 1.0) > FEAS_TOL * x.size:
            return INF
        return 0.0

    def conjugate(self, v):
        return float(v.max())

    def linmin(self, c):
        out = np.zeros_like(c)
        out[int(np.argmin(c))] = 1.0
        return out


class L1BallIndicator(SimpleFunction):
    def __init__(self, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def value(self, x):
        if float(np.abs(x).sum()) <= self.radius * (1.0 + FEAS_TOL):
            return 0.0
        return INF

    def conjugate(self, v):
        return self.radius * float(np.abs(v).max(initial=0.0))

    def linmin(self, c):
        # Vertex -R * sign(c_j) e_j for the first coordinate of largest |c_j|.
        out = np.zeros_like(c)
        j = int(np.argmax(np.abs(c)))
        out[j] = -self.radius if c[j] > 0 else self.radius
        return out


@dataclass
class ProblemInstance:
    """Everything a run needs: map, oracles, reference function, constants."""

    A: LinearMap
    f: SmoothOracle
    psi: SimpleFunction
    h: ReferenceFunction
    feasible_start: np.ndarray
    constants: dict = field(default_factory=dict)
    # () -> (point, u) from a solver independent of the engine, with u a
    # dual point for fenchel_gap (None: f'(A point)); reference_optimum in
    # problems calls it once and keeps (value, point) as optimum.
    solve_optimum: Optional[Callable] = None
    optimum: Optional[tuple] = None
    name: str = ""
    condition: str = ""  # which smoothness/continuity class the instance claims

    @property
    def zero_reference(self):
        return isinstance(self.h, ZeroReference)

    def primal_value(self, x):
        return self.f.value(self.A.apply(x)) + self.psi.value(x)

    def fenchel_gap(self, x, u=None):
        """F(x) + f*(u) + Psi*(-A*u), which bounds F(x) - min F for every
        dual point u by weak Fenchel duality; u = None means f'(Ax)."""
        if u is None:
            u = self.f.subgradient(self.A.apply(x))
        return (self.primal_value(x) + self.f.conjugate(u)
                + self.psi.conjugate(-self.A.adjoint_apply(u)))
