"""The named algorithms, each one dataclass over the engine and the step
rules that attaches its convergence bound to the trace, and the condition
classes their bounds are proved under."""

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import engine
from .engine import CURRENT_AVERAGE, FAST_COMBO, PROX_POINT
from .reference import SquaredEuclidean
from .steprules import backtrack, cg_theta, linesearch_cg, t_from_theta
from .trace import Trace, TraceRow

DEFAULT_TOL = 1e-8

# Certificate columns of the rows an unchecked run does not certify.
_NAN = float("nan")
_UNCERTIFIED = engine.Certificate(
    primal=_NAN, dual_surrogate=_NAN, gap=_NAN, delta=_NAN,
    thm1_residual=_NAN, thm2_residual=_NAN)


class ConfigError(ValueError):
    """A run config has an unknown key or a value out of range."""


class IncompatibleConfig(ConfigError):
    pass


class ReferenceBracketError(ValueError):
    """A reference optimum that is not certified: a reference run with no
    rows or whose final row fails _check_row, or a registered solve that
    failed or whose Fenchel gap (ProblemInstance.fenchel_gap at the
    solver's dual point) is not finite and small."""


def check_number(value, what, lower, strict=False):
    """Reject a config value that is not a finite real number at or above
    lower (strictly above when strict)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or not (value > lower if strict else value >= lower)):
        raise ConfigError("%s must be a finite number %s %g, got %r"
                          % (what, ">" if strict else ">=", lower, value))


def check_positive_int(value, what):
    """Reject a config value that is not a positive int (bool included)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError("%s must be a positive integer, got %r"
                          % (what, value))


# The range of each numeric method or instance key: (lower limit, strict).
_KEY_LIMITS = {"r": (1.0, True), "gamma": (1.0, False), "t_init": (0.0, True),
               "C": (0.0, True), "eps": (0.0, True), "nu": (0.0, True),
               "lam": (0.0, True), "cond": (1.0, False), "lo": (0.0, True),
               "hi": (0.0, True), "box": (0.0, True), "radius": (0.0, True)}


def _composite_bregman(instance, u, v):
    # Bregman distance of the smooth composite x -> f(Ax).
    A, f = instance.A, instance.f
    Au, Av = A.apply(u), A.apply(v)
    g = A.adjoint_apply(f.subgradient(Av))
    return f.value(Au) - f.value(Av) - float(np.vdot(g, u - v))


def _smooth_sides(instance, con, x, y):
    D = instance.h.bregman(y, x)
    return _composite_bregman(instance, y, x), con["L"] * D, D


def _relcont_sides(instance, con, x, s, a):
    t = 1e-3 + a
    g = instance.A.adjoint_apply(instance.f.subgradient(instance.A.apply(x)))
    return (-t * float(np.vdot(g, s - x)) - instance.h.bregman(s, x),
            con["M"] * t * t / 2.0, t * t / 2.0)


def _holder_sides(instance, con, x, s, s_, theta):
    p, q = 1.0 + con["nu"], 1.0 - theta
    tp, D = theta ** p, instance.h.bregman(s, s_) ** (p / 2.0)
    return (_composite_bregman(instance, q * x + theta * s, q * x + theta * s_),
            2.0 * con["M"] * tp * D / p, 2.0 * tp * D / p)


def _curvature_sides(instance, con, x, s, theta):
    p = 1.0 + con["nu"]
    g = instance.f.subgradient(instance.A.apply(x))
    return (engine.segment_excess(instance, x, g, s, theta),
            con["M"] * theta ** p / p, theta ** p / p)


class Condition(NamedTuple):
    constants: tuple  # the constants the class declares
    sample: tuple  # (points, scalars): that many points, then 0 or 1 uniform
    sides: Callable  # (instance, con, *points, *scalars) -> (lhs, rhs, rest)


# The condition classes an instance may declare.  At a sample, sides gives
# the two sides of the class's inequality lhs <= rhs under the constants
# con, and rest, the rhs without its constant:
#   smooth.1  D_{f.A}(y, x) <= L D_h(y, x)  (relative smoothness);
#   relcont   -t <(f.A)'(x), s - x> - D_h(s, x) <= M t^2 / 2 at t = 1e-3 + a
#             (relative continuity);
#   smooth.3  D_{f.A}(u, v) <= 2 M theta^(1+nu) D_h(s, s')^((1+nu)/2) / (1+nu)
#             at (u, v) = (1 - theta) x + theta (s, s')  (Hoelder smoothness);
#   curv.nu   segment_excess(x, s, theta) <= M theta^(1+nu) / (1+nu)
#             (curvature).
CONDITIONS = {
    "smooth.1": Condition(("L",), (2, 0), _smooth_sides),
    "relcont": Condition(("M",), (2, 1), _relcont_sides),
    "smooth.3": Condition(("M", "nu"), (3, 1), _holder_sides),
    "curv.nu": Condition(("M", "nu"), (2, 1), _curvature_sides),
}


class _Method:
    """One step rule and one rate bound on the shared engine.

    A method is a dataclass whose fields after iterations are the keys of
    its JSON spec (from_spec), range-checked by __post_init__.  It runs only
    on an instance that check_compatible accepts, and bound(con, k, Dh0) is
    its rate at iteration k given the declared constants and D_h(x*, x_0).
    """

    reported = "x"  # the certificate mode
    bound_kind = "suboptimality"
    zero_reference = False
    eps = 0.0  # the backtracked descent condition's slack per unit step

    def __post_init__(self):
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name == "schedule":
                if value not in ("theta", "linesearch"):
                    raise ConfigError("schedule must be 'theta' or "
                                      "'linesearch', got %r" % (value,))
            elif not (f.name == "nu" and value is None):
                check_number(value, f.name, *_KEY_LIMITS[f.name])

    @classmethod
    def from_spec(cls, spec, iterations):
        """The config a JSON method spec describes; ConfigError for a key
        the method does not read or a value out of range."""
        keys = [f.name for f in fields(cls)[1:]]
        opts = {key: value for key, value in spec.items() if key != "name"}
        for key in opts:
            if key not in keys:
                raise ConfigError("%s is not a %s key (it reads %s)"
                                  % (key, cls.name, ", ".join(sorted(keys))))
        return cls(iterations, **opts)

    def check_compatible(self, instance):
        """Raise IncompatibleConfig unless the method's bound is proved on
        the instance: a zero h exactly for the zero-reference methods, and
        the method's condition class with all its CONDITIONS constants.
        compatible_configs offers the methods that pass this check."""
        if instance.zero_reference != self.zero_reference:
            raise IncompatibleConfig("%s needs a %s reference function" % (
                self.name, "zero" if self.zero_reference else "nonzero"))
        missing = [c for c in CONDITIONS[self.condition].constants
                   if c not in instance.constants]
        if missing:
            raise IncompatibleConfig("the %s bound reads %s, which %s does not "
                                     "declare" % (self.name, ", ".join(missing),
                                                  instance.name))
        if instance.condition != self.condition:
            raise IncompatibleConfig(
                "the %s bound is proved for condition class %s, and %s "
                "declares %r" % (self.name, self.condition, instance.name,
                                 instance.condition))

    def step(self, state, instance, prev):
        """The trial of iteration state.k under the step rule, given the
        trial prev accepted at k - 1 (None at k = 0).  It only proposes:
        run commits the trial it returns."""
        # Backtracked rules, warm-started from the previously accepted step.
        return backtrack(state, instance, self.ysel, self.r,
                         self.t_init if prev is None else prev.t, eps=self.eps)


@dataclass
class ConditionalSubgradient(_Method):
    iterations: int
    nu: float = None  # must equal the instance's declared nu; None reads it
    schedule: str = "theta"  # "theta" or "linesearch"

    name = "conditional_subgradient"
    ysel = CURRENT_AVERAGE
    condition = "curv.nu"
    bound_kind = "gap"  # on the certified gap, with no reference optimum
    theory_exponent = -1.0
    zero_reference = True

    def check_compatible(self, instance):
        super().check_compatible(instance)
        if not hasattr(instance.psi, "linmin"):
            raise IncompatibleConfig("conditional subgradient needs a linmin oracle")
        # The bound M ((1+nu)/(k+1+nu))^nu holds for the schedule's nu only
        # when it is the curvature exponent, so step and bound read that one.
        declared = instance.constants["nu"]
        if self.nu is not None and self.nu != declared:
            raise IncompatibleConfig("nu must equal the declared nu %r of %s, "
                                     "got %r" % (declared, instance.name, self.nu))

    def step(self, state, instance, prev):
        # With h = 0 the subproblem is s = linmin(c), g_psi = -c, for any t,
        # so only t differs between the schedules.  The y-side is at y = x.
        y, Ay, g, c, fAy, psi_y = engine.cached_y_side(state, instance,
                                                       self.ysel)
        s = instance.psi.linmin(c)
        As, psi_s = instance.A.apply(s), instance.psi.value(s)
        if state.k == 0:
            t = 1.0  # theta_0 = 1
        elif self.schedule == "theta":
            t = t_from_theta(cg_theta(state.k, instance.constants["nu"]),
                             state.T.total)
        else:
            theta = linesearch_cg(instance, y, g, s, state.cggap,
                                  x_side=(Ay, fAy, psi_y), s_side=(As, psi_s))
            t = t_from_theta(min(max(theta, 1e-12), 1.0 - 1e-9), state.T.total)
        return engine.propose(state, instance, self.ysel, t,
                              (s, lambda: -c, As, psi_s))

    def bound(self, con, k, Dh0):
        nu = con["nu"]
        return con["M"] * ((1.0 + nu) / (k + 1.0 + nu)) ** nu


@dataclass
class ProxGradient(_Method):
    iterations: int
    r: float = 2.0
    t_init: float = 1.0

    name = "prox_gradient"
    ysel = PROX_POINT
    condition = "smooth.1"
    theory_exponent = -1.0

    def bound(self, con, k, Dh0):
        return self.r * con["L"] * Dh0 / k


@dataclass
class ProxSubgradient(_Method):
    iterations: int  # the horizon K; t_i = C / sqrt(K) throughout
    C: float = 1.0

    name = "prox_subgradient"
    reported = "z"
    ysel = PROX_POINT
    condition = "relcont"
    theory_exponent = -0.5

    def step(self, state, instance, prev):
        return engine.propose(state, instance, self.ysel,
                              self.C / self.iterations ** 0.5)

    def bound(self, con, k, Dh0):
        K = self.iterations
        rootK = K ** 0.5
        return Dh0 * rootK / (self.C * k) + self.C * con["M"] / (2.0 * rootK)


@dataclass
class FastGradient(_Method):
    iterations: int
    gamma: float = 2.0
    r: float = 2.0
    t_init: float = 1.0

    name = "fast_gradient"
    ysel = FAST_COMBO
    condition = "smooth.1"
    theory_exponent = -2.0

    def check_compatible(self, instance):
        super().check_compatible(instance)
        # The fast rate for another h needs the triangle-scaling condition
        # of Hanzely, Richtarik and Xiao (2018), which no instance declares.
        if not isinstance(instance.h, SquaredEuclidean):
            raise IncompatibleConfig("the %s bound is proved for the squared "
                                     "Euclidean h only, and %s has h = %r"
                                     % (self.name, instance.name,
                                        instance.h.kind))

    def bound(self, con, k, Dh0):
        g = self.gamma
        return (g ** g * self.r ** g * con["L"] * Dh0
                / (k + g - 1.0) ** g)


@dataclass
class UniversalGradient(_Method):
    iterations: int
    eps: float = 1e-3
    r: float = 2.0
    t_init: float = 1.0

    name = "universal_gradient"
    ysel = FAST_COMBO
    condition = "smooth.3"
    theory_exponent = None  # depends on the instance's nu

    def bound(self, con, k, Dh0):
        nu = con["nu"]
        a = (1.0 + 3.0 * nu) / (1.0 + nu)
        return (2.0 * self.r ** a * con["M"] ** (2.0 / (1.0 + nu)) * Dh0
                / (self.eps ** ((1.0 - nu) / (1.0 + nu)) * k ** a)
                + self.eps)


# Every method by its JSON name, in the order compatible_configs offers them.
METHODS = {m.name: m for m in (ConditionalSubgradient, ProxGradient,
                               FastGradient, UniversalGradient,
                               ProxSubgradient)}


def rate_bound(config, instance, k, Dh0=None):
    """The config's rate bound at iteration k, given Dh0 = D_h(x*, x_0):
    None without Dh0 unless the bound is on the gap; +inf past the float
    range, which _check_row records as a non-finite bound.  (A module
    global, so that the benchmark can time every bound by this name.)"""
    if Dh0 is None and config.bound_kind != "gap":
        return None
    try:
        return config.bound(instance.constants, k, Dh0)
    except OverflowError:
        return math.inf


def run(instance, config, reference=None, tol=DEFAULT_TOL, check=True):
    """Execute a configured method, producing a per-iteration trace.

    reference, when given, is an (value, point) pair used to evaluate the
    convergence bounds; the bound column stays empty without it (except for
    the conditional-gradient bound, which needs no optimum).

    Each certified row's failed checks (_check_row) go to trace.violations.
    Unchecked runs certify only the final iterate: with check=False every
    row still carries k, t, theta, bound and cggap, but the certificate
    columns are NaN on all rows but the last.
    """
    config.check_compatible(instance)
    t0 = time.perf_counter()
    state = engine.EngineState(instance)
    ref_value = Dh0 = None
    if reference is not None:
        _, ref_point = reference
        ref_value = instance.primal_value(ref_point)
        Dh0 = instance.h.bregman(ref_point, instance.feasible_start)

    trace = Trace(instance.name, config.name, reference_value=ref_value)
    trial = None
    for _ in range(config.iterations):
        trial = config.step(state, instance, trial)
        engine.commit(state, instance, trial)
        bound = rate_bound(config, instance, state.k, Dh0)
        certified = check or state.k == config.iterations
        cert = (engine.certificate(state, instance, mode=config.reported)
                if certified else _UNCERTIFIED)
        cggap = state.cggap if instance.zero_reference else None
        trace.append(TraceRow(
            k=state.k, t=trial.t, theta=trial.theta, primal=cert.primal,
            dual_surrogate=cert.dual_surrogate, gap=cert.gap, delta=cert.delta,
            thm1_residual=cert.thm1_residual, thm2_residual=cert.thm2_residual,
            bound=bound, cggap=cggap))
        if certified:
            _check_row(trace, instance, config, cert, state, bound,
                       ref_value, tol)
    trace.wall_time_ms = 1000.0 * (time.perf_counter() - t0)
    trace.state = state
    return trace


def _check_row(trace, instance, config, cert, state, bound, ref_value, tol):
    # Every comparison is written so that a NaN on either side fails it.
    k = state.k
    for name, value in (("primal", cert.primal),
                        ("dual_surrogate", cert.dual_surrogate),
                        ("gap", cert.gap), ("delta", cert.delta),
                        ("thm1_residual", cert.thm1_residual),
                        ("thm2_residual", cert.thm2_residual),
                        ("bound", bound)):
        if value is not None and not math.isfinite(value):
            trace.violation("non-finite %s at k=%d: %r" % (name, k, value))
    # weak_gap may be +inf (-A*u outside dom Psi*), never NaN or negative.
    if not (cert.weak_gap >= -1e-9):
        trace.violation("weak duality violated at k=%d: gap=%.3e"
                        % (k, cert.weak_gap))
    if not (cert.gap <= cert.delta + tol * max(1.0, abs(cert.delta))):
        trace.violation("gap exceeds certified slack at k=%d" % k)
    if not (cert.thm1_residual <= max(tol, 1e-10)):
        trace.violation("subgradient identity residual %.3e at k=%d"
                        % (cert.thm1_residual, k))
    if not (cert.thm2_residual <= max(tol, 1e-10)):
        trace.violation("gradient identity residual %.3e at k=%d"
                        % (cert.thm2_residual, k))
    if instance.zero_reference and not (cert.gap <= state.cggap + 1e-8):
        trace.violation("primal-dual gap exceeds CGgap at k=%d" % k)
    if bound is not None:
        if config.bound_kind == "gap":
            if not (cert.gap <= bound + tol * max(1.0, bound)):
                trace.violation("CG gap bound violated at k=%d" % k)
        elif ref_value is not None:
            subopt = cert.primal - ref_value
            if not (subopt <= bound + tol * max(1.0, bound)):
                trace.violation("convergence bound violated at k=%d: "
                                "%.3e > %.3e" % (k, subopt, bound))


def compatible_configs(instance, iterations):
    """The default config method(iterations) of every method, in METHODS
    order, whose check_compatible passes on the instance: those whose bound
    is proved under the instance's condition class."""
    configs = []
    for method in METHODS.values():
        config = method(iterations)
        try:
            config.check_compatible(instance)
        except IncompatibleConfig:
            continue
        configs.append(config)
    return configs


def reference_run(instance, budget):
    """High-accuracy run of the best matching method.

    Returns (primal value, point) at the run's final iterate; the value is
    an upper bound on the optimum.  Only the plain weak-duality dual of the
    final certificate (primal - weak_gap) is a lower bound on it: the
    perturbed dual surrogate is not, and it can lie above the primal.

    The run is unchecked, so its final row is the one it certifies, and
    that row must pass the checks every row of a checked run passes
    (_check_row at DEFAULT_TOL): otherwise, or when the run has no rows,
    ReferenceBracketError is raised with the first violation.
    """
    if instance.name == "simplex-quadratic" and not isinstance(
            instance.h, SquaredEuclidean):
        # The Euclidean twin shares f, Psi, and constants and admits the
        # fast method, which converges far quicker than the entropy run.
        return reference_run(replace(instance, h=SquaredEuclidean()), budget)
    configs = compatible_configs(instance, budget)
    # The fast method, where offered, converges far quicker than the rest.
    config = next((c for c in configs if c.name == FastGradient.name),
                  configs[0])
    trace = run(instance, config, check=False)
    faults = trace.violations if trace.rows else ["no iterations to certify"]
    if faults:
        raise ReferenceBracketError("reference run (%s, %s): %s"
                                    % (instance.name, config.name, faults[0]))
    state = trace.state
    point = state.x if config.reported == "x" else state.z
    return instance.primal_value(point), point
