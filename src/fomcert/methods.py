"""The named algorithms as preset configurations of the engine and the step
rules, each attaching its convergence bound to the trace."""

import math
import time
from dataclasses import dataclass, field

from . import engine, steprules
from .engine import CURRENT_AVERAGE, FAST_COMBO, PROX_POINT
from .oracles import ProblemInstance
from .reference import SquaredEuclidean
from .steprules import (
    BacktrackSmooth,
    BacktrackUniversal,
    LineSearchCG,
    backtrack,
    cg_theta,
    linesearch_cg,
    t_from_theta,
)
from .trace import Trace, TraceRow

DEFAULT_TOL = 1e-8

# Certificate columns of the rows an unchecked run does not certify.
_NAN = float("nan")
_UNCERTIFIED = engine.Certificate(
    primal=_NAN, dual_surrogate=_NAN, gap=_NAN, delta=_NAN,
    thm1_residual=_NAN, thm2_residual=_NAN)


class IncompatibleConfig(ValueError):
    pass


class ReferenceBracketError(ValueError):
    """A reference run's final certificate does not bracket the optimum."""


@dataclass
class ConditionalSubgradient:
    iterations: int
    nu: float = 1.0
    schedule: str = "theta"  # "theta" or "linesearch"
    linesearch: LineSearchCG = field(default_factory=LineSearchCG)

    name = "conditional_subgradient"
    reported = "x"
    ysel = CURRENT_AVERAGE


@dataclass
class ProxGradient:
    iterations: int
    rule: BacktrackSmooth = field(default_factory=BacktrackSmooth)

    name = "prox_gradient"
    reported = "x"
    ysel = PROX_POINT


@dataclass
class ProxSubgradient:
    iterations: int  # the horizon K; t_i = C / sqrt(K) throughout
    C: float = 1.0

    name = "prox_subgradient"
    reported = "z"
    ysel = PROX_POINT


@dataclass
class FastGradient:
    iterations: int
    gamma: float = 2.0
    rule: BacktrackSmooth = field(default_factory=BacktrackSmooth)

    name = "fast_gradient"
    reported = "x"
    ysel = FAST_COMBO


@dataclass
class UniversalGradient:
    iterations: int
    eps: float = 1e-3
    rule: BacktrackUniversal = None

    name = "universal_gradient"
    reported = "x"
    ysel = FAST_COMBO

    def __post_init__(self):
        if self.rule is None:
            self.rule = BacktrackUniversal(eps=self.eps)
        else:
            self.rule.eps = self.eps


def validate_compatibility(instance, config):
    if isinstance(config, ConditionalSubgradient):
        if not instance.zero_reference:
            raise IncompatibleConfig(
                "conditional subgradient needs the zero reference function")
        if not hasattr(instance.psi, "linmin"):
            raise IncompatibleConfig("conditional subgradient needs a linmin oracle")
    else:
        if instance.zero_reference:
            raise IncompatibleConfig(
                "%s needs a nonzero reference function" % config.name)
    if isinstance(config, (ProxGradient, FastGradient, UniversalGradient)):
        if not instance.f.differentiable:
            raise IncompatibleConfig("%s needs a differentiable smooth part"
                                     % config.name)


def rate_bound(config, instance, k, aux=None):
    """Bound value of the method's convergence result at iteration k.

    aux carries the reference quantities the bound needs, currently
    {"Dh0": D_h(x*, x_0)}.  Returns None when they are unavailable.
    """
    con = instance.constants
    if isinstance(config, ConditionalSubgradient):
        nu = con.get("nu", config.nu)
        return con["M"] * ((1.0 + nu) / (k + 1.0 + nu)) ** nu
    if aux is None or "Dh0" not in aux:
        return None
    Dh0 = aux["Dh0"]
    if isinstance(config, ProxGradient):
        return config.rule.r * con["L"] * Dh0 / k
    if isinstance(config, ProxSubgradient):
        K = config.iterations
        rootK = K ** 0.5
        return Dh0 * rootK / (config.C * k) + config.C * con["M"] / (2.0 * rootK)
    if isinstance(config, FastGradient):
        g = config.gamma
        return (g ** g * config.rule.r ** g * con["L"] * Dh0
                / (k + g - 1.0) ** g)
    if isinstance(config, UniversalGradient):
        nu = con["nu"]
        a = (1.0 + 3.0 * nu) / (1.0 + nu)
        return (2.0 * config.rule.r ** a * con["M"] ** (2.0 / (1.0 + nu)) * Dh0
                / (config.eps ** ((1.0 - nu) / (1.0 + nu)) * k ** a)
                + config.eps)
    raise TypeError("unknown method config: %r" % (config,))


def subgradient_rhs_check(state, instance):
    """Right-hand side M * (sum t_i^2 / 2) / T of the subgradient rate."""
    return instance.constants["M"] * (state.Ssq.total / 2.0) / state.T.total


def _select_and_commit(state, instance, config, k, prev_t):
    """Advance one iteration per the method's step rule; returns (trial, t)."""
    if isinstance(config, ConditionalSubgradient):
        if config.schedule == "theta":
            theta = cg_theta(k, config.nu)
            t = 1.0 if k == 0 else t_from_theta(theta, state.T.total)
            trial = engine.propose(state, instance, config.ysel, t)
        else:
            A = instance.A
            y = state.x
            Ay = A.apply(y)
            g = instance.f.subgradient(Ay)
            c = A.adjoint_apply(g)
            s = instance.psi.linmin(c)
            if k == 0:
                t = 1.0
            else:
                theta = linesearch_cg(instance, state.x, g, s, state.cggap,
                                      config.linesearch.max_iters,
                                      config.linesearch.interval_tol)
                theta = min(max(theta, 1e-12), 1.0 - 1e-9)
                t = t_from_theta(theta, state.T.total)
            trial = engine.finish_trial(state, instance, t,
                                        t / (state.T.total + t),
                                        y, g, c, s, -c, Ay)
        engine.commit(state, instance, trial)
        return trial, trial.t
    if isinstance(config, ProxSubgradient):
        t = config.C / config.iterations ** 0.5
        trial = engine.propose(state, instance, config.ysel, t)
        engine.commit(state, instance, trial)
        return trial, t
    # Backtracked rules, warm-started from the previously accepted step.
    rule = config.rule
    trial, _ = backtrack(state, instance, config.ysel, rule, t_start=prev_t)
    engine.commit(state, instance, trial)
    return trial, trial.t


def run(instance, config, reference=None, tol=DEFAULT_TOL, check=True,
        record_history=False):
    """Execute a configured method, producing a per-iteration trace.

    reference, when given, is an (value, point) pair used to evaluate the
    convergence bounds; the bound column stays empty without it (except for
    the conditional-gradient bound, which needs no optimum).

    Unchecked runs certify only the final iterate: with check=False every
    row still carries k, t, theta, bound and cggap, but the certificate
    columns are NaN on all rows but the last.  The last certificate is kept
    as ``trace.final_certificate`` (None for a run of zero iterations).
    """
    validate_compatibility(instance, config)
    t0 = time.perf_counter()
    state = engine.init(instance, record_history=record_history)
    ref_value = None
    aux = None
    if reference is not None:
        _, ref_point = reference
        ref_value = instance.primal_value(ref_point)
        aux = {"Dh0": instance.h.bregman(ref_point, instance.feasible_start)}

    trace = Trace(instance.name, config.name, reference_value=ref_value)
    prev_t = None
    cert = None
    for k in range(config.iterations):
        trial, prev_t = _select_and_commit(state, instance, config, k, prev_t)
        bound = rate_bound(config, instance, state.k, aux)
        if check or state.k == config.iterations:
            cert = engine.certificate(state, instance, mode=config.reported,
                                      bound=bound)
        else:
            cert = _UNCERTIFIED
        cggap = state.cggap if instance.zero_reference else None
        trace.append(TraceRow(
            k=state.k, t=trial.t, theta=trial.theta, primal=cert.primal,
            dual_surrogate=cert.dual_surrogate, gap=cert.gap, delta=cert.delta,
            thm1_residual=cert.thm1_residual, thm2_residual=cert.thm2_residual,
            bound=bound, cggap=cggap))
        if check:
            _check_row(trace, instance, config, cert, state, bound,
                       ref_value, tol)
    trace.wall_time_ms = 1000.0 * (time.perf_counter() - t0)
    trace.state = state
    trace.final_certificate = cert
    return trace


def _check_row(trace, instance, config, cert, state, bound, ref_value, tol):
    # Every comparison is written so that a NaN on either side fails it.
    k = state.k
    for name, value in (("primal", cert.primal), ("gap", cert.gap),
                        ("delta", cert.delta),
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
        if isinstance(config, ConditionalSubgradient):
            if not (cert.gap <= bound + tol * max(1.0, bound)):
                trace.violation("CG gap bound violated at k=%d" % k)
        elif ref_value is not None:
            subopt = cert.primal - ref_value
            if not (subopt <= bound + tol * max(1.0, bound)):
                trace.violation("convergence bound violated at k=%d: "
                                "%.3e > %.3e" % (k, subopt, bound))


def compatible_configs(instance, iterations):
    """Every preset method that can legally run on the instance."""
    out = []
    if instance.zero_reference:
        out.append(ConditionalSubgradient(iterations=iterations,
                                          nu=instance.constants.get("nu", 1.0)))
        out.append(ConditionalSubgradient(iterations=iterations,
                                          nu=instance.constants.get("nu", 1.0),
                                          schedule="linesearch"))
        return out
    if instance.f.differentiable:
        if instance.condition == "smooth.1":
            out.append(ProxGradient(iterations=iterations))
            if isinstance(instance.h, SquaredEuclidean):
                out.append(FastGradient(iterations=iterations))
        if instance.condition == "smooth.3":
            out.append(UniversalGradient(iterations=iterations,
                                         eps=1e-3))
    else:
        out.append(ProxSubgradient(iterations=iterations))
    return out


def reference_run(instance, budget):
    """High-accuracy run of the best matching method; the result is
    certificate-bracketed (dual surrogate <= optimum <= primal).

    The bracket is checked on the run's final certificate before the value
    is returned: primal, dual surrogate, delta and both identity residuals
    must be finite, the plain weak-duality gap at least -1e-9 (+inf is
    allowed) and both residuals at most DEFAULT_TOL.  Otherwise
    ReferenceBracketError is raised.
    """
    if instance.name == "simplex-quadratic" and not isinstance(
            instance.h, SquaredEuclidean):
        # The Euclidean twin shares f, Psi, and constants and admits the
        # fast method, which converges far quicker than the entropy run.
        twin = ProblemInstance(
            A=instance.A, f=instance.f, psi=instance.psi,
            h=SquaredEuclidean(), feasible_start=instance.feasible_start,
            constants=instance.constants, name=instance.name,
            condition=instance.condition)
        return reference_run(twin, budget)
    configs = compatible_configs(instance, budget)
    config = configs[0]
    for c in configs:
        if isinstance(c, FastGradient):
            config = c
    trace = run(instance, config, check=False)
    _check_bracket(instance, config, trace.final_certificate)
    state = trace.state
    point = state.x if config.reported == "x" else state.z
    return instance.primal_value(point), point


def _check_bracket(instance, config, cert):
    where = "reference run (%s, %s)" % (instance.name, config.name)
    if cert is None:
        raise ReferenceBracketError("%s: no iterations to certify" % where)
    for name in ("primal", "dual_surrogate", "delta", "thm1_residual",
                 "thm2_residual"):
        value = getattr(cert, name)
        if not math.isfinite(value):
            raise ReferenceBracketError("%s: non-finite %s: %r"
                                        % (where, name, value))
    if not (cert.weak_gap >= -1e-9):
        raise ReferenceBracketError("%s: weak duality violated: gap=%r"
                                    % (where, cert.weak_gap))
    for name in ("thm1_residual", "thm2_residual"):
        value = getattr(cert, name)
        if not (value <= DEFAULT_TOL):
            raise ReferenceBracketError("%s: %s %.3e exceeds %g"
                                        % (where, name, value, DEFAULT_TOL))
