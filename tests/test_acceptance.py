"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The long runs are shared through module-scoped fixtures; every run executes
with runtime checking enabled, so each covered iteration also re-verifies
the certificate inequalities.
"""

import numpy as np
import pytest

from fomcert import engine
from fomcert.cli import fit_tail_slope
from fomcert.engine import FAST_COMBO, PROX_POINT, EngineState
from fomcert.methods import (
    ConditionalSubgradient,
    FastGradient,
    ProxGradient,
    ProxSubgradient,
    UniversalGradient,
    rate_bound,
    run,
)
from fomcert.problems import SplitMix64, make_instance, reference_optimum
from fomcert.prox import prox_step
from fomcert.reference import DomainError
from fomcert.steprules import backtrack

from conftest import (
    maximal_t_sequence,
    optimality_residual,
    registered_optimum,
    sample_point,
    step_ratio_bound,
)


def _report(num, ok, detail):
    print("criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def registry_runs():
    """One K=1000 run per registry instance x compatible method."""
    specs = [
        ("cg-ball", ConditionalSubgradient(iterations=1000)),
        ("cg-ball", ConditionalSubgradient(iterations=1000,
                                           schedule="linesearch")),
        ("lasso", ProxGradient(iterations=1000)),
        ("lasso", FastGradient(iterations=1000)),
        ("simplex-quadratic", ProxGradient(iterations=1000)),
        ("poisson-burg", ProxGradient(iterations=1000)),
        ("l1-regression", ProxSubgradient(iterations=1000)),
        ("holder", UniversalGradient(iterations=1000, eps=1e-3)),
    ]
    runs = {}
    for name, config in specs:
        inst = make_instance(name, seed=0)
        key = (name, config.name, getattr(config, "schedule", ""))
        runs[key] = (inst, run(inst, config,
                                reference=registered_optimum(inst)))
    return runs


@pytest.fixture(scope="module")
def lasso_reference():
    inst = make_instance("lasso", seed=0)
    value, point = reference_optimum(inst, budget=20000)
    return inst, value, point


@pytest.fixture(scope="module")
def lasso_runs_2k(lasso_reference):
    inst, value, point = lasso_reference
    ref = (value, point)
    return {
        "prox_gradient": run(inst, ProxGradient(iterations=2000),
                             reference=ref),
        "fast_gradient": run(inst, FastGradient(iterations=2000),
                             reference=ref),
    }


@pytest.fixture(scope="module")
def l1reg_10k():
    inst = make_instance("l1-regression", seed=0)
    return inst, run(inst, ProxSubgradient(iterations=10000, C=1.0),
                     reference=reference_optimum(inst))


@pytest.fixture(scope="module")
def holder_10k():
    inst = make_instance("holder", seed=0)
    config = UniversalGradient(iterations=10000, eps=1e-3)
    return inst, config, run(inst, config, reference=reference_optimum(inst))


def _all_traces(registry_runs, lasso_runs_2k, l1reg_10k, holder_10k):
    for _, trace in registry_runs.values():
        yield trace
    for trace in lasso_runs_2k.values():
        yield trace
    yield l1reg_10k[1]
    yield holder_10k[2]


def test_criterion_01_subgradient_identity(registry_runs, lasso_runs_2k,
                                           l1reg_10k, holder_10k):
    worst = 0.0
    slowest = 0.0
    for trace in _all_traces(registry_runs, lasso_runs_2k, l1reg_10k,
                             holder_10k):
        worst = max(worst, max(r.thm1_residual for r in trace.rows))
        slowest = max(slowest, trace.wall_time_ms)
    _report(1, worst <= 1e-8 and slowest < 10000.0,
            "subgradient-form identity residual %.2e (max), slowest run "
            "%.0f ms" % (worst, slowest))


def test_criterion_02_gradient_identity(registry_runs, lasso_runs_2k,
                                        l1reg_10k, holder_10k):
    worst = 0.0
    for trace in _all_traces(registry_runs, lasso_runs_2k, l1reg_10k,
                             holder_10k):
        worst = max(worst, max(r.thm2_residual for r in trace.rows))
    _report(2, worst <= 1e-8,
            "gradient-form identity residual %.2e (max)" % worst)


def test_criterion_03_weak_duality(registry_runs, lasso_runs_2k, l1reg_10k,
                                   holder_10k):
    # Every iteration of every run is checked inside run(); a violation of
    # the plain Fenchel weak-duality gap >= -1e-9 would be recorded.
    bad = []
    for trace in _all_traces(registry_runs, lasso_runs_2k, l1reg_10k,
                             holder_10k):
        bad += [v for v in trace.violations if "weak duality" in v]
    _report(3, not bad, "plain-dual gap >= -1e-9 on all runs"
            if not bad else "; ".join(bad[:3]))


def _corollary_margin(name, ysel, eps, iterations, reference_points):
    """Worst margin of primal(x_k) - primal(x_ref) vs (D_h + sum eps)/T."""
    inst = make_instance(name, seed=0)
    refs = []
    for p in reference_points(inst):
        p = np.asarray(p, dtype=float)
        refs.append((inst.primal_value(p),
                     inst.h.bregman(p, inst.feasible_start)))
    state = EngineState(inst)
    worst = -np.inf
    t = 1.0
    eps_sum = 0.0  # sum max(0, t D/theta - D_h)
    for _ in range(iterations):
        trial = backtrack(state, inst, ysel, 2.0, t, eps=eps)
        engine.commit(state, inst, trial)
        t = trial.t
        eps_sum += max(0.0, trial.sgrad_term)
        primal = inst.f.value(state.Ax) + inst.psi.value(state.x)
        T = state.T.total
        for ref_value, Dh0 in refs:
            worst = max(worst, primal - ref_value - (Dh0 + eps_sum) / T)
    return worst


def test_criterion_04_averaged_descent_bound(lasso_reference):
    _, _, lasso_point = lasso_reference

    def sampled(inst, count=3):
        r = SplitMix64(2024)
        return [sample_point(inst, r) for _ in range(count)]

    cases = [
        ("lasso", PROX_POINT, 0.0,
         lambda inst: [lasso_point] + sampled(inst)),
        ("lasso", FAST_COMBO, 0.0,
         lambda inst: [lasso_point] + sampled(inst)),
        ("simplex-quadratic", PROX_POINT, 0.0,
         lambda inst: sampled(inst)),
        ("poisson-burg", PROX_POINT, 0.0,
         lambda inst: sampled(inst)),
        ("holder", FAST_COMBO, 1e-3,
         lambda inst: [reference_optimum(inst)[1]] + sampled(inst)),
    ]
    worst = -np.inf
    for name, ysel, eps, refs in cases:
        worst = max(worst, _corollary_margin(name, ysel, eps, 400, refs))
    _report(4, worst <= 1e-8,
            "suboptimality minus (D_h + sum eps)/T at most %.2e "
            "over all reference points and iterations" % worst)


def test_criterion_05_conditional_gradient_bound(registry_runs):
    inst, trace = registry_runs[("cg-ball", "conditional_subgradient",
                                 "theta")]
    M = inst.constants["M"]
    worst_bound = -np.inf
    worst_rec = -np.inf
    for r in trace.rows:
        bound = M * 2.0 / (r.k + 2.0)
        worst_bound = max(worst_bound, r.gap - bound)
        worst_rec = max(worst_rec, r.gap - r.cggap)
    ok = worst_bound <= 1e-8 and worst_rec <= 1e-8
    _report(5, ok, "gap within M*2/(k+2) (slack %.2e) and within the "
            "recursive CG gap (slack %.2e)" % (worst_bound, worst_rec))


def test_criterion_06_prox_gradient_rate(lasso_reference, lasso_runs_2k):
    inst, value, point = lasso_reference
    trace = lasso_runs_2k["prox_gradient"]
    L = inst.constants["L"]
    Dh0 = inst.h.bregman(point, inst.feasible_start)
    ref_value = inst.primal_value(point)
    worst = -np.inf
    for r in trace.rows:
        if r.k < 10:
            continue
        bound = 2.0 * L * Dh0 / r.k
        worst = max(worst, (r.primal - ref_value) - bound)
    _report(6, worst <= 1e-8,
            "suboptimality within 2 L D_h/k for 10 <= k <= 2000 "
            "(slack %.2e)" % worst)


def test_criterion_07_prox_subgradient_rate(l1reg_10k):
    inst, trace = l1reg_10k
    value, point = reference_optimum(inst)
    K = 10000
    Dh0 = inst.h.bregman(point, inst.feasible_start)
    M = inst.constants["M"]
    bound = Dh0 / np.sqrt(K) + M / (2.0 * np.sqrt(K))
    subopt = trace.final.primal - inst.primal_value(point)
    _report(7, subopt <= bound + 1e-8,
            "suboptimality %.3e vs bound %.3e at K=10^4" % (subopt, bound))


def test_criterion_08_fast_gradient_rate(lasso_reference, lasso_runs_2k):
    inst, value, point = lasso_reference
    trace = lasso_runs_2k["fast_gradient"]
    L = inst.constants["L"]
    Dh0 = inst.h.bregman(point, inst.feasible_start)
    ref_value = inst.primal_value(point)
    worst = -np.inf
    for r in trace.rows:
        if r.k < 10:
            continue
        bound = 4.0 * 4.0 * L * Dh0 / (r.k + 1.0) ** 2
        worst = max(worst, (r.primal - ref_value) - bound)
    slope = fit_tail_slope(trace.rows, ref_value, 0.5)
    ok = worst <= 1e-8 and slope <= -1.8
    _report(8, ok, "suboptimality within 4 r^2 L D_h/(k+1)^2 (slack %.2e), "
            "tail slope %.2f (needs <= -1.8)" % (worst, slope))


def test_criterion_09_universal_rate(holder_10k):
    inst, config, trace = holder_10k
    value, point = reference_optimum(inst)
    Dh0 = inst.h.bregman(point, inst.feasible_start)
    bound = rate_bound(config, inst, 10000, Dh0)
    subopt = trace.final.primal - inst.primal_value(point)
    _report(9, subopt <= bound + 1e-8,
            "suboptimality %.3e vs bound %.3e at K=10^4" % (subopt, bound))


def test_criterion_10_step_ratio_bound():
    worst = -np.inf
    for gamma in (1.5, 2.0):
        for L in (1.0, 10.0):
            ts, thetas = maximal_t_sequence(gamma, L, 1000)
            for k in range(1000):
                bound = step_ratio_bound(k, gamma, L) * (1.0 + 1e-12)
                worst = max(worst, thetas[k] / ts[k] - bound)
    _report(10, worst <= 0.0,
            "theta_k/t_k within L(gamma/(k+gamma))^gamma for "
            "gamma in {1.5, 2}, L in {1, 10} (slack %.2e)" % worst)


def test_criterion_11_oracle_correctness():
    names = ("simplex-quadratic", "lasso", "poisson-burg", "l1-regression",
             "holder", "cg-ball")
    fd_worst = 0.0
    prox_worst = 0.0
    three_worst = 0.0
    for name in names:
        inst = make_instance(name, seed=0)
        r = SplitMix64(777)
        # Finite-difference agreement where f is differentiable: every
        # condition class but relative continuity.
        if inst.condition != "relcont":
            for _ in range(10):
                y = inst.A.apply(sample_point(inst, r))
                g = inst.f.subgradient(y)
                for i in range(y.size):
                    e = np.zeros(y.size)
                    e[i] = 1e-6
                    fd = (inst.f.value(y + e) - inst.f.value(y - e)) / 2e-6
                    fd_worst = max(fd_worst,
                                   abs(fd - g[i]) / max(1.0, abs(g[i])))
        # Prox optimality residual on 100 random inputs per registered pair.
        if not inst.zero_reference:
            count = 0
            while count < 100:
                s_prev = sample_point(inst, r)
                c = np.array([r.normal() for _ in range(s_prev.size)])
                t = 0.01 + r.uniform()
                try:
                    s, g_psi = prox_step(inst, c, t, s_prev)
                except DomainError:
                    continue
                prox_worst = max(prox_worst, optimality_residual(
                    inst, c, t, s_prev, s, g_psi))
                count += 1
            # Three-point identity for the instance's reference function.
            for _ in range(50):
                s, z, w = (sample_point(inst, r) for _ in range(3))
                lhs = float((inst.h.gradient(z) - inst.h.gradient(w))
                            @ (s - z))
                rhs = (inst.h.bregman(s, w) - inst.h.bregman(s, z)
                       - inst.h.bregman(z, w))
                three_worst = max(three_worst, abs(lhs - rhs))
    ok = fd_worst <= 1e-5 and prox_worst <= 1e-8 and three_worst <= 1e-10
    _report(11, ok, "finite-difference gradient error %.2e, prox residual "
            "%.2e, three-point identity residual %.2e"
            % (fd_worst, prox_worst, three_worst))


def test_criterion_12_linesearch_dominance(registry_runs):
    _, sched = registry_runs[("cg-ball", "conditional_subgradient", "theta")]
    _, line = registry_runs[("cg-ball", "conditional_subgradient",
                             "linesearch")]
    worst = -np.inf
    for rs, rl in zip(sched.rows, line.rows):
        worst = max(worst, rl.cggap - rs.cggap)
    _report(12, worst <= 1e-10,
            "line-search CG gap never exceeds the schedule's "
            "(slack %.2e)" % worst)


def test_no_violations_anywhere(registry_runs, lasso_runs_2k, l1reg_10k,
                                holder_10k):
    for trace in _all_traces(registry_runs, lasso_runs_2k, l1reg_10k,
                             holder_10k):
        assert trace.violations == [], trace.violations[:5]
