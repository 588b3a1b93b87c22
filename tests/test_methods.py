import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fomcert import cli, engine, methods
from fomcert.engine import Certificate
from fomcert.methods import (
    METHODS,
    ConditionalSubgradient,
    ConfigError,
    FastGradient,
    IncompatibleConfig,
    ProxGradient,
    ProxSubgradient,
    ReferenceBracketError,
    UniversalGradient,
    _check_row,
    compatible_configs,
    rate_bound,
    reference_run,
    run,
)
from fomcert.oracles import L1Norm
from fomcert.problems import make_instance
from fomcert.prox import UnsupportedPair, prox_step
from fomcert.trace import Trace

from conftest import advance, quadratic_1d, registered_optimum
from test_golden_traces import RUNS


def test_compatibility_rules():
    lasso = make_instance("lasso", seed=0)
    ball = make_instance("cg-ball", seed=0)
    l1reg = make_instance("l1-regression", seed=0)
    with pytest.raises(IncompatibleConfig):
        ConditionalSubgradient(iterations=10).check_compatible(lasso)
    with pytest.raises(IncompatibleConfig):
        ProxGradient(iterations=10).check_compatible(ball)
    with pytest.raises(IncompatibleConfig):
        ProxGradient(iterations=10).check_compatible(l1reg)
    ProxGradient(iterations=10).check_compatible(lasso)
    ConditionalSubgradient(iterations=10).check_compatible(ball)
    ProxSubgradient(iterations=10).check_compatible(l1reg)


def test_zero_reference_without_linmin_is_incompatible():
    # An l1 norm has no linmin oracle, so the zero reference cannot take
    # a step on it, though the instance declares the bound's M and nu.
    inst = dataclasses.replace(make_instance("cg-ball", seed=0),
                               psi=L1Norm(0.1))
    with pytest.raises(IncompatibleConfig, match="linmin"):
        ConditionalSubgradient(iterations=5).check_compatible(inst)
    with pytest.raises(IncompatibleConfig, match="linmin"):
        run(inst, ConditionalSubgradient(iterations=5))
    with pytest.raises(UnsupportedPair):
        prox_step(inst, np.ones(inst.A.in_dim), 1.0, inst.feasible_start)


def test_compatible_configs_cover_registry():
    names = {
        "cg-ball": {"conditional_subgradient"},
        "lasso": {"prox_gradient", "fast_gradient"},
        "simplex-quadratic": {"prox_gradient"},
        "poisson-burg": {"prox_gradient"},
        "l1-regression": {"prox_subgradient"},
        "holder": {"universal_gradient"},
    }
    for name, expected in names.items():
        inst = make_instance(name, seed=0)
        configs = compatible_configs(inst, 10)
        assert {c.name for c in configs} == expected
        for c in configs:
            c.check_compatible(inst)


def test_rate_bound_formulas(quad1d):
    quad1d.constants.update({"M": 2.0, "nu": 1.0})
    # Conditional gradient: M (1+nu)/(k+1+nu) at nu=1, M=2, k=2 -> 1.
    cg = ConditionalSubgradient(iterations=10, nu=1.0)
    assert abs(rate_bound(cg, quad1d, 2) - 1.0) <= 1e-15
    # Prox gradient: r L Dh0 / k at r=2, L=1, Dh0=0.5, k=10 -> 0.1.
    pg = ProxGradient(iterations=10)
    assert abs(rate_bound(pg, quad1d, 10, 0.5) - 0.1) <= 1e-15
    # Prox subgradient at C=1, M=1, Dh0=1, K=k=100 -> 1/10 + 1/20 = 0.15.
    quad1d.constants["M"] = 1.0
    ps = ProxSubgradient(iterations=100, C=1.0)
    assert abs(rate_bound(ps, quad1d, 100, 1.0) - 0.15) <= 1e-15
    # Fast gradient gamma=2, r=2: 4 r^2 L Dh0 / (k+1)^2.
    fg = FastGradient(iterations=10)
    k = 7
    expect = 16.0 * 1.0 * 0.5 / (k + 1.0) ** 2
    assert abs(rate_bound(fg, quad1d, k, 0.5) - expect) <= 1e-15
    # Without the reference distance the bound is unavailable.
    assert rate_bound(pg, quad1d, 10) is None


@pytest.mark.parametrize("make", [
    lambda: ConditionalSubgradient(10, schedule="thetaa"),
    lambda: ConditionalSubgradient(10, nu=0.0),
    lambda: UniversalGradient(10, eps=0.0),
    lambda: ProxSubgradient(10, C=-1.0),
    lambda: ProxGradient(10, r=1.0),
    lambda: FastGradient(10, gamma=0.5),
    lambda: FastGradient(10, t_init=float("inf")),
], ids=["schedule", "nu", "eps", "C", "r", "gamma", "t_init"])
def test_library_config_out_of_range_raises(make):
    # A config built in Python passes the range checks of a JSON spec.
    with pytest.raises(ConfigError):
        make()


def subgradient_rhs(trace, M):
    """Right-hand side M * (sum t_i^2 / 2) / T of the subgradient rate, from
    the steps on the trace."""
    ts = [r.t for r in trace.rows]
    return M * (sum(t * t for t in ts) / 2.0) / sum(ts)


def test_subgradient_rhs_value():
    # One step with t = 1 and M = 1: M (t^2/2)/T = 0.5.
    inst = make_instance("l1-regression", seed=0)
    trace = run(inst, ProxSubgradient(iterations=1, C=1.0), check=False)
    assert abs(trace.state.T.total - 1.0) <= 1e-15
    assert abs(subgradient_rhs(trace, 1.0) - 0.5) <= 1e-12


def test_subgradient_delta_below_rhs():
    inst = make_instance("l1-regression", seed=0)
    trace = run(inst, ProxSubgradient(iterations=200, C=1.0))
    assert abs(sum(r.t for r in trace.rows) - trace.state.T.total) <= 1e-12
    rhs = subgradient_rhs(trace, inst.constants["M"])
    assert trace.final.delta <= rhs + 1e-8
    assert not trace.violations


def test_run_is_deterministic():
    inst = make_instance("lasso", seed=0)
    a = run(inst, ProxGradient(iterations=60))
    b = run(make_instance("lasso", seed=0), ProxGradient(iterations=60))
    assert [r.primal for r in a.rows] == [r.primal for r in b.rows]
    assert [r.gap for r in a.rows] == [r.gap for r in b.rows]


def test_reported_point_matches_mode():
    inst = make_instance("l1-regression", seed=0)
    trace = run(inst, ProxSubgradient(iterations=50, C=1.0))
    assert abs(trace.final.primal
               - inst.primal_value(trace.state.z)) <= 1e-12
    lasso = make_instance("lasso", seed=0)
    trace = run(lasso, ProxGradient(iterations=50))
    assert abs(trace.final.primal
               - lasso.primal_value(trace.state.x)) <= 1e-10


def test_short_runs_produce_no_violations():
    cases = [
        ("cg-ball", ConditionalSubgradient(iterations=150)),
        ("cg-ball", ConditionalSubgradient(iterations=150,
                                           schedule="linesearch")),
        ("lasso", ProxGradient(iterations=150)),
        ("lasso", FastGradient(iterations=150)),
        ("simplex-quadratic", ProxGradient(iterations=150)),
        ("poisson-burg", ProxGradient(iterations=150)),
        ("l1-regression", ProxSubgradient(iterations=150)),
        ("holder", UniversalGradient(iterations=150, eps=1e-3)),
    ]
    for name, config in cases:
        inst = make_instance(name, seed=0)
        ref = registered_optimum(inst)
        trace = run(inst, config, reference=ref)
        assert trace.violations == [], (name, config.name, trace.violations[:3])
        assert len(trace.rows) == 150
        cggaps = [r.cggap for r in trace.rows]
        if inst.zero_reference:
            assert all(c is not None for c in cggaps)
        else:
            assert all(c is None for c in cggaps)


@pytest.mark.parametrize("name,spec,eps", [
    ("holder", {"name": "universal_gradient", "eps": 5e-2}, 5e-2),
    ("holder", {"name": "universal_gradient"}, 1e-3),
    ("lasso", {"name": "prox_gradient"}, 0.0),
    ("lasso", {"name": "fast_gradient"}, 0.0),
])
def test_config_eps_reaches_backtrack(monkeypatch, name, spec, eps):
    seen = []
    real = methods.backtrack

    def spy(*args, **kwargs):
        seen.append(kwargs["eps"])
        return real(*args, **kwargs)

    monkeypatch.setattr(methods, "backtrack", spy)
    config = METHODS[spec["name"]].from_spec(spec, 5)
    run(make_instance(name, seed=0), config, check=False)
    assert seen == [eps] * 5


def test_trace_wall_time_recorded():
    inst = make_instance("lasso", seed=0)
    trace = run(inst, ProxGradient(iterations=20))
    assert trace.wall_time_ms > 0.0


def test_nan_certificate_is_a_violation(monkeypatch):
    real = engine.certificate

    def nan_certificate(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), primal=float("nan"),
                                   gap=float("nan"))

    monkeypatch.setattr(engine, "certificate", nan_certificate)
    trace = run(make_instance("lasso", seed=0), ProxGradient(iterations=5))
    for k in range(1, 6):
        assert "non-finite primal at k=%d: nan" % k in trace.violations
        assert "non-finite gap at k=%d: nan" % k in trace.violations


_FINITE_CERT = dict(primal=1.0, dual_surrogate=0.9, gap=0.1, delta=0.2,
                    thm1_residual=0.0, thm2_residual=0.0, weak_gap=0.05)


def _violations(bound=0.5, **fields):
    cert = Certificate(**dict(_FINITE_CERT, **fields))
    trace = Trace("lasso", "prox_gradient")
    _check_row(trace, SimpleNamespace(zero_reference=False),
               ProxGradient(iterations=10), cert,
               SimpleNamespace(k=3, cggap=None), bound, ref_value=0.9,
               tol=1e-8)
    return trace.violations


@pytest.mark.parametrize("field", ["primal", "dual_surrogate", "gap", "delta",
                                   "thm1_residual", "thm2_residual", "bound",
                                   "weak_gap"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_check_row_fails_closed(field, value):
    assert _violations() == []
    found = _violations(**{field: value})
    if field != "weak_gap":
        assert "non-finite %s at k=3: %r" % (field, value) in found
    elif value == float("inf"):
        assert found == []  # -A*u outside dom(Psi*), as Certificate documents
    else:
        assert found[0].startswith("weak duality violated at k=3")


def _registry_configs(iterations):
    # The golden-trace configs: compatible_configs offers each method's
    # defaults only, without the cg-ball line search.
    for name, spec in RUNS.values():
        config = cli.config_from_dict(spec, iterations)
        label = "%s:%s" % (name, config.name)
        if hasattr(config, "schedule"):
            label += ":" + config.schedule
        yield pytest.param(name, config, id=label)


@pytest.mark.parametrize("name,config", _registry_configs(40))
def test_state_objective_matches_fresh_evaluation(name, config):
    # F(x_k) carried on the state equals a fresh evaluation at the iterate.
    inst = make_instance(name, seed=0)
    state = engine.EngineState(inst)
    trial = None
    for k in range(config.iterations + 1):
        if k:
            trial = advance(config, state, inst, trial)
        assert state.F_x == inst.f.value(state.Ax) + inst.psi.value(state.x), k


_ROW_ONLY = ("k", "t", "theta", "bound", "cggap")
_CERT_COLUMNS = ("primal", "dual_surrogate", "gap", "delta", "thm1_residual",
                 "thm2_residual")


@pytest.mark.parametrize("name,config", _registry_configs(40))
def test_unchecked_run_certifies_only_the_final_iterate(name, config):
    inst = make_instance(name, seed=0)
    ref = registered_optimum(inst)
    checked = run(inst, config, reference=ref)
    unchecked = run(inst, config, reference=ref, check=False)
    assert len(unchecked.rows) == len(checked.rows) == config.iterations
    for a, b in zip(checked.rows, unchecked.rows):
        assert [getattr(a, f) for f in _ROW_ONLY] == [getattr(b, f) for f in _ROW_ONLY]
    for row in unchecked.rows[:-1]:
        assert all(math.isnan(getattr(row, f)) for f in _CERT_COLUMNS)
    assert unchecked.final == checked.final
    assert unchecked.state.x.tobytes() == checked.state.x.tobytes()


@pytest.mark.parametrize("field,value", [
    ("primal", float("nan")),
    ("dual_surrogate", float("nan")),
    ("delta", float("inf")),
    ("thm1_residual", float("nan")),
    ("thm2_residual", float("nan")),
    ("weak_gap", float("nan")),
    ("weak_gap", -1e-6),
    ("thm1_residual", 1e-6),
    ("thm2_residual", 1e-6),
])
def test_reference_run_rejects_bad_bracket(monkeypatch, field, value):
    real = engine.certificate

    def bad_certificate(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), **{field: value})

    monkeypatch.setattr(engine, "certificate", bad_certificate)
    with pytest.raises(ReferenceBracketError):
        reference_run(make_instance("lasso", seed=0), 50)


def test_unchecked_run_checks_its_final_row_only(monkeypatch):
    real = engine.certificate

    def nan_certificate(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), primal=float("nan"))

    monkeypatch.setattr(engine, "certificate", nan_certificate)
    trace = run(make_instance("lasso", seed=0), ProxGradient(iterations=5),
                check=False)
    assert "non-finite primal at k=5: nan" in trace.violations
    assert all("at k=5" in v for v in trace.violations), trace.violations


def test_missing_condition_constant_is_incompatible(quad1d):
    # A smooth.1 instance that declares no L: the prox-gradient bound reads it.
    inst = dataclasses.replace(quad1d, constants={"M": 1.0})
    with pytest.raises(IncompatibleConfig, match="reads L, which"):
        ProxGradient(iterations=5).check_compatible(inst)
    assert compatible_configs(inst, 5) == []


def test_reference_run_rejects_zero_budget():
    with pytest.raises(ReferenceBracketError):
        reference_run(make_instance("lasso", seed=0), 0)
