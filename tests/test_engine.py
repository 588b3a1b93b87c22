import copy

import numpy as np
import pytest

from fomcert import engine
from fomcert.engine import (
    CURRENT_AVERAGE,
    FAST_COMBO,
    PROX_POINT,
    EngineState,
    InfeasibleStart,
    certificate,
    d_conjugate,
    segment_ends,
    segment_excess,
)
from fomcert.problems import REGISTRY_NAMES, make_instance

from conftest import (
    ScalarSplitMix64,
    combination_excess,
    quadratic_1d,
    sample_point,
    segment_excess_unhoisted,
)


def iterate(state, instance, ysel, t):
    """One full iteration at a caller-chosen step size."""
    return engine.commit(state, instance,
                         engine.propose(state, instance, ysel, t))


def test_one_exact_gradient_step_solves_quadratic(quad1d):
    state = EngineState(quad1d)
    iterate(state, quad1d, PROX_POINT, 1.0)  # t = 1/L
    assert abs(quad1d.primal_value(state.x)) <= 1e-30
    assert state.k == 1 and abs(state.T.total - 1.0) <= 1e-15


def test_theta_recurrence_and_averages():
    inst = make_instance("lasso", seed=0)
    state = EngineState(inst)
    thetas, ts, history = [], [], []
    for k in range(30):
        t = 0.1 + 0.01 * k
        trial = engine.propose(state, inst, PROX_POINT, t)
        thetas.append(trial.theta)
        ts.append(t)
        history.append((t, trial.y.copy(), trial.s.copy(), trial.g.copy()))
        engine.commit(state, inst, trial)
    # theta_{k+1}/t_{k+1} = (1 - theta_{k+1}) theta_k / t_k.
    for k in range(1, 30):
        lhs = thetas[k] / ts[k]
        rhs = (1.0 - thetas[k]) * thetas[k - 1] / ts[k - 1]
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))
    # Incremental averages match direct recomputation from the trials.
    T = sum(t for t, _, _, _ in history)
    x = sum(t * s for t, _, s, _ in history) / T
    z = sum(t * y for t, y, _, _ in history) / T
    u = sum(t * g for t, _, _, g in history) / T
    assert np.max(np.abs(x - state.x)) <= 1e-12
    assert np.max(np.abs(z - state.z)) <= 1e-12
    assert np.max(np.abs(u - state.U / state.T.total)) <= 1e-12
    assert np.max(np.abs(inst.A.apply(state.x) - state.Ax)) <= 1e-12


@pytest.mark.parametrize("ysel", [PROX_POINT, CURRENT_AVERAGE, FAST_COMBO])
def test_identities_hold_for_every_y_selector(ysel):
    inst = make_instance("lasso", seed=3)
    state = EngineState(inst)
    t = 0.5 / inst.constants["L"]
    for _ in range(50):
        iterate(state, inst, ysel, t)
        cert = certificate(state, inst, mode="x")
        assert cert.thm1_residual <= 1e-10
        assert cert.thm2_residual <= 1e-10


def test_certificate_modes_and_invariants():
    inst = make_instance("lasso", seed=1)
    state = EngineState(inst)
    for _ in range(80):
        iterate(state, inst, PROX_POINT, 0.5 / inst.constants["L"])
    for mode in ("x", "z"):
        cert = certificate(state, inst, mode=mode)
        tolerance = 1e-8 * max(1.0, abs(cert.delta))
        assert cert.gap <= cert.delta + tolerance
        assert cert.weak_gap >= -1e-9
        assert cert.gap == cert.primal - cert.dual_surrogate
    with pytest.raises(ValueError):
        certificate(state, inst, mode="bad")
    with pytest.raises(ValueError):
        certificate(EngineState(inst), inst)


def test_d_conjugate_closed_form(quad1d):
    # h = |.|^2/2, anchor 0, s_prev = [2], T = 4:
    # (<grad h(s_prev) - grad h(anchor), s_prev> - D_h(s_prev, anchor)) / T
    # = (4 - 2)/4 = 0.5.
    state = EngineState(quad1d)
    state.k = 1
    state.s_prev = np.array([2.0])
    state.s_anchor = np.array([0.0])
    state.T.add(4.0)
    assert abs(d_conjugate(state, quad1d) - 0.5) <= 1e-14


def test_d_conjugate_zero_reference():
    inst = make_instance("cg-ball", seed=0)
    state = EngineState(inst)
    iterate(state, inst, CURRENT_AVERAGE, 1.0)
    assert d_conjugate(state, inst) == 0.0


def test_d_conjugate_requires_iterations(quad1d):
    with pytest.raises(ValueError):
        d_conjugate(EngineState(quad1d), quad1d)


def test_excess_quadratic_closed_form(quad1d):
    # For f = x^2/2 (identity map, Psi = 0) and y = x:
    # D(x, s, theta) = theta^2 (s - x)^2 / 2.
    x = np.array([0.0])
    s = np.array([1.0])
    g = quad1d.f.subgradient(quad1d.A.apply(x))
    assert abs(segment_excess(quad1d, x, g, s, 0.5) - 0.125) <= 1e-14
    assert abs(combination_excess(quad1d, x, x, g, s, 0.5) - 0.125) <= 1e-14
    # Endpoints: theta = 0 gives 0; theta = 1 gives D_f(s, y).
    assert abs(segment_excess(quad1d, x, g, s, 0.0)) <= 1e-14
    assert abs(combination_excess(quad1d, x, x, g, s, 1.0) - 0.5) <= 1e-14


def test_combination_excess_reduces_to_segment_excess_at_y_equals_x():
    inst = make_instance("lasso", seed=5)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(inst.A.in_dim)
        s = rng.standard_normal(inst.A.in_dim)
        theta = float(rng.uniform(0.0, 1.0))
        g = inst.f.subgradient(inst.A.apply(x))
        a = combination_excess(inst, x, x, g, s, theta)
        b = segment_excess(inst, x, g, s, theta)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_segment_excess_nonnegative_on_curvature_instance():
    inst = make_instance("cg-ball", seed=0)
    r = ScalarSplitMix64(99)
    for _ in range(50):
        x = sample_point(inst, r)
        s = sample_point(inst, r)
        theta = r.uniform()
        g = inst.f.subgradient(inst.A.apply(x))
        assert segment_excess(inst, x, g, s, theta) >= -1e-12


@pytest.mark.parametrize("name", ["cg-ball", "lasso"])
def test_segment_excess_with_ends_is_bitwise_unhoisted(name):
    # cg-ball: identity map, l1-ball indicator Psi; lasso: dense map, l1 Psi.
    inst = make_instance(name, seed=3)
    r = ScalarSplitMix64(17)
    for _ in range(10):
        x, s = sample_point(inst, r), sample_point(inst, r)
        g = inst.f.subgradient(inst.A.apply(x))
        ends = segment_ends(inst, x, g, s)
        for theta in (0.0, 1.0, 0.5, 1e-9, 0.381966011250105, r.uniform()):
            want = segment_excess_unhoisted(inst, x, g, s, theta)
            assert segment_excess(inst, x, g, s, theta, ends=ends) == want
            assert segment_excess(inst, x, g, s, theta) == want


def test_infeasible_start_rejected():
    inst = make_instance("simplex-quadratic", seed=0)
    inst.feasible_start = np.zeros(inst.A.in_dim)  # not on the simplex
    with pytest.raises(InfeasibleStart):
        EngineState(inst)


def test_propose_validates_inputs(quad1d):
    state = EngineState(quad1d)
    with pytest.raises(ValueError):
        engine.propose(state, quad1d, PROX_POINT, -1.0)
    with pytest.raises(ValueError):
        engine.propose(state, quad1d, "nonsense", 1.0)


def test_cggap_recursion_matches_incremental():
    inst = make_instance("cg-ball", seed=0)
    state = EngineState(inst)
    from fomcert.steprules import cg_theta, t_from_theta
    direct = None
    for k in range(20):
        theta = cg_theta(k, 1.0)
        t = 1.0 if k == 0 else t_from_theta(theta, state.T.total)
        trial = engine.propose(state, inst, CURRENT_AVERAGE, t)
        if k == 0:
            direct = trial.excess
        else:
            direct = (1.0 - trial.theta) * direct + trial.excess
        engine.commit(state, inst, trial)
        assert abs(state.cggap - direct) <= 1e-12 * max(1.0, abs(direct))
        cert = certificate(state, inst, mode="x")
        assert cert.gap <= state.cggap + 1e-8


_SELECTORS = (PROX_POINT, CURRENT_AVERAGE, FAST_COMBO)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_cached_trials_match_fresh_proposals(name):
    # Proposing at t1 and then t2 within one iteration, the selectors
    # interleaved, gives the same trial at t2, bit for bit, as a proposal
    # at t2 on a state that has not proposed yet this iteration.
    inst = make_instance(name, seed=2)
    con = inst.constants
    t2 = 0.2 / con.get("L", con.get("M"))
    t1 = 2.5 * t2
    state = EngineState(inst)
    for k in range(4):
        fresh = copy.deepcopy(state)
        first = {ysel: engine.propose(state, inst, ysel, t1) for ysel in _SELECTORS}
        second = {ysel: engine.propose(state, inst, ysel, t2) for ysel in _SELECTORS}
        for ysel in _SELECTORS:
            expect = engine.propose(copy.deepcopy(fresh), inst, ysel, t2)
            for field in engine.TrialStep.__slots__:
                assert _same_bits(getattr(second[ysel], field),
                                  getattr(expect, field)), (k, ysel, field)
            if ysel != FAST_COMBO:
                assert second[ysel].g is first[ysel].g  # computed once
        # The reused y-side belongs to this iteration's state.
        for ysel, y in ((PROX_POINT, state.s_prev), (CURRENT_AVERAGE, state.x)):
            trial = second[ysel]
            assert _same_bits(trial.y, y)
            assert _same_bits(trial.Ay, inst.A.apply(y))
            assert trial.fAy == inst.f.value(trial.Ay)
            assert trial.psi_y == inst.psi.value(y)
        engine.commit(state, inst, second[(PROX_POINT, FAST_COMBO)[k % 2]])


@pytest.mark.parametrize("name,method", [("lasso", "prox_gradient"),
                                         ("l1-regression", "prox_subgradient")])
def test_prox_point_step_reuses_committed_s_side(monkeypatch, name, method):
    # Each trial applies A once (at s) and evaluates f and Psi twice (at s
    # and at the combination point).  The y-side at y = s_prev reuses the
    # accepted trial's A s, f(As) and Psi(s), so it adds none of them.
    from fomcert.methods import METHODS
    inst = make_instance(name, seed=0)
    config = METHODS[method](iterations=30)
    state = EngineState(inst)
    calls = {"A": 0, "f": 0, "psi": 0, "trials": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inst.A, "apply", counting("A", inst.A.apply))
    monkeypatch.setattr(inst.f, "value", counting("f", inst.f.value))
    monkeypatch.setattr(inst.psi, "value", counting("psi", inst.psi.value))
    monkeypatch.setattr(engine, "prox_step", counting("trials", engine.prox_step))
    prev_t = None
    for k in range(config.iterations):
        for key in calls:
            calls[key] = 0
        _, prev_t = config.step(state, inst, k, prev_t)
        trials = calls["trials"]
        assert trials >= 1
        assert calls["A"] == trials
        assert calls["f"] == 2 * trials
        assert calls["psi"] == 2 * trials


@pytest.mark.parametrize("name", ["poisson-burg", "lasso"])
def test_carried_s_side_equals_fresh_evaluation(name):
    from fomcert.methods import ProxGradient
    inst = make_instance(name, seed=0)
    if name == "lasso":  # a start where Psi = lam |.|_1 is not zero
        inst.feasible_start = np.full(inst.A.in_dim, 0.1)
    config = ProxGradient(iterations=200)
    state = EngineState(inst)
    prev_t = None
    for k in range(config.iterations + 1):
        As, fAs, psi_s = state.s_prev_side
        fresh = inst.A.apply(state.s_prev)
        assert (As == fresh).all(), k
        assert fAs == inst.f.value(fresh), k
        assert psi_s == inst.psi.value(state.s_prev), k
        if k < config.iterations:
            _, prev_t = config.step(state, inst, k, prev_t)


def test_anchor_gradient_computed_once_per_run(monkeypatch):
    from fomcert.methods import ProxGradient, run
    inst = make_instance("poisson-burg", seed=0)
    args = []
    gradient = inst.h.gradient

    def recording(x):
        args.append(x)
        return gradient(x)

    monkeypatch.setattr(inst.h, "gradient", recording)
    trace = run(inst, ProxGradient(iterations=40))
    assert not trace.violations
    assert sum(x is trace.state.s_anchor for x in args) == 1
    assert len(args) == 40 + 1  # grad h(s_prev) on each certified row
