import numpy as np
import pytest

from fomcert import engine, steprules
from fomcert.engine import PROX_POINT, EngineState, propose
from fomcert.methods import ConditionalSubgradient
from fomcert.problems import SplitMix64, make_instance
from fomcert.steprules import (
    MAX_GRID_STEPS,
    BacktrackFailed,
    _condition_holds,
    backtrack,
    cg_theta,
    linesearch_cg,
    t_from_theta,
)

from conftest import (
    advance,
    maximal_t_sequence,
    quadratic_1d,
    sample_point,
    segment_excess_unhoisted,
    step_ratio_bound,
)


def proposed_theta(t, T_prev):
    """The theta that engine.propose gives the step t after steps summing
    to T_prev."""
    inst = quadratic_1d()
    state = EngineState(inst)
    state.T.add(T_prev)
    return propose(state, inst, PROX_POINT, t).theta


def test_theta_t_correspondence():
    assert proposed_theta(1.0, 0.0) == 1.0
    assert proposed_theta(1.0, 1.0) == 0.5
    assert abs(t_from_theta(0.5, 1.0) - 1.0) <= 1e-15
    assert abs(t_from_theta(2.0 / 3.0, 1.0) - 2.0) <= 1e-15
    rng = np.random.default_rng(0)
    for _ in range(100):
        theta = float(rng.uniform(0.01, 0.99))
        T = float(rng.uniform(0.1, 10.0))
        assert abs(proposed_theta(t_from_theta(theta, T), T)
                   - theta) <= 1e-14
    with pytest.raises(ValueError):
        proposed_theta(0.0, 1.0)
    with pytest.raises(ValueError):
        t_from_theta(1.0, 1.0)
    with pytest.raises(ValueError):
        t_from_theta(0.0, 1.0)


def test_theta_recurrence_for_unit_steps():
    # t = (1,1,1): theta_2/t_2 = (1 - theta_2) theta_1/t_1, i.e. 1/3 = (2/3)(1/2).
    t1 = proposed_theta(1.0, 1.0)
    t2 = proposed_theta(1.0, 2.0)
    assert abs(t2 / 1.0 - (1.0 - t2) * t1 / 1.0) <= 1e-15


def test_cg_theta_examples():
    assert cg_theta(0, 1.0) == 1.0
    assert cg_theta(2, 1.0) == 0.5  # the classic 2/(k+2)
    assert abs(cg_theta(3, 0.5) - 1.0 / 3.0) <= 1e-15


def test_step_ratio_bound_examples():
    assert step_ratio_bound(0, 2.0, 1.0) == 1.0
    assert abs(step_ratio_bound(2, 2.0, 1.0) - 0.25) <= 1e-15


def test_backtrack_halves_to_inverse_curvature(quad1d):
    # Condition holds iff t <= 1/L = 1; from t_init=4, r=2 the grid accepts 1.
    state = EngineState(quad1d)
    trial = backtrack(state, quad1d, PROX_POINT, 2.0, 4.0)
    assert abs(trial.t - 1.0) <= 1e-15
    assert not _condition_holds(propose(state, quad1d, PROX_POINT, 2.0), 0.0)


def test_backtrack_grows_to_inverse_curvature(quad1d):
    state = EngineState(quad1d)
    trial = backtrack(state, quad1d, PROX_POINT, 2.0, 0.25)
    assert abs(trial.t - 1.0) <= 1e-15
    assert not _condition_holds(propose(state, quad1d, PROX_POINT, 2.0), 0.0)


def test_backtrack_r_large_pair_property():
    # Accepted t passes its condition while t*r fails, re-evaluated explicitly.
    inst = make_instance("lasso", seed=0)
    state = EngineState(inst)
    r, t = 2.0, 1.0
    for _ in range(10):
        trial = backtrack(state, inst, PROX_POINT, r, t)
        assert _condition_holds(propose(state, inst, PROX_POINT, trial.t), 0.0)
        rejected = propose(state, inst, PROX_POINT, trial.t * r)
        assert not _condition_holds(rejected, 0.0)
        engine.commit(state, inst, trial)
        t = trial.t


def test_universal_large_eps_accepts_without_halving(quad1d):
    state = EngineState(quad1d)
    trial = backtrack(state, quad1d, PROX_POINT, 2.0, 4.0, eps=100.0)
    assert trial.t >= 4.0  # first candidate passed; only growth from there


def test_backtrack_failure_diagnostic():
    # The grid reaches down to t = 2^-MAX_GRID_STEPS = 1/L at L = 2^60, and
    # no further.
    inst = quadratic_1d(curvature=2.0 ** MAX_GRID_STEPS)
    trial = backtrack(EngineState(inst), inst, PROX_POINT, 2.0, 1.0)
    assert trial.t == 2.0 ** -MAX_GRID_STEPS
    inst = quadratic_1d(curvature=1e30)
    with pytest.raises(BacktrackFailed, match="smoothness constants"):
        backtrack(EngineState(inst), inst, PROX_POINT, 2.0, 1.0)


@pytest.mark.parametrize("T,t", [(1.7e308, 1.7e308), (0.0, float("inf")),
                                 (1.0, float("nan"))])
def test_propose_rejects_a_step_without_positive_weight(quad1d, T, t):
    state = EngineState(quad1d)
    state.T.add(T)
    with pytest.raises(engine.StepOutOfRange):
        propose(state, quad1d, PROX_POINT, t)


def test_backtrack_keeps_the_step_sum_below_t_max(quad1d):
    # Every trial passes the descent condition on the quadratic with L = 1
    # from the optimum, so only T_MAX stops the upward probe.
    quad1d.feasible_start[:] = 0.0
    state = EngineState(quad1d)
    state.T.add(steprules.T_MAX / 4.0)
    trial = backtrack(state, quad1d, PROX_POINT, 2.0, steprules.T_MAX / 8.0)
    assert trial.t == steprules.T_MAX / 2.0
    assert state.T.total + trial.t <= steprules.T_MAX
    state.T.add(steprules.T_MAX)
    with pytest.raises(BacktrackFailed, match="was out of range"):
        backtrack(state, quad1d, PROX_POINT, 2.0, 1.0)


def test_backtrack_survives_domain_failures_on_probes():
    # Entropy prox underflows for huge trial steps; the probe must count as
    # a failed condition instead of aborting the run.
    inst = make_instance("simplex-quadratic", seed=0)
    state = EngineState(inst)
    trial = backtrack(state, inst, PROX_POINT, 2.0, 1e6)
    assert np.all(trial.s > 0.0)
    assert _condition_holds(trial, 0.0)


def test_backtrack_rejects_bad_ratio(quad1d):
    with pytest.raises(ValueError):
        backtrack(EngineState(quad1d), quad1d, PROX_POINT, 1.0, 1.0)


def test_linesearch_quadratic_example():
    # phi(theta) = (1-theta)*2 + 2 theta^2, minimized at theta = 0.5.
    inst = quadratic_1d()
    from fomcert.oracles import BoxIndicator, ProblemInstance
    from fomcert.reference import ZeroReference
    box = ProblemInstance(
        A=inst.A, f=inst.f,
        psi=BoxIndicator(np.array([-1.0]), np.array([1.0])),
        h=ZeroReference(), feasible_start=np.array([1.0]))
    x = np.array([1.0])
    s = np.array([-1.0])
    g = box.f.subgradient(box.A.apply(x))
    theta = linesearch_cg(box, x, g, s, cggap=2.0)
    assert abs(theta - 0.5) <= 1e-6


def test_linesearch_flat_objective_deterministic(quad1d):
    x = np.array([0.5])
    g = quad1d.f.subgradient(quad1d.A.apply(x))
    a = linesearch_cg(quad1d, x, g, x, cggap=0.0)
    b = linesearch_cg(quad1d, x, g, x, cggap=0.0)
    assert a == b and 0.0 <= a <= 1.0


def _golden_section_unhoisted(instance, x, g, s, cggap):
    """The line search, with its cap of 64 shrinks and its interval of
    1e-10, as an inline loop over the unhoisted excess."""
    phi = lambda th: (1.0 - th) * cggap + segment_excess_unhoisted(
        instance, x, g, s, th)
    invphi = (5 ** 0.5 - 1) / 2
    lo, hi = 0.0, 1.0
    a = hi - invphi * (hi - lo)
    b = lo + invphi * (hi - lo)
    fa, fb = phi(a), phi(b)
    for _ in range(64):
        if hi - lo < 1e-10:
            break
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = phi(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = phi(b)
    return 0.5 * (lo + hi)


def _cg_ball_segments(count):
    inst = make_instance("cg-ball", seed=0)
    r = SplitMix64(5)
    for i in range(count):
        x = sample_point(inst, r)
        g = inst.f.subgradient(inst.A.apply(x))
        s = (inst.psi.linmin(inst.A.adjoint_apply(g)) if i % 2
             else sample_point(inst, r))
        yield inst, x, g, s, (0.0, 1e-6, 0.3, 5.0)[i % 4]


def test_linesearch_matches_unhoisted_golden_section():
    for inst, x, g, s, cggap in _cg_ball_segments(12):
        assert (linesearch_cg(inst, x, g, s, cggap)
                == _golden_section_unhoisted(inst, x, g, s, cggap))


def _count_evaluations(monkeypatch, inst):
    """Count segment_excess calls and inst's A, f and Psi evaluations into
    the returned dict."""
    calls = {"A": 0, "f": 0, "psi": 0, "evals": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(steprules, "segment_excess",
                        counting("evals", steprules.segment_excess))
    monkeypatch.setattr(inst.A, "apply", counting("A", inst.A.apply))
    monkeypatch.setattr(inst.f, "value", counting("f", inst.f.value))
    monkeypatch.setattr(inst.psi, "value", counting("psi", inst.psi.value))
    return calls


def test_linesearch_evaluates_segment_ends_once(monkeypatch):
    segments = list(_cg_ball_segments(4))
    inst = segments[0][0]  # one instance shared by every segment
    calls = _count_evaluations(monkeypatch, inst)
    for _, x, g, s, cggap in segments:
        for key in calls:
            calls[key] = 0
        linesearch_cg(inst, x, g, s, cggap)
        evals = calls["evals"]
        assert evals > 2
        assert calls["A"] == evals + 2
        assert calls["f"] == evals + 1
        assert calls["psi"] == evals + 2


def test_linesearch_with_x_side_is_bitwise_same():
    for inst, x, g, s, cggap in _cg_ball_segments(12):
        Ax = inst.A.apply(x)
        x_side = (Ax, inst.f.value(Ax), inst.psi.value(x))
        assert (linesearch_cg(inst, x, g, s, cggap, x_side=x_side)
                == linesearch_cg(inst, x, g, s, cggap))


@pytest.mark.parametrize("schedule", ["theta", "linesearch"])
def test_cg_linesearch_step_reuses_cached_y_side(monkeypatch, schedule):
    # A step of either schedule evaluates the y-side (A x, f(Ax), Psi(x), as
    # y = x) and, for the direction s, one linmin, A s and Psi(s) once.  The
    # line search adds one A, f and Psi per trial theta (none at k = 0, and
    # none ever on the theta schedule), reading A x, f(Ax), Psi(x), A s and
    # Psi(s) from the step; finish_trial adds f(As) and f, Psi at the
    # combination.
    inst = make_instance("cg-ball", seed=0)
    config = ConditionalSubgradient(iterations=20, schedule=schedule)
    state = EngineState(inst)
    calls = _count_evaluations(monkeypatch, inst)
    linmin = inst.psi.linmin
    calls["linmin"] = 0

    def counting_linmin(c):
        calls["linmin"] += 1
        return linmin(c)

    monkeypatch.setattr(inst.psi, "linmin", counting_linmin)
    trial = None
    for k in range(config.iterations):
        for key in calls:
            calls[key] = 0
        trial = advance(config, state, inst, trial)
        evals = calls["evals"]
        if schedule == "linesearch" and k > 0:
            assert evals > 2
        else:
            assert evals == 0
        assert calls["linmin"] == 1
        assert calls["A"] == evals + 2
        assert calls["f"] == evals + 3
        assert calls["psi"] == evals + 3


@pytest.mark.parametrize("gamma,L", [(1.5, 1.0), (2.0, 1.0), (2.0, 10.0)])
def test_maximal_t_sequence_respects_ratio_bound(gamma, L):
    ts, thetas = maximal_t_sequence(gamma, L, 200)
    assert thetas[0] == 1.0
    for k in range(200):
        # The generating equation (theta^(gamma-1) t = 1/L) holds...
        assert abs(thetas[k] ** (gamma - 1.0) * ts[k] - 1.0 / L) \
            <= 1e-10 / L
        # ...and the closed-form ratio bound dominates theta_k/t_k.
        assert thetas[k] / ts[k] <= step_ratio_bound(k, gamma, L) * (1.0 + 1e-12)
    # theta recurrence holds along the generated sequence.
    T = ts[0]
    for k in range(1, 200):
        lhs = thetas[k] / ts[k]
        rhs = (1.0 - thetas[k]) * thetas[k - 1] / ts[k - 1]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
        T += ts[k]
