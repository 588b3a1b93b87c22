import hashlib
import inspect
import json
import math
import os

import numpy as np
import pytest

from fomcert import cli, problems, run
from fomcert.linalg import LinearMap
from fomcert.methods import (
    ConditionalSubgradient,
    ProxGradient,
    ReferenceBracketError,
)
from fomcert.oracles import (
    L1BallIndicator,
    L1Norm,
    ProblemInstance,
    SimplexIndicator,
    SmoothOracle,
)
from fomcert.problems import (
    REGISTRY_NAMES,
    SplitMix64,
    make_instance,
    reference_optimum,
    verify_constants,
)
from fomcert.reference import Entropy, SquaredEuclidean, ZeroReference

from conftest import (
    ScalarSplitMix64,
    matrix_of,
    per_point_sampler,
    rowwise_normals,
)

ALL_NAMES = list(REGISTRY_NAMES)


def test_registry_names():
    assert set(ALL_NAMES) == {"simplex-quadratic", "lasso", "poisson-burg",
                              "l1-regression", "holder", "cg-ball"}
    with pytest.raises(KeyError):
        make_instance("nonsense")


def test_splitmix64_reference_vector():
    # Published first output for seed 0 (xoshiro test-vector generator).
    assert ScalarSplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_splitmix64_streams():
    a = ScalarSplitMix64(42)
    b = ScalarSplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    r = SplitMix64(7)
    us = r.uniforms(1000)
    assert np.all((0.0 <= us) & (us < 1.0))
    ns = r.normals(1000)
    assert np.all(np.isfinite(ns))
    assert abs(float(np.mean(ns))) < 0.2


def _scalar_block(r, method, n):
    """n scalar draws, as the block method of that name returns them."""
    if method == "u64s":
        return np.array([r.next_u64() for _ in range(n)], dtype=np.uint64)
    draw = r.uniform if method == "uniforms" else r.normal
    return np.array([draw() for _ in range(n)], dtype=np.float64)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 10, 1000])
def test_block_draws_equal_scalar_stream(seed, n):
    # Blocks and scalar calls interleaved on one generator, against the
    # same calls made one value at a time on a twin.
    block, scalar = ScalarSplitMix64(seed), ScalarSplitMix64(seed)
    for method in ("u64s", "uniforms", "normals", "normals", "u64s"):
        assert block.uniform() == scalar.uniform()
        got = getattr(block, method)(n)
        want = _scalar_block(scalar, method, n)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes(), method
        assert block.state == scalar.state
        assert block.normal() == scalar.normal()


@pytest.mark.parametrize("n", [2**13 - 1, 2**13, 2**13 + 1,
                               2**16 - 1, 2**16, 2**16 + 1])
def test_normals_across_the_chunk_bound_equal_scalar_stream(n):
    # normals draws at most 2**13 variates per block of uniforms; apart from
    # test_block_draws_equal_scalar_stream, whose 15 cases per n would make
    # these sizes take seconds.
    assert problems._NORMALS_CHUNK == 2**13
    block, scalar = ScalarSplitMix64(7), ScalarSplitMix64(7)
    got = block.normals(n)
    assert got.tobytes() == _scalar_block(scalar, "normals", n).tobytes()
    assert block.state == scalar.state
    assert block.normal() == scalar.normal()


@pytest.mark.parametrize("method", ["u64s", "uniforms", "normals"])
def test_block_draws_reject_negative_n(method):
    r = SplitMix64(3)
    with pytest.raises(ValueError):
        getattr(r, method)(-1)
    assert r.state == 3


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# sha256 of the seeded instance data, recorded while every draw was a scalar
# SplitMix64 call; the block draws must reproduce them.
_INSTANCE_DIGESTS = {
    (0, "lasso"): "9cf6577a718e81bede9e91f7434242e76cb5ef50f2e488b2ea5ce58988977acb",
    (0, "simplex-quadratic"): "1658add685aae27b78bddde34acb05609ceb8b50ccd6044b017dadcaf8d9a702",
    (91, "lasso"): "64650429c7366e0f8d253f494b3e2d735cf905e789ee8f88cf4fc607eb92946e",
    (91, "simplex-quadratic"): "d024626b11df4a4f4d40942ba3fdad5d47ee5dc3d05ce018dab552bfecf2b35b",
}


@pytest.mark.parametrize("seed,name", sorted(_INSTANCE_DIGESTS))
def test_instance_data_digest(seed, name):
    if name == "lasso":
        inst = make_instance(name, seed=seed, n=200, m=300)
        got = _digest(matrix_of(inst.A), [inst.constants["L"]])
    else:
        inst = make_instance(name, seed=seed, n=200)
        got = _digest(inst.f.subgradient(np.linspace(-1.0, 1.0, 200)),
                      [inst.constants["L"]])
    assert got == _INSTANCE_DIGESTS[seed, name]


def _spy_on(monkeypatch, owner, attr):
    """Record the arguments and the result of every call to owner.attr."""
    calls, real = [], getattr(owner, attr)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(owner, attr, spy)
    return calls


# lasso and holder also get a shape whose matrix spans many chunks.
@pytest.mark.parametrize("name,params", [
    (name, {}) for name in ALL_NAMES if name != "poisson-burg"] + [
    ("lasso", {"n": 350, "m": 400}), ("holder", {"n": 300, "m": 500})],
    ids=repr)
def test_builder_matrix_equals_rowwise_draws(monkeypatch, name, params):
    # The matrix is the builder's first draw, in one normals call.
    calls = _spy_on(monkeypatch, SplitMix64, "normals")
    inst = make_instance(name, seed=7, **params)
    spec = dict(problems._PARAMS[name], **params)
    m, n = spec.get("m", spec["n"]), spec["n"]
    (_, size), drawn = calls[0]
    want = rowwise_normals(SplitMix64(7), m, n)
    assert size == m * n and drawn.reshape(m, n).tobytes() == want.tobytes()
    if name in ("l1-regression", "holder"):  # A is the drawn matrix itself
        assert inst.A._matrix.tobytes() == want.tobytes()


def test_lasso_n1000_draws_normals_in_bounded_chunks(monkeypatch):
    calls = _spy_on(monkeypatch, problems, "_box_muller")
    make_instance("lasso", seed=0, n=1000, m=1500)
    sizes = [u1.size for (u1, _), _ in calls]
    assert max(sizes) == 2**13 and sum(sizes) == 1500 * 1000 + 1000 + 1500


@pytest.mark.parametrize("name", ALL_NAMES)
def test_parameter_table_is_each_builders_signature(name):
    takes = list(inspect.signature(problems._REGISTRY[name]).parameters.values())
    assert takes[0].name == "rng"
    assert problems._PARAMS[name] == {p.name: p.default for p in takes[1:]}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_deterministic_regeneration(name):
    a = make_instance(name, seed=123)
    b = make_instance(name, seed=123)
    assert np.array_equal(matrix_of(a.A), matrix_of(b.A))
    assert np.array_equal(a.feasible_start, b.feasible_start)
    assert a.constants == b.constants
    c = make_instance(name, seed=124)
    if np.array_equal(matrix_of(a.A), np.eye(a.A.in_dim)):
        assert a.constants != c.constants  # random data lives in the oracles
    else:
        assert not np.array_equal(matrix_of(a.A), matrix_of(c.A))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_feasible_start_is_feasible(name):
    inst = make_instance(name, seed=0)
    assert inst.primal_value(inst.feasible_start) < np.inf


@pytest.mark.parametrize("name", ALL_NAMES)
def test_declared_constants_verified(name):
    report = verify_constants(make_instance(name, seed=0), samples=2000)
    assert report["passed"], report
    assert report["max_ratio"] <= 1.0 + 1e-9


def test_verify_constants_detects_corruption():
    lasso = make_instance("lasso", seed=0)
    bad = verify_constants(lasso, samples=2000,
                           constants={"L": lasso.constants["L"] * 0.01})
    assert not bad["passed"]
    l1 = make_instance("l1-regression", seed=0)
    bad = verify_constants(l1, samples=2000,
                           constants={"M": l1.constants["M"] * 0.01})
    assert not bad["passed"]


def test_verify_constants_fails_a_vanishing_constant():
    # A constant scaled towards 0 shrinks every right side, but not the set
    # of samples skipped as zero to rounding, so the samples fail.
    lasso = make_instance("lasso", seed=0)
    for scale in (1e-14, 0.0):
        bad = verify_constants(lasso, samples=200,
                               constants={"L": lasso.constants["L"] * scale})
        assert not bad["passed"] and bad["max_ratio"] > 1e6, bad


def test_verify_constants_rejects_an_unknown_condition_class():
    # smooth.2 (triangle scaling) has no entry until an instance declares it.
    for condition in ("smooth.2", ""):
        inst = make_instance("lasso", seed=0)
        inst.condition = condition
        with pytest.raises(ValueError, match="no known condition class"):
            verify_constants(inst, samples=10)


def test_lasso_analytic_example():
    # B = I, b = [1, 0], lam = 0.5: per-coordinate soft threshold gives
    # x* = [0.5, 0] with value 0.125 + 0.25 = 0.375.
    b = np.array([1.0, 0.0])
    f = SmoothOracle(
        value=lambda y: 0.5 * float((y - b) @ (y - b)),
        subgradient=lambda y: y - b,
        conjugate=lambda u: 0.5 * float(u @ u) + float(u @ b),
    )
    inst = ProblemInstance(
        A=LinearMap.identity(2), f=f, psi=L1Norm(0.5), h=SquaredEuclidean(),
        feasible_start=np.zeros(2), constants={"L": 1.0},
        name="lasso-tiny", condition="smooth.1")
    trace = run(inst, ProxGradient(iterations=200, r=2.0, t_init=1.0))
    assert not trace.violations
    assert abs(trace.final.primal - 0.375) <= 1e-8
    assert np.max(np.abs(trace.state.x - np.array([0.5, 0.0]))) <= 1e-4


def test_simplex_quadratic_analytic_example():
    # Q = 2I, q = 0 on the 2-simplex: symmetry gives x* = [0.5, 0.5], value 0.5.
    Q = 2.0 * np.eye(2)
    Qinv = np.linalg.inv(Q)
    f = SmoothOracle(
        value=lambda x: 0.5 * float(x @ (Q @ x)),
        subgradient=lambda x: Q @ x,
        conjugate=lambda u: 0.5 * float(u @ (Qinv @ u)),
    )
    inst = ProblemInstance(
        A=LinearMap.identity(2), f=f, psi=SimplexIndicator(), h=Entropy(),
        feasible_start=np.array([0.3, 0.7]), constants={"L": 2.0},
        name="simplex-tiny", condition="smooth.1")
    trace = run(inst, ProxGradient(iterations=300, r=2.0, t_init=1.0))
    assert not trace.violations
    assert abs(trace.final.primal - 0.5) <= 1e-8
    assert np.max(np.abs(trace.state.x - 0.5)) <= 1e-4


def test_cg_interior_minimizer_example():
    # f = |x - c|^2/2 with c strictly inside the ball: the constraint is
    # inactive, the optimum is c with value 0 and the CG gap goes to 0.
    c = np.array([0.1, 0.2])
    f = SmoothOracle(
        value=lambda x: 0.5 * float((x - c) @ (x - c)),
        subgradient=lambda x: x - c,
        conjugate=lambda u: 0.5 * float(u @ u) + float(u @ c),
    )
    inst = ProblemInstance(
        A=LinearMap.identity(2), f=f, psi=L1BallIndicator(1.0),
        h=ZeroReference(), feasible_start=np.zeros(2),
        constants={"M": 4.0, "nu": 1.0}, name="cg-tiny", condition="curv.nu")
    trace = run(inst, ConditionalSubgradient(iterations=600))
    assert not trace.violations
    assert trace.final.primal <= 2e-2
    assert trace.final.gap <= trace.final.cggap + 1e-8


def test_known_optima_registered():
    l1 = make_instance("l1-regression", seed=0)
    value, point = reference_optimum(l1)
    assert np.isfinite(value) and point.shape == l1.feasible_start.shape
    assert abs(l1.primal_value(point) - value) <= 1e-9 * max(1.0, value)
    hol = make_instance("holder", seed=0)
    value, point = reference_optimum(hol)
    assert abs(hol.primal_value(point) - value) <= 1e-9 * max(1.0, value)


def test_reference_optimum_known_passthrough():
    # The registered solver runs on the first call only; later calls return
    # the kept result.
    inst = make_instance("l1-regression", seed=0)
    calls = []
    solve = inst.solve_optimum
    inst.solve_optimum = lambda: calls.append(1) or solve()
    first = reference_optimum(inst)
    assert reference_optimum(inst) is first is inst.optimum
    assert len(calls) == 1


def test_make_instance_runs_no_solve(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("make_instance ran a scipy solve")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    for name in ALL_NAMES:
        inst = make_instance(name, seed=0)
        assert inst.optimum is None
        assert (inst.solve_optimum is not None) == (
            name in ("l1-regression", "holder", "cg-ball"))


@pytest.mark.parametrize("seed", [0, 91])
def test_cg_ball_reference_is_certified_by_its_frank_wolfe_gap(seed):
    inst = make_instance("cg-ball", seed=seed)
    value, x = reference_optimum(inst)
    g = inst.f.subgradient(inst.A.apply(x))
    gap = float(g @ x) + inst.psi.radius * float(np.max(np.abs(g)))
    assert value == inst.primal_value(x)
    assert 0.0 <= gap <= 1e-9 * max(1.0, abs(value))


@pytest.mark.parametrize("case", ["nan-dual", "dual-outside-dom",
                                  "feasible-start"])
def test_reference_optimum_rejects_an_uncertified_solve(case):
    # The LP's point with a NaN dual point (a NaN gap) or with one outside
    # dom f*, |u|_inf <= 1 (an infinite gap); or the start point, whose gap
    # at u = f'(Ax) is finite but far above the tolerance.
    inst = make_instance("l1-regression", seed=0)
    point, u = inst.solve_optimum()
    if case == "nan-dual":
        u = np.full_like(u, np.nan)
    elif case == "dual-outside-dom":
        u = u.copy()
        u[0] = 1.5
    else:
        point, u = inst.feasible_start, None
    gap = inst.fenchel_gap(point, u)
    assert {"nan-dual": math.isnan(gap), "dual-outside-dom": gap == math.inf,
            "feasible-start": 1e-3 < gap < math.inf}[case], gap
    inst.solve_optimum = lambda: (point, u)
    with pytest.raises(ReferenceBracketError):
        reference_optimum(inst)
    assert inst.optimum is None


REGISTERED_NAMES = ["l1-regression", "holder", "cg-ball"]


@pytest.mark.parametrize("seed", [0, 91])
@pytest.mark.parametrize("name", REGISTERED_NAMES)
def test_reference_optimum_rejects_a_shifted_conjugate(name, seed):
    # The Fenchel gap reads the instance's f*, so a conjugate oracle that is
    # off by a constant moves the gap by that constant.
    for shift in (1e-3, -1e-3, 1e-4, -1e-4):
        inst = make_instance(name, seed=seed)
        conjugate = inst.f.conjugate
        inst.f.conjugate = lambda u: conjugate(u) + shift
        with pytest.raises(ReferenceBracketError):
            reference_optimum(inst)
        assert inst.optimum is None


def _l1_regression_data(seed, n=10, m=20, box=1.0):
    """B and b of make_instance("l1-regression", seed), drawn again."""
    rng = SplitMix64(seed)
    B = rowwise_normals(rng, m, n)
    x_true = box * (2.0 * rng.uniforms(n) - 1.0)
    return B, B @ x_true + 0.1 * rng.normals(m)


@pytest.mark.parametrize("name", REGISTERED_NAMES)
def test_registered_gap_is_each_solvers_own_formula(name):
    # The gap each solver computed for itself: value minus the LP dual
    # -u'b - box |B'u|_1 for l1-regression (box 1), and the Frank-Wolfe gap
    # max over feasible v of <grad, x - v> on the box (holder) and the l1
    # ball (cg-ball) (Jaggi, 2013).
    for seed in range(20):
        inst = make_instance(name, seed=seed)
        x, u = inst.solve_optimum()
        value = inst.primal_value(x)
        if name == "l1-regression":
            B, b = _l1_regression_data(seed)
            assert B.tobytes() == matrix_of(inst.A).tobytes()
            assert inst.f.value(b) == 0.0
            want = value + float(u @ b) + float(np.abs(B.T @ u).sum())
        else:
            grad = inst.A.adjoint_apply(inst.f.subgradient(inst.A.apply(x)))
            if name == "holder":
                box = float(inst.psi.hi[0])
                want = float(grad @ x) + box * float(np.abs(grad).sum())
            else:
                want = (float(grad @ x)
                        + inst.psi.radius * float(np.abs(grad).max()))
        got = inst.fenchel_gap(x, u)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(value)), (seed, got, want)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_block_sampler_matches_per_point_draws(name):
    inst = make_instance(name, seed=5)
    width, points = inst.sampler
    sample = per_point_sampler(inst)
    for k in (1, 2, 64, 65):
        block_rng, point_rng = SplitMix64(31 + k), ScalarSplitMix64(31 + k)
        block = points(block_rng.uniforms(k * width).reshape(k, width))
        want = np.array([sample(point_rng) for _ in range(k)])
        assert block.shape == want.shape == (k, inst.A.in_dim)
        assert block.tobytes() == want.tobytes()
        assert block_rng.state == point_rng.state


with open(os.path.join(os.path.dirname(__file__), "verify_golden.json")) as _fh:
    VERIFY_GOLDEN = json.load(_fh)


@pytest.mark.parametrize("key", sorted(VERIFY_GOLDEN))
def test_verify_report_matches_golden(capsys, key):
    # `fomcert verify` at its default 10,000 samples; JSON floats round-trip
    # exactly, so equal reports have equal bits.
    name, seed = key.split(":")
    code = cli.main(["verify", "--instance", name, "--seed", seed])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == VERIFY_GOLDEN[key]


def test_reference_optimum_by_long_run():
    inst = make_instance("lasso", seed=0)
    value, point = reference_optimum(inst, budget=3000)
    assert abs(inst.primal_value(point) - value) <= 1e-12
    # A short run from scratch cannot beat the long reference by much.
    trace = run(inst, ProxGradient(iterations=100), reference=(value, point))
    assert trace.final.primal >= value - 1e-9
