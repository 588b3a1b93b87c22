import json
import os
import subprocess
import sys

import pytest

from fomcert import cli, methods, problems
from fomcert.trace import CSV_HEADER, read_csv

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _write_config(path, **overrides):
    cfg = {
        "instance": {"name": "lasso", "seed": 0},
        "method": {"name": "prox_gradient"},
        "iterations": 50,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_run_success(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfgpath), "--out", str(out)])
    assert code == 0
    with open(out / "trace.csv") as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_HEADER)
    rows = read_csv(out / "trace.csv")
    assert len(rows) == 50
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    for key in ("final_gap", "final_primal", "iterations", "wall_time_ms",
                "violations"):
        assert key in summary
    assert summary["iterations"] == 50
    assert summary["violations"] == []


def test_run_csv_bit_stable(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfgpath), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfgpath), "--out", str(out2)]) == 0
    with open(out1 / "trace.csv", "rb") as fh:
        first = fh.read()
    with open(out2 / "trace.csv", "rb") as fh:
        second = fh.read()
    assert first == second


def test_run_incompatible_config_exits_1(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json",
                            instance={"name": "cg-ball", "seed": 0})
    assert cli.main(["run", "--config", str(cfgpath)]) == 1


def test_run_missing_key_exits_1(tmp_path):
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump({"instance": {"name": "lasso"}}, fh)
    assert cli.main(["run", "--config", str(path)]) == 1


def test_run_unknown_method_exits_1(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json", method={"name": "nope"})
    assert cli.main(["run", "--config", str(cfgpath)]) == 1


def test_run_unreadable_config_exits_1(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("overrides", [
    {"iterations": 0},
    {"iterations": -3},
    {"iterations": "10"},
    {"iterations": True},
    {"iterations": 10.0},
    {"method": {"name": "prox_gradient", "r": 1.0}},
    {"method": {"name": "prox_gradient", "r": 0.5}},
    {"method": {"name": "prox_gradient", "r": "2"}},
    {"method": {"name": "fast_gradient", "gamma": "2"}},
    {"method": {"name": "fast_gradient", "gamma": float("inf")}},
    {"method": {"name": "fast_gradient", "gamma": float("nan")}},
    {"method": {"name": "fast_gradient", "gamma": 0.5}},
    {"tolerance": "1e-8"},
    {"tolerance": None},
    {"tolerance": -1e-8},
    {"reference_budget": 0},
    {"reference_budget": -1},
    {"reference_budget": "5"},
    {"reference_budget": 2.5},
    {"method": "fast_gradient"},
    {"method": ["prox_gradient"]},
    {"method": None},
    {"instance": {"name": "cg-ball", "seed": 0},
     "method": {"name": "conditional_subgradient", "schedule": "linesearh"}},
    {"instance": {"name": "cg-ball", "seed": 0},
     "method": {"name": "conditional_subgradient", "schedule": None}},
    {"method": {"name": "prox_gradient", "t_init": 0}},
    {"method": {"name": "prox_gradient", "t_init": "1"}},
    {"method": {"name": "fast_gradient", "t_init": -1.0}},
    {"method": {"name": "prox_gradient", "t_init": float("inf")}},
    {"instance": {"name": "l1-regression", "seed": 0},
     "method": {"name": "prox_subgradient", "C": -1}},
    {"instance": {"name": "l1-regression", "seed": 0},
     "method": {"name": "prox_subgradient", "C": 0.0}},
    {"instance": {"name": "holder", "seed": 0},
     "method": {"name": "universal_gradient", "eps": 0}},
    {"instance": {"name": "holder", "seed": 0},
     "method": {"name": "universal_gradient", "eps": "1e-3"}},
    {"instance": {"name": "holder", "seed": 0},
     "method": {"name": "universal_gradient", "eps": float("nan")}},
    {"instance": {"name": "cg-ball", "seed": 0},
     "method": {"name": "conditional_subgradient", "nu": "x"}},
    {"instance": {"name": "cg-ball", "seed": 0},
     "method": {"name": "conditional_subgradient", "nu": -0.5}},
    {"instance": {"name": "cg-ball", "seed": 0},
     "method": {"name": "conditional_subgradient", "nu": True}},
], ids=repr)
def test_run_bad_value_exits_1(tmp_path, capsys, overrides):
    # The one stderr line names the offending key: the last top-level key
    # overridden, or within a method object its last key other than name.
    key, value = list(overrides.items())[-1]
    if key == "method" and isinstance(value, dict):
        key = [k for k in value if k != "name"][-1]
    cfgpath = _write_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["run", "--config", str(cfgpath)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("config error: %s must be " % key), err


def _config_error(tmp_path, capsys, **overrides):
    """The one stderr line of a run that must exit 1."""
    cfgpath = _write_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["run", "--config", str(cfgpath)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    return err[0]


@pytest.mark.parametrize("method", [
    {"name": "fast_gradient", "gama": 3},
    {"name": "prox_subgradient", "r": 2},
    {"name": "prox_gradient", "nu": 1},
    {"name": "conditional_subgradient", "t_init": 1.0},
], ids=repr)
def test_run_key_the_method_does_not_read_exits_1(tmp_path, capsys, method):
    key = [k for k in method if k != "name"][-1]
    line = _config_error(tmp_path, capsys, method=method)
    assert line.startswith("config error: %s is not a %s key"
                           % (key, method["name"])), line


@pytest.mark.parametrize("nu", [0.2, 3])
def test_run_cg_nu_other_than_declared_exits_1(tmp_path, capsys, nu):
    # The CG bound M((1+nu)/(k+1+nu))^nu holds only for the declared nu.
    line = _config_error(
        tmp_path, capsys, instance={"name": "cg-ball", "seed": 0},
        method={"name": "conditional_subgradient", "nu": nu})
    assert line.startswith("config error: nu must equal"), line


@pytest.mark.parametrize("instance,method,constant", [
    ("simplex-quadratic", "prox_subgradient", "M"),
    ("lasso", "prox_subgradient", "M"),
    ("poisson-burg", "prox_subgradient", "M"),
    ("simplex-quadratic", "universal_gradient", "M, nu"),
    ("lasso", "universal_gradient", "M, nu"),
    ("poisson-burg", "universal_gradient", "M, nu"),
    ("holder", "prox_gradient", "L"),
    ("holder", "fast_gradient", "L"),
])
def test_run_bound_constant_not_declared_exits_1(tmp_path, capsys, instance,
                                                  method, constant):
    line = _config_error(tmp_path, capsys,
                         instance={"name": instance, "seed": 0},
                         method={"name": method}, reference=True)
    assert line == ("config error: the %s bound reads %s, which %s does not "
                    "declare" % (method, constant, instance)), line


@pytest.mark.parametrize("instance,key", [
    ({"name": "lasso", "seed": 0, "params": {"n": 0}}, "n"),
    ({"name": "lasso", "seed": 0, "params": {"n": -5}}, "n"),
    ({"name": "lasso", "seed": 0, "params": {"n": 20.0}}, "n"),
    ({"name": "lasso", "seed": 0, "params": {"m": 0}}, "m"),
    ({"name": "lasso", "seed": 0, "params": {"m": True}}, "m"),
    ({"name": "lasso", "seed": 0, "params": {"lam": -1}}, "lam"),
    ({"name": "lasso", "seed": 0, "params": {"lam": 0}}, "lam"),
    ({"name": "lasso", "seed": 0, "params": {"lam": "0.1"}}, "lam"),
    ({"name": "lasso", "seed": 0, "params": {"lamda": 0.1}}, "lamda"),
    ({"name": "simplex-quadratic", "seed": 0,
      "params": {"reference": "euclid"}}, "reference"),
    ({"name": "poisson-burg", "seed": 0, "params": {"lo": 5.0, "hi": 1.0}},
     "lo"),
    ({"name": "holder", "seed": 0, "params": {"nu": 1.5}}, "nu"),
    ({"name": "lasso", "seed": True}, "seed"),
    ({"name": "lasso", "seed": 2**64}, "seed"),
    ({"name": "lasso", "seed": -1}, "seed"),
    ({"name": "lasso", "seed": 1.5}, "seed"),
], ids=repr)
def test_run_bad_instance_spec_exits_1(tmp_path, capsys, instance, key):
    method = ({"name": "prox_gradient"} if instance["name"] != "holder"
              else {"name": "universal_gradient"})
    line = _config_error(tmp_path, capsys, instance=instance, method=method)
    assert line.startswith("config error: %s " % key), line


@pytest.mark.parametrize("instance,method,constants", [
    ("l1-regression", "prox_subgradient", {"M": "abc"}),
    ("l1-regression", "prox_subgradient", {"M": None}),
    ("lasso", "prox_gradient", {"Q": 1}),
    ("lasso", "prox_gradient", {"L": -1}),
    ("lasso", "prox_gradient", {"L": True}),
    ("lasso", "prox_gradient", {"L": float("inf")}),
    ("lasso", "prox_gradient", {"L": 0}),
], ids=repr)
def test_run_bad_constant_override_exits_1(tmp_path, capsys, instance, method,
                                           constants):
    name = next(iter(constants))
    line = _config_error(
        tmp_path, capsys,
        instance={"name": instance, "seed": 0, "constants": constants},
        method={"name": method}, reference=True)
    assert line.startswith("config error: constants.%s " % name), line


def test_run_bad_constants_object_exits_1(tmp_path, capsys):
    line = _config_error(
        tmp_path, capsys,
        instance={"name": "lasso", "seed": 0, "constants": [["L", 1.0]]})
    assert line.startswith("config error: constants must be an object"), line


def test_run_fault_injection_exits_2(tmp_path):
    # Declaring L far too small makes the convergence-bound check fail.
    cfgpath = _write_config(
        tmp_path / "cfg.json",
        instance={"name": "lasso", "seed": 0,
                  "constants": {"L": 0.01 * _lasso_L()}},
        iterations=300, reference=True, reference_budget=3000)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfgpath), "--out", str(out)])
    assert code == 2
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["violations"]


def test_run_bad_reference_bracket_exits_2(tmp_path, capsys, monkeypatch):
    from fomcert import engine
    real = engine.certificate

    def nan_certificate(*args, **kwargs):
        cert = real(*args, **kwargs)
        cert.primal = float("nan")
        return cert

    monkeypatch.setattr(engine, "certificate", nan_certificate)
    cfgpath = _write_config(tmp_path / "cfg.json", reference=True,
                            reference_budget=50)
    assert cli.main(["run", "--config", str(cfgpath),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("reference error: "), err
    assert "non-finite primal" in err[0]


@pytest.mark.parametrize("instance,method,extra,first", [
    # The fast-gradient bound's gamma^gamma overflows a float.
    ({"name": "lasso", "seed": 0}, {"name": "fast_gradient", "gamma": 400},
     {"reference": True, "reference_budget": 50}, "violation: non-finite bound"),
    # M^(2/(1+nu)) / eps^((1-nu)/(1+nu)) overflows a float.
    ({"name": "holder", "seed": 0, "constants": {"M": 1e300}},
     {"name": "universal_gradient", "eps": 1e-300}, {},
     "violation: non-finite bound"),
    # Every trial step is so large that the projection's input is not finite.
    ({"name": "simplex-quadratic", "seed": 0,
      "params": {"reference": "euclidean"}},
     {"name": "fast_gradient", "t_init": 1e300}, {"reference": False},
     "run aborted: "),
], ids=["bound-gamma-overflow", "bound-eps-overflow", "nonfinite-projection"])
def test_run_numerical_fault_exits_2(tmp_path, capsys, instance, method, extra,
                                     first):
    cfgpath = _write_config(tmp_path / "cfg.json", instance=instance,
                            method=method, iterations=20, **extra)
    assert cli.main(["run", "--config", str(cfgpath),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith(first) for line in err), err
    with open(tmp_path / "out" / "summary.json") as fh:
        assert json.load(fh)["violations"]


def test_run_every_trial_outside_the_domain_says_so(tmp_path, capsys):
    # All 61 trial steps from t_init = 1e300 give a projection input that
    # is not finite; the declared constants are right.
    cfgpath = _write_config(
        tmp_path / "cfg.json",
        instance={"name": "simplex-quadratic", "seed": 0,
                  "params": {"reference": "euclidean"}},
        method={"name": "fast_gradient", "t_init": 1e300}, iterations=20,
        reference=False)
    assert cli.main(["run", "--config", str(cfgpath),
                     "--out", str(tmp_path / "out")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("run aborted: every trial step down to t = "), line
    assert "left the domain; the last: simplex projection of a +inf" in line
    assert "smoothness constants" not in line


# Each registry instance's methods, as test_compatible_configs_cover_registry
# in tests/test_methods.py lists them; every other pair is a config error.
_RUNS_ON = {
    "cg-ball": {"conditional_subgradient"},
    "lasso": {"prox_gradient", "fast_gradient"},
    "simplex-quadratic": {"prox_gradient"},
    "poisson-burg": {"prox_gradient"},
    "l1-regression": {"prox_subgradient"},
    "holder": {"universal_gradient"},
}


@pytest.mark.parametrize("method", sorted(methods.METHODS))
@pytest.mark.parametrize("instance", sorted(problems.REGISTRY_NAMES))
def test_run_truth_table(tmp_path, capsys, instance, method):
    cfgpath = _write_config(tmp_path / "cfg.json",
                            instance={"name": instance, "seed": 0},
                            method={"name": method}, iterations=5,
                            reference=False)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfgpath), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if method in _RUNS_ON[instance]:
        assert code == 0 and err == [], err
    else:
        assert code == 1
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not (out / "trace.csv").exists()


def _module_cli(*args):
    """Run python -m fomcert.cli with the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fomcert.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_module_entry_point_verify_exits_0():
    done = _module_cli("verify", "--instance", "lasso", "--samples", "50")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True


def test_module_entry_point_bad_config_exits_1(tmp_path):
    done = _module_cli("run", "--config", str(tmp_path / "missing.json"))
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert line.startswith("config error: cannot read config"), line


@pytest.mark.parametrize("overrides,prefix", [
    # A misspelt key used to run with the default it was meant to replace.
    ({"tolerence": 1e-30},
     "tolerence is not a run config key (it reads instance, iterations, "
     "method, out, reference, reference_budget, tolerance)"),
    ({"refrence": False}, "refrence is not a run config key"),
    ({"instance": {"name": "lasso", "param": {"n": 5}}},
     "param is not a config instance key (it reads constants, name, params, "
     "seed)"),
    ({"instance": ["lasso"]}, "config instance must be an object"),
    ({"instance": {"name": "lasso", "params": [["n", 5]]}},
     "params must be an object"),
    ({"reference": "no"}, "reference must be a boolean"),
    ({"reference": 0}, "reference must be a boolean"),
    ({"out": 5}, "out must be a string"),
], ids=["tolerence", "refrence", "instance-param", "instance-list",
        "params-list", "reference-str", "reference-int", "out-int"])
def test_module_entry_point_bad_run_config_prints_one_line(tmp_path, overrides,
                                                            prefix):
    cfgpath = _write_config(tmp_path / "cfg.json", **overrides)
    done = _module_cli("run", "--config", str(cfgpath))
    assert done.returncode == 1, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("config error: " + prefix), line


def test_module_entry_point_out_naming_a_file_prints_one_line(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    (tmp_path / "taken").write_text("")
    done = _module_cli("run", "--config", str(cfgpath),
                       "--out", str(tmp_path / "taken"))
    assert done.returncode == 1, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("config error: "), line


@pytest.mark.parametrize("reference", [True, False])
def test_module_entry_point_infeasible_start_prints_one_line(tmp_path,
                                                             reference):
    # The start point 1 lies outside the box [2, 10]; the reference run
    # (reference true) or the run itself stops on it.
    cfgpath = _write_config(
        tmp_path / "cfg.json",
        instance={"name": "poisson-burg", "params": {"lo": 2.0, "hi": 10.0}},
        reference=reference, reference_budget=20)
    done = _module_cli("run", "--config", str(cfgpath),
                       "--out", str(tmp_path / "out"))
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        "run aborted: starting point outside dom(Psi)"], done.stderr
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_module_entry_point_unwritable_trace_prints_one_line(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    (tmp_path / "out" / "trace.csv").mkdir(parents=True)
    done = _module_cli("run", "--config", str(cfgpath),
                       "--out", str(tmp_path / "out"))
    assert done.returncode == 1, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("config error: cannot write outputs: "), line
    assert "trace.csv" in line, line


def test_module_entry_point_overflowing_step_prints_one_line(tmp_path):
    # t * c overflows in the box prox before the step's weight does; no
    # floating-point warning of numpy's may reach stderr.
    cfgpath = _write_config(tmp_path / "cfg.json",
                            instance={"name": "l1-regression", "seed": 0},
                            method={"name": "prox_subgradient", "C": 1.7e308},
                            iterations=60)
    done = _module_cli("run", "--config", str(cfgpath),
                       "--out", str(tmp_path / "out"))
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("run aborted: "), line


def _lasso_L():
    from fomcert.problems import make_instance
    return make_instance("lasso", seed=0).constants["L"]


def test_verify_ok(capsys):
    assert cli.main(["verify", "--instance", "lasso",
                     "--samples", "500"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["max_ratio"] <= 1.0


def test_verify_cg_ball(capsys):
    assert cli.main(["verify", "--instance", "cg-ball",
                     "--samples", "500"]) == 0


def test_verify_fault_injection(capsys):
    assert cli.main(["verify", "--instance", "l1-regression",
                     "--samples", "500",
                     "--scale-constant", "M=0.01"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]


@pytest.mark.parametrize("instance,scaled", [
    ("lasso", "L=1e-14"), ("holder", "M=1e-16"), ("cg-ball", "M=1e-14")])
def test_verify_near_zero_constant_exits_2(capsys, instance, scaled):
    # The right side shrinks with the constant; the samples skipped as zero
    # to rounding must not, or every sample is skipped and verify passes.
    assert cli.main(["verify", "--instance", instance, "--samples", "500",
                     "--scale-constant", scaled]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"] and report["max_ratio"] > 1e6, report


@pytest.mark.parametrize("factor", ["-1", "0", "nan", "inf", "-inf"])
def test_verify_bad_scale_factor_exits_1(capsys, factor):
    # A scaled constant that is not finite and > 0 used to pass every check.
    assert cli.main(["verify", "--instance", "lasso", "--samples", "50",
                     "--scale-constant", "L=" + factor]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "config error: bad --scale-constant 'L=%s' (the scaled L " % factor), err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_without_samples_exits_1(capsys, samples):
    assert cli.main(["verify", "--instance", "lasso",
                     "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: samples"), err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_seed_out_of_range_exits_1(capsys, seed):
    assert cli.main(["verify", "--instance", "lasso", "--samples", "10",
                     "--seed", seed]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: seed "), err


def test_verify_bad_flag():
    assert cli.main(["verify", "--instance", "l1-regression",
                     "--scale-constant", "bogus"]) == 1
    assert cli.main(["verify", "--instance", "nope"]) == 1


def test_rates(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json",
                            method={"name": "fast_gradient"},
                            iterations=400, reference=True,
                            reference_budget=4000)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfgpath),
                     "--out", str(out)]) == 0
    code = cli.main(["rates", "--trace", str(out / "trace.csv")])
    assert code == 0


def test_rates_slope_value(tmp_path, capsys):
    cfgpath = _write_config(tmp_path / "cfg.json",
                            method={"name": "fast_gradient"},
                            iterations=400, reference=True,
                            reference_budget=4000)
    out = tmp_path / "out"
    cli.main(["run", "--config", str(cfgpath), "--out", str(out)])
    capsys.readouterr()
    cli.main(["rates", "--trace", str(out / "trace.csv"), "--tail", "0.5"])
    report = json.loads(capsys.readouterr().out)
    assert report["fitted_slope"] < -1.0
    assert report["theory_exponent"] == -2.0


def test_rates_missing_summary_exits_1(tmp_path):
    assert cli.main(["rates", "--trace", str(tmp_path / "none.csv")]) == 1


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("k,t,wrong\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


@pytest.mark.parametrize("name,config", [
    ("cg-ball", methods.ConditionalSubgradient(iterations=30)),
    ("lasso", methods.ProxGradient(iterations=30)),  # no reference
], ids=["cg-ball", "lasso"])
def test_read_csv_round_trips_write_csv(tmp_path, name, config):
    trace = methods.run(problems.make_instance(name, seed=0), config)
    trace.write_csv(tmp_path / "trace.csv")
    rows = read_csv(tmp_path / "trace.csv")
    assert rows == trace.rows
    assert all((row.cggap is None) == (name == "lasso") for row in rows)
    assert all((row.bound is None) == (name == "lasso") for row in rows)


def test_blank_required_cell_is_rejected(tmp_path, capsys):
    trace = methods.run(problems.make_instance("lasso", seed=0),
                        methods.ProxGradient(iterations=30))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[CSV_HEADER.index("primal")] = ""
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="blank primal"):
        read_csv(path)
    (tmp_path / "summary.json").write_text('{"reference_value": 0.0}')
    assert cli.main(["rates", "--trace", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: blank primal cell in a trace row"], err


@pytest.mark.parametrize("schedule", ["theta", "linesearch"])
def test_cg_ball_trace_bytes_do_not_read_the_reference(tmp_path, schedule):
    # The CG bound is on the gap and needs no optimum, so the default
    # reference (cg-ball registers a solver) changes summary.json only.
    method = {"name": "conditional_subgradient", "schedule": schedule}
    traces = {}
    for reference in (False, None):
        extra = {} if reference is None else {"reference": reference}
        cfgpath = _write_config(tmp_path / "cfg.json",
                                instance={"name": "cg-ball", "seed": 0},
                                method=method, iterations=100, **extra)
        out = tmp_path / str(reference)
        assert cli.main(["run", "--config", str(cfgpath),
                         "--out", str(out)]) == 0
        traces[reference] = (out / "trace.csv").read_bytes()
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert ("reference_value" in summary) == (reference is None)
    assert traces[False] == traces[None]


@pytest.mark.parametrize("instance,method,codes,prefix", [
    # The optimum is the start point, so every trial passes and the upward
    # probe grows t until the steps' sum T would overflow.
    ({"name": "simplex-quadratic", "params": {"n": 1}},
     {"name": "prox_gradient"}, (0, 2), "run aborted: "),
    ({"name": "lasso", "params": {"lam": 1e6}},
     {"name": "prox_gradient"}, (0, 2), "run aborted: "),
    # (2 radius)^2 in the curvature constant overflows.
    ({"name": "cg-ball", "params": {"radius": 1e300}},
     {"name": "conditional_subgradient"}, (1,),
     "config error: a declared constant of cg-ball overflows"),
    # (2 radius)^2 underflows to a curvature constant of 0.
    ({"name": "cg-ball", "params": {"radius": 1e-300}},
     {"name": "conditional_subgradient"}, (1,),
     "config error: the declared constant M must be a finite number > 0"),
    # linprog fails on the box.
    ({"name": "l1-regression", "params": {"box": 1e300}},
     {"name": "prox_subgradient"}, (2,), "reference error: linprog failed"),
], ids=["simplex-n1", "lasso-lam1e6", "cg-ball-radius1e300",
        "cg-ball-radius1e-300", "l1-regression-box1e300"])
def test_degenerate_config_exits_without_traceback(tmp_path, capsys, instance,
                                                   method, codes, prefix):
    cfgpath = _write_config(tmp_path / "cfg.json", instance=instance,
                            method=method, iterations=60, reference=True,
                            reference_budget=60)
    code = cli.main(["run", "--config", str(cfgpath),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code in codes, err
    assert len(err) == (code != 0), err
    assert all(line.startswith(prefix) for line in err), err


def test_aborted_run_summary_has_the_trace_shape(tmp_path, capsys):
    # The start (all ones) lies outside the box [2, 10], so the run aborts;
    # its summary.json is written as every summary is, by the trace.
    cfgpath = _write_config(
        tmp_path / "cfg.json",
        instance={"name": "poisson-burg", "seed": 0,
                  "params": {"lo": 2.0, "hi": 10.0}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfgpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("run aborted: "), err
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    assert summary == {"instance": "poisson-burg", "method": "prox_gradient",
                       "violations": err}
    assert text == json.dumps(summary, indent=2) + "\n"
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("tail", ["1.5", "3", "0", "-1", "nan"])
def test_rates_tail_outside_unit_interval_exits_1(tmp_path, capsys, tail):
    trace = methods.run(problems.make_instance("lasso", seed=0),
                        methods.ProxGradient(iterations=30))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    (tmp_path / "summary.json").write_text('{"reference_value": 0.0}')
    capsys.readouterr()
    assert cli.main(["rates", "--trace", str(path), "--tail", tail]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: tail must be in (0, 1], got %r"
                   % float(tail)], err
    # The whole trace is a tail.
    assert cli.main(["rates", "--trace", str(path), "--tail", "1"]) == 0
