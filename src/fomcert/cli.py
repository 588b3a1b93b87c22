"""Command-line harness: run experiments, verify condition constants, and
fit empirical convergence rates from trace files."""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import methods, problems, trace as trace_mod
from .methods import ConfigError, check_number, check_positive_int
from .prox import NotAdmissible
from .steprules import BacktrackFailed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2


def config_from_dict(spec, iterations):
    """The method config a JSON method spec describes."""
    method = methods.METHODS.get(spec.get("name"))
    if method is None:
        raise ConfigError("unknown method %r" % (spec.get("name"),))
    return method.from_spec(spec, iterations)


# The keys a run config reads, at its top level and in its instance object.
_RUN_KEYS = ("instance", "method", "iterations", "reference",
             "reference_budget", "tolerance", "out")
_INSTANCE_KEYS = ("name", "seed", "params", "constants")


def _check_object(value, what, keys=()):
    """Reject a value that is not a JSON object or has a key outside keys."""
    if not isinstance(value, dict):
        raise ConfigError("%s must be an object, got %r" % (what, value))
    for key in value:
        if keys and key not in keys:
            raise ConfigError("%s is not a %s key (it reads %s)"
                              % (key, what, ", ".join(sorted(keys))))


def _load_run_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    _check_object(cfg, "run config", _RUN_KEYS)
    for key in ("instance", "method", "iterations"):
        if key not in cfg:
            raise ConfigError("config missing %r" % key)
    _check_object(cfg["instance"], "config instance", _INSTANCE_KEYS)
    _check_object(cfg["instance"].get("params", {}), "params")
    _check_object(cfg["method"], "method")
    check_positive_int(cfg["iterations"], "iterations")
    if "reference_budget" in cfg:
        check_positive_int(cfg["reference_budget"], "reference_budget")
    for key, kind, name in (("reference", bool, "boolean"), ("out", str, "string")):
        if key in cfg and not isinstance(cfg[key], kind):
            raise ConfigError("%s must be a %s, got %r" % (key, name, cfg[key]))
    return cfg


def cmd_run(args):
    try:
        cfg = _load_run_config(args.config)
        inst_spec = cfg["instance"]
        instance = problems.make_instance(
            inst_spec.get("name"), seed=inst_spec.get("seed", 0),
            **inst_spec.get("params", {}))
        # Declared-constant overrides, mainly for fault-injection checks.
        overrides = inst_spec.get("constants", {})
        _check_object(overrides, "constants")
        problems.check_constants(instance, overrides, "constants.")
        instance.constants.update(overrides)
        config = config_from_dict(cfg["method"], cfg["iterations"])
        config.check_compatible(instance)
        tol = cfg.get("tolerance", methods.DEFAULT_TOL)
        check_number(tol, "tolerance", 0.0)
        out_dir = args.out or cfg.get("out", ".")
        os.makedirs(out_dir, exist_ok=True)
    except (ConfigError, KeyError, TypeError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    aborted = None
    try:
        reference = None
        # By default, a run gets a reference where the instance registers a
        # solver for its optimum; reading the solver does not run it.
        if cfg.get("reference", instance.solve_optimum is not None):
            reference = problems.reference_optimum(
                instance, budget=cfg.get("reference_budget", 20000))
        result = methods.run(instance, config, reference=reference, tol=tol)
    except methods.ReferenceBracketError as exc:
        print("reference error: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, BacktrackFailed, NotAdmissible) as exc:
        # A numerical fault (InfeasibleStart, DomainError, StepOutOfRange, a
        # step whose every trial failed) in the run or its reference run.
        aborted = "run aborted: %s" % exc
        result = trace_mod.Trace(instance.name, config.name)
        result.violation(aborted)
    try:
        if aborted is None:
            result.write_csv(os.path.join(out_dir, "trace.csv"))
        result.write_summary(os.path.join(out_dir, "summary.json"))
    except OSError as exc:
        print("config error: cannot write outputs: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    errors = ([aborted] if aborted else
              ["violation: %s" % v for v in result.violations[:20]])
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return EXIT_VIOLATION
    print("ok: %d iterations, final gap %.6e"
          % (len(result.rows), result.final.gap))
    return EXIT_OK


def cmd_verify(args):
    try:
        check_positive_int(args.samples, "samples")
        instance = problems.make_instance(args.instance, seed=args.seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    overrides = {}
    for item in args.scale_constant or []:
        try:
            name, factor = item.split("=")
            scaled = {name: instance.constants.get(name, 1.0) * float(factor)}
            problems.check_constants(instance, scaled, "the scaled ")
            overrides.update(scaled)
        except ValueError as exc:
            print("config error: bad --scale-constant %r (%s)" % (item, exc),
                  file=sys.stderr)
            return EXIT_CONFIG
    report = problems.verify_constants(instance, samples=args.samples,
                                       seed=args.seed + 1,
                                       constants=overrides or None)
    print(json.dumps(report, indent=2, default=float))
    return EXIT_OK if report["passed"] else EXIT_VIOLATION


def fit_tail_slope(rows, reference_value, tail_fraction=0.5):
    """Least-squares slope of log(suboptimality) against log(k) over the
    final tail_fraction, in (0, 1], of the trace."""
    if not 0.0 < tail_fraction <= 1.0:  # NaN included
        raise ConfigError("tail must be in (0, 1], got %r" % (tail_fraction,))
    ks, vals = [], []
    start = int(len(rows) * (1.0 - tail_fraction))
    for r in rows[start:]:
        sub = r.primal - reference_value
        if sub > 0 and math.isfinite(sub):
            ks.append(math.log(r.k))
            vals.append(math.log(sub))
    if len(ks) < 10:
        raise ValueError("fewer than 10 usable rows in the trace tail")
    slope = float(np.polyfit(ks, vals, 1)[0])
    return slope


def cmd_rates(args):
    try:
        rows = trace_mod.read_csv(args.trace)
        summary_path = args.summary or os.path.join(
            os.path.dirname(os.path.abspath(args.trace)), "summary.json")
        with open(summary_path) as fh:
            summary = json.load(fh)
        slope = fit_tail_slope(rows, summary["reference_value"], args.tail)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    report = {
        "method": summary.get("method"),
        "rows": len(rows),
        "tail_fraction": args.tail,
        "fitted_slope": slope,
        "theory_exponent": getattr(methods.METHODS.get(summary.get("method")),
                                   "theory_exponent", None),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="fomcert",
                                description="first-order methods with "
                                            "certified duality gaps")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a configured experiment")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_run)

    pv = sub.add_parser("verify", help="verify declared condition constants")
    pv.add_argument("--instance", required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=10000)
    pv.add_argument("--scale-constant", action="append", metavar="NAME=FACTOR")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("rates", help="fit the empirical convergence rate")
    pt.add_argument("--trace", required=True)
    pt.add_argument("--summary", default=None)
    pt.add_argument("--tail", type=float, default=0.5)
    pt.set_defaults(func=cmd_rates)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # A non-finite value fails closed as a violation or an aborted run, so
    # numpy's floating-point warnings would only add stderr lines.
    with np.errstate(all="ignore"):
        return args.func(args)


def main_script():
    sys.exit(main())


if __name__ == "__main__":
    main_script()
