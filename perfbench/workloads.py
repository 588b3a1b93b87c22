"""The benchmark's workloads: fixed job lists built from the workload seed.

A job is one thing a user waits for: a run (set-up, certified solve, then
trace.csv and summary.json on disk) or a constant check.  ``desk`` drives
the package through ``cli.main``, so every job builds its own instance;
``large-n`` and ``verify`` call the library and share instances between
jobs, built once per run (``large-n``) or once per round (``verify``).
Every job runs to completion before the next starts.
"""

import contextlib
import hashlib
import io
import json
import os
import time

from fomcert import cli, methods, problems

# The registry's instance x compatible-method configs (methods.compatible_configs).
REGISTRY_RUNS = [
    ("simplex-quadratic", {"name": "prox_gradient"}),
    ("lasso", {"name": "prox_gradient"}),
    ("lasso", {"name": "fast_gradient"}),
    ("poisson-burg", {"name": "prox_gradient"}),
    ("l1-regression", {"name": "prox_subgradient"}),
    ("holder", {"name": "universal_gradient", "eps": 1e-3}),
    ("cg-ball", {"name": "conditional_subgradient"}),
    ("cg-ball", {"name": "conditional_subgradient", "schedule": "linesearch"}),
]

DESK_ITERATIONS = 1000

# n = 1000: a dense 1500 x 1000 lasso map (12 MB) and the entropy simplex.
LARGE_INSTANCES = {
    "lasso-n1000": ("lasso", {"n": 1000, "m": 1500}),
    "simplex-quadratic-n1000": ("simplex-quadratic", {"n": 1000}),
}
LARGE_RUNS = [
    ("lasso-n1000", {"name": "prox_gradient"}),
    ("lasso-n1000", {"name": "fast_gradient"}),
    ("simplex-quadratic-n1000", {"name": "prox_gradient"}),
]
LARGE_ITERATIONS = 60
LARGE_VERIFY_SAMPLES = 20

VERIFY_SAMPLES = 2000
VERIFY_RUN_ITERATIONS = 100


def job_id(instance, spec):
    parts = ["run", instance, spec["name"]]
    if "schedule" in spec:
        parts.append(spec["schedule"])
    return ":".join(parts)


def _hash_trace(rec, out):
    """Record the sha256 of the job's trace.csv, outside the job's timing."""
    path = os.path.join(out, "trace.csv")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()


class Recorder:
    """Times the four public entry points a job passes through.

    ``install`` replaces ``problems.make_instance``, ``problems.reference_optimum``,
    ``methods.run`` and ``problems.verify_constants`` with timing wrappers
    that add into ``current``, the record of the job in progress.  Each
    duration goes under its key scaled to reference host speed by ``speed``
    (a speed.HostSpeed; None, or a job opened with ``scaled=False``, keeps
    it as measured) and under ``raw_<key>`` as measured.
    """

    def __init__(self, speed=None):
        self.speed = speed
        self.current = None
        self._saved = []

    def _probe(self):
        if self.speed is not None:
            self.speed.probe()

    def _add(self, rec, key, t0, t1):
        rec["raw_" + key] = rec.get("raw_" + key, 0.0) + t1 - t0
        if self.speed is not None and rec["scaled"]:
            t1 = t0 + self.speed.normalize(t0, t1)
        rec[key] = rec.get(key, 0.0) + t1 - t0

    def _timed(self, fn, key):
        recorder = self

        def wrapper(*args, **kwargs):
            recorder._probe()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                recorder._probe()
                if recorder.current is not None:
                    recorder._add(recorder.current, key, t0, t1)

        return wrapper

    def _timed_run(self, fn):
        recorder = self

        def wrapper(*args, **kwargs):
            # check=False runs are the reference optimum's, already in setup_s.
            check = kwargs.get("check", args[4] if len(args) > 4 else True)
            if not check or recorder.current is None:
                return fn(*args, **kwargs)
            recorder._probe()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            recorder._probe()
            rec = recorder.current
            recorder._add(rec, "solve_s", t0, t1)
            rec["iterations"] = rec.get("iterations", 0) + len(result.rows)
            return result

        return wrapper

    def install(self):
        for owner, attr, wrap in (
                (problems, "make_instance", lambda f: self._timed(f, "setup_s")),
                (problems, "reference_optimum", lambda f: self._timed(f, "setup_s")),
                (problems, "verify_constants", lambda f: self._timed(f, "verify_s")),
                (methods, "run", self._timed_run)):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextlib.contextmanager
    def job(self, jid, kind, records, scaled=True):
        """Time one job; an exception inside it marks the job failed."""
        rec = {"id": jid, "kind": kind, "ok": False, "scaled": scaled}
        self.current = rec
        self._probe()
        t0 = time.perf_counter()
        try:
            yield rec
        except Exception as exc:  # a crashing job is a failed job, not a crash
            if kind == "setup":
                raise
            rec["reason"] = "%s: %s" % (type(exc).__name__, exc)
        finally:
            t1 = time.perf_counter()
            self._probe()
            self._add(rec, "wall_s", t0, t1)
            self.current = None
            records.append(rec)


class Workload:
    """One workload at one seed.  ``round`` runs the job list once."""

    def __init__(self, name, seed, out_dir, recorder):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.recorder = recorder
        self.instances = None

    def job_dir(self, jid):
        """A fresh output directory for the job: earlier outputs are removed."""
        path = os.path.join(self.out_dir, "jobs", self.name,
                            jid.replace(":", "_"))
        os.makedirs(path, exist_ok=True)
        for name in ("trace.csv", "summary.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(path, name))
        return path

    def setup(self, records):
        """Once-per-run set-up, timed as its own record (large-n only)."""
        if self.name != "large-n":
            return
        # The n = 1000 builds and runs are BLAS-bound: kept as measured.
        with self.recorder.job("setup", "setup", records, scaled=False) as rec:
            self.instances = {
                key: problems.make_instance(name, seed=self.seed, **params)
                for key, (name, params) in LARGE_INSTANCES.items()}
            rec["ok"] = True

    def round(self, index, records):
        if self.name == "desk":
            self._desk(records)
        elif self.name == "large-n":
            self._library_runs(self.instances, LARGE_RUNS, LARGE_ITERATIONS,
                               records)
            for key, inst in self.instances.items():
                self._verify(key, inst, LARGE_VERIFY_SAMPLES, index, records)
        else:
            with self.recorder.job("setup", "setup", records) as rec:
                instances = {name: problems.make_instance(name, seed=self.seed)
                             for name in problems.REGISTRY_NAMES}
                rec["ok"] = True
            for name, inst in instances.items():
                self._verify(name, inst, VERIFY_SAMPLES, index, records)
            self._library_runs(instances, REGISTRY_RUNS, VERIFY_RUN_ITERATIONS,
                               records)

    def _desk(self, records):
        # Checks alternate with runs, so both are timed across the whole round.
        checks = list(problems.REGISTRY_NAMES)
        for name, spec in REGISTRY_RUNS:
            self._cli_run(name, spec, records)
            if checks:
                self._cli_verify(checks.pop(0), records)

    def _cli_run(self, name, spec, records):
        jid = job_id(name, spec)
        out = self.job_dir(jid)
        config = {"instance": {"name": name, "seed": self.seed},
                  "method": spec, "iterations": DESK_ITERATIONS,
                  "reference": True}
        cfg_path = os.path.join(out, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        with self.recorder.job(jid, "run", records) as rec:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["run", "--config", cfg_path, "--out", out])
            rec["ok"] = code == cli.EXIT_OK
            if not rec["ok"]:
                rec["reason"] = "exit %d: %s" % (code, err.getvalue()[:200])
        _hash_trace(rec, out)

    def _cli_verify(self, name, records):
        with self.recorder.job("verify:" + name, "verify", records) as rec:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", "--instance", name, "--seed",
                                 str(self.seed)])
            report = json.loads(buf.getvalue())
            rec["samples"] = report["samples"]
            rec["ok"] = code == cli.EXIT_OK and report["passed"] is True
            if not rec["ok"]:
                rec["reason"] = "exit %d, max_ratio %r" % (code, report["max_ratio"])

    def _library_runs(self, instances, runs, iterations, records):
        for key, spec in runs:
            jid = job_id(key, spec)
            out = self.job_dir(jid)
            with self.recorder.job(jid, "run", records,
                                   scaled=self.name != "large-n") as rec:
                config = cli.config_from_dict(spec, iterations)
                result = methods.run(instances[key], config)
                result.write_csv(os.path.join(out, "trace.csv"))
                result.write_summary(os.path.join(out, "summary.json"))
                rec["ok"] = not result.violations
                if not rec["ok"]:
                    rec["reason"] = "violation: %s" % result.violations[0]
            _hash_trace(rec, out)

    def _verify(self, key, instance, samples, index, records):
        # A fresh sample seed each round, so repeated rounds evaluate new points.
        with self.recorder.job("verify:" + key, "verify", records) as rec:
            report = problems.verify_constants(
                instance, samples=samples, seed=1000003 * self.seed + index + 1)
            rec["samples"] = report["samples"]
            rec["ok"] = report["passed"] is True
            if not rec["ok"]:
                rec["reason"] = "max_ratio %r" % report["max_ratio"]
