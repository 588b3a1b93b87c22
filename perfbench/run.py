"""Layered run benchmark for fomcert.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Runs one workload from a single process, one job at a time, with BLAS
threads pinned to 1, against the sources in ``src/`` of this checkout.

With ``--trace 0`` it repeats the workload's round of jobs until
``--seconds`` have passed (always at least one whole round) and reports the
end-to-end metrics.  Durations of interpreter-bound work are scaled to the
host's reference speed by probes taken around them (see speed.py); each
metric is also printed as measured.  With ``--trace 1`` it runs one
untraced round and one traced round, checks that both write the same trace
bytes and that every named layer boundary recorded a span, and reports the
per-layer metrics.

A job fails on a nonzero exit, a recorded violation, a trace.csv hash that
differs from ``golden.json`` (recorded for seeds 0 and 91), or a constant
check that does not pass.  The last line of standard output is one JSON
object; the exit code is 1 when anything failed.  Job outputs, a result
file with the run environment, and the traced spans go to ``.perfbench_out/``.
"""

import os
import sys

# Before numpy is imported anywhere: one BLAS/OpenMP thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("desk", "large-n", "verify")
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("solve_us_per_iter", "us"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("verify_us_per_sample", "us"),
    ("peak_rss_mb", "MB"),
]

# Named boundaries each workload must reach, as groups of sites: a group is
# covered when any of its sites recorded a span.
_CORE = [
    ["engine.finish_trial"], ["engine.commit"], ["engine.certificate"],
    ["engine.identity_residuals"], ["engine.d_conjugate"], ["engine.prox_step"],
    ["steprules.propose"], ["methods.backtrack"], ["methods.run"],
    ["methods.rate_bound"], ["methods._check_row"],
    ["oracles.f.value"], ["oracles.f.subgradient"], ["oracles.f.conjugate"],
    ["linalg.apply"], ["linalg.adjoint_apply"],
    ["problems.make_instance"], ["problems.verify_constants"],
    ["trace.Trace.write_csv"],
]
_REGISTRY_ONLY = [
    ["engine.propose"], ["methods.linesearch_cg"], ["steprules.segment_excess"],
]


def _psi_groups(spans):
    return [[s for s in spans.SITE_NAMES
             if s.startswith("oracles.psi.") and s.endswith("." + m)]
            for m in ("value", "conjugate", "linmin")]


def expected_coverage(workload, spans):
    layers = [[s for s in spans.SITE_NAMES if spans.SITE_LAYER[s] == layer]
              for layer in ("reference", "kernels")]
    groups = _CORE + layers + _psi_groups(spans)[:2]
    if workload == "large-n":
        return groups
    groups += _REGISTRY_ONLY + _psi_groups(spans)[2:]
    if workload == "desk":
        groups.append(["problems.reference_optimum"])
    return groups


def environment(fomcert):
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return "%s %s" % (dep.get("name"), dep.get("version"))
        except (TypeError, KeyError, ValueError):
            return "unknown"

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in ("index2", "index3"):
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches["L" + level] = fh.read().strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "kernel_implementation": fomcert.kernel_implementation,
        "caches": caches,
        "note": "large-n's 1500x1000 float64 map is 12 MB: it fits in L3, so "
                "linalg bytes/flops are computed from shapes and call counts "
                "and no bandwidth claim is made",
    }


def tail(values):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def check_golden(records, table):
    """Mark run jobs failed whose trace.csv differs from the recorded hash."""
    for rec in records:
        if rec["kind"] == "run" and rec.get("sha256") is not None:
            want = table.get(rec["id"])
            if rec["sha256"] != want:
                rec["ok"] = False
                rec.setdefault("reason", "trace.csv sha256 %s, golden %s"
                               % (rec["sha256"][:12], (want or "none")[:12]))


def run_rounds(wl, seconds):
    """Set up, then repeat rounds until ``seconds`` have passed and there
    are jobs enough for a tail.

    Returns the set-up phases and the rounds, each a list of job records.
    """
    setup = []
    wl.setup(setup)
    rounds = []
    jobs = 0
    t0 = time.perf_counter()
    while jobs <= TAIL_BEYOND or time.perf_counter() - t0 < seconds:
        records = []
        wl.round(len(rounds), records)
        rounds.append(records)
        jobs += sum(r["kind"] != "setup" for r in records)
    return ([setup] if setup else rounds), rounds


def _rate(records, time_key, count_key):
    count = sum(r.get(count_key, 0) for r in records)
    return 1e6 * sum(r.get(time_key, 0.0) for r in records) / count, count


def end_to_end(phases, rounds, prefix=""):
    """Each metric's (value, note on its samples) from the ``prefix``-ed
    durations of the records; rates are medians over rounds."""
    setups = [sum(r.get(prefix + "setup_s", 0.0) for r in phase) for phase in phases]
    solve = [_rate(rnd, prefix + "solve_s", "iterations") for rnd in rounds]
    verify = [_rate(rnd, prefix + "verify_s", "samples") for rnd in rounds]
    walls = [r[prefix + "wall_s"] for rnd in rounds for r in rnd
             if r["kind"] != "setup"]
    tail_value, tail_pct = tail(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_round = "median of %d round(s), %d %s in all"
    return {
        "setup_s": (statistics.median(setups),
                    "median of %d set-up phase(s)" % len(setups)),
        "solve_us_per_iter": (statistics.median(v for v, _ in solve), per_round
                              % (len(rounds), sum(n for _, n in solve), "iterations")),
        "job_s_p50": (statistics.median(walls), "n=%d jobs" % len(walls)),
        "job_s_tail": (tail_value, "p%.1f, n=%d jobs, %d beyond"
                       % (tail_pct, len(walls), TAIL_BEYOND)),
        "verify_us_per_sample": (statistics.median(v for v, _ in verify), per_round
                                 % (len(rounds), sum(n for _, n in verify), "samples")),
        "peak_rss_mb": (rss_mb, "n=1 process"),
    }


def traced(name, seed, recorder):
    """One untraced round, then one traced round of the same jobs.

    Returns the tracer, the tracing overhead in percent, the job records of
    both rounds and the coverage problems found.
    """
    import spans
    import workloads

    passes = []
    tracer = spans.Tracer()
    for with_tracing in (False, True):
        wl = workloads.Workload(name, seed, OUT, recorder)
        records = []
        if with_tracing:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.setup(records)
            wl.round(0, records)
        finally:
            tracer.remove()
        passes.append((time.perf_counter() - t0,
                       [r for r in records if r["kind"] != "setup"]))
    (plain_s, plain), (traced_s, with_spans) = passes
    for a, b in zip(plain, with_spans):
        if a.get("sha256") != b.get("sha256") and b["ok"]:
            b["ok"] = False
            b["reason"] = "traced run wrote different trace bytes"
    counts = tracer.site_counts()
    problems = ["no span recorded at %s" % " / ".join(group)
                for group in expected_coverage(name, spans)
                if not sum(counts[s] for s in group)]
    tracer.save(os.path.join(OUT, "spans-%s-seed%d.npz" % (name, seed)))
    overhead = 100.0 * (traced_s - plain_s) / plain_s
    return tracer, overhead, plain + with_spans, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fomcert", "__init__.py")):
        print("error: no fomcert sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fomcert
    if not os.path.abspath(fomcert.__file__).startswith(SRC + os.sep):
        print("error: imported fomcert from %s, not %s" % (fomcert.__file__, SRC),
              file=sys.stderr)
        return 2
    import scipy.optimize  # noqa: F401  imported lazily by two instances
    import spans
    import speed
    import workloads

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh).get(args.workload, {}).get(str(args.seed))
    os.makedirs(OUT, exist_ok=True)
    env = environment(fomcert)
    host = None if args.trace else speed.HostSpeed()
    recorder = workloads.Recorder(host)
    recorder.install()
    problems = []
    try:
        if args.trace:
            tracer, overhead, jobs, problems = traced(args.workload, args.seed,
                                                      recorder)
            values = tracer.metrics(overhead)
            bases = {"reference": "of %d reference-run iterations"
                     % tracer.iterations[spans.REFERENCE],
                     "solve": "of %d certified iterations"
                     % tracer.iterations[spans.SOLVE],
                     "verify": "of %d verify samples" % tracer.samples,
                     "linalg.bytes_per_iter": "computed from map shapes x calls",
                     "linalg.flops_per_iter": "computed from map shapes x calls"}
            metrics = {n: (values[n], u, bases.get(n, bases.get(n.rsplit(".", 1)[1], "")))
                       for n, u in spans.per_layer_specs()}
        else:
            wl = workloads.Workload(args.workload, args.seed, OUT, recorder)
            phases, rounds = run_rounds(wl, args.seconds)
            values = end_to_end(phases, rounds)
            raw = end_to_end(phases, rounds, "raw_")
            jobs = [r for rnd in rounds for r in rnd if r["kind"] != "setup"]
            metrics = {n: (values[n][0], u, "%s; %.6g as measured"
                           % (values[n][1], raw[n][0]))
                       for n, u in END_TO_END}
    finally:
        recorder.remove()
    if golden is not None:
        check_golden(jobs, golden)

    failed = [r for r in jobs if not r["ok"]]
    correct = not failed and not problems
    print("workload %s, seed %d, trace %d, golden hashes %s"
          % (args.workload, args.seed, args.trace,
             "checked" if golden is not None else "not recorded for this seed"))
    for name, (value, unit, note) in metrics.items():
        print("  %-52s %14.6g %-10s %s" % (name, value, unit, note))
    print("  %-52s %14.6g %-10s base: %d of %d attempted jobs failed"
          % ("failed_ratio", len(failed) / len(jobs), "ratio", len(failed), len(jobs)))
    for rec in failed:
        print("  FAILED %s: %s" % (rec["id"], rec.get("reason", "")))
    for problem in problems:
        print("  FAILED %s" % problem)
    print("env: %s" % json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": len(jobs), "failed": len(failed),
              "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()}}
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"env": env, "result": result, "jobs": jobs,
                   "problems": problems}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
