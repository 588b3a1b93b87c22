"""Span tracing of fomcert's layer boundaries, wrapped from outside the package.

Each wrapped call records one span: its site (the name the caller looks up),
start and end (perf_counter_ns), its parent span and the run context it
belongs to.  Spans live in flat arrays in memory, are reduced to per-layer
metrics when the traced pass ends, and are written out with numpy.

Contexts split every layer metric by why the work happened:
``reference`` is set-up work (``problems.reference_optimum`` and the
``check=False`` runs inside it), ``solve`` is the certified ``methods.run``,
``verify`` is ``problems.verify_constants``.
"""

import os
import time
from array import array

import numpy as np

from fomcert import _kernels, engine, linalg, methods, oracles, problems
from fomcert import reference as reference_mod
from fomcert import steprules, trace

OTHER, REFERENCE, SOLVE, VERIFY = range(4)
SPLITS = {"reference": REFERENCE, "solve": SOLVE}

# Function-valued attributes to wrap: (site, owner, attribute, layer).  The
# site names the lookup a caller performs, so two names bound to one
# function (engine.propose, steprules.propose) are two sites.
_SITES = [
    ("engine.propose", engine, "propose", "engine"),
    ("steprules.propose", steprules, "propose", "engine"),
    ("engine.finish_trial", engine, "finish_trial", "engine"),
    ("engine.commit", engine, "commit", "engine"),
    ("engine.certificate", engine, "certificate", "engine"),
    ("engine.identity_residuals", engine, "identity_residuals", "engine"),
    ("engine.d_conjugate", engine, "d_conjugate", "engine"),
    ("engine.prox_step", engine, "prox_step", "prox"),
    ("methods.backtrack", methods, "backtrack", "steprules"),
    ("methods.linesearch_cg", methods, "linesearch_cg", "steprules"),
    ("steprules._condition_holds", steprules, "_condition_holds", "steprules"),
    ("steprules.segment_excess", steprules, "segment_excess", "steprules"),
    ("methods.run", methods, "run", "methods"),
    ("methods.rate_bound", methods, "rate_bound", "methods"),
    ("methods._check_row", methods, "_check_row", "methods"),
    ("problems.make_instance", problems, "make_instance", "problems"),
    ("problems.reference_optimum", problems, "reference_optimum", "problems"),
    ("problems.verify_constants", problems, "verify_constants", "problems"),
    ("trace.Trace.write_csv", trace.Trace, "write_csv", "trace"),
    ("linalg.apply", linalg.LinearMap, "apply", "linalg"),
    ("linalg.adjoint_apply", linalg.LinearMap, "adjoint_apply", "linalg"),
]
for _name in ("soft_threshold", "project_simplex", "entropy_prox_simplex",
              "sq_euclid_bregman", "entropy_bregman", "burg_bregman"):
    _SITES.append(("_kernels." + _name, _kernels, _name, "kernels"))
for _cls in (oracles.ZeroFunction, oracles.L1Norm, oracles.BoxIndicator,
             oracles.SimplexIndicator, oracles.L1BallIndicator):
    for _name in ("value", "conjugate", "linmin"):
        if _name in vars(_cls):
            _SITES.append(("oracles.psi.%s.%s" % (_cls.__name__, _name),
                           _cls, _name, "oracles"))
for _cls in (reference_mod.SquaredEuclidean, reference_mod.Entropy,
             reference_mod.Burg, reference_mod.ZeroReference):
    for _name in ("value", "gradient", "bregman"):
        _SITES.append(("reference.%s.%s" % (_cls.__name__, _name),
                       _cls, _name, "reference"))
# The smooth part f is a per-instance bundle of closures; its fields are
# wrapped on every instance that problems.make_instance returns.
_F_FIELDS = ("value", "subgradient", "conjugate")
SITE_NAMES = [s[0] for s in _SITES] + ["oracles.f." + f for f in _F_FIELDS]
SITE_LAYER = {s[0]: s[3] for s in _SITES}
SITE_LAYER.update({"oracles.f." + f: "oracles" for f in _F_FIELDS})

ENGINE_FUNCS = ("propose", "finish_trial", "commit", "certificate",
                "identity_residuals", "d_conjugate")
ORACLE_CALLS = ("f.value", "f.subgradient", "f.conjugate", "psi.value",
                "psi.conjugate", "linmin")
PER_ITER_LAYERS = ("prox", "reference", "kernels")


def _oracle_label(site):
    """Map an oracle site to its ORACLE_CALLS label."""
    if site.startswith("oracles.f."):
        return site[len("oracles."):]
    method = site.rsplit(".", 1)[1]
    return "linmin" if method == "linmin" else "psi." + method


def per_layer_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for split in SPLITS:
        for fn in ENGINE_FUNCS:
            specs.append(("engine.%s.calls_per_iter.%s" % (fn, split), "1/iter"))
            specs.append(("engine.%s.self_us_per_iter.%s" % (fn, split), "us/iter"))
        specs += [
            ("steprules.trials_per_iter.%s" % split, "1/iter"),
            ("steprules.accept_ratio.%s" % split, "ratio"),
            ("steprules.domain_rejections.%s" % split, "count"),
            ("steprules.linesearch_evals_per_iter.%s" % split, "1/iter"),
            ("steprules.self_us_per_iter.%s" % split, "us/iter"),
            ("methods.check_row_us_per_iter.%s" % split, "us/iter"),
            ("methods.rate_bound_us_per_iter.%s" % split, "us/iter"),
            ("methods.loop_self_us_per_iter.%s" % split, "us/iter"),
        ]
        specs += _oracle_linalg_specs(split, "iter")
        for layer in PER_ITER_LAYERS:
            specs.append(("%s.calls_per_iter.%s" % (layer, split), "1/iter"))
            specs.append(("%s.self_us_per_iter.%s" % (layer, split), "us/iter"))
    specs += _oracle_linalg_specs("verify", "sample")
    for layer in ("reference", "kernels"):
        specs.append(("%s.calls_per_sample.verify" % layer, "1/sample"))
        specs.append(("%s.self_us_per_sample.verify" % layer, "us/sample"))
    specs += [
        ("linalg.bytes_per_iter", "B/iter"),
        ("linalg.flops_per_iter", "flop/iter"),
        ("problems.make_instance_ms", "ms"),
        ("problems.reference_optimum_s", "s"),
        ("problems.verify_constants_ms", "ms"),
        ("trace.write_csv_ms", "ms/call"),
        ("trace.csv_bytes", "B/call"),
        ("bench.tracing_overhead_pct", "%"),
    ]
    return specs


def _oracle_linalg_specs(split, per):
    specs = [("oracles.%s.calls_per_%s.%s" % (c, per, split), "1/" + per)
             for c in ORACLE_CALLS]
    specs.append(("oracles.self_us_per_%s.%s" % (per, split), "us/" + per))
    specs.append(("linalg.apply_per_%s.%s" % (per, split), "1/" + per))
    specs.append(("linalg.adjoint_per_%s.%s" % (per, split), "1/" + per))
    specs.append(("linalg.self_us_per_%s.%s" % (per, split), "us/" + per))
    return specs


class Tracer:
    """Records spans while installed; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.site_ids = {name: i for i, name in enumerate(SITE_NAMES)}
        self.site = array("i")
        self.parent = array("i")
        self.ctx = array("b")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("i")
        self.stack = [-1]
        self.context = OTHER
        self.iterations = [0, 0, 0, 0]
        self.samples = 0
        self.flops = [0, 0, 0, 0]
        self.bytes = [0, 0, 0, 0]
        self.csv_bytes = []
        self._saved = []

    def _span(self, site, fn):
        sid = self.site_ids[site]
        sites, parents, ctxs = self.site, self.parent, self.ctx
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            sites.append(sid)
            parents.append(stack[-1])
            ctxs.append(tracer.context)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised.append(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _in_context(self, ctx_of, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            prev = tracer.context
            ctx = ctx_of(args, kwargs)
            tracer.context = ctx
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.context = prev
            if after is not None:
                after(ctx, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        special = {
            "methods.run": self._wrap_run,
            "problems.reference_optimum": self._wrap_reference_optimum,
            "problems.verify_constants": self._wrap_verify_constants,
            "problems.make_instance": self._wrap_make_instance,
            "trace.Trace.write_csv": self._wrap_write_csv,
            "linalg.apply": self._wrap_linalg,
            "linalg.adjoint_apply": self._wrap_linalg,
        }
        for site, owner, attr, _ in _SITES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            wrapped = self._span(site, original)
            if site in special:
                wrapped = special[site](wrapped)
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap_run(self, fn):
        def ctx_of(args, kwargs):
            check = kwargs.get("check", args[4] if len(args) > 4 else True)
            return SOLVE if check else REFERENCE

        def after(ctx, args, kwargs, result):
            self.iterations[ctx] += len(result.rows)

        return self._in_context(ctx_of, fn, after)

    def _wrap_reference_optimum(self, fn):
        return self._in_context(lambda a, k: REFERENCE, fn)

    def _wrap_verify_constants(self, fn):
        def after(ctx, args, kwargs, result):
            self.samples += result["samples"]

        return self._in_context(lambda a, k: VERIFY, fn, after)

    def _wrap_make_instance(self, fn):
        def wrapper(*args, **kwargs):
            instance = fn(*args, **kwargs)
            f = instance.f
            for field in _F_FIELDS:
                setattr(f, field, self._span("oracles.f." + field,
                                             getattr(f, field)))
            return instance

        return wrapper

    def _wrap_write_csv(self, fn):
        def wrapper(trace_obj, path):
            fn(trace_obj, path)
            self.csv_bytes.append(os.path.getsize(path))

        return wrapper

    def _wrap_linalg(self, fn):
        # Computed, not measured: a dense m x n apply reads the matrix and
        # the input and writes the output (8 bytes each), for 2mn flops.
        def wrapper(linear_map, x):
            m = linear_map._matrix
            ctx = self.context
            if m is None:
                self.bytes[ctx] += 16 * linear_map.in_dim
            else:
                self.bytes[ctx] += 8 * (m.size + m.shape[0] + m.shape[1])
                self.flops[ctx] += 2 * m.size
            return fn(linear_map, x)

        return wrapper

    # -- reduction ---------------------------------------------------------

    def arrays(self):
        site = np.frombuffer(self.site, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ctx = np.frombuffer(self.ctx, dtype=np.int8)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return site, parent, ctx, start, end

    def site_counts(self):
        """Spans recorded per site, over all contexts."""
        counts = np.bincount(np.frombuffer(self.site, dtype=np.int32),
                             minlength=len(SITE_NAMES))
        return dict(zip(SITE_NAMES, counts.tolist()))

    def metrics(self, overhead_pct):
        site, parent, ctx, start, end = self.arrays()
        nsites = len(SITE_NAMES)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        raised = np.zeros(len(dur), dtype=bool)
        raised[np.frombuffer(self.raised, dtype=np.int32)] = True

        def table(c):
            sel = ctx == c
            calls = np.bincount(site[sel], minlength=nsites)
            selfs = np.bincount(site[sel], weights=self_ns[sel], minlength=nsites)
            return calls, selfs

        ids = {name: i for i, name in enumerate(SITE_NAMES)}

        def sites_of(pred):
            return [ids[s] for s in SITE_NAMES if pred(s)]

        out = {}
        for split, c in list(SPLITS.items()) + [("verify", VERIFY)]:
            calls, selfs = table(c)
            per_name = "sample" if c == VERIFY else "iter"
            denom = self.samples if c == VERIFY else self.iterations[c]
            denom = max(denom, 1)

            def n(sids):
                return float(calls[sids].sum()) / denom

            def us(sids):
                return float(selfs[sids].sum()) / 1e3 / denom

            def layer(name):
                return sites_of(lambda s: SITE_LAYER[s] == name)

            oracle_sites = layer("oracles")
            for label in ORACLE_CALLS:
                out["oracles.%s.calls_per_%s.%s" % (label, per_name, split)] = n(
                    [i for i in oracle_sites if _oracle_label(SITE_NAMES[i]) == label])
            out["oracles.self_us_per_%s.%s" % (per_name, split)] = us(oracle_sites)
            out["linalg.apply_per_%s.%s" % (per_name, split)] = n([ids["linalg.apply"]])
            out["linalg.adjoint_per_%s.%s" % (per_name, split)] = n(
                [ids["linalg.adjoint_apply"]])
            out["linalg.self_us_per_%s.%s" % (per_name, split)] = us(layer("linalg"))
            for name in PER_ITER_LAYERS:
                if c == VERIFY and name == "prox":
                    continue
                out["%s.calls_per_%s.%s" % (name, per_name, split)] = n(layer(name))
                out["%s.self_us_per_%s.%s" % (name, per_name, split)] = us(layer(name))
            if c == VERIFY:
                continue

            propose = [ids["engine.propose"], ids["steprules.propose"]]
            for fn in ENGINE_FUNCS:
                sids = propose if fn == "propose" else [ids["engine." + fn]]
                out["engine.%s.calls_per_iter.%s" % (fn, split)] = n(sids)
                out["engine.%s.self_us_per_iter.%s" % (fn, split)] = us(sids)
            # A trial is a proposal, or a finish_trial that methods calls
            # directly (the conditional-gradient line search).
            sel = ctx == c
            fin = sel & (site == ids["engine.finish_trial"])
            parent_site = site[np.where(parent[fin] >= 0, parent[fin], 0)]
            direct = int(np.sum(~np.isin(parent_site, propose) | (parent[fin] < 0)))
            trials = int(calls[propose].sum()) + direct
            commits = int(calls[ids["engine.commit"]])
            rejected = int(np.sum(raised & sel & (site == ids["steprules.propose"])))
            out["steprules.trials_per_iter.%s" % split] = trials / denom
            out["steprules.accept_ratio.%s" % split] = commits / max(trials, 1)
            out["steprules.domain_rejections.%s" % split] = rejected
            out["steprules.linesearch_evals_per_iter.%s" % split] = n(
                [ids["steprules.segment_excess"]])
            out["steprules.self_us_per_iter.%s" % split] = us(layer("steprules"))
            out["methods.check_row_us_per_iter.%s" % split] = us([ids["methods._check_row"]])
            out["methods.rate_bound_us_per_iter.%s" % split] = us(
                [ids["methods.rate_bound"]])
            out["methods.loop_self_us_per_iter.%s" % split] = us([ids["methods.run"]])

        def total_ms(name):
            sel = site == ids[name]
            return float(dur[sel].sum()) / 1e6

        iters = max(self.iterations[SOLVE], 1)
        out["linalg.bytes_per_iter"] = self.bytes[SOLVE] / iters
        out["linalg.flops_per_iter"] = self.flops[SOLVE] / iters
        out["problems.make_instance_ms"] = total_ms("problems.make_instance")
        out["problems.reference_optimum_s"] = total_ms("problems.reference_optimum") / 1e3
        out["problems.verify_constants_ms"] = total_ms("problems.verify_constants")
        writes = max(int(np.sum(site == ids["trace.Trace.write_csv"])), 1)
        out["trace.write_csv_ms"] = total_ms("trace.Trace.write_csv") / writes
        out["trace.csv_bytes"] = sum(self.csv_bytes) / writes
        out["bench.tracing_overhead_pct"] = overhead_pct
        return out

    def save(self, path):
        site, parent, ctx, start, end = self.arrays()
        np.savez(path, site=site, parent=parent, ctx=ctx, start_ns=start,
                 end_ns=end, site_names=np.array(SITE_NAMES))
