"""Spans around the package's public functions, recorded from outside it.

`install()` wraps the functions listed in TARGETS and rebinds every
reference to them in the package's modules, so calls made by the
package itself (module globals, the lazy imports in the CLI, the
re-exports in truncated_hilbert/__init__) go through the wrapper.  Each
call becomes one span (id, parent id, operation id, name, start, end,
failed, annotation).  Spans stay in memory until the process writes
them out at exit.

`layer_metrics()` turns the spans of one traced pass into the per-layer
metrics named in BENCHMARK.json.  This module uses only the standard
library, so the runner can aggregate without importing numpy.
"""

import functools
import importlib
import time

# (module, attribute); "Class.method" patches a method on the class
TARGETS = {
    "config": ("load_config",),
    "cli": ("main",),
    "geometry": ("_k_pair", "k_minus", "k_plus", "alpha", "near_one_rate", "w3",
                 "beta_mu_exact", "beta_mu_approx", "holder_exponent"),
    "quadrature": ("integrate",),
    "operator": ("build_operator", "apply_forward", "apply_adjoint"),
    "cauchy_svd": ("gecp_cauchy", "svd_from_rrd", "accurate_cauchy_svd"),
    "spectral": ("compute_svd", "tail_index_map", "fit_exponential", "roi_mask",
                 "roi_norm", "fit_tail_decay", "fit_roi_decay", "near_one_tail_fit",
                 "check_monotone", "sigma_counts", "export_spectrum_csv"),
    "asymptotics": ("sigma_model_pos", "sigma_model_neg", "near_one_model_valid",
                    "roi_norm_model", "wkb_epsilon", "wkb_profile", "u_wkb",
                    "wkb_roi_norm_quadrature", "WkbProfile.__call__",
                    "WkbProfile.evaluate_raw"),
    "regularization": ("add_noise", "optimal_cutoff_l2", "tsvd_reconstruct",
                       "tikhonov_reconstruct", "make_phantom", "export_reconstruction"),
    "bounds": ("calibrate_constants", "l2_validity", "roi_bound_l2", "tv_validity",
               "roi_bound_tv", "full_interval_validity", "full_interval_bound",
               "write_bounds_csv"),
}
# spans grouped under one layer metric; busy time counts the outermost span
GROUPS = {
    "spectral.analysis": {f"spectral.{f}" for f in TARGETS["spectral"]
                          if f != "compute_svd"},
    "bounds.bound_eval": {f"bounds.{f}" for f in TARGETS["bounds"]
                          if f.endswith(("_validity", "_bound", "bound_l2", "bound_tv"))},
}
MODULE_TOTALS = ("geometry", "asymptotics")


def _annotate(name, out):
    if name == "cauchy_svd.gecp_cauchy":
        return out.rank
    if name == "spectral.compute_svd":
        return out.count
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0
        self.op_id = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            failed = True
            note = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                note = _annotate(name, out)
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.op_id, name, t0, t1, failed, note))
        return traced


def install(tracer, wrap=None):
    """Wrap every target; `wrap(name, fn)` defaults to tracer.wrap."""
    wrap = wrap or tracer.wrap
    pkg = importlib.import_module("truncated_hilbert")
    mods = [pkg] + [importlib.import_module(f"truncated_hilbert.{m}") for m in TARGETS]
    for mod_name, attrs in TARGETS.items():
        mod = importlib.import_module(f"truncated_hilbert.{mod_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, wrap(f"{mod_name}.{attr}", getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            wrapped = wrap(f"{mod_name}.{attr}", orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
    return pkg


def _outermost_busy(spans, by_id, member):
    """Total duration of spans in `member` that have no ancestor in `member`."""
    busy = 0.0
    count = 0
    for s in spans:
        if not member(s[3]):
            continue
        count += 1
        p = s[1]
        nested = False
        while p != -1:
            anc = by_id[p]
            if member(anc[3]):
                nested = True
                break
            p = anc[1]
        if not nested:
            busy += s[5] - s[4]
    return busy, count


def layer_metrics(span_lists):
    """Per-layer metrics from the span lists of one traced pass (one list per process).

    Function metrics: `.calls` and `.fail` are totals over the pass, `.s`
    and `.self_s` are mean seconds per call.  Group and module metrics
    (`spectral.analysis.s`, `bounds.bound_eval.s`, `geometry.s`,
    `asymptotics.s`) are total busy seconds over the pass.
    """
    out = {}
    fn = {}
    for spans in span_lists:
        by_id = {s[0]: s for s in spans}
        child_time = {}
        for s in spans:
            if s[1] != -1:
                child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
        for s in spans:
            rec = fn.setdefault(s[3], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "fail": 0, "notes": []})
            dur = s[5] - s[4]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child_time.get(s[0], 0.0)
            rec["fail"] += int(s[6])
            if s[7] is not None:
                rec["notes"].append(s[7])
        for group, names in GROUPS.items():
            busy, count = _outermost_busy(spans, by_id, names.__contains__)
            out[f"{group}.s"] = out.get(f"{group}.s", 0.0) + busy
            out[f"{group}.calls"] = out.get(f"{group}.calls", 0) + count
        for mod in MODULE_TOTALS:
            prefix = mod + "."
            busy, count = _outermost_busy(spans, by_id,
                                          lambda n, p=prefix: n.startswith(p))
            out[f"{mod}.s"] = out.get(f"{mod}.s", 0.0) + busy
            out[f"{mod}.calls"] = out.get(f"{mod}.calls", 0) + count
            out[f"{mod}.fail"] = out.get(f"{mod}.fail", 0) + sum(
                int(s[6]) for s in spans if s[3].startswith(prefix))
    for name, rec in fn.items():
        n = rec["calls"]
        out[f"{name}.calls"] = n
        out[f"{name}.s"] = rec["s"] / n
        out[f"{name}.self_s"] = rec["self_s"] / n
        out[f"{name}.fail"] = rec["fail"]
        if rec["notes"]:
            out[f"{name}.mean_note"] = sum(rec["notes"]) / len(rec["notes"])
    out["trace.spans"] = sum(len(s) for s in span_lists)
    return out
