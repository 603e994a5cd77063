"""Span recorder wrapped around the public functions of each kernelval layer.

The recorder lives outside the package: :func:`install` replaces each target
function with a timing wrapper in every ``kernelval`` module namespace that
binds it (so names taken with ``from ... import`` are covered too) and
:func:`Tracer.uninstall` puts the originals back.  Spans are kept in memory
as ``(name, start, end, parent, error, counts)`` and aggregated into the
per-layer metrics after the traced operation.
"""

from __future__ import annotations

import hashlib
import inspect
import statistics
import sys
import time

import numpy as np

# span name -> (module, attribute); "Class.method" attributes patch the class
TARGETS = {
    "kernels.gram": ("kernelval.kernels", "gram"),
    "kernels.conditional_gram": ("kernelval.kernels", "conditional_gram"),
    "kernels.feature_matrix": ("kernelval.kernels", "feature_matrix"),
    "krr.fit": ("kernelval.krr", "fit"),
    "krr.predict": ("kernelval.krr", "predict"),
    "krr.cholesky": ("scipy.linalg", "cho_factor"),
    "sampling.build_training_set": ("kernelval.sampling", "build_training_set"),
    "sampling.content_hash": ("kernelval.sampling", "content_hash"),
    "sampling.draw_paths": ("kernelval.sampling", "draw_paths"),
    "market.payoff": ("kernelval.market", "payoff"),
    "market.GroundTruth.v0": ("kernelval.market", "GroundTruth.v0"),
    "market.GroundTruth.v1": ("kernelval.market", "GroundTruth.v1"),
    "market.GroundTruth.v_series": ("kernelval.market", "GroundTruth.v_series"),
    "market.nested_mc_estimate": ("kernelval.market", "nested_mc_estimate"),
    "valuation.value_series_many": ("kernelval.valuation", "value_series_many"),
    "valuation.repeat_experiment": ("kernelval.valuation", "repeat_experiment"),
    "valuation.payoff_l2_error": ("kernelval.valuation", "payoff_l2_error"),
    "diagnostics.reference_estimator": ("kernelval.diagnostics", "reference_estimator"),
    "diagnostics.mse_bound_check": ("kernelval.diagnostics", "mse_bound_check"),
    "diagnostics.concentration_check": ("kernelval.diagnostics", "concentration_check"),
    "diagnostics.clt_experiment": ("kernelval.diagnostics", "clt_experiment"),
    "diagnostics.robustness_check": ("kernelval.diagnostics", "robustness_check"),
    "cli.main": ("kernelval.cli", "main"),
    "cli.grid_search": ("kernelval.cli", "grid_search"),
    "cli.run_table2": ("kernelval.cli", "run_table2"),
    "cli.run_nested": ("kernelval.cli", "run_nested"),
    "cli.run_diagnostics": ("kernelval.cli", "run_diagnostics"),
    "cli._star_estimator": ("kernelval.cli", "_star_estimator"),
}

# innermost enclosing span that names a table2 stage owns a payoff evaluation
STAGES = {
    "cli.grid_search": "grid",
    "valuation.repeat_experiment": "repeats",
    "market.GroundTruth.v0": "ground_truth",
    "market.GroundTruth.v1": "ground_truth",
    "market.GroundTruth.v_series": "ground_truth",
    "market.nested_mc_estimate": "nested",
    "cli._star_estimator": "star_refit",
}
STAGE_NAMES = ("grid", "repeats", "ground_truth", "nested", "star_refit", "other")


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.blake2b(a.view(np.uint8), digest_size=16).hexdigest()


def _shape_counts(name, bound, result):
    """Work counts computed from argument and result shapes."""
    if name in ("kernels.gram", "kernels.conditional_gram"):
        return {"cells": int(np.size(result))}
    if name == "krr.cholesky":
        n = np.shape(bound.arguments["a"])[0]
        return {"flops": n ** 3 / 3.0}
    if name == "market.payoff":
        return {"evals": int(np.size(result))}
    if name == "valuation.value_series_many":
        return {"paths": int(np.shape(result)[0])}
    if name == "cli.grid_search":
        errs = [row[3] for row in result.surface]
        return {"points": len(errs),
                "failed": sum(1 for e in errs if not np.isfinite(e))}
    return {}


def _repeat_key(name, bound):
    """Inputs that make two calls the same work: kernel spec, paths, lambda."""
    args = bound.arguments
    if name == "kernels.gram":
        y = args.get("Y")
        return (repr(args["spec"]), _digest(args["X"]),
                None if y is None else _digest(y))
    if name == "krr.fit":
        ts = args["ts"]
        return (repr(args["spec"]), _digest(ts.paths), _digest(ts.weights),
                float(args["lam"]), args.get("mode", "dual-unsorted"))
    return None


class Tracer:
    """In-memory span store plus the bindings it patched."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._seen = {}
        self.repeats = {}

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        needs_args = name in ("kernels.gram", "krr.fit", "krr.cholesky")

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if needs_args else None
            if bound is not None:
                bound.apply_defaults()
                key = _repeat_key(name, bound)
                if key is not None:
                    seen = self._seen.setdefault(name, set())
                    calls, hits = self.repeats.get(name, (0, 0))
                    self.repeats[name] = (calls + 1, hits + (key in seen))
                    seen.add(key)
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, None, {}])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][4] = type(exc).__name__
                raise
            else:
                self.spans[idx][5] = _shape_counts(name, bound, result)
                return result
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every target, in each kernelval namespace that binds it."""
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig)
            self._patch(owner, attr, orig, wrapper)
            if inspect.ismodule(owner):
                for mname, mod in list(sys.modules.items()):
                    if not mname.startswith("kernelval") or mod is owner:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def bindings(self):
        return sorted({f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self._patched})

    def fired(self):
        return sorted({s[0] for s in self.spans})

    def dump(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "error": err, "counts": c}
                for n, s, e, p, err, c in self.spans]


def _stage_of(spans, idx):
    p = spans[idx][3]
    while p is not None:
        stage = STAGES.get(spans[p][0])
        if stage:
            return stage
        p = spans[p][3]
    return "other"


def layer_metrics(tracer):
    """Aggregate the recorded spans into ``<module>.<function>.<stat>`` values."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name = {}
    for i, (name, start, end, _, err, counts) in enumerate(spans):
        agg = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "durations": [], "errors": {}, "counts": {}})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        agg["durations"].append(end - start)
        if err:
            agg["errors"][err] = agg["errors"].get(err, 0) + 1
        for k, v in counts.items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v

    def get(name, stat):
        agg = by_name.get(name)
        if agg is None:
            return 0
        if stat in ("calls", "s", "self_s"):
            return agg[stat]
        return agg["counts"].get(stat, 0)

    def repeat_share(name):
        calls, hits = tracer.repeats.get(name, (0, 0))
        return hits / calls if calls else 0.0

    m = {}
    for stat in ("calls", "s", "self_s", "cells"):
        m[f"kernels.gram.{stat}"] = get("kernels.gram", stat)
        m[f"kernels.conditional_gram.{stat}"] = get("kernels.conditional_gram", stat)
    m["kernels.gram.repeat_share"] = repeat_share("kernels.gram")
    m["kernels.feature_matrix.calls"] = get("kernels.feature_matrix", "calls")
    m["kernels.feature_matrix.s"] = get("kernels.feature_matrix", "s")
    m["kernels.overflow"] = sum(
        by_name.get(n, {"errors": {}})["errors"].get("OverflowError", 0)
        for n in ("kernels.gram", "kernels.conditional_gram"))
    for stat in ("calls", "s", "self_s"):
        m[f"krr.fit.{stat}"] = get("krr.fit", stat)
        m[f"krr.predict.{stat}"] = get("krr.predict", stat)
    fit = by_name.get("krr.fit")
    m["krr.fit.p50_ms"] = 1e3 * statistics.median(fit["durations"]) if fit else 0.0
    m["krr.fit.failed"] = sum(fit["errors"].values()) if fit else 0
    m["krr.fit.repeat_share"] = repeat_share("krr.fit")
    for stat in ("calls", "s", "flops"):
        m[f"krr.cholesky.{stat}"] = get("krr.cholesky", stat)
    for fn in ("build_training_set", "content_hash", "draw_paths"):
        m[f"sampling.{fn}.calls"] = get(f"sampling.{fn}", "calls")
        m[f"sampling.{fn}.s"] = get(f"sampling.{fn}", "s")
    for stat in ("calls", "evals", "s"):
        m[f"market.payoff.{stat}"] = get("market.payoff", stat)
    for fn in ("GroundTruth.v_series", "nested_mc_estimate"):
        m[f"market.{fn}.calls"] = get(f"market.{fn}", "calls")
        m[f"market.{fn}.s"] = get(f"market.{fn}", "s")
    stage_evals = dict.fromkeys(STAGE_NAMES, 0)
    for i, span in enumerate(spans):
        if span[0] == "market.payoff":
            stage_evals[_stage_of(spans, i)] += span[5].get("evals", 0)
    for stage, n in stage_evals.items():
        m[f"market.payoff.evals.{stage}"] = n
    for stat in ("calls", "s", "paths"):
        m[f"valuation.value_series_many.{stat}"] = get("valuation.value_series_many", stat)
    m["valuation.repeat_experiment.s"] = get("valuation.repeat_experiment", "s")
    m["valuation.payoff_l2_error.s"] = get("valuation.payoff_l2_error", "s")
    for fn in ("reference_estimator", "mse_bound_check", "concentration_check",
               "clt_experiment", "robustness_check"):
        m[f"diagnostics.{fn}.s"] = get(f"diagnostics.{fn}", "s")
    m["cli.grid_search.s"] = get("cli.grid_search", "s")
    m["cli.grid_search.points"] = get("cli.grid_search", "points")
    m["cli.grid_search.failed"] = get("cli.grid_search", "failed")
    m["cli.run_table2.s"] = get("cli.run_table2", "s")
    m["cli.run_nested.s"] = get("cli.run_nested", "s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    return m
