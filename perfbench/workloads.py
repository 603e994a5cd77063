"""The three benchmark workloads: inputs from the seed, one operation, checks.

Each workload has a ``setup`` that builds its inputs from the master seed
(the only randomness the program receives), an ``op`` that is timed in a
closed loop, and a ``check`` run after the timed loop.  ``FULL`` holds the
study sizes and ``SMOKE`` tiny sizes that go through the same code path.
"""

from __future__ import annotations

import configparser
import csv
import json
import os
import shutil
import tempfile

import numpy as np

# module attributes, not names, so that the traced run sees every call
from kernelval import cli, krr, sampling, valuation
from kernelval.market import GroundTruth, payoff_function

PAYOFF = "european_put"
STUDY_SEED = 2024

# kernel t = 1 error of `table2 --payoff european_put` on configs/bs2.cfg at
# master seed 2024, as the seed commit computes it; checked to REL_TOL
REFERENCE_ERR_T1 = {("full", STUDY_SEED): 0.28403576483771514}
# Relative tolerance on reproduced numbers: leaves room for BLAS summation
# order, not for a changed estimator.
REL_TOL = 1e-6
# Vhat_T against krr.predict on the same paths, max-norm relative
PREDICT_TOL = 1e-10
# A t = 1 error above this (percent of V_0) means the estimator is broken;
# the study's values are about 0.2-0.4 at full size, and 5-30 at smoke size.
ERR_CEILING_PCT = {"full": 2.0, "smoke": 100.0}

FULL = {
    "table2_put": {"config": {}, "n_err": 2000, "err_fits": 24},
    "value_process": {"config": {}, "n_paths": 100_000, "n_err": 5000,
                      "err_fits": 16},
    # repeat counts shrunk from bs2.cfg's 20 / 100 / 200 to keep one
    # operation near 20 s; the other [diagnostics] sizes are the study's
    "bound_audit": {"config": {"diagnostics": {"n_repeats": "10",
                                               "conc_repeats": "20",
                                               "clt_repeats": "100"}},
                    "n_err": 2000, "err_fits": 32},
}

_SMOKE_GRID = {"kernel": {"alphas": "2 4", "betas": "0.15 0.3",
                          "lambdas": "1e-5 1e-3"}}
SMOKE = {
    "table2_put": {"config": {**_SMOKE_GRID,
                              "sampling": {"n_train": "200", "n_val": "100",
                                           "n_test": "500", "n_repeats": "3"},
                              "ground_truth": {"nested_outer": "50"}},
                   "n_err": 500, "err_fits": 3},
    "value_process": {"config": {"sampling": {"n_train": "200"}},
                      "n_paths": 1000, "n_err": 500, "err_fits": 3},
    "bound_audit": {"config": {"diagnostics": {
        "n": "100", "n_ref": "400", "n_repeats": "5", "conc_repeats": "10",
        "clt_n": "200", "clt_repeats": "20"}},
        "n_err": 500, "err_fits": 3},
}


def write_config(root, out_dir, seed, overrides, tag):
    """bs2.cfg with the benchmark's seed, one payoff and the size overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(os.path.join(root, "configs", "bs2.cfg")) as fh:
        parser.read_file(fh)
    parser["experiment"]["master_seed"] = str(seed)
    parser["experiment"]["payoffs"] = PAYOFF
    for section, values in overrides.items():
        for key, value in values.items():
            parser[section][key] = value
    path = os.path.join(out_dir, f"{tag}-seed{seed}-{os.getpid()}.cfg")
    with open(path, "w") as fh:
        parser.write(fh)
    return path


class Workload:
    name = ""
    paths_per_op = 0
    # spans a traced operation must record; a missing one means a call
    # escaped the wrappers
    expected_spans = ("krr.fit", "krr.cholesky", "kernels.gram",
                      "sampling.build_training_set", "sampling.content_hash",
                      "market.payoff")

    def __init__(self, root, out_dir, seed, size):
        self.root, self.out_dir, self.seed, self.size = root, out_dir, seed, size
        self.sizes = (SMOKE if size == "smoke" else FULL)[self.name]

    def setup(self):
        self.config_path = write_config(self.root, self.out_dir, self.seed,
                                        self.sizes["config"], self.name)
        self.config = cli.load_config(path=self.config_path)

    def cleanup(self):
        os.remove(self.config_path)

    def ground_truth(self):
        c = self.config
        return GroundTruth(c.market, PAYOFF, method=c.gt_method,
                           n_inner=c.n_inner_gt, seed=c.master_seed)

    def mean_err_t1(self, alpha, beta, lam, n, paths, streams):
        """Mean t = 1 error of dual fits on one training sample per stream."""
        c = self.config
        spec = c.kernel_at(alpha, beta)
        f = payoff_function(c.market, PAYOFF)
        gt = self.ground_truth()
        errs = []
        for stream in streams:
            ts = sampling.build_training_set(c.measure(), f, n, PAYOFF, stream=stream,
                                             seed=c.master_seed)
            est = krr.fit(ts, spec, lam, mode=c.mode)
            errs.append(100.0 * float(valuation.value_process_error(est, gt, paths)[1]))
        return float(np.mean(errs))

    def check_err_ceiling(self, err, problems):
        if not (np.isfinite(err) and 0.0 < err < ERR_CEILING_PCT[self.size]):
            problems.append(f"err_t1_pct {err!r} outside (0, {ERR_CEILING_PCT[self.size]})")


def _result(attempted, problems, bad_values=0, **extra):
    """Each problem is one failed item (a grid point, a run, a check); each
    non-finite value is one more."""
    return {"attempted": attempted, "failed": len(problems) + bad_values,
            "problems": problems, **extra}


class Table2Put(Workload):
    """`kernelval table2 --payoff european_put` in-process through cli.main."""

    name = "table2_put"
    expected_spans = Workload.expected_spans + (
        "cli.main", "cli.run_table2", "cli.grid_search", "cli.run_nested",
        "cli._star_estimator", "krr.predict", "kernels.conditional_gram",
        "sampling.draw_paths", "market.GroundTruth.v_series",
        "market.nested_mc_estimate", "valuation.value_series_many",
        "valuation.repeat_experiment", "valuation.payoff_l2_error")

    def setup(self):
        super().setup()
        self.paths_per_op = self.config.n_repeats * self.config.n_test

    def op(self, k):
        out = tempfile.mkdtemp(prefix="table2-", dir=self.out_dir)
        rc = cli.main(["table2", "--config", self.config_path, "--payoff", PAYOFF,
                       "--out", out, "--threads", "1"])
        return {"rc": rc, "dir": out}

    def _read(self, out):
        with open(os.path.join(out["dir"], "table2.csv")) as fh:
            rows = list(csv.DictReader(fh))
        table = {(r["estimator"], int(r["t"])): float(r["mean_pct"]) for r in rows}
        with open(os.path.join(out["dir"], f"grid_{PAYOFF}.csv")) as fh:
            grid = [float(r["rel_l2_error"]) for r in csv.DictReader(fh)]
        with open(os.path.join(out["dir"], "manifest.json")) as fh:
            manifest = json.load(fh)
        return table, grid, manifest

    def check(self, outputs):
        c = self.config
        n_points = len(c.grid_points())
        problems, first = [], None
        for out in outputs:
            try:
                if out["rc"] != 0:
                    raise ValueError(f"table2 exit code {out['rc']}")
                table, grid, manifest = self._read(out)
                if len(grid) != n_points:
                    raise ValueError(f"grid has {len(grid)} rows, expected {n_points}")
                problems += [f"grid point {i} failed" for i, e in enumerate(grid)
                             if not np.isfinite(e)]
                expected = {("kernel", t) for t in range(c.market.T + 1)}
                expected |= {("nested-mc", 0), ("nested-mc", 1)}
                if set(table) != expected or not all(map(np.isfinite, table.values())):
                    raise ValueError(f"table2.csv rows {sorted(table)} incomplete or non-finite")
                if first is None:
                    first = (table, manifest)
                elif table != first[0]:
                    raise ValueError("table2.csv differs between runs of the same input")
            except (OSError, ValueError, KeyError) as exc:
                problems.append(str(exc))
            finally:
                shutil.rmtree(out["dir"], ignore_errors=True)
        attempted = len(outputs) * (n_points + 1)
        if first is None:
            return _result(attempted, problems, err_t1_pct=float("nan"))
        table, manifest = first
        table_err = table[("kernel", 1)]
        ref = REFERENCE_ERR_T1.get((self.size, self.seed))
        if ref is not None and abs(table_err - ref) > REL_TOL * ref:
            problems.append(f"table2 t=1 kernel error {table_err!r} != reference {ref!r}")
        self.check_err_ceiling(table_err, problems)
        # The table's own error moves with the grid point the seed's
        # validation sample selects (about 25% of its median over seeds), so
        # the metric averages repeat-stream fits at the fixed [fit] triple.
        test_paths = sampling.draw_paths(c.nominal(), c.n_test, stream=("test",),
                                         seed=c.master_seed)[:self.sizes["n_err"]]
        err = self.mean_err_t1(c.fit_alpha, c.fit_beta, c.fit_lambda, c.n_train,
                               test_paths, [("repeat", r, "train")
                                            for r in range(self.sizes["err_fits"])])
        self.check_err_ceiling(err, problems)
        return _result(attempted, problems, err_t1_pct=err, table_err_t1_pct=table_err,
                       manifest_payoff_evaluations=manifest["payoff_evaluations"][PAYOFF])


class ValueProcess(Workload):
    """One fit, then Vhat_t on N nominal paths drawn in setup."""

    name = "value_process"
    expected_spans = Workload.expected_spans + (
        "valuation.value_series_many", "kernels.conditional_gram")

    def setup(self):
        super().setup()
        c = self.config
        self.paths_per_op = self.sizes["n_paths"]
        self.paths = sampling.draw_paths(c.nominal(), self.paths_per_op,
                                         stream=("perfbench", "paths"), seed=c.master_seed)
        self.spec = c.kernel_at(c.fit_alpha, c.fit_beta)
        self.payoff_fn = payoff_function(c.market, PAYOFF)

    def _stream(self, k):
        return ("perfbench", "train", k % self.sizes["err_fits"])

    def op(self, k):
        c = self.config
        ts = sampling.build_training_set(c.measure(), self.payoff_fn, c.n_train, PAYOFF,
                                         stream=self._stream(k), seed=c.master_seed)
        est = krr.fit(ts, self.spec, c.fit_lambda, mode=c.mode, payoff_id=PAYOFF)
        return {"est": est, "values": valuation.value_series_many(est, self.paths)}

    def check(self, outputs):
        problems = []
        bad = sum(int(np.size(o["values"]) - np.count_nonzero(np.isfinite(o["values"])))
                  for o in outputs)
        # Vhat_T is the fitted payoff: compare with krr.predict, in blocks
        first = outputs[0]
        block = 10_000
        pred = np.concatenate([krr.predict(first["est"], self.paths[lo:lo + block])
                               for lo in range(0, len(self.paths), block)])
        gap = np.max(np.abs(first["values"][:, -1] - pred)) / np.max(np.abs(pred))
        if not gap <= PREDICT_TOL:
            problems.append(f"Vhat_T differs from predict by {gap:.3e} (max-norm relative)")
        # accuracy: mean t = 1 error over err_fits training samples
        c = self.config
        err = self.mean_err_t1(c.fit_alpha, c.fit_beta, c.fit_lambda, c.n_train,
                               self.paths[:self.sizes["n_err"]],
                               [self._stream(k) for k in range(self.sizes["err_fits"])])
        self.check_err_ceiling(err, problems)
        return _result(sum(np.size(o["values"]) for o in outputs), problems, bad,
                       err_t1_pct=err, predict_gap=float(gap))


class BoundAudit(Workload):
    """`cli.run_diagnostics` on the [diagnostics] section: the bound suite."""

    name = "bound_audit"
    expected_spans = Workload.expected_spans + (
        "cli.run_diagnostics", "diagnostics.reference_estimator",
        "diagnostics.mse_bound_check", "diagnostics.concentration_check",
        "diagnostics.clt_experiment", "diagnostics.robustness_check",
        "krr.predict", "kernels.feature_matrix", "sampling.draw_paths")

    def setup(self):
        super().setup()
        # the two 100k-path probe samples predicted by the reference fit
        self.paths_per_op = 200_000

    def op(self, k):
        return cli.run_diagnostics(self.config)

    def verdicts(self, reports):
        """The four checks; True means passed.

        The three bound reports must not be violated.  The clt report's
        two hypothesis tests (mean within 3 SE, Anderson-Darling normality
        at 1%) reject on about one seed in fifty even when the program is
        right, so they decide the verdict, as criterion 7 applies them, only
        at the study's seed 2024, where the seed commit passes.  At other
        seeds the clt report must be well formed and the test outcomes are
        recorded in the result file.
        """
        mse, conc, clt, rob = (reports["mse_bound"], reports["concentration"],
                               reports["clt"], reports["robustness"])
        if self.seed == STUDY_SEED:
            clt_ok = bool(clt.mean_within_3se and clt.normality_accepted_1pct)
        else:
            clt_ok = bool(np.all(np.isfinite(clt.statistics)) and clt.se > 0
                          and np.isfinite(clt.ad_statistic) and not clt.degenerate)
        return {
            "mse_bound": not mse.violated,
            "concentration": conc.applicable and not conc.violated,
            "clt": clt_ok,
            "robustness": not rob.violated,
        }

    def check(self, outputs):
        problems = []
        for reports in outputs:
            problems += [f"{name} check failed"
                         for name, ok in self.verdicts(reports).items() if not ok]
        # accuracy of the audited working-size fits (the mse check's refits)
        c, d = self.config, self.config.diag
        X = sampling.draw_paths(c.nominal(), self.sizes["n_err"], stream=("test",),
                                seed=c.master_seed)
        err = self.mean_err_t1(d["alpha"], d["beta"], d["lambda"], d["n"], X,
                               [("msebound", "refit", r)
                                for r in range(self.sizes["err_fits"])])
        self.check_err_ceiling(err, problems)
        clt_tests = [{"mean_within_3se": bool(r["clt"].mean_within_3se),
                      "normality_accepted_1pct": bool(r["clt"].normality_accepted_1pct)}
                     for r in outputs]
        return _result(4 * len(outputs), problems, err_t1_pct=err, clt_tests=clt_tests)


WORKLOADS = {w.name: w for w in (Table2Put, ValueProcess, BoundAudit)}
