"""Experiment harness and command-line front end.

Reads a sectioned ``key = value`` configuration, runs the two-step market
experiments (hyperparameter grid search, repeated-fit error tables, figure
data, nested Monte Carlo baseline, bound diagnostics) and writes CSV/JSON
artifacts plus a manifest.  All randomness is derived from the master seed
through named streams, and BLAS runs on one thread (:mod:`kernelval.blas`),
so re-runs are bit-identical regardless of the worker or BLAS thread count.

Exit codes: 0 success, 1 input/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, blas, diagnostics, krr, pool, valuation
from .errors import (CapabilityError, DataError, InputError, KernelvalError,
                     SolverError)
from .kernels import FeatureMapKernel, GaussExpKernel, monomial_features
from .market import (BSConfig, PAYOFF_IDS, GroundTruth, nested_mc_estimate,
                     payoff_function)
from .sampling import (MeasureSpec, MixtureSampler, build_training_set,
                       draw_paths, training_set_to_csv)
from .valuation import ErrorReport, repeat_experiment

__all__ = [
    "ExperimentConfig",
    "GridResult",
    "load_config",
    "grid_search",
    "run_table2",
    "run_nested",
    "run_diagnostics",
    "main",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


_DIAG_DEFAULTS = {
    "payoff": "european_put",
    "alpha": 4.0,
    "beta": 0.3,
    "lambda": 1e-5,
    "n": 1000,
    "n_ref": 4000,
    "n_repeats": 20,
    "conc_repeats": 100,
    "eps": 0.01,
    "clt_degree": 3,
    "clt_lambda": 1e-3,
    "clt_n": 2000,
    "clt_repeats": 200,
}


def _floats(text):
    return tuple(float(v) for v in text.replace(",", " ").split())


def _words(text):
    return tuple(text.replace(",", " ").split())


# (section, key) -> (field, cast).  [market] fields are BSConfig's,
# [diagnostics] fields are keys of ExperimentConfig.diag, the rest are
# ExperimentConfig's own.
_KEYS = {
    ("market", "s0"): ("s0", float),
    ("market", "sigma"): ("sigma", float),
    ("market", "rate"): ("rate", float),
    ("market", "steps"): ("T", int),
    ("market", "strike"): ("strike", float),
    ("market", "barrier"): ("barrier", float),
    ("kernel", "family"): ("family", str),
    ("kernel", "alphas"): ("alphas", _floats),
    ("kernel", "betas"): ("betas", _floats),
    ("kernel", "lambdas"): ("lambdas", _floats),
    ("sampling", "gamma"): ("gamma", float),
    ("sampling", "n_train"): ("n_train", int),
    ("sampling", "n_val"): ("n_val", int),
    ("sampling", "n_test"): ("n_test", int),
    ("sampling", "n_repeats"): ("n_repeats", int),
    ("sampling", "mode"): ("mode", str),
    ("ground_truth", "method"): ("gt_method", str),
    ("ground_truth", "n_inner"): ("n_inner_gt", int),
    ("ground_truth", "nested_outer"): ("nested_outer", int),
    ("ground_truth", "nested_inner"): ("nested_inner", int),
    ("experiment", "master_seed"): ("master_seed", int),
    ("experiment", "payoffs"): ("payoffs", _words),
    ("fit", "alpha"): ("fit_alpha", float),
    ("fit", "beta"): ("fit_beta", float),
    ("fit", "lambda"): ("fit_lambda", float),
    **{("diagnostics", key): (key, type(value))
       for key, value in _DIAG_DEFAULTS.items()},
    ("output", "directory"): ("out_dir", str),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; defaults match the two-step study."""

    market: BSConfig = BSConfig()
    payoffs: tuple = PAYOFF_IDS
    family: str = "gauss-exp"
    alphas: tuple = (0.0, 2.0, 4.0, 6.0)
    betas: tuple = (0.0, 0.15, 0.3, 0.45)
    lambdas: tuple = (1e-9, 1e-7, 1e-5, 1e-3)
    gamma: float = 0.45
    n_train: int = 2000
    n_val: int = 500
    n_test: int = 5000
    n_repeats: int = 10
    mode: str = "dual-unsorted"
    gt_method: str = "quadrature"
    n_inner_gt: int = 10_000
    nested_outer: int = 200
    nested_inner: int = 10
    fit_alpha: float = 4.0
    fit_beta: float = 0.3
    fit_lambda: float = 1e-5
    master_seed: int = 2024
    out_dir: str = "out"
    diag: dict = field(default_factory=lambda: dict(_DIAG_DEFAULTS))

    def __post_init__(self):
        if self.family != "gauss-exp":
            raise InputError(
                f"experiment harness supports family 'gauss-exp', got {self.family!r}"
            )
        if not (self.alphas and self.betas and self.lambdas):
            raise InputError("hyperparameter grid lists must be non-empty")
        for lam in (*self.lambdas, self.fit_lambda):
            if not 0 <= lam < math.inf:
                raise InputError(f"lambda must be finite and nonnegative, got {lam}")
        # the ranges are the specs' to check; every command refuses a
        # non-finite value before any work
        for name, values in (
                ("alpha", (*self.alphas, self.fit_alpha, self.diag["alpha"])),
                ("beta", (*self.betas, self.fit_beta, self.diag["beta"])),
                ("gamma", (self.gamma,)), ("diagnostics eps", (self.diag["eps"],))):
            for v in values:
                if not math.isfinite(v):
                    raise InputError(f"{name} must be finite, got {v}")
        for name in ("n_train", "n_val", "n_test", "n_repeats", "n_inner_gt",
                     "nested_outer", "nested_inner"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1")
        if not self.payoffs:
            raise InputError("payoff list must be non-empty")
        for p in self.payoffs:
            if p not in PAYOFF_IDS:
                raise InputError(f"unknown payoff id {p!r}; known: {PAYOFF_IDS}")
        if self.gt_method not in ("quadrature", "mc"):
            raise InputError(
                f"ground-truth method must be 'quadrature' or 'mc', got {self.gt_method!r}"
            )
        if self.mode not in ("dual-unsorted", "dual-sorted"):
            raise InputError(
                f"experiment mode must be a dual mode, got {self.mode!r}"
            )
        for name in ("n", "n_ref", "n_repeats", "conc_repeats", "clt_n",
                     "clt_repeats"):
            if self.diag[name] < 1:
                raise InputError(f"diagnostics {name} must be at least 1")
        for name in ("lambda", "clt_lambda"):
            if not 0 < self.diag[name] < math.inf:
                raise InputError(f"diagnostics {name} must be positive and finite")
        if self.diag["payoff"] not in PAYOFF_IDS:
            raise InputError(f"unknown diagnostics payoff {self.diag['payoff']!r}")

    def grid_points(self):
        """Grid iteration order: alpha outer, beta middle, lambda inner.

        The pair (alpha, beta) = (0, 0) is excluded: it degenerates to the
        constant kernel.
        """
        return [
            (a, b, l)
            for a in self.alphas
            for b in self.betas
            if not (a == 0.0 and b == 0.0)
            for l in self.lambdas
        ]

    def measure(self):
        return MeasureSpec(gamma=self.gamma, d=1, T=self.market.T,
                           seed=self.master_seed)

    def nominal(self):
        return MeasureSpec(gamma=0.0, d=1, T=self.market.T,
                           seed=self.master_seed)

    def kernel_at(self, alpha, beta):
        return GaussExpKernel(alpha=alpha, beta=beta, d=1, T=self.market.T,
                              gamma=self.gamma)


def load_config(path=None, text=None, overrides=None):
    """Build an ExperimentConfig from an INI-style file, text, or defaults.

    ``overrides`` maps ExperimentConfig field names to values (CLI flags).
    Unknown sections or keys raise :class:`InputError` to catch typos early.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        if not os.path.isfile(path):
            raise InputError(f"config file not found: {path}")
        with open(path) as fh:
            text = fh.read()
    if text is not None:
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise InputError(f"malformed config: {exc}") from exc

    sections = sorted({section for section, _ in _KEYS})
    kw, market, diag = {}, {}, {}
    for section in parser.sections():
        if section not in sections:
            raise InputError(
                f"unknown config section [{section}]; known: {sections}"
            )
        for key, raw in parser[section].items():
            if (section, key) not in _KEYS:
                known = sorted(k for s, k in _KEYS if s == section)
                raise InputError(
                    f"unknown key {key!r} in [{section}]; known: {known}"
                )
            name, cast = _KEYS[section, key]
            try:
                value = cast(raw)
            except ValueError as exc:
                raise InputError(
                    f"bad value for {key!r} in [{section}]: {raw!r}"
                ) from exc
            {"market": market, "diagnostics": diag}.get(section, kw)[name] = value
    if market:
        kw["market"] = BSConfig(**market)
    if diag:
        kw["diag"] = {**_DIAG_DEFAULTS, **diag}

    cfg = ExperimentConfig(**kw)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridResult:
    """Validation-error surface over the hyperparameter grid for one payoff.

    ``failures`` holds ``((alpha, beta, lambda), message)`` for each grid
    point whose fit failed, in grid order.  ``training_set`` is the grid's
    training sample and ``estimator`` the fit at the selected point.
    """

    payoff_id: str
    alpha: float
    beta: float
    lam: float
    surface: tuple  # rows (alpha, beta, lambda, rel_l2_error)
    max_residual: float = float("nan")  # worst normal-equation residual seen
    failures: tuple = ()
    training_set: object = field(default=None, compare=False, repr=False)
    estimator: object = field(default=None, compare=False, repr=False)

    def top(self, k):
        """Best k grid triples by validation error (stable order on ties)."""
        rows = sorted(self.surface, key=lambda r: r[3])
        return [(a, b, l) for a, b, l, _ in rows[:k]]

    def lambda_slice(self, alpha, beta):
        return [(l, e) for a, b, l, e in self.surface if a == alpha and b == beta]

    def surface_csv(self):
        return _csv(("alpha", "beta", "lambda", "rel_l2_error"), self.surface)


def _training_set(config, f, stage):
    """The ``n_train`` sample of the payoff oracle ``f`` on the
    ``(stage, payoff, "train")`` stream.

    ``grid_search`` and the table2/figures refit share the ``"grid"`` sample;
    ``simulate``, ``fit`` and ``value`` share the ``"fit"`` sample.
    """
    return build_training_set(config.measure(), f, config.n_train, f.payoff_id,
                              stream=(stage, f.payoff_id, "train"),
                              seed=config.master_seed)


def grid_search(config, f):
    """Fixed-design search: one training and one validation sample per payoff.

    Both samples are priced by the payoff oracle ``f``
    (:func:`market.payoff_function`).  Fits every grid point on the shared
    training sample, one ridge path per (alpha, beta) pair, scores relative
    payoff L2 error on the shared validation sample (drawn from the nominal
    measure), and returns the argmin with first-occurrence tie-breaking in
    grid iteration order.
    """
    payoff_id = f.payoff_id
    ts = _training_set(config, f, "grid")
    val_paths = draw_paths(config.nominal(), config.n_val,
                           stream=("grid", payoff_id, "val"),
                           seed=config.master_seed)
    val_values = f(val_paths)
    val_norm = float(np.linalg.norm(val_values))
    if val_norm == 0.0:
        raise DataError(f"payoff {payoff_id!r} vanishes on the validation sample")

    pairs = {}
    for a, b, l in config.grid_points():
        pairs.setdefault((a, b), []).append(l)

    def score(pair):
        (a, b), lams = pair
        fits = krr.fit_path(ts, config.kernel_at(a, b), lams, mode=config.mode,
                            payoff_id=payoff_id)
        rows = []
        for l, est in zip(lams, fits):
            if isinstance(est, Exception):
                rows.append(((a, b, l), math.inf, str(est), None))
                continue
            pred = krr.predict(est, val_paths)
            err = float(np.linalg.norm(pred - val_values)) / val_norm
            rows.append(((a, b, l), err, None, est))
        return rows

    scored = [row for rows in pool.pool_map(score, pairs.items()) for row in rows]
    surface = tuple((*point, err) for point, err, _, _ in scored)
    failures = tuple((point, msg) for point, _, msg, _ in scored if msg is not None)
    if len(failures) == len(scored):
        raise SolverError(
            f"every grid point failed to fit for {payoff_id!r}: {failures[0][1]}"
        )
    best = min(range(len(surface)), key=lambda i: surface[i][3])
    a, b, l, _ = surface[best]
    return GridResult(
        payoff_id=payoff_id,
        alpha=a, beta=b, lam=l,
        surface=surface,
        max_residual=float(np.max([est.residual for _, _, _, est in scored
                                   if est is not None])),
        failures=failures,
        training_set=ts,
        estimator=scored[best][3],
    )


def _report_grid_failures(command, grid):
    """One stderr line per payoff whose grid had failed points."""
    if grid.failures:
        print(f"kernelval: {command} {grid.payoff_id}: {len(grid.failures)} of "
              f"{len(grid.surface)} grid points failed; first: "
              f"{grid.failures[0][1]}", file=sys.stderr)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _shared_test_paths(config):
    return draw_paths(config.nominal(), config.n_test, stream=("test",),
                      seed=config.master_seed)


def _ground_truth(config, payoff_id):
    return GroundTruth(config.market, payoff_id, method=config.gt_method,
                       n_inner=config.n_inner_gt, seed=config.master_seed)


def run_nested(config, f, gt):
    """Nested-MC baseline errors at t in {0, 1} over independent repeats,
    priced by the payoff oracle ``f`` (:func:`market.payoff_function`)."""
    payoff_id = f.payoff_id
    v0 = gt.v0()
    errs = np.empty((config.n_repeats, 2))
    for r in range(config.n_repeats):
        est = nested_mc_estimate(f, config.nested_outer, config.nested_inner,
                                 seed=config.master_seed,
                                 stream=("nested", payoff_id, r))
        truth1 = gt.v1(est.outer_x1)
        errs[r, 0] = abs(est.v0_hat - v0) / v0
        errs[r, 1] = float(np.mean(np.abs(est.v1_hat - truth1))) / v0
    arr = 100.0 * errs
    return ErrorReport(
        payoff_id=payoff_id,
        estimator="nested-mc",
        times=(0, 1),
        mean_pct=arr.mean(axis=0),
        std_pct=arr.std(axis=0, ddof=1) if config.n_repeats > 1
        else np.zeros(2),
    )


def _star_estimator(grid):
    """The grid training sample and the fit at the searched hyperparameters.

    Both come from the grid search itself; nothing is refit.
    """
    return grid.training_set, grid.estimator


def _study(config, stage):
    """Grid search and ground truth for each payoff on the pool, then ``stage``.

    The only caller of :func:`grid_search`.  Each payoff gets one payoff
    oracle ``f`` (:func:`market.payoff_function`), called from its own worker
    only.  ``stage(config, f, grid, gt, test_paths)`` returns the payoff's
    further entries.  Returns ``{payoff: {"grid": GridResult, "gt":
    GroundTruth, **entries, "evals": paths the oracle priced}}``.
    """
    test_paths = _shared_test_paths(config)

    def one(payoff_id):
        f = payoff_function(config.market, payoff_id)
        gt = _ground_truth(config, payoff_id)
        grid = grid_search(config, f)
        entries = stage(config, f, grid, gt, test_paths)
        return payoff_id, {"grid": grid, "gt": gt, **entries, "evals": f.evals}

    return dict(pool.pool_map(one, config.payoffs))


def _table2_stage(config, f, grid, gt, test_paths):
    """Repeated-fit kernel rows at the searched point, and nested-MC rows."""
    kernel_report, fits = repeat_experiment(
        f, config.kernel_at(grid.alpha, grid.beta),
        grid.lam, config.measure(), config.n_train, test_paths, gt,
        n_repeats=config.n_repeats, n_val=config.n_val,
        master_seed=config.master_seed, mode=config.mode,
    )
    return {"kernel": kernel_report, "nested": run_nested(config, f, gt),
            "fits": fits}


def run_table2(config):
    """Grid search + repeated-fit kernel rows + nested-MC rows per payoff.

    Returns ``{payoff: {"grid": GridResult, "gt": GroundTruth, "kernel":
    ErrorReport, "nested": ErrorReport, "fits": [Estimator], "evals": int}}``;
    artifact writing is the caller's concern.
    """
    return _study(config, _table2_stage)


def _figures_stage(config, f, grid, gt, test_paths):
    """Figure data: (alpha, beta) cross-section, lambda sweep, trajectories.

    ``lambda_interior`` says whether the lambda sweep at the searched
    (alpha*, beta*) has an interior minimum.
    """
    sweep = grid.lambda_slice(grid.alpha, grid.beta)
    errs = [e for _, e in sweep]
    _, est = _star_estimator(grid)
    return {
        "fig1": _csv(("alpha", "beta", "rel_l2_error"),
                     [(a, b, e) for a, b, l, e in grid.surface if l == grid.lam]),
        "fig2": _csv(("lambda", "rel_l2_error"), sweep),
        "fig3": _trajectory_csv(est, gt, test_paths),
        "lambda_interior": 0 < int(np.argmin(errs)) < len(errs) - 1,
    }


def run_diagnostics(config):
    """Bound suite on the configured diagnostic problem; returns reports.

    The reference fit runs first, on the calling thread: its n_ref Gram and
    factor are the suite's largest allocation.  Next its probe
    (:func:`diagnostics.reference_probe`, which the mse and concentration
    checks share) is predicted on the pool, in whole :data:`kernels.BLOCK`-row
    chunks.  Then the four checks share the pool, longest first:
    concentration, mse bound, the CLT experiment and robustness.  Every
    check draws from its own streams and the probe's chunks are whole blocks,
    so reports do not depend on the thread count.
    """
    return _bound_suite(config)[0]


def _bound_suite(config):
    """:func:`run_diagnostics`'s reports, and the paths each one's payoff
    oracle priced.

    The reference fit and each check own one oracle, which only that check's
    worker calls.  The shared probe is priced by the mse bound's oracle, so
    it is counted once, under ``mse_bound``.  The robustness check's constant
    payoff calls no oracle: its budget is 0.
    """
    d = config.diag
    payoff_id = d["payoff"]
    spec = config.kernel_at(d["alpha"], d["beta"])
    meas = config.measure()
    lam, n, seed = d["lambda"], d["n"], config.master_seed
    oracles = {name: payoff_function(config.market, payoff_id)
               for name in ("reference", "mse_bound", "concentration", "clt")}
    reference = diagnostics.reference_estimator(
        meas, oracles["reference"], spec, lam,
        n, d["n_ref"], payoff_id=payoff_id, seed=seed,
    )
    probe = diagnostics.reference_probe(oracles["mse_bound"], meas, reference,
                                        seed=seed)
    feats = monomial_features(1, config.market.T, max_total_degree=d["clt_degree"])
    fspec = FeatureMapKernel(features=feats, d=1, T=config.market.T)
    mix = MixtureSampler(fspec, seed=seed)
    # looked up at call time, so that wrappers set on the module apply
    checks = {
        "concentration": lambda: diagnostics.concentration_check(
            oracles["concentration"], n, d["conc_repeats"], meas,
            probe=probe, seed=seed),
        "mse_bound": lambda: diagnostics.mse_bound_check(
            oracles["mse_bound"], n, d["n_repeats"], meas, probe=probe,
            seed=seed),
        "clt": lambda: diagnostics.clt_experiment(
            fspec, oracles["clt"], d["clt_lambda"], d["clt_n"],
            d["clt_repeats"], mix, probe_z=(0.3, -0.5), seed=seed),
        "robustness": lambda: diagnostics.robustness_check(
            spec, lam, n, d["n_repeats"], meas, eps=d["eps"], seed=seed),
    }
    reports = dict(zip(checks, pool.pool_map(lambda check: check(),
                                             checks.values())))
    budgets = {name: f.evals for name, f in oracles.items()}
    budgets["robustness"] = 0
    return ({name: reports[name]
             for name in ("mse_bound", "concentration", "clt", "robustness")},
            budgets)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _csv(header, rows):
    """CSV text: the ``header`` line, then one line per row.  Cells are
    written with ``str``, which gives a float's ``repr``; no cell here holds
    a comma, quote or newline, so none is quoted."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _series_csv(header, series):
    """``header``, then a row ``i, t, series[i, t]`` per path i and time t."""
    return _csv(header, [(i, t, v) for i, row in enumerate(series.tolist())
                         for t, v in enumerate(row)])


def _error_reports_csv(reports):
    """Rows `payoff, estimator, t, mean_pct, std_pct`, one per (report, t)."""
    return _csv(("payoff", "estimator", "t", "mean_pct", "std_pct"), [
        (rep.payoff_id, rep.estimator, *row) for rep in reports
        for row in zip(rep.times, rep.mean_pct.tolist(), rep.std_pct.tolist())])


def _trajectory_csv(est, gt, test_paths):
    """Per-path relative value gaps: rows `trajectory_id, t, (V_t - Vhat_t)/V0`."""
    truth = gt.v_series(test_paths)
    rel = (truth - valuation.value_series_many(est, test_paths)) / truth[0, 0]
    return _series_csv(("trajectory_id", "t", "rel_gap"), rel)


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _config_digest(path):
    if path is None or not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_outputs(config, command, config_path, files, payoff_evals,
                   extra=None):
    """Write one command's artifacts, then its manifest, into ``config.out_dir``.

    ``files`` maps each output file name to its text.  ``manifest.json``
    records inputs, seeds, payoff budgets, the BLAS setup
    (:data:`kernelval.blas.SETUP`) and the sorted output names, plus
    ``extra``.  The recorded config leaves out the output directory and holds
    no thread count: outputs must not depend on either.
    """
    recorded = asdict(config)
    del recorded["out_dir"]
    doc = {
        "command": command,
        "package_version": __version__,
        "git_commit": _git_commit(),
        "blas": blas.SETUP,
        "config_path": config_path,
        "config_sha256": _config_digest(config_path),
        "master_seed": config.master_seed,
        "config": recorded,
        "payoff_evaluations": payoff_evals,
        "outputs": sorted(files),
        **(extra or {}),
    }
    manifest = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    os.makedirs(config.out_dir, exist_ok=True)
    for name, text in {**files, "manifest.json": manifest}.items():
        with open(os.path.join(config.out_dir, name), "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_simulate(config, config_path):
    files, evals = {}, {}
    for payoff_id in config.payoffs:
        f = payoff_function(config.market, payoff_id)
        ts = _training_set(config, f, "fit")
        files[f"train_{payoff_id}.csv"] = training_set_to_csv(ts)
        evals[payoff_id] = f.evals
    _write_outputs(config, "simulate", config_path, files, evals)
    return 0


def _cmd_fit(config, config_path):
    files, evals = {}, {}
    spec = config.kernel_at(config.fit_alpha, config.fit_beta)
    for payoff_id in config.payoffs:
        f = payoff_function(config.market, payoff_id)
        ts = _training_set(config, f, "fit")
        est = krr.fit(ts, spec, config.fit_lambda, mode=config.mode,
                      payoff_id=payoff_id)
        files[f"train_{payoff_id}.csv"] = training_set_to_csv(ts)
        files[f"estimator_{payoff_id}.json"] = krr.estimator_to_json(est)
        print(f"fit {payoff_id}: alpha={config.fit_alpha} beta={config.fit_beta} "
              f"lambda={config.fit_lambda} normal-eq residual={est.residual:.3e}")
        evals[payoff_id] = f.evals
    _write_outputs(config, "fit", config_path, files, evals)
    return 0


def _cmd_value(config, config_path):
    files, evals = {}, {}
    test_paths = _shared_test_paths(config)
    for payoff_id in config.payoffs:
        est_path = os.path.join(config.out_dir, f"estimator_{payoff_id}.json")
        if not os.path.isfile(est_path):
            raise InputError(
                f"no saved estimator at {est_path}; run the fit command first"
            )
        f = payoff_function(config.market, payoff_id)
        ts = _training_set(config, f, "fit")
        est = krr.load_estimator(est_path, ts)
        series = valuation.value_series_many(est, test_paths)
        files[f"value_{payoff_id}.csv"] = _series_csv(("path_id", "t", "value"), series)
        evals[payoff_id] = f.evals
        print(f"value {payoff_id}: V0 = {float(series[0, 0])!r} "
              f"({series.shape[0]} paths x {series.shape[1]} times)")
    fit_record = _fit_record(config.out_dir)
    _write_outputs(config, "value", config_path, files, evals,
                   extra=None if fit_record is None else {"fit": fit_record})
    return 0


def _fit_record(out_dir):
    """The manifest of the ``fit`` run whose estimators ``value`` reads.

    ``value`` replaces the directory's ``manifest.json``, so it carries the
    record it finds there: the fit's own, or the one an earlier ``value`` run
    carried.  None when the directory has no manifest.
    """
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return doc.get("fit") if doc.get("command") == "value" else doc


def _optimal(results):
    """The ``optimal`` manifest record: each payoff's searched triple."""
    return {"optimal": {
        payoff_id: {"alpha": doc["grid"].alpha, "beta": doc["grid"].beta,
                    "lambda": doc["grid"].lam}
        for payoff_id, doc in results.items()}}


def _cmd_grid_search(config, config_path):
    results = _study(config, lambda *_: {})
    files, evals = {}, {}
    for payoff_id, doc in results.items():
        grid = doc["grid"]
        _report_grid_failures("grid-search", grid)
        files[f"grid_{payoff_id}.csv"] = grid.surface_csv()
        evals[payoff_id] = doc["evals"]
        print(f"grid-search {payoff_id}: alpha*={grid.alpha} "
              f"beta*={grid.beta} lambda*={grid.lam}")
    _write_outputs(config, "grid-search", config_path, files, evals,
                   extra=_optimal(results))
    return 0


def _cmd_table2(config, config_path):
    results = run_table2(config)
    files, evals, reports = {}, {}, []
    for payoff_id, doc in results.items():
        grid, kernel, nested = doc["grid"], doc["kernel"], doc["nested"]
        reports += [kernel, nested]
        _report_grid_failures("table2", grid)
        ts, est = _star_estimator(grid)
        files[f"grid_{payoff_id}.csv"] = grid.surface_csv()
        files[f"train_{payoff_id}.csv"] = training_set_to_csv(ts)
        files[f"estimator_{payoff_id}.json"] = krr.estimator_to_json(est)
        files[f"gt_{payoff_id}.csv"] = doc["gt"].to_csv()
        evals[payoff_id] = doc["evals"]
        means = ", ".join(f"{v:.3f}" for v in kernel.mean_pct)
        nmeans = ", ".join(f"{v:.3f}" for v in nested.mean_pct)
        print(f"table2 {payoff_id}: stars=({grid.alpha}, {grid.beta}, "
              f"{grid.lam}) kernel%=({means}) nested%=({nmeans})")
    files["table2.csv"] = _error_reports_csv(reports)
    _write_outputs(config, "table2", config_path, files, evals,
                   extra=_optimal(results))
    return 0


def _cmd_figures(config, config_path):
    results = _study(config, _figures_stage)
    interior = {p: doc["lambda_interior"] for p, doc in results.items()}
    n_interior = sum(interior.values())
    if set(results) == set(PAYOFF_IDS) and n_interior < 4:
        raise DataError(
            f"lambda sweep shows an interior minimum for only {n_interior} "
            "of 6 payoffs (expected at least 4)"
        )
    files, evals = {}, {}
    for payoff_id, doc in results.items():
        _report_grid_failures("figures", doc["grid"])
        for fig in ("fig1", "fig2", "fig3"):
            files[f"{fig}_{payoff_id}.csv"] = doc[fig]
        evals[payoff_id] = doc["evals"]
        print(f"figures {payoff_id}: lambda minimum "
              f"{'interior' if interior[payoff_id] else 'on the boundary'}")
    _write_outputs(config, "figures", config_path, files, evals,
                   extra={"lambda_interior": interior})
    return 0


def _cmd_nested_mc(config, config_path):
    evals, reports = {}, []
    for payoff_id in config.payoffs:
        f = payoff_function(config.market, payoff_id)
        rep = run_nested(config, f, _ground_truth(config, payoff_id))
        reports.append(rep)
        evals[payoff_id] = f.evals
        means = ", ".join(f"{v:.2f}" for v in rep.mean_pct)
        stds = ", ".join(f"{v:.2f}" for v in rep.std_pct)
        print(f"nested-mc {payoff_id}: mean%=({means}) std%=({stds})")
    _write_outputs(config, "nested-mc", config_path,
                   {"nested.csv": _error_reports_csv(reports)}, evals)
    return 0


def _cmd_diagnostics(config, config_path):
    reports, budgets = _bound_suite(config)
    files, failed = {}, []
    for name, rep in reports.items():
        files[f"diag_{name}.json"] = rep.to_json() + "\n"
        if name == "clt":
            ok = rep.mean_within_3se and rep.normality_accepted_1pct
        else:
            ok = not rep.violated
        if not ok:
            failed.append(name)
        print(f"diagnostics {name}: {'PASS' if ok else 'FAIL'}")
    _write_outputs(config, "diagnostics", config_path, files, budgets)
    if failed:
        raise DataError(f"bound checks failed: {', '.join(failed)}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "grid-search": _cmd_grid_search,
    "value": _cmd_value,
    "table2": _cmd_table2,
    "figures": _cmd_figures,
    "nested-mc": _cmd_nested_mc,
    "diagnostics": _cmd_diagnostics,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="kernelval",
        description="Value-process regression experiments on a two-step market.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline",
                           description=f"Run the {name} pipeline.")
        p.add_argument("--config", metavar="PATH",
                       help="configuration file (defaults cover the two-step study)")
        p.add_argument("--payoff", metavar="ID",
                       help=f"restrict to one payoff; known: {', '.join(PAYOFF_IDS)}")
        p.add_argument("--seed", type=int, metavar="U64", dest="master_seed",
                       help="override the master seed")
        p.add_argument("--out", metavar="DIR", dest="out_dir",
                       help="output directory")
        p.add_argument("--threads", type=int, metavar="N",
                       help="worker threads; default: the usable CPU count "
                            "(outputs are thread-count invariant)")
        p.add_argument("--n-train", type=int, metavar="N", dest="n_train",
                       help="override the training sample size")
        p.add_argument("--n-inner-gt", type=int, metavar="N", dest="n_inner_gt",
                       help="override the MC ground-truth inner budget")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    # every other flag's dest is the ExperimentConfig field it overrides
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config", "payoff", "threads")
                 and value is not None}
    if args.payoff is not None:
        overrides["payoffs"] = (args.payoff,)
    try:
        if args.threads is not None and args.threads < 1:
            raise InputError("threads must be at least 1")
        config = load_config(path=args.config, overrides=overrides)
        # None: all usable CPUs
        with pool.using(args.threads):
            return _COMMANDS[args.command](config, args.config)
    except InputError as exc:
        print(f"kernelval: input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"kernelval: {exc}", file=sys.stderr)
        return 1
    except (SolverError, DataError, CapabilityError, OverflowError,
            FloatingPointError) as exc:
        print(f"kernelval: numerical failure: {exc}", file=sys.stderr)
        return 2
    except KernelvalError as exc:
        print(f"kernelval: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
