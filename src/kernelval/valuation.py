"""Closed-form evaluation of the learned value process and its error metrics.

A fitted estimator represents a payoff function ``f_X``; its value process is
``Vhat_t = E[f_X(X) | X_1..X_t]``.  Because the kernel factorizes over time
steps, the conditional expectation of every kernel section is available in
closed form, so ``Vhat_t`` needs no inner simulation at all.  ``Vhat_0`` is
the same for every path and is computed once per chunk of paths; each later
time step costs one conditional-Gram-times-coefficients product per block
of :data:`kernels.BLOCK` paths (see :func:`kernels.conditional_gram_dot`).

Error metrics mirror the experiment layout: relative L2 payoff error on a
fresh validation sample, per-time relative L1 value-process error against a
high-budget ground truth, and the repeat pipeline that reports means and
standard deviations over independent training samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, pool
from .errors import DataError, InputError
from .krr import fit, predict
from .sampling import MeasureSpec, build_training_set, derive_rng, draw_paths

__all__ = [
    "ErrorReport",
    "value_series_many",
    "value_at_zero",
    "payoff_errors",
    "payoff_l2_error",
    "value_process_error",
    "repeat_experiment",
    "martingale_gap",
    "doob_check",
]


@dataclass(frozen=True)
class ErrorReport:
    """Per-time relative L1 errors of a value-process estimator.

    ``mean_pct[t]`` and ``std_pct[t]`` are percentages of the time-0 value,
    aggregated over training repetitions.  ``times`` may omit t values for
    which the method produces no estimate.
    """

    payoff_id: str
    estimator: str
    times: tuple
    mean_pct: np.ndarray
    std_pct: np.ndarray
    l2_rel: float = float("nan")

    def __post_init__(self):
        self.mean_pct.setflags(write=False)
        self.std_pct.setflags(write=False)
        if np.any(self.mean_pct < 0) or np.any(self.std_pct < 0):
            raise DataError("error report entries must be nonnegative")


def _values_at(est, pre, t):
    """Vhat_t at each of the prefixes ``pre`` (N, d, >= t); returns (N,).

    A dual fit's t = 0 value is one conditional-Gram row times the
    coefficients, shared by every row; later steps are
    :func:`kernels.conditional_gram_dot`.  A primal fit multiplies the
    conditional features of each block of :data:`kernels.BLOCK` rows.
    """
    spec = est.kernel
    if est.mode == "primal":
        return kernels._by_row_blocks(
            lambda rows: kernels.conditional_feature_matrix(spec, rows, t)
            @ est.primal_coef, pre)
    if t == 0:
        G0 = kernels.conditional_gram(spec, np.zeros((1, spec.d, 0)), est.paths, 0)
        return np.full(len(pre), G0[0] @ est.eval_coef / est.n_train)
    return kernels.conditional_gram_dot(spec, pre, est.paths, t,
                                        est.eval_coef) / est.n_train


def value_series_many(est, X):
    """Vhat_t for a batch of paths; returns shape (N, T+1), filled on the
    :mod:`kernelval.pool` (:func:`pool.fill_rows`)."""
    X = kernels.as_paths(X, est.kernel.d, est.kernel.T)
    times = range(est.kernel.T + 1)
    return pool.fill_rows(np.empty((len(X), len(times))), lambda s: np.stack(
        [_values_at(est, X[s, :, :t], t) for t in times], axis=1))


def value_at_zero(est):
    """Time-0 value: the series' t = 0 column."""
    return float(_values_at(est, np.zeros((1, est.kernel.d, 0)), 0)[0])


def payoff_errors(est, paths, values):
    """L2 gap between fitted and true payoff on a given sample.

    Returns absolute and relative gaps plus delta-method standard errors of
    the absolute gap, for use in one-sided bound checks.
    """
    paths = kernels.as_paths(paths, est.kernel.d, est.kernel.T)
    pred = predict(est, paths)
    sq = (values - pred) ** 2
    mean_sq = float(np.mean(sq))
    denom_sq = float(np.mean(values**2))
    if denom_sq == 0.0:
        raise DataError("payoff norm estimate is zero; relative error undefined")
    abs_l2 = math.sqrt(mean_sq)
    se_mean_sq = float(np.std(sq, ddof=1)) / math.sqrt(len(sq)) if len(sq) > 1 else 0.0
    se_abs = se_mean_sq / (2 * abs_l2) if abs_l2 > 0 else math.sqrt(se_mean_sq)
    return {
        "abs": abs_l2,
        "rel": abs_l2 / math.sqrt(denom_sq),
        "se_abs": se_abs,
        "payoff_norm": math.sqrt(denom_sq),
        "n": len(sq),
    }


def payoff_l2_error(est, f, n_val, seed=None, stream=("validation",)):
    """Relative L2 payoff error on n_val fresh nominal-measure paths, priced
    by the payoff oracle ``f`` (:func:`market.payoff_function`)."""
    if n_val < 1:
        raise InputError("n_val must be at least 1")
    nominal = MeasureSpec(gamma=0.0, d=est.kernel.d, T=est.kernel.T,
                          seed=0 if seed is None else seed)
    X = draw_paths(nominal, n_val, stream=stream, seed=seed)
    return payoff_errors(est, X, f(X))["rel"]


def value_process_error(est, gt, test_paths):
    """Mean |V_t - Vhat_t| / V_0 per time step over the test paths."""
    X = kernels.as_paths(test_paths, est.kernel.d, est.kernel.T)
    truth = gt.v_series(X)
    v0 = truth[0, 0]
    if v0 == 0.0:
        raise DataError("ground-truth time-0 value is zero; relative error undefined")
    approx = value_series_many(est, X)
    # pairwise-stable reduction: np.mean sums pairwise for float64 arrays
    return np.mean(np.abs(truth - approx), axis=0) / v0


def martingale_gap(est, n=100_000, seed=0, stream=("martingale",)):
    """Tower check at the root: MC mean of Vhat_1 against the exact Vhat_0.

    Returns (v0, mc_mean, se); a correct conditional-expectation stack keeps
    |v0 - mc_mean| within a few se.  The ``n`` values of Vhat_1 are split
    over the :mod:`kernelval.pool` as in :func:`value_series_many`.
    """
    rng = derive_rng(seed, *stream)
    v0 = value_at_zero(est)
    x1 = rng.standard_normal((n, est.kernel.d, 1))
    vals = pool.fill_rows(np.empty(n), lambda s: _values_at(est, x1[s], 1))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    return v0, float(np.mean(vals)), se


def doob_check(est, gt, test_paths):
    """Maximal-inequality consequence: half the L2 norm of the running maximum
    of |V_t - Vhat_t| must not exceed the terminal L2 payoff gap.

    Both sides are MC estimates on the same test paths, whose payoff is the
    ground truth's last column; returns a dict with the two sides and their
    combined standard error.
    """
    X = kernels.as_paths(test_paths, est.kernel.d, est.kernel.T)
    truth = gt.v_series(X)
    approx = value_series_many(est, X)
    run_max = np.max(np.abs(truth - approx), axis=1)
    m2 = float(np.mean(run_max**2))
    lhs = 0.5 * math.sqrt(m2)
    se_m2 = float(np.std(run_max**2, ddof=1)) / math.sqrt(len(run_max))
    se_lhs = 0.5 * se_m2 / (2 * math.sqrt(m2)) if m2 > 0 else 0.0
    gap = payoff_errors(est, X, truth[:, -1])
    rhs, se_rhs = gap["abs"], gap["se_abs"]
    return {
        "lhs": lhs,
        "rhs": rhs,
        "se": math.sqrt(se_lhs**2 + se_rhs**2),
        "holds_3se": lhs <= rhs + 3 * math.sqrt(se_lhs**2 + se_rhs**2),
    }


def repeat_experiment(f, spec, lam, sampler, n_train, test_paths, gt,
                      n_repeats=10, n_val=500, master_seed=0, mode="dual-unsorted"):
    """Full error pipeline over independent training samples.

    Per repeat: draw a training sample from ``sampler``, price it with the
    payoff oracle ``f`` (:func:`market.payoff_function`), fit, measure the
    value-process error on the shared test paths and the payoff L2 error on a
    fresh validation sample.  Returns ``(report, fits)``: per-time mean and
    standard deviation as percentages of the ground-truth time-0 value, and
    the repeats' estimators.
    """
    if n_repeats < 1:
        raise InputError("n_repeats must be at least 1")
    per_t, l2s, fits = [], [], []
    for r in range(n_repeats):
        ts = build_training_set(sampler, f, n_train, f.payoff_id,
                                stream=("repeat", r, "train"), seed=master_seed)
        est = fit(ts, spec, lam, mode=mode)
        per_t.append(value_process_error(est, gt, test_paths))
        l2s.append(payoff_l2_error(est, f, n_val, seed=master_seed,
                                   stream=("repeat", r, "validation")))
        fits.append(est)
    arr = 100.0 * np.asarray(per_t)
    report = ErrorReport(
        payoff_id=f.payoff_id,
        estimator="kernel",
        times=tuple(range(spec.T + 1)),
        mean_pct=arr.mean(axis=0),
        std_pct=arr.std(axis=0, ddof=1) if n_repeats > 1 else np.zeros(arr.shape[1]),
        l2_rel=float(np.mean(l2s)),
    )
    return report, fits
