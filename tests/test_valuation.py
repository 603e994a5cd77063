"""Value-process evaluation: series, errors, martingale checks, repeats."""

import math
import threading
from pathlib import Path

import numpy as np
import pytest

from kernelval import kernels, pool
from kernelval.cli import load_config
from kernelval.errors import DataError, InputError
from kernelval.kernels import (BLOCK, FeatureMapKernel, GaussExpKernel,
                               GaussPolyKernel, conditional_gram,
                               conditional_gram_dot, monomial_features)
from kernelval.krr import Estimator, fit, predict
from kernelval.market import BSConfig, GroundTruth, payoff_function
from kernelval.sampling import MeasureSpec, build_training_set, draw_paths
from kernelval.valuation import (ErrorReport, doob_check, martingale_gap,
                                 payoff_errors, payoff_l2_error,
                                 repeat_experiment, value_at_zero,
                                 value_process_error, value_series_many)
from support import (max_rel_gap, training_set_with_duplicates,
                     unfused_value_series)

CFG = BSConfig()
SPEC = GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2, gamma=0.45)
MEASURE = MeasureSpec(gamma=0.45, d=1, T=2, seed=100)
CONFIG_PATH = str(Path(__file__).resolve().parent.parent / "configs" / "bs2.cfg")


def _fit(n=400, payoff_id="european_put", lam=1e-5, mode="dual-unsorted",
         spec=SPEC, sampler=MEASURE):
    f = payoff_function(CFG, payoff_id)
    ts = build_training_set(sampler, f, n, payoff_id, stream=("vfit",))
    return fit(ts, spec, lam, mode=mode)


def test_series_endpoints():
    est = _fit()
    x = np.array([[0.4, -0.2]])
    s = value_series_many(est, x)
    assert s.shape == (1, 3)
    assert s[0, 0] == pytest.approx(value_at_zero(est), rel=1e-12)
    # the terminal value reveals the whole path, so it is the plain fit
    assert s[0, 2] == pytest.approx(predict(est, x), rel=1e-12)


def test_series_many_matches_single(monkeypatch):
    est = _fit(n=120)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=5), 6)
    batch = value_series_many(est, X)
    for i in range(6):
        one = value_series_many(est, X[i])
        assert one.shape == (1, 3)
        assert np.allclose(batch[i], one[0], rtol=1e-12)
    # block size changes BLAS accumulation order, so exact equality is out
    monkeypatch.setattr(kernels, "BLOCK", 2)
    small_block = value_series_many(est, X)
    assert np.allclose(batch, small_block, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("spec", [
    SPEC, GaussPolyKernel(alpha=0.5, beta=2, d=1, T=2, gamma=0.45),
], ids=["gauss-exp", "gauss-poly"])
def test_series_equals_conditional_gram_dot_block_by_block(spec):
    # the series is the product of each block of BLOCK paths, one call per
    # block and time step, bit for bit: blocking inside the product moves
    # no block boundary
    est = fit(training_set_with_duplicates(1, 2, 0.45), spec, 1e-5)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=15), 2 * BLOCK + 3)
    series = value_series_many(est, X)
    for lo in range(0, X.shape[0], BLOCK):
        chunk = X[lo:lo + BLOCK]
        for t in (1, 2):
            ref = conditional_gram_dot(spec, chunk[:, :, :t], est.paths, t,
                                       est.eval_coef) / est.n_train
            assert np.array_equal(series[lo:lo + BLOCK, t], ref), (lo, t)


def _series_estimator(kind):
    ts = training_set_with_duplicates(1, 2, 0.45)
    if kind == "primal":
        spec = FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2)
        return fit(ts, spec, 1e-4, mode="primal")
    if kind == "gauss-poly":
        return fit(ts, GaussPolyKernel(alpha=0.5, beta=2, d=1, T=2, gamma=0.45), 1e-5)
    return fit(ts, SPEC, 1e-5, mode=kind)


@pytest.mark.parametrize("kind", ["dual-unsorted", "dual-sorted", "gauss-poly",
                                  "primal"])
@pytest.mark.parametrize("n", [773, 253, BLOCK - 3])
def test_series_is_bitwise_equal_at_any_worker_count(kind, n, monkeypatch):
    # chunks start on block boundaries, so each block holds the same rows;
    # 773 and 253 rows are many blocks with a short last one, BLOCK - 3 is one
    est = _series_estimator(kind)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=16), n)
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(1) or start(self))
    series = {}
    for workers in (1, 2, 3):
        with pool.using(workers):
            series[workers] = value_series_many(est, X)
    assert np.array_equal(series[1], series[2])
    assert np.array_equal(series[1], series[3])
    # 1 + 2 helper threads for several blocks; none for a single block
    assert len(starts) == (3 if n > BLOCK else 0)


def test_overflow_in_a_later_chunk_propagates_and_no_thread_survives():
    # the e^838 entry of the exponent-plus-log-tail guard tests: a prefix
    # x_1 = 80 against the training path (40, 88); at x_1 = 70 the kernel
    # exponent alone is 810
    spec = GaussExpKernel(alpha=0.5, beta=0.45, d=1, T=2)
    Y = np.array([[[1.0, 92.0]], [[-3.0, 90.5]], [[40.0, 88.0]]])
    est = Estimator(mode="dual-unsorted", kernel=spec, lam=0.0, n_train=3,
                    paths=Y, eval_coef=np.ones(3))
    X = np.zeros((3 * BLOCK + 5, 1, 2))
    X[2 * BLOCK + BLOCK // 2, 0, 0] = 80.0  # second of two chunks: rows 2 * BLOCK on
    before = threading.active_count()
    with pool.using(2):
        with pytest.raises(OverflowError, match="838"):
            value_series_many(est, X)
        assert threading.active_count() == before
        # both chunks fail: the first chunk's exception is raised
        X[BLOCK // 2, 0, 0] = 70.0
        with pytest.raises(OverflowError, match="810"):
            value_series_many(est, X)
    assert threading.active_count() == before


@pytest.mark.parametrize("mode", ["dual-unsorted", "dual-sorted"])
@pytest.mark.parametrize("gamma", [0.0, 0.45])
@pytest.mark.parametrize("d,T", [(1, 2), (2, 3)])
def test_series_matches_unfused_evaluator_on_the_grid(d, T, gamma, mode):
    config = load_config(path=CONFIG_PATH)
    ts = training_set_with_duplicates(d, T, gamma)
    X = draw_paths(MeasureSpec(gamma=0.0, d=d, T=T, seed=13), 30)
    pairs = [(a, b) for a in config.alphas for b in config.betas if a or b]
    assert len(pairs) == 15
    for a, b in pairs:
        est = fit(ts, GaussExpKernel(alpha=a, beta=b, d=d, T=T, gamma=gamma),
                  1e-5, mode=mode)
        new, ref = value_series_many(est, X), unfused_value_series(est, X)
        for t in range(T + 1):
            assert max_rel_gap(new[:, t], ref[:, t]) <= 1e-12, (a, b, t)


@pytest.mark.parametrize("spec", [
    GaussPolyKernel(alpha=0.5, beta=2, d=1, T=2, gamma=0.45),
    FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2, gamma=0.45),
], ids=["gauss-poly", "feature-map"])
def test_series_of_other_kernel_families_unchanged(spec):
    est = fit(training_set_with_duplicates(1, 2, 0.45), spec, 1e-4)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=14), 30)
    new = value_series_many(est, X)
    for t in (1, 2):
        direct = conditional_gram(spec, X[:, :, :t], est.paths, t) @ est.eval_coef
        assert np.array_equal(new[:, t], direct / est.n_train)
    assert max_rel_gap(new, unfused_value_series(est, X)) <= 1e-12


def _raises_overflow(fn, *args):
    try:
        fn(*args)
    except OverflowError:
        return True
    return False


def test_series_overflows_exactly_where_the_unfused_evaluator_does():
    spec = GaussExpKernel(alpha=0.5, beta=0.45, d=1, T=2)
    base = np.array([[1.0, 2.0], [-3.0, 0.5], [40.0, -2.0]])[:, None, :]
    # a second step near 200 overflows the tail factor (exponent 0.0256 * 200^2)
    for Y in (base, base + np.array([0.0, 200.0])):
        est = Estimator(mode="dual-unsorted", kernel=spec, lam=0.0, n_train=3,
                        paths=Y, eval_coef=np.array([1.0, -2.0, 0.5]))
        seen = set()
        for scale in (0.1, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0):
            X = scale * base
            raised = _raises_overflow(value_series_many, est, X)
            assert raised == _raises_overflow(unfused_value_series, est, X), scale
            seen.add(raised)
        assert seen == ({True, False} if Y is base else {True})


def test_primal_series_agrees_with_dual():
    feats = monomial_features(1, 2, 3)
    fspec = FeatureMapKernel(features=feats, d=1, T=2)
    flat = MeasureSpec(gamma=0.0, d=1, T=2, seed=8)
    f = payoff_function(CFG, "european_put")
    ts = build_training_set(flat, f, 150, "european_put", stream=("ps",))
    ep = fit(ts, fspec, 1e-4, mode="primal")
    ed = fit(ts, fspec, 1e-4, mode="dual-unsorted")
    X = draw_paths(flat, 10, stream=("eval",))
    assert np.max(np.abs(value_series_many(ep, X)
                         - value_series_many(ed, X))) < 1e-8


def test_martingale_gap_within_se():
    est = _fit(n=500)
    v0, mc, se = martingale_gap(est, n=200_000, seed=4)
    assert se > 0
    assert abs(v0 - mc) < 3 * se


@pytest.mark.parametrize("kind", ["dual-unsorted", "primal"])
def test_martingale_gap_is_bitwise_equal_at_any_worker_count(kind):
    est = _series_estimator(kind)
    gaps = []
    for workers in (1, 2, 3):
        with pool.using(workers):
            gaps.append(martingale_gap(est, n=3 * BLOCK + 5, seed=6))
    assert gaps[0] == gaps[1] == gaps[2]


def test_payoff_errors_fields_and_zero_norm():
    est = _fit(n=200)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=3), 500)
    f = payoff_function(CFG, "european_put")(X)
    out = payoff_errors(est, X, f)
    assert 0 < out["rel"] < 1.0
    assert out["abs"] == pytest.approx(out["rel"] * out["payoff_norm"], rel=1e-12)
    assert out["n"] == 500
    with pytest.raises(DataError):
        payoff_errors(est, X, np.zeros(500))


def test_payoff_l2_error_reproducible():
    est = _fit(n=200)
    f = payoff_function(CFG, "european_put")
    a = payoff_l2_error(est, f, 300, seed=9)
    b = payoff_l2_error(est, f, 300, seed=9)
    c = payoff_l2_error(est, f, 300, seed=10)
    assert a == b
    assert a != c
    assert f.evals == 900
    with pytest.raises(InputError):
        payoff_l2_error(est, f, 0)


def test_value_process_error_converges_with_n():
    gt = GroundTruth(CFG, "european_put")
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=30), 400)
    errs = {}
    for n in (100, 1600):
        est = _fit(n=n)
        errs[n] = value_process_error(est, gt, X)
        assert errs[n].shape == (3,)
        assert (errs[n] >= 0).all()
    assert errs[1600].sum() < errs[100].sum()


def test_error_report_validation():
    with pytest.raises(DataError):
        ErrorReport(
            payoff_id="x", estimator="kernel", times=(0,),
            mean_pct=np.array([-0.1]), std_pct=np.array([0.0]),
        )


def test_doob_inequality_on_fitted_model():
    gt = GroundTruth(CFG, "asian_put")
    est = _fit(n=600, payoff_id="asian_put")
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=44), 1500)
    out = doob_check(est, gt, X)
    assert out["holds_3se"], out
    assert out["lhs"] <= out["rhs"] + 3 * out["se"]
    # the payoff side is the ground truth's last column: the oracle's bits
    gap = payoff_errors(est, X, payoff_function(CFG, "asian_put")(X))
    assert out["rhs"] == gap["abs"]


def test_repeat_experiment_budget_and_shape():
    gt = GroundTruth(CFG, "european_put")
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=61), 200)
    f = payoff_function(CFG, "european_put")
    rep, fits = repeat_experiment(
        f, SPEC, 1e-5, MEASURE, n_train=80, test_paths=X,
        gt=gt, n_repeats=3, n_val=40, master_seed=7)
    assert rep.estimator == "kernel"
    assert rep.payoff_id == "european_put"
    assert rep.times == (0, 1, 2)
    assert f.evals == 3 * (80 + 40)  # the ground truth is not counted
    assert len(fits) == 3
    assert not math.isnan(rep.l2_rel)
    # distinct repeats draw distinct training data
    assert not np.array_equal(fits[0].paths, fits[1].paths)
    with pytest.raises(InputError):
        repeat_experiment(f, SPEC, 1e-5, MEASURE, 80, X, gt, n_repeats=0)


def test_repeat_experiment_is_deterministic_in_master_seed():
    gt = GroundTruth(CFG, "european_put")
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=61), 100)
    kw = dict(n_train=60, test_paths=X, gt=gt, n_repeats=2, n_val=30)
    f = payoff_function(CFG, "european_put")
    a, _ = repeat_experiment(f, SPEC, 1e-5, MEASURE, master_seed=5, **kw)
    b, _ = repeat_experiment(f, SPEC, 1e-5, MEASURE, master_seed=5, **kw)
    c, _ = repeat_experiment(f, SPEC, 1e-5, MEASURE, master_seed=6, **kw)
    assert np.array_equal(a.mean_pct, b.mean_pct)
    assert not np.array_equal(a.mean_pct, c.mean_pct)
