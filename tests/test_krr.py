"""Ridge solvers: hand-solved oracles, mode agreement, serialization."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from kernelval import krr
from kernelval.cli import load_config
from kernelval.errors import CapabilityError, DataError, InputError, SolverError
from kernelval.kernels import (BLOCK, FeatureMapKernel, GaussExpKernel,
                               GaussPolyKernel, conditional_gram_dot,
                               feature_matrix, gauss_poly_features, gram,
                               monomial_features, tilted_gram)
from kernelval.krr import (MAX_DUAL_SIZE, Estimator, estimator_from_json,
                           estimator_to_json, fit, fit_path, load_estimator,
                           predict, regularization_path)
from kernelval.market import BSConfig, payoff_function
from kernelval.sampling import (MeasureSpec, TrainingSet, build_training_set,
                                draw_paths)
from support import (copying_route_residual, copying_route_solutions,
                     gram_predict, linear_rate_problem,
                     loglog_slope, max_rel_gap, peak_bytes,
                     ridge_gradient_descent, sqrt_rate_problem,
                     training_set_with_duplicates)

SPEC = GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=2, gamma=0.45)
MEASURE = MeasureSpec(gamma=0.45, d=1, T=2, seed=314)
PAYOFF = payoff_function(BSConfig(), "european_put")
CONFIG_PATH = str(Path(__file__).resolve().parent.parent / "configs" / "bs2.cfg")


def _ts(n, seed=314, stream=("krr",)):
    m = dataclasses.replace(MEASURE, seed=seed)
    return build_training_set(m, PAYOFF, n, payoff_id="european_put",
                              stream=stream)


def _repeated_ts(k, times):
    """Each of ``k`` sampled paths ``times`` times in a row."""
    base = _ts(k)
    reps = np.repeat(np.arange(k), times)
    return TrainingSet(paths=base.paths[reps], payoff_values=base.payoff_values[reps],
                       weights=base.weights[reps], payoff_id=base.payoff_id)


def test_three_point_system_solved_by_hand():
    ts = _ts(3)
    lam = 1e-3
    est = fit(ts, SPEC, lam, mode="dual-unsorted")
    K = gram(SPEC, ts.paths)
    Kt = K / np.sqrt(np.outer(ts.weights, ts.weights))
    M = Kt / 3 + lam * np.eye(3)
    g = np.linalg.solve(M, ts.payoff_values / np.sqrt(ts.weights))
    assert np.allclose(est.dual_coef, g, rtol=1e-12)
    assert np.allclose(est.eval_coef, g / np.sqrt(ts.weights), rtol=1e-12)
    x = np.array([[0.25, -0.5]])
    manual = float((gram(SPEC, x[None], ts.paths) @ est.eval_coef)[0]) / 3
    assert predict(est, x) == pytest.approx(manual, rel=1e-13)


def test_single_point_scalar_formula():
    ts = _ts(1)
    lam = 0.01
    est = fit(ts, SPEC, lam, mode="dual-unsorted")
    ktt = float(gram(SPEC, ts.paths, ts.paths)[0, 0]) / ts.weights[0]
    expect = (ts.payoff_values[0] / math.sqrt(ts.weights[0])) / (ktt + lam)
    assert est.dual_coef[0] == pytest.approx(expect, rel=1e-13)


def test_primal_matches_gradient_descent_reference():
    feats = monomial_features(1, 2, 2)
    spec = FeatureMapKernel(features=feats, d=1, T=2)
    m = MeasureSpec(gamma=0.0, d=1, T=2, seed=21)
    ts = build_training_set(m, PAYOFF, 200, stream=("gd",))
    lam = 1e-2
    est = fit(ts, spec, lam, mode="primal")
    phi = feature_matrix(spec, ts.paths)  # weights are all 1 at gamma = 0
    ref = ridge_gradient_descent(phi, ts.payoff_values, lam)
    assert np.allclose(est.primal_coef, ref, atol=1e-8)


def test_near_interpolation_at_tiny_lambda():
    # flat weights keep the system well conditioned at the tiny ridge
    m = MeasureSpec(gamma=0.0, d=1, T=2, seed=314)
    ts = build_training_set(m, PAYOFF, 25, stream=("interp",))
    est = fit(ts, SPEC, 1e-12, mode="dual-unsorted")
    pred = predict(est, ts.paths)
    assert np.max(np.abs(pred - ts.payoff_values)) < 1e-6


def test_fit_is_linear_in_the_payoff():
    ts = _ts(40)
    other = dataclasses.replace(ts, payoff_values=np.cos(ts.paths.sum(axis=(1, 2))))
    lam = 1e-4
    a, b = 2.0, -0.7
    combo = dataclasses.replace(
        ts, payoff_values=a * ts.payoff_values + b * other.payoff_values)
    x = np.linspace(-1, 1, 7).reshape(-1, 1) * np.ones((7, 2))
    x = x.reshape(7, 1, 2)
    pa = predict(fit(ts, SPEC, lam, mode="dual-unsorted"), x)
    pb = predict(fit(other, SPEC, lam, mode="dual-unsorted"), x)
    pc = predict(fit(combo, SPEC, lam, mode="dual-unsorted"), x)
    assert np.allclose(pc, a * pa + b * pb, rtol=1e-10, atol=1e-12)


def test_shrinkage_grows_with_lambda():
    ts = _ts(60)
    lambdas = [1e-8, 1e-5, 1e-3, 1e-1]
    _, gaps = regularization_path(ts, SPEC, lambdas, mode="dual-unsorted")
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_dual_norm_bound():
    ts = _ts(50)
    for lam in (1e-4, 1e-2):
        est = fit(ts, SPEC, lam, mode="dual-unsorted")
        rhs = ts.payoff_values / np.sqrt(ts.weights)
        assert np.linalg.norm(est.dual_coef) <= np.linalg.norm(rhs) / lam + 1e-9


def test_residual_reported_and_degraded_by_perturbation():
    ts = _ts(30)
    est = fit(ts, SPEC, 1e-5, mode="dual-unsorted")
    assert est.residual < 1e-10
    # the oracle's system is the fit's bit for bit, so is its residual
    assert copying_route_residual(ts, SPEC, 1e-5, est.dual_coef) == est.residual
    assert copying_route_residual(ts, SPEC, 1e-5, est.dual_coef + 0.05) > (
        100 * est.residual)


def test_sorted_mode_merges_duplicates():
    ts = _repeated_ts(12, 3)
    lam = 1e-4
    sorted_est = fit(ts, SPEC, lam, mode="dual-sorted")
    unsorted_est = fit(ts, SPEC, lam, mode="dual-unsorted")
    assert sorted_est.paths.shape[0] == 12
    assert sorted_est.multiplicity.tolist() == [3] * 12
    x = np.linspace(-2, 2, 9).reshape(-1, 1, 1) * np.ones((9, 1, 2))
    pa = predict(sorted_est, x)
    pb = predict(unsorted_est, x)
    assert np.max(np.abs(pa - pb)) < 1e-9
    assert copying_route_residual(ts, SPEC, lam, sorted_est.dual_coef,
                                  "dual-sorted") < 1e-10


def test_sorted_equals_unsorted_without_duplicates():
    ts = _ts(45)
    x = np.linspace(-2, 2, 11).reshape(-1, 1, 1) * np.ones((11, 1, 2))
    pa = predict(fit(ts, SPEC, 1e-5, mode="dual-sorted"), x)
    pb = predict(fit(ts, SPEC, 1e-5, mode="dual-unsorted"), x)
    assert np.max(np.abs(pa - pb)) < 1e-9


def test_primal_equals_dual_for_feature_kernels():
    feats = monomial_features(1, 2, 3)
    spec = FeatureMapKernel(features=feats, d=1, T=2)
    m = MeasureSpec(gamma=0.0, d=1, T=2, seed=77)
    ts = build_training_set(m, PAYOFF, 120, stream=("pd",))
    lam = 1e-4
    x = np.linspace(-2, 2, 13).reshape(-1, 1, 1) * np.ones((13, 1, 2))
    pp = predict(fit(ts, spec, lam, mode="primal"), x)
    pd = predict(fit(ts, spec, lam, mode="dual-unsorted"), x)
    assert np.max(np.abs(pp - pd)) < 1e-8


def test_zero_lambda_refused_on_singular_gram():
    with pytest.raises(SolverError):
        fit(_repeated_ts(8, 2), SPEC, 0.0, mode="dual-unsorted")


def test_failed_cholesky_reports_the_extreme_eigenvalue_ratio():
    # eigenvalues 1, 2, 3 and -1e-3 in a rotated basis: |lmax / lmin| = 3000
    Q = np.linalg.qr(np.random.default_rng(19).standard_normal((4, 4)))[0]
    M = (Q * [1.0, 2.0, 3.0, -1e-3]) @ Q.T
    with pytest.raises(SolverError) as exc:
        krr._solve_spd(M, np.ones(4), 1e-5, "probe")
    assert exc.value.condition_number == pytest.approx(3.0e3, rel=1e-9)
    assert str(exc.value) == ("probe: Cholesky factorization failed (matrix not "
                              "positive definite; estimated condition number "
                              "3.000e+03)")
    with pytest.raises(SolverError) as exc:
        krr._solve_spd(np.array([[-2.0]]), np.ones(1), 1e-5, "probe")
    assert exc.value.condition_number == 1.0


def _assert_same_fit(a, b):
    """Bitwise equality: coefficients, residual, training hash, every field."""
    for name in ("eval_coef", "dual_coef", "primal_coef", "paths", "weights",
                 "multiplicity", "support_index"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or x.tobytes() == y.tobytes(), name
    assert a.residual == b.residual
    assert a.training_hash == b.training_hash
    assert estimator_to_json(a) == estimator_to_json(b)


@pytest.mark.parametrize("mode", ["dual-unsorted", "dual-sorted", "primal"])
def test_fit_path_equals_separate_fits(mode):
    lambdas = [1e-3, 1e-7, 1e-5, 1e-9]
    if mode == "primal":
        ts, spec = _ts(40), FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2)
    else:
        ts, spec = _repeated_ts(15, 3), SPEC
    path = fit_path(ts, spec, lambdas, mode=mode, payoff_id="put")
    assert len(path) == len(lambdas)
    for lam, est in zip(lambdas, path):
        assert est.lam == lam and est.payoff_id == "put"
        _assert_same_fit(est, fit(ts, spec, lam, mode=mode, payoff_id="put"))


def test_refused_lambda_zero_mid_path_leaves_later_fits_unchanged():
    ts = _repeated_ts(8, 2)  # singular Gram: lambda = 0 is refused
    lambdas = [1e-3, 0.0, 1e-5, 1e-7]
    path = fit_path(ts, SPEC, lambdas)
    assert isinstance(path[1], SolverError)
    with pytest.raises(SolverError) as exc:
        fit(ts, SPEC, 0.0)
    assert str(path[1]) == str(exc.value)
    for i in (0, 2, 3):
        _assert_same_fit(path[i], fit(ts, SPEC, lambdas[i]))


# (alpha, beta, n) of the in-place factorization's bitwise pins
PINNED = [(4.0, 0.3, 1000), (0.0, 0.15, 1000), (6.0, 0.45, 600)]
PATH = [1e-3, 1e-5, 1e-7, 1e-9]


@pytest.mark.parametrize("alpha,beta,n", PINNED)
def test_fit_matrix_is_the_tilted_gram_mirrored(alpha, beta, n):
    spec = GaussExpKernel(alpha=alpha, beta=beta, d=1, T=2, gamma=0.45)
    ts = _ts(n)
    M = krr._unsorted_system(ts, spec)[0]
    K = tilted_gram(spec, ts.paths, ts.weights) / ts.n
    assert np.tril(M).tobytes() == np.tril(K).tobytes()
    assert M.tobytes() == np.ascontiguousarray(M.T).tobytes()


@pytest.mark.parametrize("alpha,beta,n,mode", [
    *[(a, b, n, mode) for a, b, n in PINNED
      for mode in ("dual-unsorted", "dual-sorted")],
    (None, None, 1000, "primal"),
])
def test_in_place_path_equals_the_copying_route(alpha, beta, n, mode):
    # one n x n array for the whole path: every lambda's coefficients are
    # those of a factorization on a copy, bit for bit
    if mode == "primal":
        spec = FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2)
    else:
        spec = GaussExpKernel(alpha=alpha, beta=beta, d=1, T=2, gamma=0.45)
    ts = _repeated_ts(n // 4, 4) if mode == "dual-sorted" else _ts(n)
    path = fit_path(ts, spec, PATH, mode=mode)
    oracle = copying_route_solutions(ts, spec, PATH, mode)
    for lam, est, sol in zip(PATH, path, oracle):
        coef = est.primal_coef if mode == "primal" else est.dual_coef
        assert coef.tobytes() == sol.tobytes()
        assert copying_route_residual(ts, spec, lam, coef, mode) == est.residual


@pytest.mark.parametrize("alpha,beta,n,failure", [
    (0.0, 0.05, 200, "Cholesky factorization failed"),
    (1.0, 0.0, 100, "lambda = 0 refused"),
])
def test_failed_lambda_mid_path_restores_the_matrix(alpha, beta, n, failure):
    # at lambda = 0 a nearly flat kernel fails in the factorization, a
    # smoother one in the condition estimate that follows it
    spec = GaussExpKernel(alpha=alpha, beta=beta, d=1, T=2, gamma=0.45)
    ts = _ts(n)
    lambdas = [1e-3, 0.0, 1e-5, 1e-7]
    path = fit_path(ts, spec, lambdas)
    oracle = copying_route_solutions(ts, spec, lambdas)
    with pytest.raises(SolverError, match=failure) as exc:
        fit(ts, spec, 0.0)
    assert str(path[1]) == str(exc.value)
    if isinstance(oracle[1], float):  # the copying route's eigenvalue ratio
        assert path[1].condition_number == oracle[1]
    for i in (0, 2, 3):
        _assert_same_fit(path[i], fit(ts, spec, lambdas[i]))
        assert path[i].dual_coef.tobytes() == oracle[i].tobytes()


def test_fit_memory_is_one_gram():
    # the Gram is factored in place: no second n x n array, on any lambda
    n = 2000
    ts = _ts(n)
    assert peak_bytes(fit, ts, SPEC, 1e-5) < 1.1 * 8 * n * n
    assert peak_bytes(fit_path, ts, SPEC, PATH) < 1.1 * 8 * n * n


def test_zero_lambda_condition_estimate_holds_no_second_gram():
    n = 1000
    M = krr._unsorted_system(_ts(n), SPEC)[0]
    assert krr._abs_column_sums_max(M) == np.abs(M).sum(axis=0).max()
    assert peak_bytes(krr._abs_column_sums_max, M) < 2 * BLOCK * n * 8


def test_overflowing_gram_fails_every_lambda():
    base = _ts(4)
    ts = dataclasses.replace(base, paths=base.paths + 60.0)
    path = fit_path(ts, SPEC, [1e-3, 1e-5])
    assert all(isinstance(r, OverflowError) for r in path)
    with pytest.raises(OverflowError):
        fit(ts, SPEC, 1e-3)


@pytest.mark.parametrize("mode", ["dual-unsorted", "dual-sorted"])
@pytest.mark.parametrize("d,T", [(1, 2), (2, 3)])
def test_dual_predict_matches_the_gram_oracle(d, T, mode):
    config = load_config(path=CONFIG_PATH)
    ts = training_set_with_duplicates(d, T, 0.45)
    X = draw_paths(MeasureSpec(gamma=0.0, d=d, T=T, seed=16), BLOCK + 1)
    pairs = [(a, b) for a in config.alphas for b in config.betas if a or b]
    assert len(pairs) == 15
    for a, b in pairs:
        est = fit(ts, GaussExpKernel(alpha=a, beta=b, d=d, T=T, gamma=0.45),
                  1e-5, mode=mode)
        ref = gram_predict(est, X)
        # one row, one block less one row, exactly one block, one block plus one
        for n in (1, BLOCK - 1, BLOCK, BLOCK + 1):
            got = predict(est, X[:n])
            assert got.shape == (n,)
            assert max_rel_gap(got, ref[:n]) <= 1e-12, (a, b, n)
        one = predict(est, X[0])
        assert isinstance(one, float)
        assert abs(one - ref[0]) <= 1e-12 * abs(ref[0]), (a, b)


def test_predict_overflows_where_the_gram_does():
    # the training paths of the exponent-plus-log-tail guard test: at x =
    # (80, 37.37) the kernel exponent against (40, 88) is
    # 1.45 * 6488.6 - 0.5 * 7796.5 - 0.5 * 9344 = 838, the e^838 entry
    spec = GaussExpKernel(alpha=0.5, beta=0.45, d=1, T=2)
    Y = np.array([[[1.0, 92.0]], [[-3.0, 90.5]], [[40.0, 88.0]]])
    est = Estimator(mode="dual-unsorted", kernel=spec, lam=0.0, n_train=3,
                    paths=Y, eval_coef=np.ones(3))
    x = np.array([[[80.0, 37.37]]])
    with pytest.raises(OverflowError):
        predict(est, x)
    with pytest.raises(OverflowError):
        gram_predict(est, x)
    # the exponent is 9408 s - 3898 s^2 - 4672 at x scaled by s: above the
    # guard's 700 for s in (0.93, 1.49)
    seen = set()
    for scale in (0.8, 0.9, 0.95, 1.2, 1.45, 1.5, 1.6):
        xs = scale * x
        try:
            ref = gram_predict(est, xs)
        except OverflowError:
            seen.add(True)
            with pytest.raises(OverflowError):
                predict(est, xs)
        else:
            seen.add(False)
            assert max_rel_gap(predict(est, xs), ref) <= 1e-12, scale
    assert seen == {True, False}


def test_gauss_poly_fit_beyond_the_feature_enumeration_is_refused():
    # every GaussPoly evaluation goes through its feature expansion, which
    # stops at beta = 4, so a fit at beta = 5 could not be valued
    spec = GaussPolyKernel(alpha=0.5, beta=5, d=1, T=2, gamma=0.45)
    with pytest.raises(CapabilityError, match="beta <= 4"):
        fit(training_set_with_duplicates(1, 2, 0.45), spec, 1e-4)


@pytest.mark.parametrize("mode", ["dual-unsorted", "dual-sorted"])
@pytest.mark.parametrize("spec", [
    GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=2, gamma=0.45),
    GaussPolyKernel(alpha=0.5, beta=2, d=1, T=2, gamma=0.45),
    FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2, gamma=0.45),
])
def test_dual_predict_is_the_conditional_gram_dot_at_T(spec, mode):
    est = fit(training_set_with_duplicates(1, 2, 0.45), spec, 1e-4, mode=mode)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=17), BLOCK + 1)
    ref = conditional_gram_dot(spec, X, est.paths, spec.T, est.eval_coef) / est.n_train
    assert np.array_equal(predict(est, X), ref)


def test_predict_memory_is_one_block_not_the_gram():
    rng = np.random.default_rng(18)
    n, N = 1000, 20_000
    est = Estimator(mode="dual-unsorted", kernel=SPEC, lam=1e-5, n_train=n,
                    paths=rng.standard_normal((n, 1, 2)),
                    eval_coef=rng.standard_normal(n))
    X = rng.standard_normal((N, 1, 2))
    # the full N x n Gram (160 MB) is 78 blocks; one block is 2 MB
    assert peak_bytes(predict, est, X) < 2 * BLOCK * n * 8


def test_gram_size_guard(monkeypatch):
    monkeypatch.setattr(krr, "MAX_DUAL_SIZE", 10)
    ts = _ts(11)
    with pytest.raises(CapabilityError):
        fit(ts, SPEC, 1e-3, mode="dual-unsorted")
    assert MAX_DUAL_SIZE == 20_000  # the shipped limit itself


def test_input_validation():
    ts = _ts(5)
    with pytest.raises(InputError):
        fit(ts, SPEC, -1e-3, mode="dual-unsorted")
    for lam in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite and nonnegative"):
            fit(ts, SPEC, lam, mode="dual-unsorted")
        with pytest.raises(InputError, match="finite and nonnegative"):
            fit_path(ts, SPEC, [1e-3, lam])
    with pytest.raises(InputError):
        fit(ts, SPEC, 1e-3, mode="banana")
    wrong = GaussExpKernel(alpha=1.0, beta=0.1, d=1, T=3)
    with pytest.raises(InputError):
        fit(ts, wrong, 1e-3, mode="dual-unsorted")
    with pytest.raises(InputError):
        fit(ts, SPEC, 1e-3, mode="primal")  # no finite feature basis


def test_serialization_roundtrip(tmp_path):
    ts = _ts(20)
    for mode in ("dual-unsorted", "dual-sorted"):
        est = fit(ts, SPEC, 1e-5, mode=mode)
        doc = estimator_to_json(est)
        back = estimator_from_json(doc, ts)
        assert back.mode == est.mode and back.lam == est.lam
        x = np.linspace(-1, 1, 5).reshape(-1, 1, 1) * np.ones((5, 1, 2))
        assert np.array_equal(predict(back, x), predict(est, x))
    p = tmp_path / "est.json"
    est = fit(ts, SPEC, 1e-5)
    p.write_text(estimator_to_json(est))
    loaded = load_estimator(p, ts)
    assert loaded.training_hash == est.training_hash
    assert loaded.residual == est.residual


def test_primal_serialization_roundtrip_rebuilds_the_features():
    # a feature map whose features carry non-unit coefficients (the
    # Gaussian-polynomial expansion) through estimator_to_json and back
    ts = _ts(30)
    spec = FeatureMapKernel(
        features=gauss_poly_features(GaussPolyKernel(alpha=0.5, beta=2, d=1, T=2)),
        d=1, T=2, gamma=0.45)
    assert any(f.coef != 1.0 for f in spec.features)
    est = fit(ts, spec, 1e-4, mode="primal")
    back = estimator_from_json(estimator_to_json(est), ts)
    assert back.kernel == est.kernel
    assert back.primal_coef.tobytes() == est.primal_coef.tobytes()
    assert estimator_to_json(back) == estimator_to_json(est)
    x = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=19), 7)
    assert np.array_equal(predict(back, x), predict(est, x))


def test_serialization_rejects_foreign_training_set():
    ts = _ts(20)
    est = fit(ts, SPEC, 1e-5)
    other = _ts(20, seed=999)
    with pytest.raises(InputError):
        estimator_from_json(estimator_to_json(est), other)


def test_gap_slope_half_for_geometric_spectrum():
    ts, spec = sqrt_rate_problem()
    lambdas = np.logspace(-6.5, -2.5, 9)
    _, gaps = regularization_path(ts, spec, lambdas)
    assert loglog_slope(lambdas, gaps) == pytest.approx(0.5, abs=0.05)


def test_gap_slope_one_for_flat_spectrum():
    ts, spec = linear_rate_problem()
    lambdas = np.logspace(-6, -2, 9)
    _, gaps = regularization_path(ts, spec, lambdas)
    assert loglog_slope(lambdas, gaps) == pytest.approx(1.0, abs=0.01)
