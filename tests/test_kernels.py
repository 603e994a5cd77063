"""Kernel evaluations, tilts, and closed-form conditional expectations."""

import math

import numpy as np
import pytest

from kernelval import kernels
from kernelval.errors import InputError
from kernelval.kernels import (EXP_GUARD, FeatureMapKernel, GaussExpKernel,
                               GaussPolyKernel, MonomialFeature, cond_expect,
                               conditional_feature_matrix, conditional_gram,
                               conditional_gram_dot, feature_matrix,
                               gauss_moment, gauss_poly_features, gram,
                               monomial_features, tilted_diag, tilted_gram)
from kernelval.sampling import MeasureSpec, MixtureSampler, draw_paths, rn_weight
from support import (closed_form_tilted_gram, log_tail,
                     pow_expected_monomial_shifted, pow_feature_products,
                     term_by_term_gram, unfused_conditional_gram)

RNG = np.random.default_rng(20240817)


def test_gauss_moments():
    # (k-1)!! for even orders, zero for odd
    assert gauss_moment(0) == 1.0
    assert gauss_moment(1) == 0.0
    assert gauss_moment(2) == 1.0
    assert gauss_moment(4) == 3.0
    assert gauss_moment(8) == 105.0
    with pytest.raises(InputError):
        gauss_moment(-2)


def test_exponential_kernel_point_values():
    spec = GaussExpKernel(alpha=0.0, beta=0.3, d=1, T=1)
    assert math.isclose(gram(spec, [1.0], [1.0])[0, 0], math.exp(0.3),
                        rel_tol=1e-15)
    spec2 = GaussExpKernel(alpha=1.0, beta=0.0, d=1, T=1)
    assert math.isclose(gram(spec2, [0.0], [2.0])[0, 0], math.exp(-4.0),
                        rel_tol=1e-15)


def test_poly_kernel_point_value():
    spec = GaussPolyKernel(alpha=0.0, beta=2, d=1, T=1)
    assert gram(spec, [1.0], [2.0])[0, 0] == pytest.approx(9.0, rel=1e-15)


def test_kernel_parameter_validation():
    with pytest.raises(InputError):
        GaussExpKernel(alpha=0.0, beta=0.0)  # constant kernel excluded
    with pytest.raises(InputError):
        GaussExpKernel(alpha=1.0, beta=0.5)  # beta must stay below 1/2
    with pytest.raises(InputError):
        GaussExpKernel(alpha=-1.0, beta=0.1)
    with pytest.raises(InputError):
        GaussPolyKernel(alpha=0.0, beta=-1)
    # a NaN passes a plain `alpha < 0` or `gamma >= 0.5` test; every spec
    # refuses it
    nan = float("nan")
    feats = monomial_features(1, 2, 1)
    for make in (lambda: GaussExpKernel(alpha=nan, beta=0.1),
                 lambda: GaussPolyKernel(alpha=nan, beta=2),
                 lambda: GaussExpKernel(alpha=1.0, beta=0.1, gamma=nan),
                 lambda: GaussPolyKernel(alpha=1.0, beta=2, gamma=nan),
                 lambda: FeatureMapKernel(features=feats, gamma=nan),
                 lambda: MeasureSpec(gamma=nan)):
        with pytest.raises(InputError, match="alpha must be|gamma must be"):
            make()


@pytest.mark.parametrize("spec", [
    GaussExpKernel(alpha=2.0, beta=0.3, d=2, T=3),
    GaussPolyKernel(alpha=0.7, beta=2, d=2, T=3),
    GaussPolyKernel(alpha=0.7, beta=4, d=1, T=2),
    FeatureMapKernel(features=monomial_features(2, 3, 2), d=2, T=3),
])
def test_gram_is_the_conditional_gram_at_T(spec):
    # one evaluation route per family: the plain Gram is t = T, bit for bit
    X = RNG.standard_normal((9, spec.d, spec.T))
    Y = RNG.standard_normal((5, spec.d, spec.T))
    assert np.array_equal(gram(spec, X, Y), conditional_gram(spec, X, Y, spec.T))
    assert np.array_equal(gram(spec, X), conditional_gram(spec, X, X, spec.T))


BS2_PAIRS = [(a, b) for a in (0.0, 2.0, 4.0, 6.0) for b in (0.0, 0.15, 0.3, 0.45)
             if a or b]


@pytest.mark.parametrize("d, T", [(1, 2), (2, 3)])
def test_gram_matches_the_term_by_term_exponent(d, T):
    assert len(BS2_PAIRS) == 15
    rng = np.random.default_rng(21)
    X = rng.standard_normal((23, d, T))
    Y = np.concatenate([X[:5], rng.standard_normal((12, d, T))])
    raised = set()
    for a, b in BS2_PAIRS:
        spec = GaussExpKernel(alpha=a, beta=b, d=d, T=T)
        assert np.allclose(gram(spec, X, Y), term_by_term_gram(spec, X, Y),
                           rtol=1e-12, atol=0.0), (a, b)
        # the guard raises exactly where the term-by-term exponent passes it;
        # at scale 20 the exponent b|x|^2 of a shared row reaches 700
        for scale in (5.0, 20.0, 40.0):
            Xs, Ys = scale * X, scale * Y
            try:
                term_by_term_gram(spec, Xs, Ys)
            except OverflowError:
                raised.add(True)
                with pytest.raises(OverflowError):
                    gram(spec, Xs, Ys)
            else:
                raised.add(False)
                assert np.all(np.isfinite(gram(spec, Xs, Ys))), (a, b, scale)
    assert raised == {True, False}


@pytest.mark.parametrize("spec", [
    GaussExpKernel(alpha=2.0, beta=0.3, d=2, T=3),
    FeatureMapKernel(features=monomial_features(2, 3, 2), d=2, T=3),
])
def test_gram_is_the_conditional_gram_with_every_step_revealed(spec):
    rng = np.random.default_rng(22)
    X = rng.standard_normal((9, 2, 3))
    Y = rng.standard_normal((6, 2, 3))
    assert np.array_equal(gram(spec, X, Y), conditional_gram(spec, X, Y, 3))
    assert np.array_equal(gram(spec, X), conditional_gram(spec, X, X, 3))
    if isinstance(spec, FeatureMapKernel):
        assert np.array_equal(feature_matrix(spec, X),
                              conditional_feature_matrix(spec, X, 3))


def test_gram_symmetric_psd():
    spec = GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=2)
    X = RNG.standard_normal((40, 1, 2))
    K = gram(spec, X)
    assert np.allclose(K, K.T, atol=1e-14)
    w = np.linalg.eigvalsh(K)
    assert w.min() > -1e-10 * w.max()


@pytest.mark.parametrize("d, T", [(1, 2), (2, 3)])
def test_tilted_gram_matches_the_gaussian_tilt_closed_form(d, T):
    m = MeasureSpec(gamma=0.45, d=d, T=T)
    spec = GaussExpKernel(alpha=4.0, beta=0.3, d=d, T=T)
    X = RNG.standard_normal((15, d, T)) * 2.0
    expect = closed_form_tilted_gram(spec, m.gamma, X, X)
    got = tilted_gram(spec, X, rn_weight(m, X))
    assert np.allclose(got, expect, rtol=1e-12, atol=0.0)


def test_tilted_gram_matches_explicit_weight_division():
    # mixture-sampler weights: no closed form, only the division itself
    spec = FeatureMapKernel(features=monomial_features(1, 2, 2), d=1, T=2)
    sampler = MixtureSampler(spec, seed=3)
    X = draw_paths(sampler, 12, stream=("x",))
    w = sampler.weight(X)
    expect = gram(spec, X) / np.sqrt(np.outer(w, w))
    assert np.allclose(tilted_gram(spec, X, w), expect, rtol=1e-12, atol=0.0)


def test_tilted_diag_at_origin_is_inverse_weight():
    # w(0) = (1-2*gamma)^(dT/2) = 0.1, so kappa~(0)^2 = k(0,0)/w(0) = 10
    spec = GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2)
    X = np.zeros((3, 1, 2))
    got = tilted_diag(spec, X, rn_weight(MeasureSpec(gamma=0.45), X))
    assert got.shape == (3,)
    assert np.allclose(got, 10.0, rtol=1e-12)


def test_bounded_tilted_diagonal_iff_beta_below_gamma():
    far = np.full((1, 1, 2), 20.0)
    flat = GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2)
    # decays away from the origin
    assert tilted_diag(flat, far, rn_weight(MeasureSpec(gamma=0.45), far))[0] < 10.0
    heavy = GaussExpKernel(alpha=4.0, beta=0.45, d=1, T=2)
    # grows without bound
    assert tilted_diag(heavy, far, rn_weight(MeasureSpec(gamma=0.3), far))[0] > 1e3


def test_guarded_exponent_raises_instead_of_inf():
    spec = GaussExpKernel(alpha=0.0, beta=0.45, d=1, T=2)
    big = np.full((1, 1, 2), 30.0)
    with pytest.raises(OverflowError):
        gram(spec, big, big)
    assert EXP_GUARD == 700.0


def test_u_factor_exponential_closed_forms():
    # one step, nothing revealed: cond_expect is U(y) = E[k(Z, y)]
    spec = GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=1)
    assert cond_expect(spec, (), [0.0], 0) == pytest.approx(5 ** -0.5, rel=1e-14)
    spec0 = GaussExpKernel(alpha=0.0, beta=0.3, d=1, T=1)
    # alpha = 0: U(y) = exp(beta^2 y^2 / 2)
    assert cond_expect(spec0, (), [1.0], 0) == pytest.approx(math.exp(0.045),
                                                             rel=1e-14)


def test_tail_factor_is_product_of_step_factors():
    # E[k(X, y)] over two unrevealed steps is the product of one-step factors
    spec = GaussExpKernel(alpha=1.5, beta=0.2, d=1, T=2)
    step = GaussExpKernel(alpha=1.5, beta=0.2, d=1, T=1)
    Y = RNG.standard_normal((6, 1, 2))
    for y in Y:
        manual = cond_expect(step, (), y[:, :1], 0) * cond_expect(step, (), y[:, 1:], 0)
        assert cond_expect(spec, (), y, 0) == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("spec", [
    GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=2),
    GaussPolyKernel(alpha=1.0, beta=2, d=1, T=2),
])
def test_cond_expect_tower_property(spec):
    """E[k(X, y)] computed in closed form must match brute-force MC."""
    rng = np.random.default_rng(77)
    n = 200_000
    y = np.array([[0.4, -0.8]])
    for t, prefix in ((0, ()), (1, [0.6])):
        tails = rng.standard_normal((n, 1, spec.T - t))
        pre = np.asarray(prefix, dtype=float).reshape(1, t)
        full = np.concatenate([np.broadcast_to(pre[None], (n, 1, t)), tails],
                              axis=2)
        vals = gram(spec, full, y[None])[:, 0]
        mc, se = vals.mean(), vals.std() / math.sqrt(n)
        closed = cond_expect(spec, pre, y, t)
        assert abs(closed - mc) < 3 * se, (t, closed, mc, se)


def test_cond_expect_endpoints():
    spec = GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=2)
    x = np.array([[0.3, -0.2]])
    y = np.array([[0.4, 0.9]])
    # revealing every step collapses to a plain kernel evaluation
    assert cond_expect(spec, x, y, 2) == pytest.approx(
        float(gram(spec, x[None], y[None])[0, 0]), rel=1e-13)
    with pytest.raises(InputError):
        cond_expect(spec, x, y, 3)


def test_conditional_gram_matches_scalar_loop():
    spec = GaussPolyKernel(alpha=0.5, beta=2, d=1, T=2)
    pre = RNG.standard_normal((4, 1, 1))
    Y = RNG.standard_normal((3, 1, 2))
    M = conditional_gram(spec, pre, Y, 1)
    for i in range(4):
        for j in range(3):
            assert M[i, j] == pytest.approx(
                cond_expect(spec, pre[i], Y[j], 1), rel=1e-12)


def test_conditional_gram_dot_matches_unfused_product():
    spec = GaussExpKernel(alpha=2.0, beta=0.3, d=2, T=3)
    X = RNG.standard_normal((7, 2, 3))
    Y = 2.0 * RNG.standard_normal((11, 2, 3))
    coef = RNG.standard_normal(11)
    for t in range(4):
        ref = unfused_conditional_gram(spec, X, Y, t) @ coef
        got = conditional_gram_dot(spec, X[:, :, :t], Y, t, coef)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), t
        assert np.allclose(conditional_gram(spec, X, Y, t) @ coef, ref,
                           rtol=1e-12, atol=0.0)


def _dot_by_block_size(monkeypatch, n_train, t):
    """conditional_gram_dot on 5,003 paths at blocks of 8, 64 and 256 rows."""
    spec = GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2)
    Y = draw_paths(MeasureSpec(gamma=0.45, d=1, T=2, seed=2), n_train)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=12), 5003)
    coef = np.random.default_rng(2).uniform(size=n_train)
    got = {}
    for block in (8, 64, 256):
        monkeypatch.setattr(kernels, "BLOCK", block)
        got[block] = conditional_gram_dot(spec, X[:, :, :t], Y, t, coef)
    return got


@pytest.mark.parametrize("t", [1, 2])
def test_conditional_gram_dot_bits_do_not_depend_on_the_block_size(t, monkeypatch):
    # n_train a multiple of 8, as at every study size: BLAS gives each row
    # the same bits for any block of a multiple of 8 rows
    got = _dot_by_block_size(monkeypatch, 2000, t)
    assert np.array_equal(got[8], got[256])
    assert np.array_equal(got[64], got[256])


@pytest.mark.parametrize("t", [1, 2])
def test_conditional_gram_dot_block_size_moves_last_bits_only(t, monkeypatch):
    # n_train not a multiple of 8: the exponent product's rounding follows
    # the block's row count
    got = _dot_by_block_size(monkeypatch, 1500, t)
    for block in (8, 64):
        assert np.allclose(got[block], got[256], rtol=1e-12, atol=0.0), block


def test_conditional_gram_dot_when_the_folded_exponent_passes_the_guard():
    # with |x|^2 factored out, the exponent would be (a+b)|x|^2 = 726.7 at
    # x = y = 13; the kernel exponent itself is b|x|^2 = 50.7
    spec = GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2)
    pre = np.array([[[13.0]], [[0.5]]])
    Y = np.array([[[13.0, 0.2]], [[12.0, -1.0]], [[-1.0, 0.3]]])
    coef = np.array([0.5, -1.0, 2.0])
    folded = (2 * spec.alpha + spec.beta) * pre[:, 0, 0, None] * Y[None, :, 0, 0] \
        - spec.alpha * Y[None, :, 0, 0] ** 2
    assert folded.max() > EXP_GUARD
    ref = unfused_conditional_gram(spec, pre, Y, 1) @ coef
    got = conditional_gram_dot(spec, pre, Y, 1, coef)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_conditional_gram_guards_exponent_plus_log_tail():
    # third path: kernel exponent 1.45 * 80 * 40 - 3200 - 800 = 640 and log
    # tail 0.025625 * 88^2 - log(2) / 2 = 198.1, so the entry is e^838
    spec = GaussExpKernel(alpha=0.5, beta=0.45, d=1, T=2)
    pre = np.array([[[80.0]]])
    Y = np.array([[[1.0, 92.0]], [[-3.0, 90.5]], [[40.0, 88.0]]])
    with pytest.raises(OverflowError):
        conditional_gram(spec, pre, Y, 1)
    with pytest.raises(OverflowError):
        conditional_gram_dot(spec, pre, Y, 1, np.ones(3))


def test_conditional_gram_maxima_in_different_columns_still_evaluate():
    # the largest exponent (640) and the largest log tail (216.5) sit in
    # different columns: their sum passes the guard, no entry does
    spec = GaussExpKernel(alpha=0.5, beta=0.45, d=1, T=2)
    pre = np.array([[[80.0]]])
    Y = np.array([[[40.0, 0.0]], [[1.0, 92.0]]])
    assert 640.0 + log_tail(spec, Y, 1).max() > EXP_GUARD
    K = conditional_gram(spec, pre, Y, 1)
    assert np.all(np.isfinite(K)) and K[0, 0] > 1e270
    got = conditional_gram_dot(spec, pre, Y, 1, np.array([1.0, -1.0]))
    assert np.allclose(got, K @ np.array([1.0, -1.0]), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha, beta", [(4.0, 0.3), (0.5, 0.45), (0.01, 0.45),
                                         (0.0, 0.45), (2.0, 0.0)])
def test_overflow_bound_is_never_below_the_computed_exponent(alpha, beta):
    # tilted paths at three scales, each row also against itself (x = y is
    # where |x - y|^2 vanishes and the bound is tight), at every t; the
    # Gaussian-polynomial factor (c = 2a) has no log tail and the bound 0
    spec = GaussExpKernel(alpha=alpha, beta=beta, d=2, T=3)
    X = draw_paths(MeasureSpec(gamma=0.45, d=2, T=3, seed=31), 200)
    P = np.concatenate([X, 5.0 * X[:50], 25.0 * X[:50]])
    for t in range(spec.T + 1):
        for c, tail in ((2.0 * alpha + beta, kernels._log_tail(spec, P, t)),
                        (2.0 * alpha, None)):
            rows, nx = kernels._gauss_exp_rows(alpha, c, P, t)
            cols, ny = kernels._gauss_exp_columns(alpha, P, t)
            e = rows @ cols.T
            bound = kernels._exponent_bound(alpha, c, spec.d * t, nx, ny, tail)
            assert bound >= e.max(), (t, c)
            if tail is not None:
                assert bound >= np.max(e.max(axis=0) + tail), t


def test_overflow_bound_passes_at_the_study_sizes():
    # the (4, 0.3) fit on gamma = 0.45 paths priced on nominal paths: every
    # group of blocks skips the exact check
    spec = GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2, gamma=0.45)
    Y = draw_paths(MeasureSpec(gamma=0.45, d=1, T=2, seed=2), 2000)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=12), 20_000)
    c = 2.0 * spec.alpha + spec.beta
    for t in (1, 2):
        nx = kernels._gauss_exp_rows(spec.alpha, c, X, t)[1]
        ny = kernels._gauss_exp_columns(spec.alpha, Y, t)[1]
        tail = kernels._log_tail(spec, Y, t)
        assert kernels._exponent_bound(spec.alpha, c, t, nx, ny, tail) < EXP_GUARD


def _guarded_outcomes(spec, pre, Y, t, coef, monkeypatch):
    """(outcome, blocks evaluated) of conditional_gram and conditional_gram_dot:
    the values' bytes, or the OverflowError's message."""
    blocks, block = [], kernels._gauss_exp_block

    def counting(*args):
        blocks.append(1)
        return block(*args)

    monkeypatch.setattr(kernels, "_gauss_exp_block", counting)
    out = []
    for fn in (lambda: conditional_gram(spec, pre, Y, t),
               lambda: conditional_gram_dot(spec, pre, Y, t, coef)):
        blocks.clear()
        try:
            got = fn().tobytes()
        except OverflowError as exc:
            got = str(exc)
        out.append((got, len(blocks)))
    return out


def _guard_cases():
    group = kernels.GROUP * kernels.BLOCK
    many = np.random.default_rng(33).standard_normal((3 * group + 5, 1, 2))
    far, hot = many.copy(), many.copy()
    far[2 * group + 70] = 1000.0  # third group: exponent about -4e6
    hot[2 * group + 70, 0, 0] = 1000.0  # third group: 0.45 * 1000 * 2.6 > 700
    Y = np.random.default_rng(34).standard_normal((50, 1, 2))
    return [
        # the log tail case above: e^838 in the third column
        ("raise", 0.5, 0.45, np.array([[[80.0]]]),
         np.array([[[1.0, 92.0]], [[-3.0, 90.5]], [[40.0, 88.0]]]), 1),
        # the maxima in different columns: no entry passes
        ("finite", 0.5, 0.45, np.array([[[80.0]]]),
         np.array([[[40.0, 0.0]], [[1.0, 92.0]]]), 1),
        # small alpha: a positive log tail of about 694 at y_2 = 84; far
        # from y_1 = -5 the exponent is negative, at x = 3 next to y_1 = 5 it
        # pushes the sum past the guard
        ("finite", 0.01, 0.45, np.array([[[20.0]], [[1.0]]]),
         np.array([[[-5.0, 84.0]], [[-2.0, 60.0]]]), 1),
        ("raise", 0.01, 0.45, np.array([[[1.0]], [[3.0]]]),
         np.array([[[5.0, 84.0]], [[-2.0, 60.0]]]), 1),
        # one far row in the third group of blocks
        ("finite", 4.0, 0.3, far, Y, 2),
        ("raise", 0.0, 0.45, hot, np.abs(Y), 1),
    ]


@pytest.mark.parametrize("case", range(6))
def test_where_the_bound_fails_the_exact_check_decides(case, monkeypatch):
    # the exact per-block check everywhere (a bound that never passes) is the
    # oracle: the same values bit for bit, or the same OverflowError after
    # the same number of blocks
    want, alpha, beta, pre, Y, t = _guard_cases()[case]
    spec = GaussExpKernel(alpha=alpha, beta=beta, d=1, T=2)
    c = 2.0 * alpha + beta
    nx = kernels._gauss_exp_rows(alpha, c, pre, t)[1]
    ny = kernels._gauss_exp_columns(alpha, Y, t)[1]
    tail = kernels._log_tail(spec, Y, t)
    assert kernels._exponent_bound(alpha, c, t, nx, ny, tail) >= EXP_GUARD
    coef = np.random.default_rng(35).standard_normal(len(Y))
    got = _guarded_outcomes(spec, pre, Y, t, coef, monkeypatch)
    monkeypatch.setattr(kernels, "_exponent_bound", lambda *args: math.inf)
    assert got == _guarded_outcomes(spec, pre, Y, t, coef, monkeypatch)
    for outcome, _ in got:
        assert isinstance(outcome, str) == (want == "raise"), outcome


def test_gauss_poly_expansion_reproduces_kernel():
    spec = GaussPolyKernel(alpha=0.7, beta=3, d=1, T=2)
    feats = gauss_poly_features(spec)
    assert len(feats) == math.comb(spec.beta + 2, 2)
    X = RNG.standard_normal((8, 1, 2))
    Y = RNG.standard_normal((5, 1, 2))
    # expansion check: (1 + x.y)^beta = sum_i phi_i(x) phi_i(y)
    fspec = FeatureMapKernel(features=feats, d=1, T=2)
    P = feature_matrix(fspec, X) @ feature_matrix(fspec, Y).T
    inner = np.einsum("ics,jcs->ij", X, Y)
    assert np.allclose(P, (1.0 + inner) ** spec.beta, rtol=1e-10)


def test_gauss_poly_expansion_is_enumerated_once(monkeypatch):
    spec = GaussPolyKernel(alpha=0.3, beta=2, d=1, T=3)
    kernels._gauss_poly_expansion.cache_clear()
    calls, enumerate_features = [], kernels.monomial_features

    def counting(*args):
        calls.append(args)
        return enumerate_features(*args)

    monkeypatch.setattr(kernels, "monomial_features", counting)
    rng = np.random.default_rng(15)
    X = rng.standard_normal((3 * kernels.BLOCK + 5, 1, 3))
    Y = rng.standard_normal((7, 1, 3))
    coef = rng.standard_normal(7)
    got = conditional_gram_dot(spec, X, Y, 1, coef)
    assert calls == [(1, 3, 2)]
    assert np.allclose(got, conditional_gram(spec, X, Y, 1) @ coef,
                       rtol=1e-12, atol=1e-12)


def test_monomial_feature_counts_and_degrees():
    feats = monomial_features(1, 2, max_total_degree=3)
    assert len(feats) == 10  # C(2+3, 3)
    degrees = [sum(map(sum, f.powers)) for f in feats]
    assert min(degrees) == 0 and max(degrees) == 3


def test_feature_matrix_matches_manual_products():
    feats = (MonomialFeature(powers=((1,), (0,)), coef=2.0),
             MonomialFeature(powers=((1,), (2,)), coef=1.0))
    spec = FeatureMapKernel(features=feats, d=1, T=2)
    x = np.array([[1.5, -2.0]])
    phi = feature_matrix(spec, x[None])[0]
    assert phi[0] == pytest.approx(3.0)
    assert phi[1] == pytest.approx(1.5 * 4.0)
    assert gram(spec, x[None], x[None])[0, 0] == pytest.approx(phi @ phi)


def test_dependent_features_rejected():
    feats = (MonomialFeature(powers=((1,), (0,)), coef=1.0),
             MonomialFeature(powers=((1,), (0,)), coef=2.0))
    with pytest.raises(InputError):
        FeatureMapKernel(features=feats, d=1, T=2)


def test_conditional_feature_matrix_towers_to_step_means():
    feats = monomial_features(1, 2, max_total_degree=2)
    spec = FeatureMapKernel(features=feats, d=1, T=2)
    rng = np.random.default_rng(3)
    pre = rng.standard_normal((5, 1, 1))
    F1 = conditional_feature_matrix(spec, pre, 1)
    # at t=1 each feature factorizes into the revealed step times the
    # unconditional mean of its final-step factor
    for j, f in enumerate(feats):
        manual = f.step_values(0, pre[:, :, 0]) * f.step_mean(1)
        assert np.allclose(F1[:, j], manual, rtol=1e-12)


def _weighted_monomials(d, T, degree, rng):
    """Monomial features with scalars drawn in [0.5, 2], every other one kept at 1."""
    feats = monomial_features(d, T, degree)
    coefs = np.where(np.arange(len(feats)) % 2, rng.uniform(0.5, 2.0, len(feats)), 1.0)
    return FeatureMapKernel(features=tuple(
        MonomialFeature(powers=f.powers, coef=float(c)) for f, c in zip(feats, coefs)),
        d=d, T=T)


def _assert_matches_pow_oracle(got, want):
    """Zeros (with their sign), infinities and NaNs as the oracle has them;
    finite nonzero values within 1e-15 relative.

    Powers by multiplication round once per product, ``pow`` once per power:
    a deliberate rounding change of a few ulp."""
    nan = np.isnan(want)
    exact = nan | ~np.isfinite(want) | (want == 0.0)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[exact & ~nan], want[exact & ~nan])
    np.testing.assert_array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))
    np.testing.assert_allclose(got[~exact], want[~exact], rtol=1e-15, atol=0.0)


def test_feature_products_match_the_pow_oracle():
    rng = np.random.default_rng(29)
    spec = _weighted_monomials(2, 2, 4, rng)
    X = 1.5 * rng.standard_normal((3000, 2, 2))
    _assert_matches_pow_oracle(feature_matrix(spec, X), pow_feature_products(spec, X, 2))
    for t in range(spec.T + 1):
        _assert_matches_pow_oracle(conditional_feature_matrix(spec, X, t),
                                   pow_feature_products(spec, X, t))


def test_feature_products_match_the_pow_oracle_on_special_inputs():
    # every coordinate of every path from signed zeros, tiny values, values
    # whose powers overflow to +-inf or underflow to +-0, infinities and NaN
    values = [-0.0, 0.0, 1e-60, -1e-200, 1e103, 1e120, -1e120, np.inf, -np.inf,
              np.nan, -2.5, 0.7, -1.3]
    X = np.array(np.meshgrid(*[values] * 4, indexing="ij")).reshape(4, -1).T
    X = X.reshape(-1, 2, 2)
    spec = _weighted_monomials(2, 2, 4, np.random.default_rng(31))
    with np.errstate(all="ignore"):
        got = [conditional_feature_matrix(spec, X, t) for t in range(3)]
        want = [pow_feature_products(spec, X, t) for t in range(3)]
    for g, w in zip(got, want):
        _assert_matches_pow_oracle(g, w)
    full = want[2]
    # each kind of special result occurs
    assert np.isnan(full).any() and np.isposinf(full).any() and np.isneginf(full).any()
    assert ((full == 0.0) & np.signbit(full)).any()
    assert ((full == 0.0) & ~np.signbit(full)).any()


def test_gauss_poly_u_factor_matches_the_pow_oracle():
    # negative shifts, pow's slow path, and k - j = 0 terms
    rng = np.random.default_rng(37)
    shift = -np.abs(rng.standard_normal((400, 2)))
    shift[::5] *= -1.0
    for powers in [(0, 4), (3, 1), (2, 2), (4, 0), (1, 3), (3, 0)]:
        got = kernels._expected_monomial_shifted(powers, shift, 0.6)
        want = pow_expected_monomial_shifted(powers, shift, 0.6)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("shape", [(4, 2, 2), (4, 1, 1)],
                         ids=["second-coordinate", "short-prefix"])
def test_conditional_feature_matrix_validates_prefixes(shape):
    # the checks conditional_gram makes: the width d and at least t steps
    spec = FeatureMapKernel(features=monomial_features(1, 2, 2), d=1, T=2)
    with pytest.raises(InputError, match="prefixes must have shape"):
        conditional_feature_matrix(spec, np.ones(shape), 2)


def test_diag_shortcut_matches_gram():
    X = 1.5 * np.random.default_rng(23).standard_normal((9, 1, 2))
    w = rn_weight(MeasureSpec(gamma=0.45), X)
    for spec in (GaussExpKernel(alpha=3.0, beta=0.4, d=1, T=2),
                 GaussPolyKernel(alpha=0.7, beta=3, d=1, T=2),
                 FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2)):
        assert np.allclose(tilted_diag(spec, X, w), np.diag(tilted_gram(spec, X, w)),
                           rtol=1e-13, atol=0.0), spec
