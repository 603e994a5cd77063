"""Shared oracles and toy problems for the test suite.

Everything here is independent of the library's own numerics: closed forms,
hand-built designs, and reference algorithms used to cross-check the
production code paths.
"""

import csv
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import scipy.linalg as sla
from scipy.linalg import hadamard

from kernelval import kernels
from kernelval.diagnostics import (CLT_NODES, _grid_rows, _quad_form,
                                   feature_gram_exact)
from kernelval.kernels import (EXP_GUARD, FeatureMapKernel, GaussExpKernel,
                               GaussPolyKernel, MonomialFeature, gauss_moment)
from kernelval.krr import _extreme_eigenvalues, fit
from kernelval.market import GT_HALF_WIDTH, GT_NODES, _normal_rule, payoff
from kernelval.sampling import MeasureSpec, TrainingSet, build_training_set


def norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_call(s0, strike, sigma, maturity, rate=0.0):
    """Black-Scholes call on the discounted price scale (strike paid at T)."""
    if maturity <= 0:
        return max(s0 - strike, 0.0)
    vol = sigma * math.sqrt(maturity)
    fwd = s0 * math.exp(rate * maturity)
    d1 = math.log(fwd / strike) / vol + 0.5 * vol
    d2 = d1 - vol
    return s0 * norm_cdf(d1) - math.exp(-rate * maturity) * strike * norm_cdf(d2)


def bs_put(s0, strike, sigma, maturity, rate=0.0):
    return (bs_call(s0, strike, sigma, maturity, rate)
            - s0 + math.exp(-rate * maturity) * strike)


# ATM, r=0, sigma=0.2, T=2: the call price collapses to erf(0.1)
ATM_CALL_2STEP = math.erf(0.1)


def hadamard_design(m):
    """Orthogonal-column +/-1 paths of shape (16, m, 1), columns 1..m."""
    H = hadamard(16).astype(float)
    return H[:, 1:m + 1][:, :, None]


def coordinate_features(coefs):
    """phi_k(x) = c_k * x_k on a (d = len(coefs), T = 1) path space."""
    d = len(coefs)
    feats = []
    for k, c in enumerate(coefs):
        powers = tuple(1 if j == k else 0 for j in range(d))
        feats.append(MonomialFeature(powers=(powers,), coef=float(c)))
    return FeatureMapKernel(features=tuple(feats), d=d, T=1)


def _toy_training_set(spec, paths, target_coefs):
    phi = np.array([[f.step_values(0, p[:, 0]) for f in spec.features]
                    for p in paths])
    values = phi @ np.asarray(target_coefs, dtype=float)
    return TrainingSet(
        paths=paths,
        payoff_values=values,
        weights=np.ones(paths.shape[0]),
        payoff_id="toy",
    )


def sqrt_rate_problem(m=9, base=10.0):
    """Design whose prediction gap to the unregularized fit scales ~ sqrt(lambda).

    Geometric feature spectrum sigma_k = base^-k with flat target
    coefficients; on the Hadamard design the normal matrix is exactly
    diagonal, so the gap formula sum_k sigma_k lambda^2/(sigma_k+lambda)^2
    integrates to ~ C lambda over a grid interior to the spectrum.
    """
    coefs = [base ** (-0.5 * k) for k in range(m)]
    spec = coordinate_features(coefs)
    paths = hadamard_design(m)
    return _toy_training_set(spec, paths, np.ones(m)), spec


def linear_rate_problem(m=9):
    """Target inside a well-conditioned span: gap scales ~ lambda."""
    spec = coordinate_features(np.ones(m))
    paths = hadamard_design(m)
    return _toy_training_set(spec, paths, np.ones(m)), spec


def loglog_slope(lambdas, gaps):
    lam = np.log(np.asarray(lambdas, dtype=float))
    g = np.log(np.asarray(gaps, dtype=float))
    return float(np.polyfit(lam, g, 1)[0])


def ridge_gradient_descent(phi, values, lam, steps=40_000, lr=None):
    """Reference primal solver: plain gradient descent on the ridge objective.

    Minimizes (1/2n)||phi h - y||^2 + (lambda/2)||h||^2; slow but
    algorithmically independent of the library's Cholesky path.
    """
    n, m = phi.shape
    G = phi.T @ phi / n
    b = phi.T @ values / n
    if lr is None:
        lr = 1.0 / (np.linalg.eigvalsh(G).max() + lam)
    h = np.zeros(m)
    for _ in range(steps):
        h -= lr * (G @ h + lam * h - b)
    return h


def closed_form_tilted_gram(spec, gamma, X, Y):
    """Gaussian-exponentiated kernel tilted by the Gaussian weight, in closed form.

    ``(1-2g)^(-dT/2) exp(-(a+g/2)|x-y|^2 + (b-g) x.y)`` equals
    ``k(x, y) / sqrt(w(x) w(y))`` for ``w(x) = (1-2g)^(dT/2) exp(g |x|^2)``.
    """
    a, b = spec.alpha, spec.beta
    Xf = X.reshape(X.shape[0], -1)
    Yf = Y.reshape(Y.shape[0], -1)
    dist2 = ((Xf[:, None, :] - Yf[None, :, :]) ** 2).sum(axis=2)
    e = -(a + 0.5 * gamma) * dist2 + (b - gamma) * (Xf @ Yf.T)
    return (1.0 - 2.0 * gamma) ** (-0.5 * Xf.shape[1]) * np.exp(e)


def term_by_term_exponent(X, Y, a, c, t):
    """``c <x, y> - a|x|^2 - a|y|^2`` over the first ``t`` steps, term by term.

    The inner products first, then each norm subtracted by broadcasting; the
    guard raises on the largest entry.
    """
    Xs = X[:, :, :t].reshape(X.shape[0], -1)
    Ys = Y[:, :, :t].reshape(Y.shape[0], -1)
    e = c * (Xs @ Ys.T)
    e -= a * np.einsum("ij,ij->i", Xs, Xs)[:, None]
    e -= a * np.einsum("ij,ij->i", Ys, Ys)[None, :]
    if e.size and e.max() > EXP_GUARD:
        raise OverflowError(f"kernel exponent {e.max():.3g} exceeds {EXP_GUARD:g}")
    return e


def term_by_term_gram(spec, X, Y):
    """Gram of a Gaussian-exponentiated or Gaussian-polynomial kernel, term by term."""
    a = spec.alpha
    if isinstance(spec, GaussExpKernel):
        return np.exp(term_by_term_exponent(X, Y, a, 2.0 * a + spec.beta, spec.T))
    assert isinstance(spec, GaussPolyKernel)
    P = X.reshape(X.shape[0], -1) @ Y.reshape(Y.shape[0], -1).T
    return np.exp(term_by_term_exponent(X, Y, a, 2.0 * a, spec.T)) * (1.0 + P) ** spec.beta


def log_tail(spec, Y, t):
    """``log prod_{s >= t} U(Y_s)`` for the Gaussian-exponentiated kernel, closed form.

    ``U(y) = E[exp(-a|Z - y|^2 + b Z.y)] = (1+2a)^(-d/2) exp(u |y|^2)`` with
    ``u = (b^2 + 4ab - 2a) / (4a + 2)``.
    """
    a, b = spec.alpha, spec.beta
    u = (b * b + 4.0 * a * b - 2.0 * a) / (4.0 * a + 2.0)
    n2 = (Y[:, :, t:] ** 2).sum(axis=(1, 2))
    return u * n2 - 0.5 * spec.d * (spec.T - t) * math.log(1.0 + 2.0 * a)


def unfused_conditional_gram(spec, prefixes, Y, t):
    """Conditional Gram with the Gaussian-exponentiated exponent built term by term.

    :func:`term_by_term_exponent` plus the closed-form :func:`log_tail` per
    column, the guard on the block's largest exponent and on each entry's
    exponent plus log tail: the arithmetic of the unfused evaluator.  Other
    kernel families go to :func:`kernels.conditional_gram`.
    """
    if not isinstance(spec, GaussExpKernel):
        return kernels.conditional_gram(spec, prefixes, Y, t)
    a = spec.alpha
    e = term_by_term_exponent(prefixes, Y, a, 2.0 * a + spec.beta, t)
    e += log_tail(spec, Y, t)[None, :]
    if e.size and e.max() > EXP_GUARD:
        raise OverflowError("kernel exponent plus log tail exceeds the guard")
    return np.exp(e)


def unfused_value_series(est, X):
    """Dual-mode ``Vhat_t`` on paths (N, d, T): one full conditional Gram per t.

    Each row of ``G * coef`` is summed exactly (``math.fsum``), so the
    reference adds no summation-order error of its own.  Ridge coefficients
    at small lambda make those rows cancel by up to 1e4, where two BLAS
    summation orders of the same terms already differ by about 1e-12.
    """
    cols = []
    for t in range(est.kernel.T + 1):
        terms = unfused_conditional_gram(est.kernel, X, est.paths, t) * est.eval_coef
        cols.append([math.fsum(row) / est.n_train for row in terms])
    return np.array(cols).T


def gram_predict(est, X):
    """Dual-mode prediction through the full Gram: ``K(X, paths) @ eval_coef / n``.

    The unblocked prediction, with the kernel from :func:`term_by_term_gram`
    and each row of ``K * coef`` summed exactly (``math.fsum``) for the
    reason given in :func:`unfused_value_series`.
    """
    X = kernels.as_paths(X, est.kernel.d, est.kernel.T)
    terms = term_by_term_gram(est.kernel, X, est.paths) * est.eval_coef
    return np.array([math.fsum(row) for row in terms]) / est.n_train


def gram_offdiag_form(spec, P, w, c):
    """``sum_{i != j} c_i c_j k~(P_i, P_j)`` through the full tilted Gram.

    The mse check's original U-statistic sum: ``c @ K~ @ c`` minus the
    diagonal of ``K~`` weighted by ``c**2``.
    """
    K = kernels.tilted_gram(spec, P, w)
    return float(c @ K @ c) - float(c**2 @ np.diag(K))


def whole_grid_expectation(fn):
    """E[fn(X)] for two independent standard-normal steps (d = 1), on the
    CLT's whole quadrature grid at once.

    ``fn`` maps paths (N, 1, 2) to (N,) or (N, k).
    """
    paths, wts = _grid_rows(0, CLT_NODES)
    return wts @ np.asarray(fn(paths))


def three_pass_clt_population(spec, payoff_fn, lam, phi_z, sampler):
    """``h_lambda`` and the CLT's exact asymptotic variance, grid by grid.

    The original computation: ``b = E_mu[f Phi]`` integrated on the whole
    quadrature grid, ``h_lambda = (G + lambda)^-1 b``, then each of the two
    variance moments evaluates the grid's features (twice) and payoffs
    again, with ``g = (f - Phi h_lambda) Phi u`` and
    ``u = (G + lambda)^-1 phi_z``.
    """
    M = feature_gram_exact(spec) + lam * np.eye(len(phi_z))
    b = whole_grid_expectation(
        lambda paths: payoff_fn(paths)[:, None] * kernels.feature_matrix(spec, paths))
    h_pop = np.linalg.solve(M, b)
    u = np.linalg.solve(M, phi_z)

    def g_vals(paths):
        resid = payoff_fn(paths) - kernels.feature_matrix(spec, paths) @ h_pop
        return resid * (kernels.feature_matrix(spec, paths) @ u)

    m1 = float(whole_grid_expectation(g_vals))
    m2 = float(whole_grid_expectation(lambda p: g_vals(p) ** 2 / sampler.weight(p)))
    return h_pop, m2 - m1 * m1


def pow_step_values(feature, t, y):
    """``MonomialFeature.step_values`` with every power through ``pow``.

    The original computation: a product started from ones, each integer
    power ``y ** k`` rounded once, and the scalar applied at step 0 even
    when it is 1.
    """
    y = np.asarray(y, dtype=float)
    out = np.ones(y.shape[:-1])
    for c, k in enumerate(feature.powers[t]):
        if k:
            out = out * y[..., c] ** k
    if t == 0:
        out = out * feature.coef
    return out


def pow_feature_products(spec, pre, t):
    """``kernels._feature_products`` built on :func:`pow_step_values`.

    Revealed steps contribute :func:`pow_step_values`, the others their
    Gaussian means, every factor multiplied in, ones and all.
    """
    n = pre.shape[0]
    out = np.empty((n, len(spec.features)))
    for i, f in enumerate(spec.features):
        v = np.ones(n)
        for s in range(t):
            v = v * pow_step_values(f, s, pre[:, :, s])
        for s in range(t, spec.T):
            v = v * f.step_mean(s)
        out[:, i] = v
    return out


def pow_expected_monomial_shifted(powers, shift, scale):
    """``kernels._expected_monomial_shifted`` with ``shift ** (k - j)`` through ``pow``."""
    out = np.ones(shift.shape[:-1])
    for c, k in enumerate(powers):
        if k:
            out = out * sum(math.comb(k, j) * gauss_moment(j) * scale**j
                            * shift[..., c] ** (k - j) for j in range(0, k + 1, 2))
    return out


def quad_one_step_512(cfg, payoff_id, prefixes):
    """``market._quad_one_step`` as it was, 512 prefixes a block.

    Each block evaluates the payoff on every (prefix, node) pair and
    integrates a prefix's row with the rule's weights.
    """
    z, wq = _normal_rule(GT_NODES, GT_HALF_WIDTH)
    out = np.empty(prefixes.shape[0])
    for lo in range(0, len(out), 512):
        pre = prefixes[lo:lo + 512]
        full = np.concatenate(
            [np.repeat(pre, GT_NODES, axis=0), np.tile(z, len(pre))[:, None]], axis=1)
        out[lo:lo + 512] = payoff(cfg, payoff_id, full).reshape(len(pre), GT_NODES) @ wq
    return out


def primal_fit_coef(ts, spec, lam):
    """Primal coefficients of one full fit: ``fit(..., mode="primal")``.

    The estimator route the CLT's repeat fits took, training-set hash
    included.
    """
    return fit(ts, spec, lam, mode="primal").primal_coef


def two_fit_drifts(payoff_fn, spec, lam, n, n_repeats, sampler, eps, seed):
    """Robustness drifts from two separate dual fits per repeat.

    The base payoff and the payoff bumped by ``eps * 1`` are fitted one
    after the other, each with its own Gram and Cholesky factor, and the
    drift is taken from the difference of their coefficients.
    """
    drifts = np.empty(n_repeats)
    for r in range(n_repeats):
        ts = build_training_set(sampler, payoff_fn, n,
                                stream=("robust", "repeat", r), seed=seed)
        base = fit(ts, spec, lam)
        pert = fit(dataclasses.replace(ts, payoff_values=ts.payoff_values + eps),
                   spec, lam)
        a = base.dual_coef - pert.dual_coef
        drifts[r] = math.sqrt(max(_quad_form(spec, ts.paths, ts.weights, a), 0.0)) / n
    return drifts


def copying_route_system(ts, spec, mode="dual-unsorted"):
    """A fit's matrix and right-hand side, built as the copying route built them.

    The dual matrix is the tilted Gram over ``n``, on the distinct paths
    scaled by ``sqrt(|I_i| |I_j|)`` in the sorted mode; the primal one is
    the tilted normal matrix.  Neither is mirrored: the upper triangle keeps
    its own rounding.
    """
    inv_sqrt_w = 1.0 / np.sqrt(ts.weights)
    if mode == "primal":
        V = kernels.feature_matrix(spec, ts.paths) * inv_sqrt_w[:, None]
        return V.T @ V / ts.n, V.T @ (ts.payoff_values * inv_sqrt_w) / ts.n
    if mode == "dual-sorted":
        flat = np.ascontiguousarray(ts.paths.reshape(ts.n, -1)).view(np.uint64)
        _, first, counts = np.unique(flat, axis=0, return_index=True,
                                     return_counts=True)
        root_m = np.sqrt(counts.astype(float))
        sub_w = ts.weights[first]
        K = kernels.tilted_gram(spec, ts.paths[first], sub_w)
        return (K * root_m[:, None] * root_m[None, :] / ts.n,
                root_m * ts.payoff_values[first] / np.sqrt(sub_w))
    return (kernels.tilted_gram(spec, ts.paths, ts.weights) / ts.n,
            ts.payoff_values * inv_sqrt_w)


def copying_route_residual(ts, spec, lam, coef, mode="dual-unsorted"):
    """Relative residual ``|M coef - rhs| / |rhs|`` of the system a fit solves.

    ``M`` is :func:`copying_route_system`'s matrix with ``lam`` added to its
    diagonal and its lower triangle, the one the factorization reads,
    mirrored into the upper one.
    """
    K, rhs = copying_route_system(ts, spec, mode)
    K[np.diag_indices_from(K)] += lam
    M = np.tril(K) + np.tril(K, -1).T
    return float(np.linalg.norm(M @ coef - rhs) / np.linalg.norm(rhs))


def copying_route_solutions(ts, spec, lambdas, mode="dual-unsorted"):
    """Each lambda's solution by the Cholesky route that factors a copy.

    :func:`copying_route_system` with its diagonal set to ``d0 + lambda``,
    factored by ``cho_factor`` on a C-order copy of its lower triangle.  A
    failed factorization gives the extreme eigenvalue ratio of the matrix's
    lower triangle in place of a solution.
    """
    M, rhs = copying_route_system(ts, spec, mode)
    d0 = np.diag(M).copy()
    out = []
    for lam in lambdas:
        np.fill_diagonal(M, d0 + lam)
        try:
            factor = sla.cho_factor(M, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            lo, hi = _extreme_eigenvalues(M)
            out.append(abs(hi / lo))
        else:
            out.append(sla.cho_solve(factor, rhs, check_finite=False))
    return out


def training_set_with_duplicates(d, T, gamma, n=40, n_dup=15):
    """Tilted sample of n paths plus exact copies of its first n_dup."""
    f = lambda X: np.maximum(1.0 - np.exp(0.2 * X.sum(axis=(1, 2)) - 0.02 * d * T), 0.0)
    ts = build_training_set(MeasureSpec(gamma=gamma, d=d, T=T, seed=12), f, n,
                            "synthetic", stream=("fused",))
    keep = np.r_[np.arange(n), np.arange(n_dup)]
    return TrainingSet(paths=ts.paths[keep], payoff_values=ts.payoff_values[keep],
                       weights=ts.weights[keep], payoff_id="synthetic")


def max_rel_gap(a, b):
    """Max-norm relative gap ``max |a - b| / max |b|``."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def peak_bytes(fn, *args, **kwargs):
    """Peak bytes allocated while ``fn`` runs, NumPy buffers included (tracemalloc)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csv_writer_training_set(ts):
    """Training-set CSV rendered cell by cell through ``csv.writer``.

    The original rendering of ``sampling.training_set_to_csv``: one
    ``repr(float(v))`` per cell, coordinates time-major.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["path_id"]
    for t in range(1, ts.T + 1):
        for c in range(1, ts.d + 1):
            header.append(f"x_{c}_{t}")
    writer.writerow(header + ["payoff", "weight"])
    for i in range(ts.n):
        row = [str(i)]
        for t in range(ts.T):
            for c in range(ts.d):
                row.append(repr(float(ts.paths[i, c, t])))
        row.append(repr(float(ts.payoff_values[i])))
        row.append(repr(float(ts.weights[i])))
        writer.writerow(row)
    return buf.getvalue()
