"""Empirical verification of the estimator's statistical error bounds.

The population quantities in the bounds (the regularized projection
``f_lambda``, operator norms, sup norms) are not observable, so every check
substitutes a computable stand-in and documents the substitution direction:

* ``f_lambda`` is replaced by a high-budget reference fit (``n_ref >= 4 n``),
  except in the finite-dimensional CLT experiment where the population
  solution is computed exactly from Gaussian moments and a tensor
  trapezoid rule, ``CLT_NODES`` nodes per step on [-8, 8].
* Sup norms are maxima over large probe samples, hence lower bounds of the
  true sup; they enter the theoretical side only in ways that tighten the
  asserted inequality.
* RKHS norms of coefficient differences are computed exactly through Gram
  quadratic forms, in blocks of :data:`kernels.BLOCK` rows; RKHS norms of
  residuals are bounded through kernel-mean embeddings or dropped
  conservatively.

All assertions are one-sided: empirical error below theoretical bound, up to
explicit Monte Carlo standard errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels, pool
from .errors import InputError
from .kernels import FeatureMapKernel, GaussExpKernel
from .krr import Estimator, fit, predict, solve
from .market import _normal_rule
from .sampling import MixtureSampler, build_training_set, draw_paths

__all__ = [
    "BoundReport",
    "NormalityReport",
    "ReferenceProbe",
    "reference_estimator",
    "reference_probe",
    "mse_bound_check",
    "concentration_check",
    "clt_experiment",
    "robustness_check",
    "tilted_l2_norm",
    "feature_gram_exact",
]


@dataclass(frozen=True)
class BoundReport:
    """One bound check: estimated constants, bound values, empirical errors.

    ``violated`` flags an empirical value exceeding its bound beyond the MC
    allowance; it must stay False for a correct solver.
    """

    kind: str
    n: int
    lam: float
    n_repeats: int
    l2_kappa_residual: float = float("nan")
    sup_residual_kappa: float = float("nan")
    jstar_norm: float = float("nan")
    kappa_inf: float = float("nan")
    kappa_l2: float = float("nan")
    bound: float = float("nan")
    bound_dropped_jstar: float = float("nan")
    bound_truncated: float = float("nan")
    c1: float = float("nan")
    c2: float = float("nan")
    s_prob_lower: float = float("nan")
    empirical_rms_h: float = float("nan")
    empirical_rms_l2: float = float("nan")
    empirical_se: float = float("nan")
    exceedance: tuple = ()
    applicable: bool = True
    violated: bool = False
    notes: tuple = ()

    def to_json(self):
        return json.dumps(_finite_or_none(asdict(self)), indent=2, sort_keys=True)


def _finite_or_none(obj):
    """Replace non-finite floats with None so reports serialize to strict JSON."""
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


REFERENCE_FACTOR = 4

# Paths of the probe samples: the large one, on which the checks and the CLT
# experiment take probe means and sup norms, and the L2 probe of the
# prediction gaps to the reference.
PROBE_PATHS = 100_000
L2_PROBE_PATHS = 5000
# The first JSTAR_PATHS probe paths carry the mse check's U-statistic of
# ||J~* r||^2: about 9M kernel evaluations.
JSTAR_PATHS = 3000

# Nodes per step of the CLT experiment's trapezoid rule on [-8, 8].
CLT_NODES = 1025
# First-step rows per block of that grid in the CLT's population moments:
# 64 rows are 65,600 nodes, 5 MB of features at the study's degree 3.
_CLT_ROWS = 64


def reference_estimator(sampler, payoff_fn, spec, lam, n, n_ref,
                        payoff_id="reference", seed=0):
    """High-budget fit standing in for the population solution at the same lambda.

    ``n`` is the working sample size of the checks using this reference;
    ``n_ref`` must be at least ``REFERENCE_FACTOR`` times larger so the
    reference's own error is subordinate.
    """
    if n_ref < REFERENCE_FACTOR * n:
        raise InputError(
            f"reference size {n_ref} must be >= {REFERENCE_FACTOR} x working size {n}"
        )
    ts = build_training_set(sampler, payoff_fn, n_ref, payoff_id,
                            stream=("reference",), seed=seed)
    return fit(ts, spec, lam)


def _tilde_coef(est):
    """Coefficients c with  h~ = (1/n) sum_j c_j k~(., P_j)."""
    if est.mode == "dual-unsorted":
        return est.dual_coef
    if est.mode == "dual-sorted":
        return np.sqrt(est.multiplicity.astype(float)) * est.dual_coef
    raise InputError("tilde coefficients require a dual-mode estimator")


def _cross_form(spec, P, wp, c, Q, wq, v):
    """``c^T K~(P, Q) v`` as a blocked kernel-times-vector product.

    With ``1/sqrt(w)`` folded into the coefficients the tilted form is
    ``(c / sqrt(wp)) @ K(P, Q) (v / sqrt(wq))``;
    :func:`kernels.conditional_gram_dot` at ``t = T`` evaluates ``K(P, Q)``
    times the vector in blocks of :data:`kernels.BLOCK` rows, so memory is
    O(BLOCK x |Q|) and no |P| x |Q| matrix is built.
    """
    u = c / np.sqrt(wp)
    return float(u @ kernels.conditional_gram_dot(spec, P, Q, spec.T, v / np.sqrt(wq)))


def _quad_form(spec, P, w, c):
    """``c^T K~ c`` on the support ``P``: :func:`_cross_form` with ``Q = P``."""
    return _cross_form(spec, P, w, c, P, w, c)


def _offdiag_form(spec, P, w, c):
    """``sum_{i != j} c_i c_j k~(P_i, P_j)``, the U-statistic's double sum.

    :func:`_quad_form` minus the diagonal terms ``c_i^2 kappa~(P_i)^2``:
    memory O(BLOCK x |P|), no |P| x |P| Gram.
    """
    return (_quad_form(spec, P, w, c)
            - float(c**2 @ kernels.tilted_diag(spec, P, w)))


def tilted_l2_norm(spec):
    """||kappa~||_{2, mu~} in closed form (Gaussian-tilted exponential family)."""
    if not isinstance(spec, GaussExpKernel):
        raise InputError("closed-form tilted norm available for GaussExpKernel only")
    if 2.0 * spec.beta >= 1.0:
        raise InputError("tilted L2 kernel norm requires beta < 1/2")
    return (1.0 - 2.0 * spec.beta) ** (-spec.d * spec.T / 4.0)


def _tilde_predict(est, sampler, Z):
    """f~_X on a batch: prediction divided by sqrt(sampling weight)."""
    return predict(est, Z) / np.sqrt(sampler.weight(Z))


def _tilde_payoff(payoff_fn, sampler, Z):
    return payoff_fn(Z) / np.sqrt(sampler.weight(Z))


@dataclass(frozen=True)
class ReferenceProbe:
    """A reference fit on the probe samples the mse and concentration
    checks share: see :func:`reference_probe`."""

    reference: Estimator
    paths: np.ndarray
    resid: np.ndarray
    kap_sq: np.ndarray
    l2_paths: np.ndarray
    l2_ref: np.ndarray

    def __post_init__(self):
        for a in (self.paths, self.resid, self.kap_sq, self.l2_paths, self.l2_ref):
            a.setflags(write=False)


def reference_probe(f, sampler, reference, seed=0):
    """``reference`` on a :data:`PROBE_PATHS`-path probe sample and an
    :data:`L2_PROBE_PATHS`-path L2 probe, drawn once for both checks.

    The payoff oracle ``f`` (:func:`market.payoff_function`) prices the
    probe sample, and only it.

    Holds ``reference``, the probe ``paths``, the tilted residual
    ``resid = f~ - f~_ref`` and the reference kernel's squared tilted diagonal
    ``kap_sq`` on them, and the ``l2_paths`` with the reference's predictions
    ``l2_ref = f~_ref``.  The large prediction runs on the :mod:`kernelval.pool`
    (:func:`pool.fill_rows`), so the bits are those of one :func:`krr.predict`
    call whatever the worker count.
    """
    probe = draw_paths(sampler, PROBE_PATHS, stream=("msebound", "probe"), seed=seed)
    pred = pool.fill_rows(np.empty(len(probe)),
                          lambda s: predict(reference, probe[s]))
    w = sampler.weight(probe)
    l2_paths = draw_paths(sampler, L2_PROBE_PATHS, stream=("msebound", "l2probe"),
                          seed=seed)
    return ReferenceProbe(
        reference=reference,
        paths=probe,
        resid=_tilde_payoff(f, sampler, probe) - pred / np.sqrt(w),
        kap_sq=kernels.tilted_diag(reference.kernel, probe, w),
        l2_paths=l2_paths,
        l2_ref=_tilde_predict(reference, sampler, l2_paths),
    )


def mse_bound_check(f, n, n_repeats, sampler, probe, seed=0):
    """Root-mean-squared sample error against its 1/(lambda sqrt(n)) bound.

    The bound's numerator ``||(f - f_ref) kappa~||^2 - ||J~*(f - f_ref)||^2``
    is estimated on the tilted probe sample of ``probe``, the
    :func:`reference_probe` of a :func:`reference_estimator` fit ``f_ref``
    (the second term by an unbiased U-statistic, clipped at zero); the
    empirical side refits ``n_repeats`` times with the reference's kernel
    and lambda, on samples the payoff oracle ``f`` prices, and measures
    exact RKHS distances to ``probe.reference``.
    """
    reference, resid, kap_sq = probe.reference, probe.resid, probe.kap_sq
    spec, lam = reference.kernel, reference.lam
    if lam <= 0:
        raise InputError("the untruncated bound requires lambda > 0")
    vals = resid**2 * kap_sq
    num_l2 = float(np.mean(vals))
    num_se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    kinf = float(np.sqrt(np.max(kap_sq)))

    # ||J~* r||^2 = E[r(Z) r(Z') k~(Z, Z')] over independent Z, Z'
    sub = probe.paths[:JSTAR_PATHS]
    total = _offdiag_form(spec, sub, sampler.weight(sub), resid[:JSTAR_PATHS])
    jstar_sq = max(total / (JSTAR_PATHS * (JSTAR_PATHS - 1)), 0.0)

    bound = math.sqrt(max(num_l2 - jstar_sq, 0.0) / n) / lam
    bound_dropped = math.sqrt(num_l2 / n) / lam
    bound_trunc = 2.0 * bound  # delta = 1/2 with ||(J*J+lambda)^-1|| <= 1/lambda

    c_ref = _tilde_coef(reference)
    q_ref = _quad_form(spec, reference.paths, reference.weights,
                       c_ref) / reference.n_train**2
    h_sq, l2_sq = [], []
    for r in range(n_repeats):
        ts = build_training_set(sampler, f, n, f.payoff_id,
                                stream=("msebound", "refit", r), seed=seed)
        est = fit(ts, spec, lam)
        c1 = _tilde_coef(est)
        q11 = _quad_form(spec, est.paths, est.weights, c1) / est.n_train**2
        q12 = _cross_form(spec, est.paths, est.weights, c1, reference.paths,
                          reference.weights, c_ref) / (est.n_train * reference.n_train)
        h_sq.append(max(q11 - 2.0 * q12 + q_ref, 0.0))
        l2_sq.append(float(np.mean(
            (_tilde_predict(est, sampler, probe.l2_paths) - probe.l2_ref) ** 2)))
    rms_h = math.sqrt(float(np.mean(h_sq)))
    rms_l2 = math.sqrt(float(np.mean(l2_sq)))
    se_h = (float(np.std(h_sq, ddof=1)) / math.sqrt(n_repeats)
            if n_repeats > 1 else 0.0)
    se_rms = se_h / (2.0 * rms_h) if rms_h > 0 else 0.0

    bound_se = num_se / (2.0 * lam * math.sqrt(max(num_l2, 1e-300) * n))
    violated = rms_h > bound + 3.0 * (se_rms + bound_se)
    violated |= rms_l2 > kinf * bound_dropped
    return BoundReport(
        kind="mse_bound",
        n=n, lam=lam, n_repeats=n_repeats,
        l2_kappa_residual=math.sqrt(num_l2),
        jstar_norm=math.sqrt(jstar_sq),
        kappa_inf=kinf,
        bound=bound,
        bound_dropped_jstar=bound_dropped,
        bound_truncated=bound_trunc,
        empirical_rms_h=rms_h,
        empirical_rms_l2=rms_l2,
        empirical_se=se_rms,
        violated=bool(violated),
        notes=(
            "population solution replaced by a reference fit of size "
            f"{reference.n_train}",
            "sup norm is a probe-sample maximum (lower bound of the true sup)",
            "truncated variant uses delta = 0.5 and the 1/lambda resolvent proxy",
        ),
    )


def concentration_check(f, n, n_repeats, sampler, probe, seed=0):
    """Tail frequency of the sample error against 2 exp(-tau^2 n / (2 C2)).

    Applicable when the tilted kernel diagonal is bounded (beta <= gamma for
    the exponential family); the sample error enters through the safe proxy
    ``||f~_X - f~_ref||_2 / ||kappa~||_inf <= ||h_X - h_ref||``, with
    ``f~_ref``, the residual's sup norm, the kernel and lambda taken from
    ``probe``, the :func:`reference_probe` of a :func:`reference_estimator` fit.
    The refits' samples are priced by the payoff oracle ``f``
    (:func:`market.payoff_function`).
    """
    spec, lam = probe.reference.kernel, probe.reference.lam
    if lam <= 0:
        raise InputError("the untruncated tail bound requires lambda > 0")
    if isinstance(spec, GaussExpKernel) and spec.beta > spec.gamma:
        return BoundReport(
            kind="concentration", n=n, lam=lam, n_repeats=0, applicable=False,
            notes=("tilted kernel diagonal unbounded (beta > gamma); "
                   "bound not applicable",),
        )
    kap_sq = probe.kap_sq
    sup_rk = float(np.max(np.abs(probe.resid) * np.sqrt(kap_sq)))
    if (isinstance(spec, GaussExpKernel)
            and getattr(sampler, "gamma", None) == spec.gamma):
        kinf = (1.0 - 2.0 * spec.gamma) ** (-spec.d * spec.T / 4.0)
    else:
        kinf = float(np.sqrt(np.max(kap_sq)))
    c2 = (2.0 / lam) ** 2 * sup_rk**2
    c1 = 4.0 * c2  # delta = 1/2, resolvent proxy 1/lambda
    s_prob = 1.0 - 2.0 * math.exp(-0.25 * n * lam**2 / (4.0 * kinf**4))

    proxies = np.empty(n_repeats)
    for r in range(n_repeats):
        ts = build_training_set(sampler, f, n, f.payoff_id,
                                stream=("conc", "refit", r), seed=seed)
        est = fit(ts, spec, lam)
        gap = math.sqrt(float(np.mean(
            (_tilde_predict(est, sampler, probe.l2_paths) - probe.l2_ref) ** 2)))
        proxies[r] = gap / kinf
    tau_grid = [float(np.quantile(proxies, q)) for q in (0.5, 0.75, 0.9)]
    tau_grid.append(2.0 * float(np.max(proxies)))
    rows, violated = [], False
    for tau in tau_grid:
        emp = float(np.mean(proxies >= tau))
        theo = 2.0 * math.exp(-(tau**2) * n / (2.0 * c2))
        p = min(theo, 1.0)
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / n_repeats)
        ok = emp <= p + 3.0 * sigma + 1e-12
        violated |= not ok
        rows.append((tau, emp, theo))
    return BoundReport(
        kind="concentration",
        n=n, lam=lam, n_repeats=n_repeats,
        sup_residual_kappa=sup_rk,
        kappa_inf=kinf,
        c1=c1,
        c2=c2,
        s_prob_lower=s_prob,
        exceedance=tuple(rows),
        violated=bool(violated),
        notes=(
            "sample error measured by the L2/sup-kappa proxy, a lower bound "
            "of the RKHS distance to the reference fit",
            "C1 and the sampling-event probability use delta = 0.5 and the "
            "1/lambda resolvent proxy; membership itself is not observable",
        ),
    )


# ---------------------------------------------------------------------------
# exact population solution for feature-map kernels
# ---------------------------------------------------------------------------


def _grid_rows(lo, hi):
    """Nodes (N, 1, 2) and weights (N,) of the rows ``x[lo:hi]`` of a tensor
    trapezoid rule for two standard-normal steps (d = 1), accurate to ~1e-7
    for payoff-style integrands.

    The whole grid, ``N = CLT_NODES**2``, is ``_grid_rows(0, CLT_NODES)``; a
    block holds its rows ``lo * CLT_NODES`` up to ``hi * CLT_NODES``, with the
    same values.  ``hi`` may pass ``CLT_NODES``.
    """
    x, w = _normal_rule(CLT_NODES, 8.0)
    X1, X2 = np.meshgrid(x[lo:hi], x, indexing="ij")
    paths = np.stack([X1.ravel(), X2.ravel()], axis=1)[:, None, :]
    return paths, (w[lo:hi, None] * w[None, :]).ravel()


def feature_gram_exact(spec):
    """G_ij = E_mu[phi_i phi_j] from Gaussian moments; tilt-independent."""
    if not isinstance(spec, FeatureMapKernel):
        raise InputError("exact feature Gram requires a FeatureMapKernel")
    m = len(spec.features)
    G = np.empty((m, m))
    for i, fi in enumerate(spec.features):
        for j in range(i + 1):
            fj = spec.features[j]
            g = fi.coef * fj.coef
            for t in range(spec.T):
                for c in range(spec.d):
                    g *= kernels.gauss_moment(fi.powers[t][c] + fj.powers[t][c])
            G[i, j] = G[j, i] = g
    return G


def _clt_population(spec, payoff_fn, lam, phi_z, sampler):
    """``h_lambda`` and the exact asymptotic variance in direction ``phi_z``.

    ``h_lambda = (G + lambda)^-1 b`` with ``b = E_mu[f Phi]``; the variance
    ``Var_mu~[(f~ - f~_lambda) phi~^T u]`` with ``u = (G + lambda)^-1 phi_z``:
    ``g = (f - Phi h_lambda) Phi u``, variance ``E_mu[g^2 / w] - E_mu[g]^2``.
    The quadrature grid is walked twice in
    blocks of :data:`_CLT_ROWS` first-step rows.  The first pass accumulates
    ``b`` and keeps each node's payoff ``f`` and ``Phi u``, so the payoff is
    evaluated once per node; the second rebuilds each block's features for
    ``g``, and a :class:`MixtureSampler` of ``spec`` takes its weight
    ``w`` from them.  Memory is two grid-length vectors plus one block's
    features.
    """
    if spec.d != 1 or spec.T != 2:
        raise InputError("payoff moments implemented for d = 1, T = 2")
    M = feature_gram_exact(spec) + lam * np.eye(len(phi_z))
    u = np.linalg.solve(M, phi_z)
    starts = range(0, CLT_NODES, _CLT_ROWS)
    f, phi_u = np.empty(CLT_NODES**2), np.empty(CLT_NODES**2)
    b = np.zeros(len(phi_z))
    for lo in starts:
        paths, wts = _grid_rows(lo, lo + _CLT_ROWS)
        rows = slice(lo * CLT_NODES, lo * CLT_NODES + len(wts))
        phi = kernels.feature_matrix(spec, paths)
        f[rows] = payoff_fn(paths)
        phi_u[rows] = phi @ u
        b += wts @ (f[rows, None] * phi)
    h_pop = np.linalg.solve(M, b)
    mixture = isinstance(sampler, MixtureSampler) and sampler.spec == spec
    m1 = m2 = 0.0
    for lo in starts:
        paths, wts = _grid_rows(lo, lo + _CLT_ROWS)
        rows = slice(lo * CLT_NODES, lo * CLT_NODES + len(wts))
        phi = kernels.feature_matrix(spec, paths)
        g = (f[rows] - phi @ h_pop) * phi_u[rows]
        w = sampler.feature_weight(phi) if mixture else sampler.weight(paths)
        m1 += float(wts @ g)
        m2 += float(wts @ (g**2 / w))
    return h_pop, m2 - m1 * m1


@dataclass(frozen=True)
class NormalityReport:
    """Distributional checks of the scaled sample-error statistic."""

    n: int
    lam: float
    n_repeats: int
    probe: tuple
    statistics: np.ndarray = field(compare=False)
    mean: float = float("nan")
    se: float = float("nan")
    var_hat: float = float("nan")
    var_theory: float = float("nan")
    ad_statistic: float = float("nan")
    ad_pvalue: float = float("nan")
    c2: float = float("nan")
    var_c2_bound: float = float("nan")
    degenerate: bool = False
    notes: tuple = ()

    def __post_init__(self):
        self.statistics.setflags(write=False)

    @property
    def mean_within_3se(self):
        return abs(self.mean) <= 3.0 * self.se

    @property
    def normality_accepted_1pct(self):
        return self.ad_pvalue > 0.01

    def to_json(self):
        doc = asdict(self)
        doc["statistics"] = [float(v) for v in self.statistics]
        doc["mean_within_3se"] = bool(self.mean_within_3se)
        doc["normality_accepted_1pct"] = bool(self.normality_accepted_1pct)
        return json.dumps(_finite_or_none(doc), indent=2, sort_keys=True)


# Anderson-Darling critical values of the normal law with estimated mean and
# variance, and their significance levels in percent, as in SciPy's `anderson`
_AD_NORM_CRITICAL = np.array([0.561, 0.631, 0.752, 0.873, 1.035])
_AD_NORM_SIG = np.array([15, 10, 5, 2.5, 1])


def _anderson_norm(x):
    """Anderson-Darling statistic and interpolated p-value of normality.

    The ``statistic`` and ``pvalue`` of ``scipy.stats.anderson(x,
    dist="norm", method="interpolate")``, bit for bit: the same operations
    in the same order, without loading ``scipy.stats``.
    """
    # here only: at module level it adds to every import of the package
    from scipy.special import log_ndtr

    y = np.sort(x)
    n = len(y)
    w = (y - np.mean(x)) / np.std(x, ddof=1)
    i = np.arange(1, n + 1)
    a2 = -n - np.sum((2 * i - 1.0) / n * (log_ndtr(w) + log_ndtr(-w)[::-1]))
    critical = np.around(_AD_NORM_CRITICAL / (1.0 + 0.75 / n + 2.25 / n / n), 3)
    return float(a2), float(np.interp(a2, critical, _AD_NORM_SIG / 100))


def clt_experiment(spec, f, lam, n, n_repeats, sampler, probe_z, seed=0):
    """Distribution of sqrt(n) (f~_X(z) - f~_lambda(z)) over independent fits.

    Runs on a finite-dimensional feature map so the population solution is
    exact (Gaussian moment matrix plus payoff quadrature); the payoff oracle
    ``f`` (:func:`market.payoff_function`) prices the quadrature grid, the
    repeats' samples and the tail constant's probe.  Reports the sample
    mean (must vanish), an Anderson-Darling normality statistic, the exact
    asymptotic variance, and the tail-constant comparison 4 ||Q|| <= C2 in
    the probe direction.
    """
    if not isinstance(spec, FeatureMapKernel):
        raise InputError("the limit experiment requires a FeatureMapKernel")
    z = kernels.as_path(probe_z, spec.d, spec.T)
    phi_z = kernels.feature_matrix(spec, z[None])[0]
    wz = float(sampler.weight(z))
    # exact asymptotic variance <Q k~(., z), k~(., z)> by quadrature
    h_pop, var_theory = _clt_population(spec, f, lam, phi_z / math.sqrt(wz),
                                        sampler)
    f_pop_z = float(phi_z @ h_pop) / math.sqrt(wz)

    stats = np.empty(n_repeats)
    for r in range(n_repeats):
        ts = build_training_set(sampler, f, n, f.payoff_id,
                                stream=("clt", "repeat", r), seed=seed)
        stats[r] = math.sqrt(n) * (float(phi_z @ solve(ts, spec, lam, "primal"))
                                   / math.sqrt(wz) - f_pop_z)
    mean = float(np.mean(stats))
    se = float(np.std(stats, ddof=1)) / math.sqrt(n_repeats) if n_repeats > 1 else 0.0

    # tail constant on this configuration, sup over a sampling-measure probe
    probe = draw_paths(sampler, PROBE_PATHS, stream=("clt", "probe"), seed=seed)
    wpr = sampler.weight(probe)
    resid_t = (f(probe) - kernels.feature_matrix(spec, probe) @ h_pop) / np.sqrt(wpr)
    kap_sq = kernels.tilted_diag(spec, probe, wpr)
    c2 = (2.0 / lam) ** 2 * float(np.max(resid_t**2 * kap_sq))
    kzz = float(kernels.tilted_diag(spec, z, wz)[0])
    var_c2_bound = 0.25 * c2 * kzz

    if n_repeats < 8:
        return NormalityReport(
            n=n, lam=lam, n_repeats=n_repeats, probe=tuple(np.ravel(probe_z)),
            statistics=stats, mean=mean, se=se, var_theory=var_theory,
            c2=c2, var_c2_bound=var_c2_bound, degenerate=True,
            notes=("too few repeats for distributional statistics",),
        )
    ad_statistic, ad_pvalue = _anderson_norm(stats)
    return NormalityReport(
        n=n, lam=lam, n_repeats=n_repeats, probe=tuple(np.ravel(probe_z)),
        statistics=stats,
        mean=mean, se=se,
        var_hat=float(np.var(stats, ddof=1)),
        var_theory=var_theory,
        ad_statistic=ad_statistic,
        ad_pvalue=ad_pvalue,
        c2=c2,
        var_c2_bound=var_c2_bound,
        notes=("population solution exact: Gaussian moment Gram plus payoff "
               "quadrature",),
    )


def robustness_check(spec, lam, n, n_repeats, sampler, eps, seed=0):
    """Coefficient drift under the payoff perturbation f -> f + eps * g, g = 1.

    The fit is linear in the payoff, so the drift is the fit of ``eps g``
    alone, whatever ``f``: each repeat fits the constant payoff ``eps`` and
    measures the exact RKHS drift ``(1/n) sqrt(a^T K~ a)`` from its dual
    coefficients a.  The mean drift must stay below
    ``(1/lambda) ||kappa~||_2 ||eps g||_2`` and, when the tilted kernel
    diagonal is bounded, the RMS drift below
    ``(1/lambda) ||kappa~||_inf ||eps g||_2``, where ``||g||_2 = 1``.
    """
    if lam <= 0:
        raise InputError("the perturbation bound requires lambda > 0")
    if not math.isfinite(eps):
        raise InputError(f"the perturbation size eps must be finite, got {eps}")
    kap2 = tilted_l2_norm(spec)
    kinf = float("nan")
    if (isinstance(spec, GaussExpKernel) and spec.beta <= spec.gamma
            and getattr(sampler, "gamma", None) == spec.gamma):
        kinf = (1.0 - 2.0 * spec.gamma) ** (-spec.d * spec.T / 4.0)
    drifts = np.empty(n_repeats)
    for r in range(n_repeats):
        ts = build_training_set(sampler, lambda paths: np.full(len(paths), eps),
                                n, stream=("robust", "repeat", r), seed=seed)
        a = solve(ts, spec, lam)
        drifts[r] = math.sqrt(max(_quad_form(spec, ts.paths, ts.weights, a), 0.0)) / n
    mean_bound = abs(eps) * kap2 / lam
    mean_drift = float(np.mean(drifts))
    rms_drift = float(np.sqrt(np.mean(drifts**2)))
    se = float(np.std(drifts, ddof=1)) / math.sqrt(n_repeats) if n_repeats > 1 else 0.0
    violated = mean_drift > mean_bound + 3.0 * se
    if not math.isnan(kinf):
        violated |= rms_drift > abs(eps) * kinf / lam + 3.0 * se
    return BoundReport(
        kind="robustness",
        n=n, lam=lam, n_repeats=n_repeats,
        kappa_l2=kap2,
        kappa_inf=kinf,
        bound=mean_bound,
        empirical_rms_h=rms_drift,
        empirical_se=se,
        violated=bool(violated),
        notes=(f"perturbation size eps = {eps}",
               f"mean drift {mean_drift!r} vs mean bound {mean_bound!r}",
               "RKHS drift computed exactly from dual coefficient differences"),
    )
