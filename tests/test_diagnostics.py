"""Error-bound checks: references, closed-form norms, limit experiments."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from kernelval import diagnostics, kernels, krr, pool
from kernelval.diagnostics import (CLT_NODES, _anderson_norm, _clt_population,
                                   _cross_form, _grid_rows, _offdiag_form,
                                   _quad_form, _tilde_payoff, _tilde_predict,
                                   clt_experiment, concentration_check,
                                   feature_gram_exact, mse_bound_check,
                                   reference_estimator, reference_probe,
                                   robustness_check, tilted_l2_norm)
from kernelval.errors import InputError
from kernelval.kernels import (BLOCK, FeatureMapKernel, GaussExpKernel,
                               feature_matrix, gram, monomial_features,
                               tilted_gram)
from kernelval.krr import fit
from kernelval.market import BSConfig, payoff_function
from kernelval.sampling import (MeasureSpec, MixtureSampler,
                                build_training_set, draw_paths)
from support import (gram_offdiag_form, peak_bytes, pow_feature_products,
                     primal_fit_coef, three_pass_clt_population,
                     training_set_with_duplicates, two_fit_drifts)

CFG = BSConfig()
SPEC = GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2, gamma=0.45)
SAMPLER = MeasureSpec(gamma=0.45, d=1, T=2, seed=0)


@pytest.fixture()
def small_probes(monkeypatch):
    """Probe samples of 20,000 and 2000 paths in place of the study's sizes,
    for the checks and the CLT experiment alike."""
    monkeypatch.setattr(diagnostics, "PROBE_PATHS", 20_000)
    monkeypatch.setattr(diagnostics, "L2_PROBE_PATHS", 2000)


def test_reference_requires_headroom():
    f = payoff_function(CFG, "european_put")
    with pytest.raises(InputError):
        reference_estimator(SAMPLER, f, SPEC, 1e-5, n=100, n_ref=399)
    ref = reference_estimator(SAMPLER, f, SPEC, 1e-5, n=100, n_ref=400)
    assert ref.n_train == 400


def test_tilted_l2_norm_closed_form():
    assert tilted_l2_norm(SPEC) == pytest.approx(0.4 ** -0.5, rel=1e-14)
    mild = GaussExpKernel(alpha=1.0, beta=0.1, d=1, T=2)
    # E_nominal[exp(beta ||x||^2)] = (1 - 2 beta)^(-dT/2) = norm^2
    rng = np.random.default_rng(12)
    x = rng.standard_normal((400_000, 1, 2))
    m = np.exp(0.1 * (x**2).sum(axis=(1, 2)))
    se = m.std() / math.sqrt(m.size)
    assert abs(m.mean() - tilted_l2_norm(mild) ** 2) < 3 * se
    with pytest.raises(InputError):
        tilted_l2_norm(FeatureMapKernel(features=monomial_features(1, 2, 1)))


def _reference(lam, n, seed):
    """The reference fit the checks used to build themselves, at n_ref = 4 n."""
    return reference_estimator(SAMPLER, payoff_function(CFG, "european_put"),
                               SPEC, lam, n, 4 * n, payoff_id="european_put",
                               seed=seed)


def _put():
    return payoff_function(CFG, "european_put")


def _probe(reference, seed, sampler=SAMPLER):
    return reference_probe(_put(), sampler, reference, seed=seed)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_reference_probe_equals_one_serial_prediction(threads, monkeypatch):
    # three whole blocks and a short one: the pool's chunks end on block
    # boundaries, so the residual has the bits of one serial predict call
    monkeypatch.setattr(diagnostics, "PROBE_PATHS", 3 * BLOCK + 37)
    monkeypatch.setattr(diagnostics, "L2_PROBE_PATHS", 300)
    ref = _reference(1e-3, 100, seed=14)
    calls, predict = [], krr.predict
    monkeypatch.setattr(diagnostics, "predict",
                        lambda est, x: calls.append(len(x)) or predict(est, x))
    f = _put()
    with pool.using(threads):
        probe = reference_probe(f, SAMPLER, ref, seed=14)
    assert len(calls) == min(threads, 4) + 1  # the chunks, then the L2 probe
    assert f.evals == 3 * BLOCK + 37  # the probe is priced, the L2 probe is not
    # the residual as each check computed it, with one serial prediction
    paths = draw_paths(SAMPLER, 3 * BLOCK + 37, stream=("msebound", "probe"), seed=14)
    serial = (_tilde_payoff(payoff_function(CFG, "european_put"), SAMPLER, paths)
              - _tilde_predict(ref, SAMPLER, paths))
    assert probe.reference is ref
    assert probe.paths.tobytes() == paths.tobytes()
    assert probe.resid.tobytes() == serial.tobytes()
    assert probe.kap_sq.tobytes() == kernels.tilted_diag(
        SPEC, paths, SAMPLER.weight(paths)).tobytes()
    l2 = draw_paths(SAMPLER, 300, stream=("msebound", "l2probe"), seed=14)
    assert probe.l2_paths.tobytes() == l2.tobytes()
    assert probe.l2_ref.tobytes() == _tilde_predict(ref, SAMPLER, l2).tobytes()
    assert not probe.resid.flags.writeable


@pytest.mark.parametrize("block", [7, 40])
def test_quad_form_in_blocks_matches_tilted_gram(block, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK", block)
    f = payoff_function(CFG, "european_put")
    ts = build_training_set(SAMPLER, f, 40, stream=("hn",))
    e1 = fit(ts, SPEC, 1e-4)
    e2 = fit(dataclasses.replace(ts, payoff_values=2.0 * ts.payoff_values), SPEC, 1e-4)
    K = tilted_gram(SPEC, ts.paths, ts.weights)
    # a fit's coefficients, and a coefficient gap
    for c in (e1.dual_coef, e1.dual_coef - e2.dual_coef):
        full = float(c @ K @ c)
        blocked = _quad_form(SPEC, ts.paths, ts.weights, c)
        assert abs(blocked - full) <= 1e-12 * abs(full)
    # the mse check's cross form against a second fit on other paths
    ts3 = build_training_set(SAMPLER, f, 30, stream=("hn", 3))
    e3 = fit(ts3, SPEC, 1e-4)
    K13 = gram(SPEC, ts.paths, ts3.paths) / np.sqrt(np.outer(ts.weights, ts3.weights))
    full = float(e1.dual_coef @ K13 @ e3.dual_coef)
    blocked = _cross_form(SPEC, ts.paths, ts.weights, e1.dual_coef, ts3.paths,
                          ts3.weights, e3.dual_coef)
    assert abs(blocked - full) <= 1e-12 * abs(full)


def test_quadratic_forms_hold_one_block_not_the_gram():
    rng = np.random.default_rng(19)
    n = 3000
    P, Q = rng.standard_normal((2, n, 1, 2))
    wp, wq = rng.uniform(0.5, 2.0, (2, n))
    c, v = rng.standard_normal((2, n))
    # an n x n Gram with its exponent temporary is 144 MB; two BLOCK-row blocks
    # are 3 MB
    limit = 2 * BLOCK * n * 8
    assert peak_bytes(_quad_form, SPEC, P, wp, c) < limit
    assert peak_bytes(_cross_form, SPEC, P, wp, c, Q, wq, v) < limit
    assert peak_bytes(_offdiag_form, SPEC, P, wp, c) < limit


@pytest.mark.parametrize("block", [7, BLOCK, 256])
def test_offdiag_form_matches_the_gram_oracle(block, monkeypatch):
    # the mse check's J~* sum on its own residuals, where the diagonal is a
    # large part of the quadratic form, and on random coefficients
    monkeypatch.setattr(kernels, "BLOCK", block)
    f = payoff_function(CFG, "european_put")
    ref = reference_estimator(SAMPLER, f, SPEC, 1e-5, n=100, n_ref=400)
    P = draw_paths(SAMPLER, 700, stream=("msebound", "probe"))
    w = SAMPLER.weight(P)
    resid = _tilde_payoff(f, SAMPLER, P) - _tilde_predict(ref, SAMPLER, P)
    c = np.random.default_rng(20).standard_normal(P.shape[0])
    for coef in (resid, c):
        ref_sum = gram_offdiag_form(SPEC, P, w, coef)
        assert abs(_offdiag_form(SPEC, P, w, coef) - ref_sum) <= 1e-12 * abs(ref_sum)


def test_normal_expectation_oracles():
    # the CLT's quadrature rule on its whole grid
    p, w = _grid_rows(0, CLT_NODES)
    assert w @ (p[:, 0, 0] ** 2 * p[:, 0, 1] ** 2) == pytest.approx(1.0, abs=1e-9)
    assert w @ np.exp(0.1 * p.sum(axis=(1, 2))) == pytest.approx(
        math.exp(0.01), rel=1e-9)


def test_feature_gram_exact_matches_monte_carlo():
    spec = FeatureMapKernel(features=monomial_features(1, 2, 2), d=1, T=2)
    G = feature_gram_exact(spec)
    assert np.allclose(G, G.T)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200_000, 1, 2))
    phi = feature_matrix(spec, X)
    Gmc = phi.T @ phi / X.shape[0]
    assert np.max(np.abs(G - Gmc)) < 0.05
    ev = np.linalg.eigvalsh(G)
    assert ev.min() > 0


def _population(spec, payoff_fn, lam):
    """``_clt_population`` in the direction of a probe point's features."""
    z = np.array([[[0.3, -0.5]]])
    sampler = MeasureSpec(gamma=0.2, d=1, T=2, seed=0)
    phi_z = feature_matrix(spec, z)[0] / math.sqrt(sampler.weight(z)[0])
    return _clt_population(spec, payoff_fn, lam, phi_z, sampler)


def test_clt_population_recovers_in_span_target():
    spec = FeatureMapKernel(features=monomial_features(1, 2, 2), d=1, T=2)
    target = np.arange(1.0, len(spec.features) + 1.0)

    def f(paths):
        return feature_matrix(spec, paths) @ target

    h, var = _population(spec, f, lam=1e-10)
    assert np.allclose(h, target, atol=1e-6)
    # the population residual f - Phi h vanishes, and its variance with it
    assert abs(var) < 1e-10


def test_clt_population_constant_feature_moment():
    spec = FeatureMapKernel(features=monomial_features(1, 2, 1), d=1, T=2)
    f = payoff_function(CFG, "european_put")
    lam = 1e-10
    h, _ = _population(spec, f, lam)
    b = (feature_gram_exact(spec) + lam * np.eye(len(h))) @ h
    # first feature is the constant, so b[0] = E[f] = time-0 value
    from kernelval.market import value_quadrature
    assert b[0] == pytest.approx(value_quadrature(CFG, "european_put", (), 0),
                                 abs=1e-6)


@pytest.mark.usefixtures("small_probes")
class TestMseBound:
    def test_holds_on_reference_problem(self):
        ref = _reference(1e-3, 150, seed=1)
        rep = mse_bound_check(_put(), n=150,
                              n_repeats=4, sampler=SAMPLER, seed=1,
                              probe=_probe(ref, seed=1))
        assert rep.kind == "mse_bound"
        assert not rep.violated
        assert rep.empirical_rms_h < rep.bound  # huge slack expected
        assert rep.bound <= rep.bound_dropped_jstar
        assert rep.bound_truncated == 2.0 * rep.bound
        assert rep.n_repeats == 4

    def test_bound_scales_as_inverse_sqrt_n(self):
        f = payoff_function(CFG, "european_put")
        ref = reference_estimator(SAMPLER, f, SPEC, 1e-3, n=400, n_ref=1600,
                                  seed=2)
        probe = _probe(ref, seed=2)
        a = mse_bound_check(_put(), n=100,
                            n_repeats=1, sampler=SAMPLER, seed=2,
                            probe=probe)
        b = mse_bound_check(_put(), n=400,
                            n_repeats=1, sampler=SAMPLER, seed=2,
                            probe=probe)
        assert b.bound == a.bound / 2.0
        assert b.l2_kappa_residual == a.l2_kappa_residual

    def test_lambda_zero_rejected(self):
        # lambda comes from the reference, and is refused before any refit
        ref = _reference(1e-3, 100, seed=3)
        probe = dataclasses.replace(_probe(ref, seed=3),
                                    reference=dataclasses.replace(ref, lam=0.0))
        with pytest.raises(InputError, match="lambda > 0"):
            mse_bound_check(_put(), n=100, n_repeats=1,
                            sampler=SAMPLER, probe=probe)

    def test_kernel_and_lambda_come_from_the_reference(self):
        # a reference of another kernel and lambda than the module's SPEC:
        # the probe's diagonal and the report follow the reference
        other = GaussExpKernel(alpha=2.0, beta=0.15, d=1, T=2, gamma=0.45)
        ref = reference_estimator(SAMPLER, payoff_function(CFG, "european_put"),
                                  other, 1e-2, n=100, n_ref=400, seed=15)
        probe = _probe(ref, seed=15)
        assert probe.kap_sq.tobytes() == kernels.tilted_diag(
            other, probe.paths, SAMPLER.weight(probe.paths)).tobytes()
        rep = mse_bound_check(_put(), n=100, n_repeats=2,
                              sampler=SAMPLER, seed=15, probe=probe)
        assert rep.lam == 1e-2
        assert rep.bound == pytest.approx(math.sqrt(
            max(rep.l2_kappa_residual**2 - rep.jstar_norm**2, 0.0) / 100) / 1e-2,
            rel=1e-12)
        conc = concentration_check(_put(), n=100, n_repeats=2,
                                   sampler=SAMPLER, seed=15, probe=probe)
        assert conc.lam == 1e-2
        assert conc.c2 == (2.0 / 1e-2) ** 2 * conc.sup_residual_kappa**2

    def test_report_serializes_to_strict_json(self):
        ref = _reference(1e-3, 100, seed=3)
        rep = mse_bound_check(_put(), n=100,
                              n_repeats=2, sampler=SAMPLER, seed=3,
                              probe=_probe(ref, seed=3))
        doc = json.loads(rep.to_json())  # would raise on NaN/Infinity tokens
        assert doc["kind"] == "mse_bound"
        assert doc["violated"] is False
        # fields never set for this kind sanitize to null
        assert doc["c2"] is None


@pytest.mark.usefixtures("small_probes")
class TestConcentration:
    def test_holds_and_reports_rows(self):
        rep = concentration_check(_put(), n=150,
                                  n_repeats=12, sampler=SAMPLER, seed=4,
                                  probe=_probe(_reference(1e-3, 150, seed=4), seed=4))
        assert rep.kind == "concentration"
        assert rep.applicable and not rep.violated
        assert rep.c1 == 4.0 * rep.c2
        assert len(rep.exceedance) == 4
        for tau, emp, theo in rep.exceedance:
            assert 0.0 <= emp <= 1.0 and theo >= 0.0
        assert rep.s_prob_lower <= 1.0

    def test_huge_tau_never_exceeded(self):
        # the grid's last tau is twice the largest proxy: no repeat reaches it
        rep = concentration_check(_put(), n=120,
                                  n_repeats=6, sampler=SAMPLER, seed=5,
                                  probe=_probe(_reference(1e-3, 120, seed=5), seed=5))
        taus = [tau for tau, _, _ in rep.exceedance]
        assert taus[-1] > 0.0 and taus[-1] > 1.9 * max(taus[:-1])
        tau, emp, theo = rep.exceedance[-1]
        assert emp == 0.0 and theo >= 0.0
        assert not rep.violated

    def test_unbounded_diagonal_marked_inapplicable(self):
        heavy = GaussExpKernel(alpha=4.0, beta=0.45, d=1, T=2, gamma=0.3)
        light_sampler = MeasureSpec(gamma=0.3, d=1, T=2, seed=0)
        # the kernel comes from the reference
        ref = reference_estimator(light_sampler, payoff_function(CFG, "european_put"),
                                  heavy, 1e-3, n=100, n_ref=400)
        f = _put()
        rep = concentration_check(f, n=100, n_repeats=2, sampler=light_sampler,
                                  probe=_probe(ref, seed=0, sampler=light_sampler))
        assert f.evals == 0  # no refit: nothing priced, nothing counted
        assert not rep.applicable
        assert not rep.violated
        assert "unbounded" in " ".join(rep.notes)


@pytest.mark.usefixtures("small_probes")
class TestCltExperiment:
    def _setup(self):
        spec = FeatureMapKernel(features=monomial_features(1, 2, 2), d=1, T=2)
        return spec, MixtureSampler(spec, seed=0)

    def test_report_fields_and_bound(self):
        spec, sampler = self._setup()
        rep = clt_experiment(spec, _put(), lam=1e-3, n=400,
                             n_repeats=24, sampler=sampler,
                             probe_z=(0.3, -0.5), seed=6)
        assert not rep.degenerate
        assert rep.statistics.shape == (24,)
        assert rep.var_theory > 0
        # 4 ||Q|| <= C2 in the probe direction
        assert rep.var_theory <= rep.var_c2_bound
        assert rep.mean_within_3se
        doc = json.loads(rep.to_json())
        assert doc["n_repeats"] == 24

    def test_anderson_darling_without_future_warning(self):
        spec, sampler = self._setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error", FutureWarning)
            rep = clt_experiment(spec, _put(), lam=1e-3, n=200,
                                 n_repeats=12, sampler=sampler,
                                 probe_z=(0.3, -0.5), seed=6)
        assert 0.0 < rep.ad_pvalue <= 1.0
        assert rep.normality_accepted_1pct == (rep.ad_pvalue > 0.01)
        assert json.loads(rep.to_json())["ad_pvalue"] == rep.ad_pvalue

    def test_anderson_norm_equals_scipy_bit_for_bit(self):
        import scipy.stats

        rng = np.random.default_rng(23)
        sizes = [8, 9, 500] + list(rng.integers(8, 501, 597))
        pvalues = []
        for k, n in enumerate(sizes):
            x = (rng.standard_normal(n), rng.standard_t(3, n),
                 rng.exponential(size=n))[k % 3]
            if k % 4 == 3:
                x = np.round(x, 1)  # ties
            ref = scipy.stats.anderson(x, dist="norm", method="interpolate")
            stat, p = _anderson_norm(x)
            assert (stat, p) == (float(ref.statistic), float(ref.pvalue))
            pvalues.append(p)
        # both ends of the interpolation's clamp, and values between them
        assert 0.15 in pvalues and 0.01 in pvalues
        assert any(0.01 < p < 0.15 for p in pvalues)

    @pytest.mark.parametrize("mixture", [True, False])
    def test_c2_bound_matches_feature_inner_product(self, mixture):
        spec, sampler = self._setup()
        if not mixture:
            sampler = MeasureSpec(gamma=0.2, d=1, T=2, seed=0)
        z = np.array([[[1.7, 0.9]]])
        rep = clt_experiment(spec, _put(), lam=1e-3, n=100,
                             n_repeats=4, sampler=sampler, probe_z=z[0], seed=3)
        # the hand-written tilted diagonal the bound used before
        phi = feature_matrix(spec, z)[0]
        old = 0.25 * rep.c2 * (float(phi @ phi) / float(sampler.weight(z)[0]))
        assert rep.var_c2_bound == pytest.approx(old, rel=1e-12, abs=0.0)

    def test_too_few_repeats_degenerate(self):
        spec, sampler = self._setup()
        rep = clt_experiment(spec, _put(), lam=1e-3, n=200,
                             n_repeats=4, sampler=sampler,
                             probe_z=(0.0, 0.0), seed=7)
        assert rep.degenerate
        assert math.isnan(rep.ad_statistic)
        assert not rep.normality_accepted_1pct

    # neither weight builds features of its own: the mixture sampler's is
    # taken from the grid block's features
    @pytest.mark.parametrize("mixture, weight_calls", [(True, 0), (False, 0)])
    def test_one_grid_pass_equals_the_three_pass_computation(
            self, monkeypatch, mixture, weight_calls):
        spec, sampler = self._setup()
        if not mixture:
            sampler = MeasureSpec(gamma=0.2, d=1, T=2, seed=0)
        grid, grid_rows = [], diagnostics._grid_rows
        sizes, grid_sizes, feature_matrix = [], [], kernels.feature_matrix

        def recording_rows(lo, hi):
            paths, wts = grid_rows(lo, hi)
            grid.append(paths)
            return paths, wts

        def counting(spec, paths):
            sizes.append(paths.shape[0])
            if any(paths is p for p in grid):
                grid_sizes.append(paths.shape[0])
            return feature_matrix(spec, paths)

        monkeypatch.setattr(diagnostics, "_grid_rows", recording_rows)
        monkeypatch.setattr(kernels, "feature_matrix", counting)
        kw = dict(lam=1e-3, n=150, n_repeats=9, sampler=sampler,
                  probe_z=(0.3, -0.5), seed=12)
        f = _put()
        rep = clt_experiment(spec, f, **kw)
        assert max(sizes) <= diagnostics._CLT_ROWS * diagnostics.CLT_NODES
        # each node's features twice, for b and then for g: one pass over the
        # payoffs, two over the features
        assert sum(grid_sizes) == (2 + weight_calls) * diagnostics.CLT_NODES**2
        # the payoff once per training path, probe path and grid node
        assert f.evals == (150 * 9 + diagnostics.PROBE_PATHS
                           + diagnostics.CLT_NODES**2)
        # the grid-by-grid oracle in place of the blocked passes: the blocks
        # sum the grid in another order, a deliberate rounding change
        monkeypatch.setattr(diagnostics, "_clt_population", three_pass_clt_population)
        oracle = clt_experiment(spec, _put(), **kw)
        assert rep.var_theory == pytest.approx(oracle.var_theory, rel=1e-10, abs=0)
        assert rep.c2 == pytest.approx(oracle.c2, rel=1e-10, abs=0)
        np.testing.assert_allclose(rep.statistics, oracle.statistics, rtol=0,
                                   atol=1e-8)

    @pytest.mark.parametrize("degree", [3, 4])
    def test_grid_features_are_the_pow_oracle_bit_for_bit(self, degree):
        # the nodes are multiples of 1/64, so every power and product of
        # them is exact whichever way it is computed
        spec = FeatureMapKernel(features=monomial_features(1, 2, degree), d=1, T=2)
        for lo in (0, 480, diagnostics.CLT_NODES - 1):
            paths, _ = diagnostics._grid_rows(lo, lo + diagnostics._CLT_ROWS)
            assert (feature_matrix(spec, paths).tobytes()
                    == pow_feature_products(spec, paths, 2).tobytes())

    def test_multiplied_powers_move_the_statistics_in_their_last_bits(
            self, monkeypatch):
        # the study's degree-3 features; the pow oracle in place of the
        # multiplied powers, for the fits, the mixture weights and the grid
        spec = FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2)
        kw = dict(lam=1e-3, n=150, n_repeats=9,
                  sampler=MixtureSampler(spec, seed=0), probe_z=(0.3, -0.5),
                  seed=12)
        rep = clt_experiment(spec, _put(), **kw)
        monkeypatch.setattr(kernels, "_feature_products", pow_feature_products)
        oracle = clt_experiment(spec, _put(), **kw)
        # the oracle reached the fits: their last bits moved
        assert rep.statistics.tobytes() != oracle.statistics.tobytes()
        np.testing.assert_allclose(rep.statistics, oracle.statistics,
                                   rtol=1e-10, atol=0.0)
        assert rep.var_theory == oracle.var_theory
        assert rep.c2 == oracle.c2

    def test_population_moments_hold_one_block_not_the_grid(self):
        # the study's CLT: degree 3 features, the mixture sampler, and the
        # 1025^2-node grid, whose whole-grid arrays took 232 MiB
        spec = FeatureMapKernel(features=monomial_features(1, 2, 3), d=1, T=2)
        sampler = MixtureSampler(spec, seed=0)
        z = np.array([[[0.3, -0.5]]])
        phi_z = feature_matrix(spec, z)[0] / math.sqrt(sampler.weight(z)[0])
        peak = peak_bytes(diagnostics._clt_population, spec,
                          payoff_function(CFG, "european_put"), 1e-3, phi_z,
                          sampler)
        assert peak < 48 * 2**20

    def test_repeat_fits_equal_full_primal_fits_without_hashing(self, monkeypatch):
        spec, sampler = self._setup()
        hashes, content_hash = [], krr.content_hash

        def counting(ts):
            hashes.append(ts.n)
            return content_hash(ts)

        monkeypatch.setattr(krr, "content_hash", counting)
        kw = dict(lam=1e-3, n=150, n_repeats=9, sampler=sampler,
                  probe_z=(0.3, -0.5), seed=12)
        rep = clt_experiment(spec, _put(), **kw)
        assert hashes == []

        def full_fit(ts, spec, lam, mode):
            assert mode == "primal"
            return primal_fit_coef(ts, spec, lam)

        monkeypatch.setattr(diagnostics, "solve", full_fit)
        oracle = clt_experiment(spec, _put(), **kw)
        assert hashes == [150] * 9
        assert rep.statistics.tobytes() == oracle.statistics.tobytes()
        assert rep.to_json() == oracle.to_json()

    @pytest.mark.parametrize("lam", [-1e-3, math.nan])
    def test_rejects_a_bad_lambda(self, lam):
        spec, sampler = self._setup()
        with pytest.raises(InputError):
            clt_experiment(spec, _put(), lam=lam, n=50, n_repeats=2,
                           sampler=sampler, probe_z=(0.0, 0.0))

    def test_requires_feature_kernel(self):
        with pytest.raises(InputError):
            clt_experiment(SPEC, _put(), lam=1e-3, n=100,
                           n_repeats=2, sampler=SAMPLER, probe_z=(0.0, 0.0))


class TestRobustness:
    def test_zero_perturbation_gives_zero_drift(self):
        rep = robustness_check(SPEC, 1e-4, n=80,
                               n_repeats=3, sampler=SAMPLER, eps=0.0, seed=8)
        assert rep.empirical_rms_h == 0.0
        assert not rep.violated

    def test_drift_is_linear_in_eps(self):
        kw = dict(n=80, n_repeats=3, sampler=SAMPLER, seed=9)
        r1 = robustness_check(SPEC, 1e-4, eps=0.01, **kw)
        r2 = robustness_check(SPEC, 1e-4, eps=0.02, **kw)
        assert r2.empirical_rms_h == pytest.approx(2.0 * r1.empirical_rms_h,
                                                   rel=1e-12)
        assert r2.bound == pytest.approx(2.0 * r1.bound, rel=1e-12)

    def test_bound_holds_with_margin(self):
        rep = robustness_check(SPEC, 1e-4, n=120,
                               n_repeats=5, sampler=SAMPLER, eps=0.05, seed=10)
        assert not rep.violated
        assert rep.empirical_rms_h < rep.bound
        assert rep.kappa_l2 == pytest.approx(tilted_l2_norm(SPEC), rel=1e-14)

    def test_one_factor_equals_two_fits(self):
        # one fit of the perturbation alone against the difference of two
        # separate fits: linearity makes them equal, and skipping the
        # subtraction changes the rounding on purpose
        kw = dict(n=90, n_repeats=3, sampler=SAMPLER, eps=0.03, seed=13)
        rep = robustness_check(SPEC, 1e-4, **kw)
        drifts = two_fit_drifts(payoff_function(CFG, "european_put"), SPEC, 1e-4,
                                **kw)
        assert rep.empirical_rms_h == pytest.approx(
            float(np.sqrt(np.mean(drifts**2))), rel=1e-12, abs=0.0)
        assert rep.empirical_se == pytest.approx(
            float(np.std(drifts, ddof=1)) / math.sqrt(3), rel=1e-9, abs=0.0)
        mean_drift = float(rep.notes[1].split()[2])
        assert mean_drift == pytest.approx(float(np.mean(drifts)), rel=1e-12, abs=0.0)

    def test_lambda_zero_rejected(self):
        with pytest.raises(InputError):
            robustness_check(SPEC, 0.0, n=50, n_repeats=1,
                             sampler=SAMPLER, eps=0.1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        # every drift comparison is false on a NaN bound, which would pass
        with pytest.raises(InputError, match="eps must be finite"):
            robustness_check(SPEC, 1e-4, n=50, n_repeats=2,
                             sampler=SAMPLER, eps=eps)


def test_sorted_reference_has_the_unsorted_rkhs_norm():
    # a dual-sorted fit folds each repeated path into one support path with
    # its multiplicity; through _tilde_coef its RKHS norm is the unsorted one
    spec = GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=2, gamma=0.45)
    ts = training_set_with_duplicates(1, 2, 0.45)
    norms = {}
    for mode in ("dual-unsorted", "dual-sorted"):
        est = fit(ts, spec, 1e-3, mode=mode)
        norms[mode] = _quad_form(spec, est.paths, est.weights,
                                 diagnostics._tilde_coef(est)) / est.n_train**2
    assert len(fit(ts, spec, 1e-3, mode="dual-sorted").paths) < ts.n
    assert norms["dual-sorted"] == pytest.approx(norms["dual-unsorted"], rel=1e-9, abs=0)
    with pytest.raises(InputError):
        fspec = FeatureMapKernel(features=monomial_features(1, 2, 2), d=1, T=2,
                                 gamma=0.45)
        diagnostics._tilde_coef(fit(ts, fspec, 1e-3, mode="primal"))
