"""Black-Scholes market, payoffs, and value-process ground truth."""

import csv
import io
import math

import numpy as np
import pytest

from kernelval.errors import CapabilityError, InputError
from kernelval.market import (GT_HALF_WIDTH, GT_NODES, BSConfig, GroundTruth,
                              NestedMC, PAYOFF_IDS, _normal_rule, _quad_one_step,
                              ground_truth_value, nested_mc_estimate, payoff,
                              payoff_from_stocks, payoff_function, stock_path,
                              value_quadrature)
from support import (ATM_CALL_2STEP, bs_call, bs_put, csv_writer_ground_truth,
                     peak_bytes, quad_one_step_512)

CFG = BSConfig()  # s0=1, sigma=0.2, r=0, T=2, strike=1, barrier=2.24


def test_config_validation():
    with pytest.raises(InputError):
        BSConfig(s0=0.0)
    with pytest.raises(InputError):
        BSConfig(sigma=-0.1)
    with pytest.raises(InputError):
        BSConfig(T=0)


def test_zero_noise_stock_path():
    S = stock_path(CFG, np.zeros(2))
    assert np.allclose(S, [1.0, math.exp(-0.02), math.exp(-0.04)], rtol=1e-14)
    batch = stock_path(CFG, np.zeros((3, 2)))
    assert batch.shape == (3, 2 + 1)


def test_noise_in_every_accepted_shape_gives_the_same_values():
    x = np.random.default_rng(5).standard_normal((4, 2))
    steps = CFG.sigma * x - 0.5 * CFG.sigma**2
    S = CFG.s0 * np.exp(np.concatenate([np.zeros((4, 1)), np.cumsum(steps, axis=1)],
                                       axis=1))
    put = payoff_from_stocks(CFG, "european_put", S)
    for shaped, rows in ((x, 4), (x[:, None, :], 4), (x[:1], 1)):
        assert stock_path(CFG, shaped).tobytes() == S[:rows].tobytes()
        assert payoff(CFG, "european_put", shaped).tobytes() == put[:rows].tobytes()
    assert stock_path(CFG, x[0]).tobytes() == S[0].tobytes()
    assert payoff(CFG, "european_put", x[0]) == put[0]
    gt = GroundTruth(CFG, "european_put", method="mc", n_inner=50)
    for bad in (np.zeros((4, 2, 2)), np.zeros((4, 3)), np.zeros(3),
                np.zeros((4, 1, 3))):
        for fn in (lambda a: stock_path(CFG, a),
                   lambda a: payoff(CFG, "european_put", a), gt.v_series):
            with pytest.raises(InputError):
                fn(bad)


def test_stock_path_is_martingale():
    rng = np.random.default_rng(0)
    S = stock_path(CFG, rng.standard_normal((400_000, 2)))
    for t in (1, 2):
        se = S[:, t].std() / math.sqrt(S.shape[0])
        assert abs(S[:, t].mean() - 1.0) < 3 * se


def test_zero_noise_payoffs():
    z = np.zeros(2)
    assert payoff(CFG, "european_put", z) == pytest.approx(
        1.0 - math.exp(-0.04), rel=1e-12)
    assert payoff(CFG, "european_call", z) == 0.0
    # running average starts at the first step, not at S_0
    assert payoff(CFG, "asian_put", z) == pytest.approx(
        0.029505943770460785, rel=1e-12)
    assert payoff(CFG, "asian_call", z) == 0.0
    # running maximum includes S_0
    assert payoff(CFG, "lookback_float", z) == pytest.approx(
        0.03921056084767682, rel=1e-12)
    assert payoff(CFG, "up_and_out_call", z) == 0.0


def test_barrier_knocks_out():
    x = np.array([10.0, 0.0])  # S_1 ~ e^{1.98} far above the barrier
    assert payoff(CFG, "european_call", x) > 0.0
    assert payoff(CFG, "up_and_out_call", x) == 0.0
    below = np.array([1.0, 1.0])
    assert stock_path(CFG, below).max() < CFG.barrier
    assert payoff(CFG, "up_and_out_call", below) == pytest.approx(
        payoff(CFG, "european_call", below), rel=1e-14)


def test_put_call_parity_pathwise():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1000, 2))
    c = payoff(CFG, "european_call", x)
    p = payoff(CFG, "european_put", x)
    S_T = stock_path(CFG, x)[:, -1]
    assert np.allclose(c - p, S_T - 1.0, atol=1e-14)


def test_discounting_with_nonzero_rate():
    cfg = BSConfig(rate=0.05, T=2)
    z = np.zeros(2)
    # discounted forms: payoff = max(e^{-rT} A - S_T, 0) on discounted stock
    S = stock_path(cfg, z)
    assert payoff(cfg, "european_put", z) == pytest.approx(
        max(math.exp(-0.1) * cfg.strike - S[-1], 0.0), rel=1e-12)
    # barrier applies to nominal prices e^{rt} S_t
    nom_max = max(S[t] * math.exp(cfg.rate * t) for t in range(3))
    assert nom_max > S.max()


def test_payoff_function_closure_and_unknown_id():
    fn = payoff_function(CFG, "european_put")
    x = np.zeros((4, 1, 2))
    assert np.allclose(fn(x), 1.0 - math.exp(-0.04))
    with pytest.raises(InputError):
        payoff_function(CFG, "bermudan")
    with pytest.raises(InputError):
        payoff(CFG, "nope", np.zeros(2))
    with pytest.raises(InputError):
        payoff_from_stocks(CFG, "european_put", np.ones((4, 5)))


def test_atm_value_matches_normal_cdf_formula():
    v = value_quadrature(CFG, "european_call", (), 0)
    assert abs(v - ATM_CALL_2STEP) < 1e-6
    assert abs(v - bs_call(1.0, 1.0, 0.2, 2.0)) < 1e-6
    vp = value_quadrature(CFG, "european_put", (), 0)
    assert abs(vp - bs_put(1.0, 1.0, 0.2, 2.0)) < 1e-6


def test_quadrature_values_match_frozen_mc():
    # pinned against independent 10^7-sample Monte Carlo runs
    frozen = {
        "european_call": 0.112463,
        "asian_call": 0.089006,
        "up_and_out_call": 0.110460,
        "lookback_float": 0.139059,
    }
    for pid, ref in frozen.items():
        v = value_quadrature(CFG, pid, (), 0)
        assert abs(v - ref) < 2e-4, (pid, v, ref)


@pytest.mark.parametrize("payoff_id", PAYOFF_IDS)
def test_quadrature_blocks_give_the_bits_of_512_prefix_blocks(payoff_id):
    # a prefix's row of payoffs times the weights does not depend on the
    # block it sits in: random prefixes, the v0 rule's own nodes, a short
    # last block and a single prefix
    rng = np.random.default_rng(41)
    pre = 1.5 * rng.standard_normal((1500, 1))
    nodes = _normal_rule(GT_NODES, GT_HALF_WIDTH)[0][:, None]
    for prefixes in (pre, nodes, pre[:37], pre[:1]):
        got = _quad_one_step(CFG, payoff_id, prefixes)
        assert got.tobytes() == quad_one_step_512(CFG, payoff_id, prefixes).tobytes()


@pytest.mark.parametrize("payoff_id", PAYOFF_IDS)
def test_quadrature_holds_one_block_of_prefixes(payoff_id):
    # 1000 prefixes are 16 blocks; blocks of 512 prefixes peaked at 80-88 MiB
    pre = np.linspace(-3.0, 3.0, 1000)[:, None]
    assert peak_bytes(_quad_one_step, CFG, payoff_id, pre) < 20 * 2**20


def test_conditional_value_interpolates_known_endpoints():
    # after the first step the european option is one-step Black-Scholes
    x1 = 0.6
    S1 = math.exp(0.2 * x1 - 0.02)
    v = value_quadrature(CFG, "european_call", [x1], 1)
    assert abs(v - bs_call(S1, 1.0, 0.2, 1.0)) < 1e-7
    # t = T returns the payoff itself
    x = np.array([0.3, -0.4])
    assert value_quadrature(CFG, "european_put", x, 2) == pytest.approx(
        payoff(CFG, "european_put", x), rel=1e-14)


def test_mc_ground_truth_agrees_with_quadrature():
    for pid in ("european_put", "lookback_float"):
        q = value_quadrature(CFG, pid, (), 0)
        mc = ground_truth_value(CFG, pid, (), 0, 200_000, seed=5)
        assert abs(mc - q) < 0.003, (pid, mc, q)
    q1 = value_quadrature(CFG, "asian_call", [0.5], 1)
    mc1 = ground_truth_value(CFG, "asian_call", [0.5], 1, 200_000, seed=6)
    assert abs(mc1 - q1) < 0.003


def test_tower_property_of_conditional_values():
    # E[V_1(Z)] over a standard normal first step must equal V_0
    gt = GroundTruth(CFG, "asian_put")
    rng = np.random.default_rng(8)
    z = rng.standard_normal(4000)
    v1 = gt.v1(z)
    se = v1.std() / math.sqrt(z.size)
    assert abs(v1.mean() - gt.v0()) < 3 * se


def test_ground_truth_series_shape_and_columns():
    gt = GroundTruth(CFG, "european_put")
    paths = np.array([[0.0, 0.0], [0.5, -0.5]])
    V = gt.v_series(paths)
    assert V.shape == (2, 3)
    assert np.allclose(V[:, 0], gt.v0())
    assert np.allclose(V[:, 2], payoff(CFG, "european_put", paths))
    assert np.allclose(V[:, 1], gt.v1(paths[:, 0]))


def test_ground_truth_cache_roundtrip():
    gt = GroundTruth(CFG, "european_call", method="mc", n_inner=2000, seed=9)
    v0 = gt.v0()
    v1 = gt.v1(np.array([0.2, -0.7]))
    rows = list(csv.reader(io.StringIO(gt.to_csv())))
    assert rows[0] == ["t", "x1", "value", "n_inner", "seed"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "1"]
    assert rows[1][1] == "" and float(rows[1][2]) == v0
    # t = 1 rows in x1 order, every value exactly as computed
    assert [float(r[1]) for r in rows[2:]] == [-0.7, 0.2]
    assert [float(r[2]) for r in rows[2:]] == [v1[1], v1[0]]
    assert all(r[3:] == ["2000", "9"] for r in rows[1:])


def test_ground_truth_csv_tags_budget_and_seed():
    def tags(gt):
        gt.v0()
        gt.v1([0.3])
        rows = list(csv.reader(io.StringIO(gt.to_csv())))[1:]
        return {tuple(r[3:]) for r in rows}

    mc = dict(method="mc", n_inner=10, seed=7)
    assert tags(GroundTruth(CFG, "european_call", **mc)) == {("10", "7")}
    # another budget or seed is visible in every row of its artifact
    assert tags(GroundTruth(CFG, "european_call", **{**mc, "n_inner": 20})) \
        == {("20", "7")}
    assert tags(GroundTruth(CFG, "european_call", **{**mc, "seed": 8})) \
        == {("10", "8")}
    # quadrature has no inner budget: its rows carry n_inner 0
    assert tags(GroundTruth(CFG, "european_call", n_inner=2000, seed=9)) \
        == {("0", "9")}


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("v0, x1", [(True, ()), (False, (0.3, -1.2)),
                                    (True, (0.3, -1.2)), (False, (-0.0, 0.7))])
def test_ground_truth_csv_equals_the_csv_writer_rendering(method, v0, x1):
    gt = GroundTruth(CFG, "european_put", method=method, n_inner=200, seed=4)
    if v0:
        gt.v0()
    if x1:
        gt.v1(np.array(x1))
    assert gt.to_csv() == csv_writer_ground_truth(gt)


def test_mc_ground_truth_does_not_depend_on_batch_position():
    a = GroundTruth(CFG, "european_call", method="mc", n_inner=500, seed=9)
    b = GroundTruth(CFG, "european_call", method="mc", n_inner=500, seed=9)
    assert a.v1([0.1])[0] == b.v1([0.5, 0.1])[1]


@pytest.mark.parametrize("method", ["quadrature", "mc"])
def test_ground_truth_keys_a_signed_zero_as_zero(method):
    # whichever zero arrives first, the cache holds one entry written "0.0"
    def csv_after(*batches):
        gt = GroundTruth(CFG, "european_put", method=method, n_inner=200)
        for batch in batches:
            gt.v1(np.array(batch))
        return gt.to_csv()

    text = csv_after([0.0, 0.5])
    assert "\n1,0.0," in text and "-0.0" not in text
    for batches in ([[-0.0, 0.5]], [[0.5, -0.0]], [[-0.0, 0.5], [0.0]]):
        assert csv_after(*batches) == text, batches


def test_ground_truth_validation():
    with pytest.raises(InputError):
        GroundTruth(CFG, "unknown_payoff")
    with pytest.raises(InputError):
        GroundTruth(CFG, "european_put", method="exact")
    with pytest.raises(CapabilityError):
        value_quadrature(BSConfig(T=3), "european_put", (), 0)
    with pytest.raises(InputError):
        value_quadrature(CFG, "european_put", (), 3)


def test_payoff_oracle_counts_the_paths_it_prices():
    f = payoff_function(CFG, "asian_call")
    assert (f.cfg, f.payoff_id, f.evals) == (CFG, "asian_call", 0)
    x = np.random.default_rng(4).standard_normal((9, 1, 2))
    assert f(x).tobytes() == payoff(CFG, "asian_call", x).tobytes()
    assert f.evals == 9  # the rows of a batch
    assert f(x[0, 0]) == payoff(CFG, "asian_call", x[0, 0])
    assert f.evals == 10  # one single path
    f(x[:3, 0])  # (N, T) batches count their rows too
    assert f.evals == 13
    # the ground truth prices through `payoff`, outside every oracle
    gt = GroundTruth(CFG, "asian_call")
    gt.v_series(x)
    assert f.evals == 13
    with pytest.raises(InputError):
        f(np.zeros((2, 3)))
    assert f.evals == 13  # a refused batch prices nothing


def test_nested_mc_budget_and_shapes():
    f = payoff_function(CFG, "european_put")
    est = nested_mc_estimate(f, n_outer=50, n_inner=7, seed=3)
    assert isinstance(est, NestedMC)
    assert f.evals == 350
    assert est.outer_x1.shape == (50,)
    assert est.v1_hat.shape == (50,)
    # grand mean equals the mean of inner means at equal inner counts
    assert est.v0_hat == pytest.approx(est.v1_hat.mean(), rel=1e-12)
    with pytest.raises(InputError):
        nested_mc_estimate(f, 0, 5)
    assert f.evals == 350


def test_nested_mc_is_unbiased():
    v0 = value_quadrature(CFG, "european_put", (), 0)
    f = payoff_function(CFG, "european_put")
    reps = [nested_mc_estimate(f, 200, 10, seed=r, stream=("bias", r)).v0_hat
            for r in range(40)]
    reps = np.asarray(reps)
    se = reps.std() / math.sqrt(reps.size)
    assert abs(reps.mean() - v0) < 3 * se


def test_payoff_ids_cover_experiment_menu():
    assert set(PAYOFF_IDS) == {
        "european_put", "asian_put", "up_and_out_call",
        "european_call", "asian_call", "lookback_float",
    }
