"""End-to-end acceptance gate for the two-step market study.

Each test prints one summary line ``ACCEPTANCE <n> <name>: PASS/FAIL`` and
asserts the criterion.  The expensive parts (full grid search, ten repeated
fits and the nested baseline for all six payoffs at n = 2000) run once in a
module fixture; expect a few minutes on one core.

Reference constants below are the published values this study sets out to
reproduce; the README's reproduction-status section discusses the measured
deviations.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelval
from kernelval.cli import load_config, main, run_diagnostics, run_table2
from kernelval.kernels import (FeatureMapKernel, GaussExpKernel,
                               GaussPolyKernel, cond_expect, gram,
                               monomial_features)
from kernelval.krr import fit, regularization_path
from kernelval.market import payoff_function
from kernelval.sampling import (MixtureSampler, TrainingSet, build_training_set,
                                derive_rng, draw_paths)
from kernelval.valuation import doob_check, martingale_gap, value_series_many
from support import (ATM_CALL_2STEP, linear_rate_problem, loglog_slope,
                     sqrt_rate_problem)

CONFIG_PATH = str(Path(__file__).resolve().parent.parent / "configs" / "bs2.cfg")
SRC = str(Path(kernelval.__file__).resolve().parent.parent)

# Published benchmark: mean (std) relative errors in percent at t = 0, 1, 2.
PUBLISHED_KERNEL = {
    "european_put": ((0.02, 0.11, 0.56), (0.01, 0.02, 0.02)),
    "asian_put": ((0.12, 0.17, 0.54), (0.03, 0.01, 0.02)),
    "up_and_out_call": ((1.30, 0.96, 2.02), (0.17, 0.10, 0.14)),
    "european_call": ((0.10, 0.27, 0.83), (0.06, 0.07, 0.09)),
    "asian_call": ((0.96, 0.43, 0.90), (0.02, 0.02, 0.01)),
    "lookback_float": ((0.48, 0.76, 0.55), (0.02, 0.01, 0.02)),
}

# Published nested-MC means in percent at t = 0, 1 (200 x 10 budget).
PUBLISHED_NESTED = {
    "european_put": (4.78, 8.00),
    "asian_put": (6.67, 8.83),
    "up_and_out_call": (6.90, 10.82),
    "european_call": (6.77, 11.00),
    "asian_call": (8.41, 11.73),
    "lookback_float": (3.77, 19.65),
}

# Published selected hyperparameters (alpha, beta, lambda).
PUBLISHED_STARS = {
    "european_put": (4.0, 0.3, 1e-5),
    "asian_put": (6.0, 0.0, 1e-7),
    "up_and_out_call": (4.0, 0.45, 1e-5),
    "european_call": (4.0, 0.3, 1e-5),
    "asian_call": (6.0, 0.0, 1e-7),
    "lookback_float": (6.0, 0.3, 1e-5),
}

# Deterministic quadrature ground truth has no sampling noise, so the
# noise-floor term of the tolerance is zero.
GT_NOISE_PCT = 0.0


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def pipeline():
    config = load_config(path=CONFIG_PATH)
    docs = run_table2(config)
    return config, docs


def test_criterion_1_kernel_error_table(pipeline):
    config, docs = pipeline
    bad = []
    for pid, (means, stds) in PUBLISHED_KERNEL.items():
        ours = docs[pid]["kernel"].mean_pct
        for t in range(3):
            tol = max(3.0 * stds[t], 0.1, 3.0 * GT_NOISE_PCT)
            if abs(ours[t] - means[t]) > tol:
                bad.append(f"{pid} t={t} {ours[t]:.3f} vs {means[t]:.2f} "
                           f"tol {tol:.2f}")
    ok = not bad
    detail = f"{len(bad)}/18 entries out of tolerance: " + "; ".join(bad) \
        if bad else "all 18 entries within tolerance"
    line = _report(1, "kernel error rows vs published table", ok, detail)
    assert ok, line


def test_criterion_2_hyperparameter_selection(pipeline):
    config, docs = pipeline
    misses = []
    for pid, star in PUBLISHED_STARS.items():
        grid = docs[pid]["grid"]
        top3 = grid.top(3)
        if star not in top3:
            rank = [row[:3] for row in sorted(grid.surface,
                                              key=lambda r: r[3])].index(star)
            misses.append(f"{pid} published triple ranks {rank + 1} "
                          f"(top3 {top3})")
        lam_lo, lam_hi = min(config.lambdas), max(config.lambdas)
        if not lam_lo < grid.lam < lam_hi:
            misses.append(f"{pid} selected lambda {grid.lam:g} on the grid "
                          "boundary")
    ok = not misses
    detail = "; ".join(misses) if misses else \
        "published triples in top 3 and interior lambda for all six"
    line = _report(2, "published hyperparameters rank in top 3", ok, detail)
    assert ok, line


def test_criterion_3_nested_mc_dominance(pipeline):
    config, docs = pipeline
    issues = []
    for pid in PUBLISHED_NESTED:
        kern = docs[pid]["kernel"].mean_pct
        nest = docs[pid]["nested"].mean_pct
        for t in range(2):
            ratio = nest[t] / kern[t]
            if ratio < 5.0:
                issues.append(f"{pid} t={t} nested/kernel only {ratio:.1f}x")
            pub = PUBLISHED_NESTED[pid][t]
            if not 0.5 <= nest[t] / pub <= 2.0:
                issues.append(f"{pid} t={t} nested {nest[t]:.2f} vs published "
                              f"{pub:.2f} (off {nest[t] / pub:.2f}x)")
    ok = not issues
    detail = "; ".join(issues) if issues else \
        "kernel at least 5x better everywhere; nested rows within 2x"
    line = _report(3, "nested-MC dominance and baseline match", ok, detail)
    assert ok, line


def test_criterion_4_analytic_price_oracle():
    config = load_config(path=CONFIG_PATH)
    X = draw_paths(config.nominal(), 1_000_000, stream=("acceptance", "bs"),
                   seed=config.master_seed)
    call = payoff_function(config.market, "european_call")(X)
    put = payoff_function(config.market, "european_put")(X)
    se_c = call.std(ddof=1) / math.sqrt(call.size)
    price_ok = abs(call.mean() - ATM_CALL_2STEP) < 3 * se_c
    diff = call - put  # pathwise S_T - strike at r = 0
    se_d = diff.std(ddof=1) / math.sqrt(diff.size)
    parity_ok = abs(diff.mean()) < 3 * se_d
    ok = price_ok and parity_ok
    line = _report(4, "closed-form price and parity", ok,
                   f"call {call.mean():.5f} vs {ATM_CALL_2STEP:.5f} "
                   f"(3se {3 * se_c:.5f}); parity gap {diff.mean():.2e} "
                   f"(3se {3 * se_d:.2e})")
    assert ok, line


def test_criterion_5_solver_equivalences(pipeline):
    config, docs = pipeline
    issues = []

    worst = 0.0
    for pid, doc in docs.items():
        worst = max(worst, doc["grid"].max_residual,
                    *(f.residual for f in doc["fits"]))
    if not worst < 1e-8:
        issues.append(f"normal-equation residual {worst:.2e} >= 1e-8")

    # duplicate-bearing sample at experiment scale
    pid = "european_put"
    star = docs[pid]["grid"]
    spec = config.kernel_at(star.alpha, star.beta)
    f = payoff_function(config.market, pid)
    half = build_training_set(config.measure(), f, config.n_train // 2, pid,
                              stream=("acceptance", "dup"),
                              seed=config.master_seed)
    reps = np.tile(np.arange(half.n), 2)
    dup = TrainingSet(paths=half.paths[reps],
                      payoff_values=half.payoff_values[reps],
                      weights=half.weights[reps], payoff_id=pid)
    eval_paths = draw_paths(config.nominal(), 500,
                            stream=("acceptance", "eval"),
                            seed=config.master_seed)
    vs = value_series_many(fit(dup, spec, star.lam, mode="dual-sorted"),
                           eval_paths)
    vu = value_series_many(fit(dup, spec, star.lam, mode="dual-unsorted"),
                           eval_paths)
    gap_dup = float(np.max(np.abs(vs - vu)))
    if not gap_dup < 1e-9:
        issues.append(f"sorted/unsorted gap {gap_dup:.2e} >= 1e-9")

    # primal against dual on a finite feature basis at the same scale
    feats = monomial_features(1, config.market.T, 3)
    fspec = FeatureMapKernel(features=feats, d=1, T=config.market.T)
    mix = MixtureSampler(fspec, seed=config.master_seed)
    fts = build_training_set(mix, f, config.n_train, pid,
                             stream=("acceptance", "primal"),
                             seed=config.master_seed)
    vp = value_series_many(fit(fts, fspec, 1e-4, mode="primal"), eval_paths)
    vd = value_series_many(fit(fts, fspec, 1e-4, mode="dual-unsorted"),
                           eval_paths)
    gap_pd = float(np.max(np.abs(vp - vd)))
    if not gap_pd < 1e-8:
        issues.append(f"primal/dual gap {gap_pd:.2e} >= 1e-8")

    ok = not issues
    line = _report(5, "solver equivalences and residuals", ok,
                   "; ".join(issues) if issues else
                   f"max residual {worst:.1e}, duplicate gap {gap_dup:.1e}, "
                   f"primal gap {gap_pd:.1e}")
    assert ok, line


def test_criterion_6_conditional_expectation_tower():
    rng = derive_rng(2024, "acceptance", "tower")
    n = 1_000_000
    fails = []
    for spec in (GaussExpKernel(alpha=2.0, beta=0.3, d=1, T=2),
                 GaussPolyKernel(alpha=1.0, beta=2, d=1, T=2)):
        fam = type(spec).__name__
        for pair in range(10):
            y = rng.standard_normal((1, 2))
            x1 = rng.standard_normal()
            for t, prefix in ((0, ()), (1, [x1])):
                tails = rng.standard_normal((n, 1, 2 - t))
                pre = np.asarray(prefix, dtype=float).reshape(1, t)
                full = np.concatenate(
                    [np.broadcast_to(pre[None], (n, 1, t)), tails], axis=2)
                vals = gram(spec, full, y[None])[:, 0]
                se = vals.std(ddof=1) / math.sqrt(n)
                closed = cond_expect(spec, pre, y, t)
                if abs(closed - vals.mean()) >= 3 * se:
                    fails.append(f"{fam} pair {pair} t={t} "
                                 f"|{closed:.5f} - {vals.mean():.5f}| "
                                 f">= {3 * se:.2e}")
    ok = not fails
    line = _report(6, "closed-form conditional expectations", ok,
                   "; ".join(fails) if fails else
                   "40 tower checks within 3 SE for both families")
    assert ok, line


def test_criterion_7_bound_suite():
    config = load_config(path=CONFIG_PATH)
    reports = run_diagnostics(config)
    issues = []
    mse = reports["mse_bound"]
    if mse.violated:
        issues.append("sample-error bound violated")
    conc = reports["concentration"]
    if not conc.applicable or conc.violated:
        issues.append("tail bound inapplicable or violated")
    clt = reports["clt"]
    if not clt.mean_within_3se:
        issues.append(f"limit-experiment mean {clt.mean:.3f} not within 3 SE")
    if not clt.normality_accepted_1pct:
        issues.append(f"normality rejected at 1% (AD {clt.ad_statistic:.2f}, "
                      f"p = {clt.ad_pvalue:.3f})")
    robust = reports["robustness"]
    if robust.violated:
        issues.append("perturbation bound violated")

    ts_s, spec_s = sqrt_rate_problem()
    _, gaps_s = regularization_path(ts_s, spec_s, np.logspace(-6.5, -2.5, 9))
    slope_s = loglog_slope(np.logspace(-6.5, -2.5, 9), gaps_s)
    if not slope_s >= 0.45:
        issues.append(f"sqrt-rate slope {slope_s:.3f} < 0.45")
    ts_l, spec_l = linear_rate_problem()
    _, gaps_l = regularization_path(ts_l, spec_l, np.logspace(-6, -2, 9))
    slope_l = loglog_slope(np.logspace(-6, -2, 9), gaps_l)
    if not slope_l >= 0.95:
        issues.append(f"linear-rate slope {slope_l:.3f} < 0.95")

    ok = not issues
    line = _report(7, "error-bound suite", ok,
                   "; ".join(issues) if issues else
                   f"all bounds hold; clt repeats {clt.n_repeats}, "
                   f"slopes {slope_s:.3f}/{slope_l:.3f}")
    assert ok, line


def test_criterion_8_martingale_and_maximal(pipeline):
    config, docs = pipeline
    test_paths = draw_paths(config.nominal(), config.n_test, stream=("test",),
                            seed=config.master_seed)
    issues = []
    for pid, doc in docs.items():
        est = doc["fits"][0]
        v0, mc, se = martingale_gap(est, n=400_000, seed=config.master_seed,
                                    stream=("acceptance", "tower", pid))
        if abs(v0 - mc) >= 3 * se:
            issues.append(f"{pid} tower gap {abs(v0 - mc):.2e} >= 3se "
                          f"{3 * se:.2e}")
        doob = doob_check(est, doc["gt"], test_paths)
        if not doob["holds_3se"]:
            issues.append(f"{pid} maximal-inequality check failed "
                          f"(lhs {doob['lhs']:.4f} rhs {doob['rhs']:.4f})")
    ok = not issues
    line = _report(8, "martingale tower and maximal inequality", ok,
                   "; ".join(issues) if issues else
                   "tower within 3 SE and maximal inequality holds, all six")
    assert ok, line


def test_criterion_9_thread_count_determinism(tmp_path):
    outs = {}
    for tag, threads in (("t1", "1"), ("t2", "2")):
        out = tmp_path / tag
        rc = main(["table2", "--config", CONFIG_PATH,
                   "--payoff", "european_put", "--n-train", "300",
                   "--out", str(out), "--threads", threads])
        assert rc == 0
        outs[tag] = {name: (out / name).read_bytes()
                     for name in sorted(os.listdir(out))}
    same_names = set(outs["t1"]) == set(outs["t2"])
    same_bytes = same_names and all(outs["t1"][k] == outs["t2"][k]
                                    for k in outs["t1"])
    ok = same_names and same_bytes
    line = _report(9, "bit-identical outputs across thread counts", ok,
                   f"{len(outs['t1'])} files compared")
    assert ok, line


def _python(code, *args, blas_threads):
    """Run ``code`` in a fresh interpreter with OPENBLAS_NUM_THREADS set."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(
               p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=600)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # criterion 9 varies the worker pool inside one process; this varies the
    # BLAS thread count the process starts with
    outs = {}
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        run = _python("import sys; from kernelval.cli import main; "
                      "sys.exit(main(sys.argv[1:]))",
                      "table2", "--config", CONFIG_PATH, "--payoff", "european_put",
                      "--n-train", "300", "--out", str(out), blas_threads=threads)
        assert run.returncode == 0, run.stderr
        outs[threads] = {name: (out / name).read_bytes()
                         for name in sorted(os.listdir(out))}
    assert "manifest.json" in outs[1]
    assert sorted(outs[1]) == sorted(outs[2])
    differ = [name for name in outs[1] if outs[1][name] != outs[2][name]]
    assert differ == [], f"bytes differ between 1 and 2 BLAS threads: {differ}"


OPENBLAS_THREADS = """
import ctypes, os
import kernelval
for path in sorted({line.split()[-1] for line in open("/proc/self/maps")}):
    if "openblas" not in os.path.basename(path).lower() or ".so" not in path:
        continue
    lib = ctypes.CDLL(path)
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "scipy_openblas_get_num_threads64_"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            print(os.path.basename(path), fn())
            break
    else:
        print(os.path.basename(path), "no thread-count symbol")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_import_pins_every_openblas_to_one_thread():
    run = _python(OPENBLAS_THREADS, blas_threads=2)
    assert run.returncode == 0, run.stderr
    libs = dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())
    if not libs:
        pytest.skip("no OpenBLAS loaded (another BLAS library)")
    assert libs == {name: "1" for name in libs}


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of an import's start-up time, and no stage loads it;
    # the CLT's Anderson-Darling test loads scipy.special when it runs
    run = _python("import sys, kernelval, kernelval.cli; "
                  "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)",
                  blas_threads=1)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False False"
