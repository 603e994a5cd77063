"""Kernel value process versus nested Monte Carlo at the same budget.

Both methods get exactly N_BUDGET payoff evaluations per repeat.  The
kernel estimator spends them on one tilted training sample and then
prices every time step in closed form; the nested scheme splits them
into outer scenarios times inner tails and only covers t = 0 and t = 1.
Errors are relative to the time-zero quadrature price, averaged over
independent repeats, for a panel of payoff styles.
"""

import numpy as np

from kernelval import (BSConfig, GaussExpKernel, GroundTruth, MeasureSpec,
                       build_training_set, draw_paths, fit,
                       nested_mc_estimate, payoff_function, value_series_many)

N_BUDGET = 2000
N_OUTER, N_INNER = 200, 10  # nested split, N_OUTER * N_INNER == N_BUDGET
N_REPEATS = 10
N_TEST = 5000
PAYOFFS = ("european_put", "asian_call", "lookback_float")


def kernel_errors(cfg, payoff_id, gt, test_paths, rep):
    spec = MeasureSpec(gamma=0.45, seed=2024)
    ts = build_training_set(spec, payoff_function(cfg, payoff_id), N_BUDGET,
                            payoff_id=payoff_id, stream=("demo", rep))
    est = fit(ts, GaussExpKernel(4.0, 0.3, gamma=spec.gamma), 1e-5)
    V_hat = value_series_many(est, test_paths)
    V = gt.v_series(test_paths)
    # relative L2 error per time step, normalised by the t = 0 price
    return np.sqrt(np.mean((V_hat - V) ** 2, axis=0)) / gt.v0()


def nested_errors(cfg, payoff_id, gt, rep):
    est = nested_mc_estimate(payoff_function(cfg, payoff_id), N_OUTER, N_INNER,
                             seed=2024, stream=("demo-nested", rep))
    e0 = abs(est.v0_hat - gt.v0()) / gt.v0()
    e1 = np.mean(np.abs(est.v1_hat - gt.v1(est.outer_x1))) / gt.v0()
    return np.array([e0, e1])


def main():
    cfg = BSConfig()
    test_paths = draw_paths(MeasureSpec(gamma=0.0, seed=2024), N_TEST,
                            stream=("demo-test",))
    print(f"budget {N_BUDGET} payoff evaluations per repeat, "
          f"{N_REPEATS} repeats, errors in % of V_0\n")
    head = f"{'payoff':<16} {'method':<8}" + "".join(
        f"   t={t}  " for t in range(cfg.T + 1))
    print(head)
    for pid in PAYOFFS:
        gt = GroundTruth(cfg, pid)
        ke = np.mean([kernel_errors(cfg, pid, gt, test_paths, r)
                      for r in range(N_REPEATS)], axis=0)
        ne = np.mean([nested_errors(cfg, pid, gt, r)
                      for r in range(N_REPEATS)], axis=0)
        print(f"{pid:<16} {'kernel':<8}"
              + "".join(f" {100 * e:6.2f}%" for e in ke))
        print(f"{'':<16} {'nested':<8}"
              + "".join(f" {100 * e:6.2f}%" for e in ne)
              + "      (t=2 not available)")
    print("\nthe nested rows stop at t=1: re-simulating from every later "
          "state is the cost the regression avoids.")


if __name__ == "__main__":
    main()
