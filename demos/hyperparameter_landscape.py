"""What the hyperparameter grid search actually sees.

Sweeps the ridge parameter for a few kernel shapes on a fixed training
sample and prints the validation error of each fit.  For moderate shapes
the error in lambda is U-shaped: too little ridge chases sampling noise,
too much flattens the fit.  A narrow kernel changes the picture entirely
(extra ridge only ever hurts, the minimum sits at the smallest lambda
tried), which is why shape and ridge have to be searched jointly.
"""

import numpy as np

from kernelval import (BSConfig, GaussExpKernel, MeasureSpec,
                       build_training_set, fit, payoff_function,
                       payoff_l2_error)

PAYOFF = "asian_put"
N_TRAIN = 1000
N_VAL = 2000
SHAPES = ((2.0, 0.0), (4.0, 0.3), (6.0, 0.3))
LAMBDAS = np.logspace(-9, -2, 8)


def main():
    cfg = BSConfig()
    spec = MeasureSpec(gamma=0.45, seed=7)
    f = payoff_function(cfg, PAYOFF)
    ts = build_training_set(spec, f, N_TRAIN, payoff_id=PAYOFF)

    print(f"{PAYOFF}: relative validation error (%), "
          f"{N_TRAIN} training / {N_VAL} validation samples\n")
    print(f"{'lambda':>9}" + "".join(f"  a={a:g}, b={b:g}" for a, b in SHAPES))
    rows = []
    for lam in LAMBDAS:
        errs = []
        for a, b in SHAPES:
            est = fit(ts, GaussExpKernel(a, b, gamma=spec.gamma), lam)
            errs.append(payoff_l2_error(est, f, N_VAL, seed=7))
        rows.append(errs)
        print(f"{lam:9.0e}" + "".join(f"  {100 * e:8.3f}%" for e in errs))

    rows = np.array(rows)
    print()
    for j, (a, b) in enumerate(SHAPES):
        i = int(np.argmin(rows[:, j]))
        edge = "  <- no interior valley" if i in (0, len(LAMBDAS) - 1) else ""
        print(f"best ridge for alpha={a:g}, beta={b:g}: "
              f"lambda={LAMBDAS[i]:.0e} ({100 * rows[i, j]:.3f}%){edge}")


if __name__ == "__main__":
    main()
