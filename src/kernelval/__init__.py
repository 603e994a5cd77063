"""Kernel ridge regression for dynamic value processes.

Learns a portfolio payoff from simulated paths and evaluates the fitted
model's conditional expectations in closed form at every time step, giving
the whole value process of the cumulative cash flow from a single training
run.  Includes the two-step market experiments, a nested Monte Carlo
baseline, and empirical checks of the estimator's statistical error bounds.
"""

__version__ = "0.1.0"

from . import blas  # noqa: F401  pins every loaded OpenBLAS to one thread
from .errors import (CapabilityError, DataError, InputError, KernelvalError,
                     SolverError)
from .kernels import (FeatureMapKernel, GaussExpKernel, GaussPolyKernel,
                      MonomialFeature, cond_expect, gauss_poly_features, gram,
                      monomial_features, tilted_gram)
from .krr import (Estimator, fit, fit_path, load_estimator, predict,
                  regularization_path)
from .market import (BSConfig, GroundTruth, PAYOFF_IDS, nested_mc_estimate,
                     payoff, payoff_function, stock_path)
from .sampling import (MeasureSpec, MixtureSampler, TrainingSet,
                       build_training_set, draw_paths)
from .valuation import (ErrorReport, martingale_gap, payoff_l2_error,
                        repeat_experiment, value_at_zero, value_series_many)

__all__ = [
    "__version__",
    "KernelvalError", "InputError", "CapabilityError", "DataError",
    "SolverError",
    "GaussExpKernel", "GaussPolyKernel", "FeatureMapKernel", "MonomialFeature",
    "monomial_features", "gauss_poly_features", "gram", "tilted_gram",
    "cond_expect",
    "Estimator", "fit", "fit_path", "predict", "regularization_path",
    "load_estimator",
    "BSConfig", "PAYOFF_IDS", "GroundTruth", "nested_mc_estimate", "payoff",
    "payoff_function", "stock_path",
    "MeasureSpec", "MixtureSampler", "TrainingSet", "build_training_set",
    "draw_paths",
    "ErrorReport", "value_series_many", "value_at_zero", "martingale_gap",
    "payoff_l2_error", "repeat_experiment",
]
