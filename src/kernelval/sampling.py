"""Path simulation under importance-sampling measures.

Training paths are drawn not from the nominal white-noise measure (iid
standard normal entries) but from a tilted measure chosen to control the
kernel's diagonal.  Two samplers are provided:

* a Gaussian tilt with parameter ``gamma < 1/2``: every entry becomes
  ``N(0, 1/(1 - 2 gamma))``, with Radon-Nikodym weight
  ``w(x) = (1 - 2 gamma)^(dT/2) exp(gamma ||x||^2)``;
* a mixture sampler for feature-map kernels whose weight is proportional to
  the squared kernel diagonal (the variance-optimal choice).

Reproducibility
---------------
All randomness flows through counter-based Philox streams derived from a
64-bit master seed and a tuple of purpose tags:

    key = first 16 bytes of blake2s("<seed>|tag1|tag2|...")

Each logical task (a block of paths, a training repeat, a grid point) owns
one derived stream and fills its arrays in a single vectorized call, so
results are bit-identical no matter how tasks are scheduled across threads.
Re-deriving a stream with the same seed and tags replays it exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, InputError
from .kernels import FeatureMapKernel, as_paths, gauss_moment

__all__ = [
    "MeasureSpec",
    "MixtureSampler",
    "TrainingSet",
    "derive_rng",
    "derive_seed",
    "draw_paths",
    "rn_weight",
    "log_rn_weight",
    "build_training_set",
    "csv_text",
    "training_set_to_csv",
    "content_hash",
]


def derive_seed(master_seed, *tags):
    """128-bit child seed from a master seed and purpose tags (blake2s)."""
    label = "|".join([str(int(master_seed))] + [str(t) for t in tags])
    return int.from_bytes(hashlib.blake2s(label.encode()).digest()[:16], "big")


def derive_rng(master_seed, *tags):
    """Counter-based generator for one logical task.

    The same ``(master_seed, tags)`` pair always yields a generator that
    replays the same stream; distinct tags give statistically independent
    streams.
    """
    return np.random.Generator(np.random.Philox(key=derive_seed(master_seed, *tags)))


@dataclass(frozen=True)
class MeasureSpec:
    """Gaussian sampling measure: iid ``N(0, 1/(1 - 2 gamma))`` entries."""

    gamma: float
    d: int = 1
    T: int = 2
    seed: int = 0

    def __post_init__(self):
        kernels._check_spec(self.d, self.T, self.gamma)

    @property
    def step_std(self):
        return 1.0 / math.sqrt(1.0 - 2.0 * self.gamma)

    def draw(self, n, rng):
        if n < 1:
            raise InputError(f"need at least one path, got n={n}")
        return rng.standard_normal((n, self.d, self.T)) * self.step_std

    def weight(self, paths):
        return rn_weight(self, paths)


def draw_paths(measure, n, stream=("paths",), seed=None):
    """Draw ``n`` paths of shape ``(n, d, T)`` from the measure's own stream.

    ``stream`` tags select a substream of the measure seed (or ``seed`` if
    given), so callers can carve out independent blocks deterministically.
    """
    base = measure.seed if seed is None else seed
    rng = derive_rng(base, *stream)
    return measure.draw(n, rng)


def log_rn_weight(measure, x):
    """``log w(x)`` for the Gaussian tilt (vectorized over path batches)."""
    X = as_paths(x, measure.d, measure.T)
    n2 = np.einsum("ncs,ncs->n", X, X)
    out = 0.5 * measure.d * measure.T * math.log1p(-2.0 * measure.gamma)
    out = out + measure.gamma * n2
    if np.asarray(x).ndim <= 2 and X.shape[0] == 1:
        return float(out[0])
    return out


def rn_weight(measure, x):
    """Radon-Nikodym weight ``w = d(tilted)/d(nominal)`` at the given paths."""
    return np.exp(log_rn_weight(measure, x))


# ---------------------------------------------------------------------------
# mixture sampler for feature-map kernels
# ---------------------------------------------------------------------------


class MixtureSampler:
    """Samples the measure whose weight is the normalized squared diagonal.

    For ``k(x, y) = phi(x).phi(y)`` the target weight is
    ``w = sum_i phi_i^2 / ||kappa||^2``; it factorizes into a mixture over
    features with component probabilities proportional to the product of
    squared per-step norms, each component being a product of per-step
    densities ``phi_{i,t}(x)^2`` times the standard normal density.

    Every feature is a :class:`~kernelval.kernels.MonomialFeature`, so each
    step is sampled exactly: a zero power is standard normal, and for power
    ``k`` the square ``x^2`` is Gamma(k + 1/2, 2)-distributed with a random
    sign.
    """

    def __init__(self, spec, seed=0):
        if not isinstance(spec, FeatureMapKernel):
            raise InputError("mixture sampling is defined for feature-map kernels")
        self.spec = spec
        self.seed = seed
        norms = []
        for f in spec.features:
            prod = 1.0
            for t in range(spec.T):
                prod *= self._step_norm_sq(f, t)
            if prod <= 0:
                raise InputError(
                    "feature with zero L2 norm makes the mixture weight unnormalizable"
                )
            norms.append(prod)
        norms = np.asarray(norms)
        self.kappa_sq_norm = float(norms.sum())  # ||kappa||^2 under the nominal measure
        self.component_probs = norms / self.kappa_sq_norm
        self.d = spec.d
        self.T = spec.T

    @staticmethod
    def _step_norm_sq(feature, t):
        """||phi_{i,t}||^2 under the standard normal step law (monomials)."""
        val = math.prod(gauss_moment(2 * k) for k in feature.powers[t])
        if t == 0:
            val *= feature.coef**2
        return val

    def draw(self, n, rng):
        if n < 1:
            raise InputError(f"need at least one path, got n={n}")
        comp = rng.choice(len(self.component_probs), size=n, p=self.component_probs)
        out = np.empty((n, self.d, self.T))
        for i in np.unique(comp):
            mask = comp == i
            m = int(mask.sum())
            f = self.spec.features[i]
            block = np.empty((m, self.d, self.T))
            for t in range(self.T):
                for c in range(self.d):
                    k = f.powers[t][c]
                    if k == 0:
                        block[:, c, t] = rng.standard_normal(m)
                    else:
                        # density prop. to x^(2k) exp(-x^2/2): x^2 ~ Gamma(k+1/2, 2)
                        r = rng.gamma(shape=k + 0.5, scale=2.0, size=m)
                        sign = rng.choice([-1.0, 1.0], size=m)
                        block[:, c, t] = sign * np.sqrt(r)
            out[mask] = block
        return out

    def weight(self, paths):
        X = as_paths(paths, self.d, self.T)
        out = self.feature_weight(kernels.feature_matrix(self.spec, X))
        if np.asarray(paths).ndim <= 2 and X.shape[0] == 1:
            return float(out[0])
        return out

    def feature_weight(self, phi):
        """The weight at paths whose rows of ``feature_matrix(self.spec, .)``
        are ``phi``, (N, m) -> (N,)."""
        return np.einsum("nm,nm->n", phi, phi) / self.kappa_sq_norm


# ---------------------------------------------------------------------------
# training sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingSet:
    """Simulated paths with payoff values and sampling weights.

    ``payoff_values[i] = f(paths[i])`` and ``weights[i] = w(paths[i])`` for
    the sampling measure's Radon-Nikodym weight ``w``.
    """

    paths: np.ndarray
    payoff_values: np.ndarray
    weights: np.ndarray
    payoff_id: str

    def __post_init__(self):
        for arr in (self.paths, self.payoff_values, self.weights):
            arr.setflags(write=False)

    @property
    def n(self):
        return self.paths.shape[0]

    @property
    def d(self):
        return self.paths.shape[1]

    @property
    def T(self):
        return self.paths.shape[2]


def build_training_set(sampler, payoff_fn, n, payoff_id="", stream=("train",), seed=None):
    """Draw ``n`` paths, evaluate the payoff once per path, attach weights.

    ``sampler`` is a :class:`MeasureSpec` or :class:`MixtureSampler`.  Raises
    :class:`DataError` listing offending row indices if the payoff returns
    non-finite values.
    """
    if n < 1:
        raise InputError(f"need at least one path, got n={n}")
    base = sampler.seed if seed is None else seed
    rng = derive_rng(base, *stream)
    paths = sampler.draw(n, rng)
    values = np.asarray(payoff_fn(paths), dtype=float).reshape(-1)
    if values.shape[0] != n:
        raise DataError(
            f"payoff returned {values.shape[0]} values for {n} paths"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DataError(
            f"payoff produced non-finite values at rows {bad[:8].tolist()}"
            + ("..." if bad.size > 8 else ""),
            indices=bad,
        )
    weights = np.asarray(sampler.weight(paths), dtype=float).reshape(-1)
    return TrainingSet(paths=paths, payoff_values=values, weights=weights,
                       payoff_id=payoff_id)


# ---------------------------------------------------------------------------
# CSV serialization (shortest round-trip decimals)
# ---------------------------------------------------------------------------


def csv_text(header, rows):
    """CSV text: the ``header`` line, then one line per row, taken one at a
    time from the iterable ``rows``.  Cells are written with ``str``, which
    gives a float's ``repr``; no cell kernelval writes holds a comma, quote
    or newline, so none is quoted."""
    return "".join(",".join(map(str, row)) + "\n"
                   for row in itertools.chain((header,), rows))


def training_set_to_csv(ts):
    """Render a TrainingSet as CSV text: path_id, x_1_1..x_d_T, payoff, weight.

    Coordinates run time-major (``x_c_t`` with ``c`` inner); every value is
    its shortest round-trip ``repr``.
    """
    header = ["path_id"]
    for t in range(1, ts.T + 1):
        for c in range(1, ts.d + 1):
            header.append(f"x_{c}_{t}")
    header += ["payoff", "weight"]
    cols = np.column_stack([ts.paths.transpose(0, 2, 1).reshape(ts.n, -1),
                            ts.payoff_values, ts.weights])
    # row by row: one tolist() of the whole table holds n lists of Python
    # floats at once, which left the diagnostics suite's peak RSS ~1 MB higher
    return csv_text(header, ([i, *cols[i].tolist()] for i in range(ts.n)))


def content_hash(ts):
    """sha256 of the canonical CSV rendering; stable estimator provenance key."""
    return hashlib.sha256(training_set_to_csv(ts).encode()).hexdigest()
