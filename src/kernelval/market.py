"""Discrete Black-Scholes market and payoff functionals.

The stock follows ``S_t = S_{t-1} exp(sigma X_t - sigma^2 / 2)`` for iid
standard normal increments ``X_t`` (d = 1), so the discounted price is a
martingale under the nominal measure and the cumulative cash flow of a
European-style claim is a single payoff at maturity.  All payoffs are
written on the discounted price; ``e^{r t} S_t`` is the nominal price and
the running maximum ``M_t = max_{0 <= s <= t} e^{r s} S_s`` includes the
starting point.

Ground truth for the value process comes in two strengths:

* :func:`ground_truth_value` - conditional Monte Carlo with a configurable
  inner budget (the reference protocol);
* :func:`value_quadrature` - deterministic tensor quadrature over the
  remaining Gaussian steps (``GT_NODES`` trapezoid nodes per step on
  ``[-GT_HALF_WIDTH, GT_HALF_WIDTH]``), exact to roughly 1e-7, used where MC
  noise at reasonable budgets would swamp the quantity being measured.

Both are cross-checked against each other in the test suite.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError
from .sampling import derive_rng

__all__ = [
    "BSConfig",
    "PAYOFF_IDS",
    "stock_path",
    "payoff",
    "payoff_from_stocks",
    "payoff_function",
    "ground_truth_value",
    "value_quadrature",
    "GroundTruth",
    "NestedMC",
    "nested_mc_estimate",
]

# Trapezoid rule of the quadrature ground truth: nodes per remaining step on
# [-GT_HALF_WIDTH, GT_HALF_WIDTH].
GT_NODES, GT_HALF_WIDTH = 2049, 8.5
# Prefixes per block of the one-step quadrature: 64 prefixes are 131,136
# two-step paths (2 MB), and the payoff's temporaries grow with them.
_GT_ROWS = 64

PAYOFF_IDS = (
    "european_put",
    "asian_put",
    "up_and_out_call",
    "european_call",
    "asian_call",
    "lookback_float",
)


@dataclass(frozen=True)
class BSConfig:
    """Market parameters; ``T`` is the number of time steps."""

    s0: float = 1.0
    sigma: float = 0.2
    rate: float = 0.0
    T: int = 2
    strike: float = 1.0
    barrier: float = 2.24

    def __post_init__(self):
        if self.s0 <= 0 or self.sigma <= 0:
            raise InputError("s0 and sigma must be positive")
        if self.T < 1:
            raise InputError("need at least one time step")


def _increments(x, T):
    """Coerce noise input to shape (N, T)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim == 3:
        if a.shape[1] != 1:
            raise InputError("market paths are one-dimensional (d == 1)")
        a = a[:, 0, :]
    if a.ndim != 2 or a.shape[1] != T:
        raise InputError(f"expected noise of shape (N, {T}), got {np.asarray(x).shape}")
    return a


def stock_path(cfg, x):
    """Discounted stock path ``(S_0, ..., S_T)`` from noise increments.

    Accepts ``(T,)``, ``(N, T)`` or ``(N, 1, T)``; returns ``(T+1,)`` or
    ``(N, T+1)`` accordingly.
    """
    single = np.asarray(x).ndim == 1
    a = _increments(x, cfg.T)
    log_steps = cfg.sigma * a - 0.5 * cfg.sigma**2
    logs = np.concatenate([np.zeros((a.shape[0], 1)), np.cumsum(log_steps, axis=1)], axis=1)
    S = cfg.s0 * np.exp(logs)
    return S[0] if single else S


def _nominal(cfg, S):
    """Nominal (undiscounted) prices e^{rt} S_t along the path."""
    t = np.arange(cfg.T + 1)
    return S * np.exp(cfg.rate * t)


def payoff_from_stocks(cfg, payoff_id, S):
    """Payoff from discounted stock paths ``S`` of shape ``(..., T+1)``."""
    S = np.asarray(S, dtype=float)
    if S.shape[-1] != cfg.T + 1:
        raise InputError(f"stock paths must have {cfg.T + 1} columns, got {S.shape[-1]}")
    disc_T = math.exp(-cfg.rate * cfg.T)
    A = cfg.strike
    if payoff_id == "european_put":
        return np.maximum(disc_T * A - S[..., -1], 0.0)
    if payoff_id == "european_call":
        return np.maximum(S[..., -1] - disc_T * A, 0.0)
    if payoff_id in ("asian_put", "asian_call"):
        nom = _nominal(cfg, S)
        avg = nom[..., 1:].mean(axis=-1)
        inner = (A - avg) if payoff_id == "asian_put" else (avg - A)
        return disc_T * np.maximum(inner, 0.0)
    if payoff_id == "up_and_out_call":
        nom = _nominal(cfg, S)
        alive = nom.max(axis=-1) <= cfg.barrier
        return np.maximum(S[..., -1] - disc_T * A, 0.0) * alive
    if payoff_id == "lookback_float":
        nom = _nominal(cfg, S)
        return disc_T * nom.max(axis=-1) - S[..., -1]
    raise InputError(f"unknown payoff id {payoff_id!r}; known: {PAYOFF_IDS}")


def payoff(cfg, payoff_id, x):
    """Payoff of one or many noise paths; scalar in, scalar out."""
    single = np.asarray(x).ndim == 1
    vals = payoff_from_stocks(cfg, payoff_id, stock_path(cfg, _increments(x, cfg.T)))
    return float(vals[0]) if single else vals


class _PayoffOracle:
    """``f(x)`` is ``payoff(cfg, payoff_id, x)``; ``evals`` counts the paths
    priced so far: the rows of a batch, 1 for a single path.

    The count is a plain increment, not locked: every pipeline calls an
    oracle from one thread at a time (one oracle per payoff in a study, one
    per check in the bound suite).
    """

    def __init__(self, cfg, payoff_id):
        if payoff_id not in PAYOFF_IDS:
            raise InputError(f"unknown payoff id {payoff_id!r}; known: {PAYOFF_IDS}")
        self.cfg, self.payoff_id, self.evals = cfg, payoff_id, 0

    def __call__(self, x):
        vals = payoff(self.cfg, self.payoff_id, x)
        self.evals += np.size(vals)
        return vals


def payoff_function(cfg, payoff_id):
    """The payoff as a counted oracle ``paths -> values``: the one source of
    every payoff-evaluation budget.  The ground truth calls :func:`payoff`
    directly, so it stays out of the count."""
    return _PayoffOracle(cfg, payoff_id)


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


def _prefix_array(x_prefix, t):
    if t == 0:
        return np.zeros(0)
    a = np.asarray(x_prefix, dtype=float).reshape(-1)
    if a.shape[0] < t:
        raise InputError(f"prefix has {a.shape[0]} steps but t={t}")
    return a[:t]


def ground_truth_value(cfg, payoff_id, x_prefix, t, n_inner, seed=0, stream=("gt",)):
    """Conditional Monte Carlo value ``V_t`` given the first ``t`` increments.

    ``t = T`` returns the payoff itself (no simulation); ``t = 0`` is a plain
    MC mean over full paths.  Inner tails are standard normal under the
    nominal measure, from a Philox stream derived from ``seed`` and the
    stream tags.
    """
    if not 0 <= t <= cfg.T:
        raise InputError(f"t must lie in [0, {cfg.T}], got {t}")
    pre = _prefix_array(x_prefix, t)
    if t == cfg.T:
        return payoff(cfg, payoff_id, pre)
    if n_inner < 1:
        raise InputError("n_inner must be positive")
    rng = derive_rng(seed, *stream)
    tails = rng.standard_normal((n_inner, cfg.T - t))
    full = np.concatenate([np.broadcast_to(pre, (n_inner, t)), tails], axis=1)
    return float(payoff(cfg, payoff_id, full).mean())


def value_quadrature(cfg, payoff_id, x_prefix, t):
    """Deterministic conditional value by trapezoid quadrature.

    Integrates the payoff against the standard normal density of the
    remaining increments on a tensor grid of ``GT_NODES`` nodes per step.
    Supports one or two remaining steps (the experiment configuration needs
    no more); use :func:`ground_truth_value` beyond that.
    """
    if not 0 <= t <= cfg.T:
        raise InputError(f"t must lie in [0, {cfg.T}], got {t}")
    pre = _prefix_array(x_prefix, t)
    k = cfg.T - t
    if k == 0:
        return payoff(cfg, payoff_id, pre)
    if k > 2:
        raise CapabilityError("quadrature ground truth supports at most two remaining steps")
    if k == 1:
        return float(_quad_one_step(cfg, payoff_id, pre[None, :])[0])
    z, wq = _normal_rule(GT_NODES, GT_HALF_WIDTH)
    # two remaining steps: integrate the one-step values over the first of them
    prefixes = np.concatenate(
        [np.broadcast_to(pre, (GT_NODES, t)), z[:, None]], axis=1
    )
    inner = _quad_one_step(cfg, payoff_id, prefixes)
    return float(inner @ wq)


def _normal_rule(n_nodes, half_width):
    """Trapezoid nodes and standard normal weights on [-hw, hw]."""
    z = np.linspace(-half_width, half_width, n_nodes)
    dens = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    w = np.full(n_nodes, z[1] - z[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return z, dens * w


def _quad_one_step(cfg, payoff_id, prefixes):
    """One-remaining-step quadrature, :data:`_GT_ROWS` prefixes a block;
    (N, T-1) -> (N,)."""
    z, wq = _normal_rule(GT_NODES, GT_HALF_WIDTH)
    out = np.empty(prefixes.shape[0])
    for lo in range(0, len(out), _GT_ROWS):
        pre = prefixes[lo : lo + _GT_ROWS]
        m = pre.shape[0]
        full = np.concatenate(
            [np.repeat(pre, GT_NODES, axis=0), np.tile(z, m)[:, None]], axis=1
        )
        vals = payoff(cfg, payoff_id, full).reshape(m, GT_NODES)
        out[lo : lo + _GT_ROWS] = vals @ wq
    return out


class GroundTruth:
    """Value-process ground truth for every time step of a two-step market.

    ``method`` selects deterministic quadrature (default; noise-free at the
    resolutions used here) or conditional MC at ``n_inner`` per evaluation.
    Computed values are cached in memory for the life of the object;
    :meth:`to_csv` renders them.
    """

    def __init__(self, cfg, payoff_id, method="quadrature", n_inner=10_000, seed=0):
        if payoff_id not in PAYOFF_IDS:
            raise InputError(f"unknown payoff id {payoff_id!r}")
        if method not in ("quadrature", "mc"):
            raise InputError(f"method must be 'quadrature' or 'mc', got {method!r}")
        self.cfg = cfg
        self.payoff_id = payoff_id
        self.method = method
        self.n_inner = int(n_inner)
        self.seed = int(seed)
        self._v0 = None
        self._v1_cache = {}

    def v0(self):
        if self._v0 is None:
            if self.method == "quadrature":
                self._v0 = value_quadrature(self.cfg, self.payoff_id, (), 0)
            else:
                self._v0 = ground_truth_value(
                    self.cfg, self.payoff_id, (), 0, self.n_inner,
                    seed=self.seed, stream=("gt", self.payoff_id, 0),
                )
        return self._v0

    def v1(self, x1):
        """Conditional values after the first increment; vectorized."""
        arr = np.atleast_1d(np.asarray(x1, dtype=float))
        key_arr = arr + 0.0  # -0.0 and 0.0 share one cache entry and stream
        keys = key_arr.tolist()
        missing = [i for i, key in enumerate(keys) if key not in self._v1_cache]
        if self.method == "quadrature" and self.cfg.T == 2:
            # one batch, duplicates included
            vals = _quad_one_step(self.cfg, self.payoff_id, arr[missing][:, None])
        elif self.method == "quadrature":
            vals = [value_quadrature(self.cfg, self.payoff_id, [keys[i]], 1)
                    for i in missing]
        else:
            # the inner stream is keyed by the value's bits, not its batch
            # position, so a value does not depend on call order
            bits = key_arr.view(np.uint64)
            vals = [ground_truth_value(self.cfg, self.payoff_id, [keys[i]], 1,
                                       self.n_inner, seed=self.seed,
                                       stream=("gt", self.payoff_id, 1, int(bits[i])))
                    for i in missing]
        self._v1_cache.update((keys[i], float(v)) for i, v in zip(missing, vals))
        out = np.array([self._v1_cache[key] for key in keys])
        return out if np.asarray(x1).ndim else float(out[0])

    def v_series(self, paths):
        """True value process along noise paths: shape (N, T+1).

        Column 0 is the unconditional value, the last column the payoff.
        Intermediate columns require T == 2 (the experiment setting).
        """
        a = _increments(paths, self.cfg.T)
        n = a.shape[0]
        out = np.empty((n, self.cfg.T + 1))
        out[:, 0] = self.v0()
        out[:, -1] = payoff(self.cfg, self.payoff_id, a)
        if self.cfg.T == 2:
            out[:, 1] = self.v1(a[:, 0])
        elif self.cfg.T > 2:
            raise CapabilityError("intermediate ground truth implemented for T == 2 only")
        return out

    def to_csv(self):
        """The computed values as CSV rows ``t, x1, value, n_inner, seed``.

        ``n_inner`` is 0 for quadrature, which has no inner budget.
        """
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "x1", "value", "n_inner", "seed"])
        tag = [str(self.n_inner if self.method == "mc" else 0), str(self.seed)]
        if self._v0 is not None:
            w.writerow(["0", "", repr(float(self._v0))] + tag)
        for x1 in sorted(self._v1_cache):
            w.writerow(["1", repr(x1), repr(self._v1_cache[x1])] + tag)
        return buf.getvalue()


# ---------------------------------------------------------------------------
# nested Monte Carlo baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NestedMC:
    """Nested-MC estimate: grand-mean value and per-outer-point conditionals."""

    v0_hat: float
    outer_x1: np.ndarray
    v1_hat: np.ndarray


def nested_mc_estimate(f, n_outer, n_inner, seed=0, stream=("nested",)):
    """Naive two-level Monte Carlo under the nominal measure.

    Draws ``n_outer`` first increments; from each, ``n_inner`` independent
    tails of the market ``f.cfg``.  ``v1_hat[i]`` is the inner mean at outer
    point ``i`` and ``v0_hat`` the grand mean over all ``n_outer * n_inner``
    payoffs, priced by the oracle ``f`` (:func:`payoff_function`) in one call.
    """
    if n_outer < 1 or n_inner < 1:
        raise InputError("n_outer and n_inner must be positive")
    T = f.cfg.T
    rng = derive_rng(seed, *stream)
    x1 = rng.standard_normal(n_outer)
    tails = rng.standard_normal((n_outer, n_inner, T - 1))
    full = np.concatenate(
        [np.repeat(x1, n_inner).reshape(n_outer, n_inner, 1), tails], axis=2
    ).reshape(n_outer * n_inner, T)
    vals = f(full).reshape(n_outer, n_inner)
    return NestedMC(v0_hat=float(vals.mean()), outer_x1=x1, v1_hat=vals.mean(axis=1))
