"""Kernels on path space with closed-form conditional expectations.

A path is a ``d x T`` real matrix: ``T`` time steps of a ``d``-dimensional
Gaussian white noise ``X = (X_1, ..., X_T)``, each step standard normal under
the nominal measure.  Every kernel here factorizes over time steps as

    k(x, y) = sum_i  prod_t  k_{i,t}(x_t, y_t),

which makes the conditional expectation of ``k(X, y)`` given the first ``t``
steps a finite product: revealed steps contribute the per-step kernel factor,
unrevealed steps contribute a one-step Gaussian average.  That
single identity is what turns a fitted kernel regressor into a closed-form
value process.  It is also the only evaluator: the plain kernel matrix
:func:`gram` is the conditional Gram at ``t = T``.

Three families are implemented:

``GaussExpKernel``
    ``k(x, y) = exp(-alpha ||x - y||^2 + beta x.y)`` with ``alpha >= 0`` and
    ``0 <= beta < 1/2``, ``(alpha, beta) != (0, 0)``.  One summand (m = 1).

``GaussPolyKernel``
    ``k(x, y) = exp(-alpha ||x - y||^2) (1 + x.y)^beta`` with integer
    ``beta >= 0``.  The polynomial part expands into finitely many monomial
    features, and every evaluation goes through that expansion, which is
    only enumerated for ``beta <= 4`` and ``d*T <= 8``.

``FeatureMapKernel``
    ``k(x, y) = phi(x).phi(y)`` for finitely many product features
    ``phi_i(x) = prod_t phi_{i,t}(x_t)`` (monomials by default).

All evaluation is done in log space where an exponential is involved; an
exponent above ``EXP_GUARD`` raises :class:`OverflowError` instead of
returning ``inf``.  Negative exponents may underflow to ``0.0``, which is the
correct limit.

The tilted kernel ``k~(x, y) = k(x, y) / sqrt(w(x) w(y))`` and its squared
diagonal ``kappa~(x)^2 = k(x, x) / w(x)`` (:func:`tilted_gram`,
:func:`tilted_diag`) take the sampling weights ``w`` as arguments.  The
weights come from the sampler that drew the paths (a Gaussian tilt or a
mixture, see :mod:`kernelval.sampling`), not from the spec's ``gamma``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import product as _iproduct

import numpy as np

from .errors import CapabilityError, InputError

__all__ = [
    "GaussExpKernel",
    "GaussPolyKernel",
    "FeatureMapKernel",
    "MonomialFeature",
    "monomial_features",
    "gauss_poly_features",
    "as_path",
    "as_paths",
    "gram",
    "tilted_gram",
    "tilted_diag",
    "cond_expect",
    "conditional_gram",
    "conditional_gram_dot",
    "feature_matrix",
    "conditional_feature_matrix",
    "gauss_moment",
    "EXP_GUARD",
]

# Exponents above this raise instead of overflowing to inf.
EXP_GUARD = 700.0

# Rows per block of a kernel-times-vector product: memory O(BLOCK x columns).
# A block's exponent is 1 MB at n = 2000 columns and 2 MB at n = 4000, within
# a 2 MB per-core L2.  The bits depend on the block size only through BLAS:
# see conditional_gram_dot.  Every blocked evaluator reads it at call time.
BLOCK = 64

# Blocks per group in conditional_gram_dot: the exponent's row side and the
# overflow bound are built once per group, a (GROUP * BLOCK, d t + 2) array.
GROUP = 16

_POLY_BETA_CAP = 4
_POLY_DIM_CAP = 8


def _validate_dims(d, T):
    if not (isinstance(d, int) and isinstance(T, int)) or d < 1 or T < 1:
        raise InputError(f"path dimensions must be positive integers, got d={d}, T={T}")


def _check_spec(d, T, gamma, alpha=0.0):
    """The checks every kernel and measure spec shares; a NaN fails each."""
    _validate_dims(d, T)
    if not alpha >= 0:
        raise InputError(f"alpha must be nonnegative, got {alpha}")
    if not gamma < 0.5:
        raise InputError(f"gamma must be < 1/2, got {gamma}")


def as_path(x, d, T):
    """Coerce ``x`` to a ``(d, T)`` float array; accepts ``(T,)`` when d == 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1 and d == 1 and a.shape[0] == T:
        a = a.reshape(1, T)
    if a.shape != (d, T):
        raise InputError(f"expected path of shape ({d}, {T}), got {a.shape}")
    return a


def as_paths(x, d, T):
    """Coerce to a batch ``(N, d, T)``; accepts a single path or ``(N, T)`` when d == 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1 and d == 1 and a.shape[0] == T:
        a = a.reshape(1, 1, T)
    elif a.ndim == 2:
        if a.shape == (d, T):
            a = a.reshape(1, d, T)
        elif d == 1 and a.shape[1] == T:
            a = a.reshape(-1, 1, T)
        else:
            raise InputError(f"cannot interpret shape {a.shape} as paths of shape ({d}, {T})")
    if a.ndim != 3 or a.shape[1:] != (d, T):
        raise InputError(f"expected paths of shape (N, {d}, {T}), got {a.shape}")
    return a


def _check_exponent(m):
    """Raise instead of letting ``exp(m)`` pass the overflow guard."""
    if m > EXP_GUARD:
        raise OverflowError(
            f"kernel exponent {m:.3g} exceeds the overflow guard {EXP_GUARD:g}"
        )


def _guarded_exp(e, out=None):
    """exp with the positive-overflow guard; underflow silently reaches 0.0."""
    _check_exponent(np.max(e) if np.size(e) else 0.0)
    return np.exp(e, out=out)


def _int_pow(y, k):
    """``y ** k`` for an integer ``k >= 0`` as ``y * y * ... * y``, a new array.

    NumPy's ``power`` takes a slow path on negative bases, where ``y ** 3``
    costs as much as tens of multiplies.  The product rounds once per
    multiplication where ``pow`` rounds once, so it may differ from
    ``y ** k`` by up to ``k - 1`` ulp.
    """
    if k == 0:
        return np.ones_like(y)
    out = y * y if k > 1 else y.copy()
    for _ in range(k - 2):
        out *= y
    return out


def gauss_moment(k):
    """E[Z^k] for standard normal Z: (k-1)!! for even k, 0 for odd k."""
    if k < 0:
        raise InputError("moment order must be nonnegative")
    if k % 2 == 1:
        return 0.0
    return float(math.prod(range(k - 1, 0, -2))) if k else 1.0


# ---------------------------------------------------------------------------
# kernel specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussExpKernel:
    """Gaussian-exponentiated kernel ``exp(-alpha ||x-y||^2 + beta x.y)``."""

    alpha: float
    beta: float
    d: int = 1
    T: int = 2
    gamma: float = 0.0

    def __post_init__(self):
        _check_spec(self.d, self.T, self.gamma, self.alpha)
        if not 0.0 <= self.beta < 0.5:
            raise InputError(f"beta must lie in [0, 1/2), got {self.beta}")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise InputError("(alpha, beta) = (0, 0) is the constant kernel; not allowed")

    def u_coefficient(self):
        """Coefficient c in U(y) = (1+2a)^(-d/2) exp(c ||y||^2)."""
        a, b = self.alpha, self.beta
        return (b * b + 4.0 * a * b - 2.0 * a) / (4.0 * a + 2.0)


@dataclass(frozen=True)
class GaussPolyKernel:
    """Gaussian-polynomial kernel ``exp(-alpha ||x-y||^2) (1 + x.y)^beta``."""

    alpha: float
    beta: int
    d: int = 1
    T: int = 2
    gamma: float = 0.0

    def __post_init__(self):
        _check_spec(self.d, self.T, self.gamma, self.alpha)
        if not isinstance(self.beta, int) or self.beta < 0:
            raise InputError(f"beta must be a nonnegative integer, got {self.beta}")


@dataclass(frozen=True)
class MonomialFeature:
    """One product feature: per-step, per-coordinate exponents plus a scalar.

    ``powers[t][c]`` is the exponent of coordinate ``c`` at step ``t``.  The
    scalar ``coef`` is attached to the step-0 factor, so the per-step split
    ``phi_i = prod_t phi_{i,t}`` is well defined.
    """

    powers: tuple
    coef: float = 1.0

    def step_values(self, t, y):
        """phi_{i,t}(y) for step values ``y`` of shape (..., d)."""
        y = np.asarray(y, dtype=float)
        out = None
        for c, k in enumerate(self.powers[t]):
            if k:
                v = _int_pow(y[..., c], k)
                out = v if out is None else out * v
        if out is None:
            out = np.ones(y.shape[:-1])
        if t == 0 and self.coef != 1.0:
            out = out * self.coef
        return out

    def step_mean(self, t):
        """E[phi_{i,t}(X_t)] under the standard normal step distribution."""
        m = math.prod(gauss_moment(k) for k in self.powers[t])
        return m * self.coef if t == 0 else m


@dataclass(frozen=True)
class FeatureMapKernel:
    """Finite-dimensional kernel ``k(x, y) = phi(x).phi(y)``."""

    features: tuple
    d: int = 1
    T: int = 2
    gamma: float = 0.0

    def __post_init__(self):
        _check_spec(self.d, self.T, self.gamma)
        if not self.features:
            raise InputError("feature list must not be empty")
        for f in self.features:
            if len(f.powers) != self.T or any(len(p) != self.d for p in f.powers):
                raise InputError("feature powers must have shape (T, d)")
        _check_linear_independence(self)


def _check_linear_independence(spec):
    """Reject feature sets that are linearly dependent on a probe sample."""
    m = len(spec.features)
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15))
    probe = rng.standard_normal((max(2 * m, 8), spec.d, spec.T))
    mat = feature_matrix(spec, probe)
    rank = np.linalg.matrix_rank(mat)
    if rank < m:
        raise InputError(
            f"feature set is linearly dependent: rank {rank} < {m} on a probe sample"
        )


def monomial_features(d, T, max_total_degree):
    """All monomial product features of total degree <= ``max_total_degree``.

    The constant feature comes first; the rest are ordered by total degree,
    then lexicographically by the flattened exponent tuple.
    """
    _validate_dims(d, T)
    if max_total_degree < 0:
        raise InputError("max_total_degree must be nonnegative")
    combos = []
    ranges = [range(max_total_degree + 1)] * (d * T)
    for flat in _iproduct(*ranges):
        if sum(flat) <= max_total_degree:
            combos.append(flat)
    combos.sort(key=lambda f: (sum(f), f))
    feats = []
    for flat in combos:
        powers = tuple(
            tuple(flat[t * d + c] for c in range(d)) for t in range(T)
        )
        feats.append(MonomialFeature(powers=powers))
    return tuple(feats)


def gauss_poly_features(spec):
    """Monomial expansion of ``(1 + x.y)^beta`` for a GaussPolyKernel.

    Returns features such that ``(1 + x.y)^beta = sum_i phi_i(x) phi_i(y)``:
    the :func:`monomial_features` of degree ``<= beta``, in their order, each
    with the square root of its multinomial coefficient.  Enumeration is
    refused beyond ``beta <= 4`` or ``d*T > 8``.
    """
    if not isinstance(spec, GaussPolyKernel):
        raise InputError("expansion is defined for GaussPolyKernel specs")
    if spec.beta > _POLY_BETA_CAP or spec.d * spec.T > _POLY_DIM_CAP:
        raise CapabilityError(
            f"polynomial feature enumeration supports beta <= {_POLY_BETA_CAP} and "
            f"d*T <= {_POLY_DIM_CAP}; got beta={spec.beta}, d*T={spec.d * spec.T}"
        )
    return _gauss_poly_expansion(spec.d, spec.T, spec.beta)


# Enumerated once per (d, T, beta) in a process: conditional_gram_dot asks for
# the expansion once per row block, and each enumeration walks (beta + 1)^(d*T)
# exponent tuples.  The caps above bound the keys; the result is immutable.
@functools.cache
def _gauss_poly_expansion(d, T, b):
    feats = []
    for f in monomial_features(d, T, b):
        ks = [k for p in f.powers for k in p]
        coef = math.factorial(b) / (
            math.factorial(b - sum(ks)) * math.prod(math.factorial(k) for k in ks))
        feats.append(replace(f, coef=math.sqrt(coef)))
    return tuple(feats)


# ---------------------------------------------------------------------------
# plain and conditional evaluation
# ---------------------------------------------------------------------------


def _gauss_exp_rows(a, c, pre, t):
    """Row side ``[c x, -a|x|^2, 1]`` of the fused exponent over the first
    ``t`` steps, and the rows' squared norms ``|x|^2``."""
    Xs = pre[:, :, :t].reshape(pre.shape[0], -1)
    nx = np.einsum("ij,ij->i", Xs, Xs)
    return np.column_stack([c * Xs, -a * nx, np.ones_like(nx)]), nx


def _gauss_exp_columns(a, Y, t):
    """Column side ``[y, 1, -a|y|^2]`` of the fused exponent, and ``|y|^2``.

    The exponent ``c<x, y> - a|x|^2 - a|y|^2`` is one matrix product of
    :func:`_gauss_exp_rows` with these columns, the two norm terms riding
    along as two extra columns.
    """
    Ys = Y[:, :, :t].reshape(Y.shape[0], -1)
    ny = np.einsum("ij,ij->i", Ys, Ys)
    return np.column_stack([Ys, np.ones_like(ny), -a * ny]), ny


def _exponent_bound(a, c, k, nx, ny, log_tail=None):
    """Upper bound on every computed entry of the fused exponent over ``k``
    coordinates, rows of squared norms ``nx`` against columns ``ny``, with
    and without its column's log tail; O(rows + columns).

    ``c<x, y> - a|x|^2 - a|y|^2 = -a|x - y|^2 + (c - 2a)<x, y>`` is at most
    ``(c - 2a)|x||y|``: 0 for the Gaussian-polynomial factor (``c = 2a``).
    Rounding moves a computed entry, its sum with the log tail and this
    bound by less than ``(2k + 8) eps`` times
    ``c|x||y| + a|x|^2 + a|y|^2 + EXP_GUARD``, and that much is added.
    """
    if not (nx.size and ny.size):
        return -math.inf
    x2 = np.max(nx)
    xy = np.sqrt(x2 * ny)
    tol = (2 * k + 8) * np.finfo(float).eps
    tail = 0.0 if log_tail is None else np.maximum(log_tail, 0.0)
    return float(np.max((c - 2.0 * a) * xy + tail
                        + tol * (c * xy + a * (x2 + ny) + EXP_GUARD)))


def _gauss_exp_block(rows, cols, bound, log_tail=None):
    """``exp(rows @ cols.T)``: one block of the fused exponent, guarded.

    While ``bound`` (:func:`_exponent_bound` of the block's rows) stays below
    :data:`EXP_GUARD` no entry can pass the guard and no check is made.
    Otherwise the block's largest exponent is checked, and an entry later
    multiplied by ``exp(log_tail_j)`` has the guard cover that sum too: the
    block's largest exponent plus the largest log tail bounds every column's
    sum, and the exact per-column maximum is taken only when it passes.
    """
    e = rows @ cols.T
    if not bound < EXP_GUARD:  # so e is not empty
        m = np.max(e)
        _check_exponent(m)
        if log_tail is not None and m + np.max(log_tail) > EXP_GUARD:
            _check_exponent(np.max(np.max(e, axis=0) + log_tail))
    return np.exp(e, out=e)


def _gauss_exp_gram(a, c, pre, Y, t, log_tail=None):
    """``exp(c<x, y> - a|x|^2 - a|y|^2)`` for prefixes against paths, (N, M).

    ``c`` is ``2a + b`` for the Gaussian-exponentiated kernel and ``2a`` for
    the Gaussian-polynomial kernel's Gaussian factor.
    """
    rows, nx = _gauss_exp_rows(a, c, pre, t)
    cols, ny = _gauss_exp_columns(a, Y, t)
    bound = _exponent_bound(a, c, pre.shape[1] * t, nx, ny, log_tail)
    return _gauss_exp_block(rows, cols, bound, log_tail)


def _log_tail(spec, Y, t):
    """``log prod_{s > t} U(Y_s)`` per path for a GaussExpKernel; 0 at ``t = T``."""
    n2 = np.einsum("mcs,mcs->m", Y[:, :, t:], Y[:, :, t:])
    e = spec.u_coefficient() * n2
    e += -0.5 * spec.d * (spec.T - t) * math.log1p(2.0 * spec.alpha)
    return e


def gram(spec, X, Y=None):
    """Kernel matrix ``k(X_i, Y_j)`` for path batches; ``Y=None`` means ``Y=X``.

    With every step revealed this is the conditional Gram at ``t = T``.
    """
    X = as_paths(X, spec.d, spec.T)
    Y = X if Y is None else as_paths(Y, spec.d, spec.T)
    return _conditional_gram(spec, X, Y, spec.T)


def _conditional_gram(spec, pre, Y, t):
    """:func:`conditional_gram` on validated ``(prefixes, Y)`` arrays."""
    if isinstance(spec, GaussExpKernel):
        a = spec.alpha
        log_tail = _log_tail(spec, Y, t)
        K = _gauss_exp_gram(a, 2.0 * a + spec.beta, pre, Y, t, log_tail)
        K *= _guarded_exp(log_tail)[None, :]
        return K

    if isinstance(spec, FeatureMapKernel):
        return _feature_products(spec, pre, t) @ _feature_products(spec, Y, spec.T).T

    if isinstance(spec, GaussPolyKernel):
        feats = gauss_poly_features(spec)
        A = np.ones((pre.shape[0], len(feats)))
        B = np.ones((Y.shape[0], len(feats)))
        for i, f in enumerate(feats):
            for s in range(t):
                A[:, i] *= f.step_values(s, pre[:, :, s])
                B[:, i] *= f.step_values(s, Y[:, :, s])
            for s in range(t, spec.T):
                B[:, i] *= _gauss_poly_u(spec, f, s, Y[:, :, s])
        # the Gaussian factor over the revealed steps factors out of the feature sum
        a = spec.alpha
        G = _gauss_exp_gram(a, 2.0 * a, pre, Y, t)
        return G * (A @ B.T)

    raise InputError(f"unknown kernel spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# tilted evaluation (change of measure with sampling weight w)
# ---------------------------------------------------------------------------


def tilted_gram(spec, X, w):
    """Tilted kernel matrix ``k(X_i, X_j) / sqrt(w_i w_j)``, where ``w`` are
    the sampling weights of the paths."""
    K = gram(spec, X)
    inv = 1.0 / np.sqrt(w)
    K *= inv[:, None]
    K *= inv[None, :]
    return K


def tilted_diag(spec, X, w):
    """Squared tilted diagonal ``kappa~(x)^2 = k(x, x) / w(x)``, shape (N,)."""
    X = as_paths(X, spec.d, spec.T)
    if isinstance(spec, FeatureMapKernel):
        phi = feature_matrix(spec, X)
        return np.einsum("nm,nm->n", phi, phi) / w
    n2 = np.einsum("ncs,ncs->n", X, X)
    if isinstance(spec, GaussExpKernel):
        e = spec.beta * n2
        return _guarded_exp(e, out=e) / w
    if isinstance(spec, GaussPolyKernel):
        return (1.0 + n2) ** spec.beta / w
    raise InputError(f"unknown kernel spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# one-step expectation factors and conditional expectations
# ---------------------------------------------------------------------------


def _expected_monomial_shifted(powers, shift, scale):
    """E[prod_c (shift_c + scale * Z_c)^{k_c}] for standard normal Z.

    ``shift`` has shape (..., d); returns the same leading shape.
    """
    shift = np.asarray(shift, dtype=float)
    out = np.ones(shift.shape[:-1])
    for c, k in enumerate(powers):
        if k == 0:
            continue
        acc = np.zeros(shift.shape[:-1])
        for j in range(0, k + 1, 2):
            mom = gauss_moment(j)
            acc += math.comb(k, j) * mom * scale**j * _int_pow(shift[..., c], k - j)
        out = out * acc
    return out


def _gauss_poly_u(spec, feat, t, Y):
    """``U_{i,t}(y) = E[k_{i,t}(X_t, y)]`` for a GaussPolyKernel feature; Y is (M, d)."""
    a = spec.alpha
    n2 = np.einsum("mc,mc->m", Y, Y)
    damp = np.exp(-(a / (1.0 + 2.0 * a)) * n2)
    shift = (2.0 * a / (1.0 + 2.0 * a)) * Y
    scale = (1.0 + 2.0 * a) ** -0.5
    mean_part = _expected_monomial_shifted(feat.powers[t], shift, scale)
    vals = damp * feat.step_values(t, Y) * (1.0 + 2.0 * a) ** (-0.5 * spec.d) * mean_part
    if t == 0:
        # step_values applied coef once; U needs coef^2 at the designated step
        vals = vals * feat.coef
    return vals


def cond_expect(spec, prefix, y, t):
    """``E[k(X, y) | X_1..X_t = prefix]`` as a scalar.

    ``prefix`` holds the revealed steps, shape ``(d, t)`` (anything coercible;
    an empty prefix gives the full expectation, ``t = T`` gives ``k(x, y)``).
    """
    y = as_path(y, spec.d, spec.T)
    if not 0 <= t <= spec.T:
        raise InputError(f"t must lie in [0, {spec.T}], got {t}")
    pre = np.asarray(prefix, dtype=float).reshape(1, spec.d, t)
    return float(conditional_gram(spec, pre, y[None], t)[0, 0])


def _prefixes(spec, prefixes, t):
    """Validated ``(N, d, >= t)`` prefixes for the conditional functions."""
    pre = np.asarray(prefixes, dtype=float)
    if pre.ndim == 2:
        pre = pre[None]
    if pre.ndim != 3 or pre.shape[1] != spec.d or pre.shape[2] < t:
        raise InputError(
            f"prefixes must have shape (N, {spec.d}, >= {t}), got {pre.shape}"
        )
    if not 0 <= t <= spec.T:
        raise InputError(f"t must lie in [0, {spec.T}], got {t}")
    return pre


def conditional_gram(spec, prefixes, Y, t):
    """Matrix of conditional expectations ``E[k(X, Y_j) | first t steps = prefix_i]``.

    ``prefixes``: (N, d, t) revealed steps (only the first ``t`` steps of a
    full (N, d, T) array are read).  ``Y``: (M, d, T) full paths.  Returns
    (N, M).  Column ``j`` at ``t = T`` is the plain kernel, at ``t = 0`` the
    full expectation.  Value-process evaluation needs only this matrix times
    a coefficient vector, which :func:`conditional_gram_dot` computes.
    """
    Y = as_paths(Y, spec.d, spec.T)
    return _conditional_gram(spec, _prefixes(spec, prefixes, t), Y, t)


def _by_row_blocks(fn, X, rows=None):
    """``fn`` of each consecutive ``rows``-row block of ``X`` (default
    :data:`BLOCK`), as one (N,) vector."""
    rows = rows or BLOCK
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], rows):
        out[lo:lo + rows] = fn(X[lo:lo + rows])
    return out


def conditional_gram_dot(spec, prefixes, Y, t, coef):
    """``conditional_gram(spec, prefixes, Y, t) @ coef`` as an (N,) vector.

    The rows are evaluated in blocks of :data:`BLOCK` prefixes, so memory is
    O(BLOCK x M) and no (N, M) matrix is built.  For the
    Gaussian-exponentiated kernel the column side of the exponent and the
    tail factor are computed once, the tail factor moves into the
    coefficient vector, the row side and the overflow bound once per
    :data:`GROUP` blocks, and each block costs one matrix product, one
    ``exp`` and one matrix-vector product.  The overflow guards are the
    same as :func:`conditional_gram`'s.  Other kernel families multiply
    each block of the conditional Gram by ``coef``.

    A row's bits do not depend on the block size when ``Y`` has a multiple
    of 8 rows and every block but the last has a multiple of 8 rows (as
    measured with OpenBLAS 0.3.31): the matrix-vector product then gives each
    row the same bits, and so does the exponent's matrix product.  For other
    column counts the exponent product's rounding depends on the block's row
    count, and a row can move in its last bits (about 1e-15 relative, up to
    1e-12 where the sum cancels).  A last block of one row goes through a
    vector product and may move too.
    """
    Y = as_paths(Y, spec.d, spec.T)
    pre = _prefixes(spec, prefixes, t)
    if isinstance(spec, GaussExpKernel):
        a, c = spec.alpha, 2.0 * spec.alpha + spec.beta
        (cols, ny), log_tail = _gauss_exp_columns(a, Y, t), _log_tail(spec, Y, t)
        w = _guarded_exp(log_tail) * coef

        def group(part):
            rows, nx = _gauss_exp_rows(a, c, part, t)
            bound = _exponent_bound(a, c, spec.d * t, nx, ny, log_tail)
            return _by_row_blocks(
                lambda r: _gauss_exp_block(r, cols, bound, log_tail) @ w, rows)
        return _by_row_blocks(group, pre, GROUP * BLOCK)
    return _by_row_blocks(lambda rows: _conditional_gram(spec, rows, Y, t) @ coef, pre)


# ---------------------------------------------------------------------------
# feature-map side
# ---------------------------------------------------------------------------


def _feature_products(spec, pre, t):
    """``E[phi(X) | first t steps = pre_i]``, (N, m).

    Revealed steps contribute their realized factors, the others their
    Gaussian means.
    """
    out = np.empty((pre.shape[0], len(spec.features)))
    for i, f in enumerate(spec.features):
        v = 1.0
        for s in range(t):
            sv = f.step_values(s, pre[:, :, s])
            v = sv if s == 0 else v * sv
        for s in range(t, spec.T):
            m = f.step_mean(s)
            if m != 1.0:
                v = v * m
        out[:, i] = v
    return out


def feature_matrix(spec, X):
    """Design matrix ``phi_j(X_i)`` of shape (N, m): every step revealed."""
    if not isinstance(spec, FeatureMapKernel):
        raise InputError("feature_matrix requires a FeatureMapKernel")
    return _feature_products(spec, as_paths(X, spec.d, spec.T), spec.T)


def conditional_feature_matrix(spec, prefixes, t):
    """``E[phi(X) | first t steps = prefix_i]``; prefixes (N, d, >= t) -> (N, m).

    ``t = 0`` gives the vector of feature means in every row.
    """
    if not isinstance(spec, FeatureMapKernel):
        raise InputError("conditional_feature_matrix requires a FeatureMapKernel")
    return _feature_products(spec, _prefixes(spec, prefixes, t), t)
