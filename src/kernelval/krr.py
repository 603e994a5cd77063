"""Regularized least-squares fitting of payoff functions.

Fits solve the tilted ridge problem on a weighted training sample: with
``f~ = f / sqrt(w)`` and ``k~(x, y) = k(x, y) / sqrt(w(x) w(y))``, the dual
route solves

    ((1/n) K~ + lambda I) g~ = f~,     K~_ij = k~(X_i, X_j),

and the fitted payoff function under the nominal measure is

    f_X(x) = (1/n) sum_j k(x, X_j) g~_j / sqrt(w_j).

The sorted variant groups bitwise-identical paths first (multiplicity
``|I_j|`` enters as a symmetric scaling), the primal variant solves the
``m x m`` normal equations of an explicit feature map.  All three agree on
their overlap and the tests pin that equivalence tightly.

Solves use a dense Cholesky factorization and fail loudly with the
estimated condition number; no silent jitter is ever added.  ``lambda = 0``
is admitted only when the reciprocal condition number exceeds 1e-12.
A ridge path (:func:`fit_path`) builds the matrix once and solves it at
each lambda; a single fit is the path with one lambda.  A fit holds one
``n x n`` array: the system builders mirror the matrix's lower triangle
into its upper one, the factorization overwrites one triangle in place,
and the solve restores it from the other.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import kernels
from .errors import CapabilityError, InputError, SolverError
from .kernels import FeatureMapKernel, GaussExpKernel, GaussPolyKernel, MonomialFeature
from .sampling import content_hash

__all__ = [
    "Estimator",
    "fit",
    "fit_path",
    "solve",
    "predict",
    "regularization_path",
    "estimator_to_json",
    "estimator_from_json",
    "load_estimator",
    "MAX_DUAL_SIZE",
    "RCOND_FLOOR",
]

MAX_DUAL_SIZE = 20_000
RCOND_FLOOR = 1e-12

# The estimator's optional arrays, and the type of their JSON elements.
_ARRAYS = {"eval_coef": float, "dual_coef": float, "weights": float,
           "multiplicity": int, "support_index": int, "primal_coef": float}


@dataclass(frozen=True)
class Estimator:
    """Fitted payoff estimator; immutable once constructed.

    ``eval_coef`` is pre-divided so prediction is always
    ``(1/n_train) * k(x, paths) @ eval_coef`` in dual mode and
    ``phi(x) @ primal_coef`` in primal mode.
    """

    mode: str
    kernel: object
    lam: float
    n_train: int
    paths: np.ndarray
    eval_coef: np.ndarray | None = None
    dual_coef: np.ndarray | None = None
    weights: np.ndarray | None = None
    multiplicity: np.ndarray | None = None
    support_index: np.ndarray | None = None
    primal_coef: np.ndarray | None = None
    payoff_id: str = ""
    training_hash: str = ""
    residual: float = field(default=float("nan"), compare=False)

    def __post_init__(self):
        for name in ("paths", *_ARRAYS):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)


def _check_fit_inputs(ts, spec, lambdas, mode):
    """Validate a fit's inputs; return its mode's system builder and label."""
    if mode not in _SYSTEMS:
        raise InputError(f"unknown fit mode {mode!r}; known: {sorted(_SYSTEMS)}")
    if mode == "primal" and not isinstance(spec, FeatureMapKernel):
        raise InputError("primal fitting requires a FeatureMapKernel")
    for lam in lambdas:
        if not 0 <= lam < math.inf:
            raise InputError(f"lambda must be finite and nonnegative, got {lam}")
    if ts.d != spec.d or ts.T != spec.T:
        raise InputError(
            f"training set is ({ts.d}, {ts.T}) but kernel expects ({spec.d}, {spec.T})"
        )
    if np.any(ts.weights <= 0) or not np.all(np.isfinite(ts.weights)):
        raise InputError("sampling weights must be positive and finite")
    return _SYSTEMS[mode]


def _extreme_eigenvalues(M):
    """Smallest and largest eigenvalue of a symmetric matrix (lower triangle read).

    One tridiagonal reduction (LAPACK ``dsytrd``), then bisection for the two
    ends of the spectrum only.
    """
    n = M.shape[0]
    lwork = int(sla.lapack.dsytrd_lwork(n, lower=1)[0])
    _, d, e, _, _ = sla.lapack.dsytrd(M, lower=1, lwork=lwork)
    return [sla.eigvalsh_tridiagonal(d, e, select="i", select_range=(i, i))[0]
            for i in (0, n - 1)]


def _mirror_lower(M):
    """Copy the strict lower triangle of the square ``M`` onto its upper one.

    In blocks of :data:`kernels.BLOCK` rows, so no ``n x n`` temporary or
    index array is allocated.  ``M`` is then exactly symmetric, with its lower
    triangle and diagonal untouched.
    """
    n = M.shape[0]
    for lo in range(0, n, kernels.BLOCK):
        hi = min(lo + kernels.BLOCK, n)
        M[lo:hi, hi:] = M[hi:, lo:hi].T
        block = M[lo:hi, lo:hi]
        np.copyto(block, block.T, where=_strict_upper(hi - lo))


@functools.cache
def _strict_upper(n):
    """Read-only mask of the strict upper triangle of an ``n x n`` block."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def _abs_column_sums_max(M):
    """``np.abs(M).sum(axis=0).max()``, one block of columns at a time."""
    return max(np.abs(M[:, lo:lo + kernels.BLOCK]).sum(axis=0).max()
               for lo in range(0, M.shape[1], kernels.BLOCK))


def _solve_spd(M, rhs, lam, what):
    """Cholesky solve of an SPD system, in place on ``M``; loud failure, no jitter.

    ``M`` already contains the ridge shift and must be exactly symmetric (the
    system builders mirror it).  ``cho_factor`` runs on the Fortran-order
    view ``M.T``, whose lower triangle is the upper triangle of ``M``: it
    overwrites that triangle and the diagonal, with no copy.  Afterwards the
    upper triangle is mirrored back from the lower one and the diagonal reset,
    so ``M`` is unchanged on return, on failure too.  The factor is that of
    ``M``'s lower triangle, bit for bit.  For ``lam == 0`` the reciprocal
    condition number is estimated first and the solve refused below
    ``RCOND_FLOOR``.  Returns the solution and its relative residual.
    """
    anorm = _abs_column_sums_max(M) if lam == 0.0 else None
    diag = M.diagonal().copy()
    try:
        c, low = sla.cho_factor(M.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        _restore(M, diag)
        lo, hi = _extreme_eigenvalues(M)
        cond = abs(hi / lo) if lo != 0 else math.inf
        raise SolverError(
            f"{what}: Cholesky factorization failed (matrix not positive definite; "
            f"estimated condition number {cond:.3e})",
            condition_number=cond,
        ) from exc
    try:
        if anorm is not None:
            rcond, info = sla.lapack.dpocon(c, anorm, uplo=b"L" if low else b"U")
            if info != 0 or rcond <= RCOND_FLOOR:
                raise SolverError(
                    f"{what}: lambda = 0 refused, reciprocal condition number "
                    f"{rcond:.3e} <= {RCOND_FLOOR:g}",
                    condition_number=1.0 / rcond if rcond > 0 else math.inf,
                )
        sol = sla.cho_solve((c, low), rhs, check_finite=False)
    finally:
        _restore(M, diag)
    return sol, _relative_residual(M, sol, rhs)


def _restore(M, diag):
    """Undo :func:`_solve_spd`'s in-place factorization: upper triangle, diagonal."""
    _mirror_lower(M)
    np.fill_diagonal(M, diag)


def _check_dual_size(n, what):
    if n > MAX_DUAL_SIZE:
        raise CapabilityError(
            f"dual fit refuses n = {n} {what} > {MAX_DUAL_SIZE} (Gram matrix too "
            "large); use the primal route or subsample"
        )


# Each `_*_system` function returns ``(M, rhs, fields, coef_fields)``: the fit's
# matrix without the ridge shift, its lower triangle mirrored into the upper
# one as :func:`_solve_spd` requires; its right-hand side; the estimator
# fields shared by every lambda; and a map from a solution to the coefficient
# fields.


def _unsorted_system(ts, spec):
    """The dual fit: ``K~ / n`` and ``f / sqrt(w)``."""
    _check_dual_size(ts.n, "paths")
    M = kernels.tilted_gram(spec, ts.paths, ts.weights)
    M /= ts.n
    _mirror_lower(M)
    inv_sqrt_w = 1.0 / np.sqrt(ts.weights)
    fields = {"paths": np.array(ts.paths), "weights": np.array(ts.weights)}
    return (M, ts.payoff_values * inv_sqrt_w, fields,
            lambda g: {"dual_coef": g, "eval_coef": g * inv_sqrt_w})


def _group_paths(paths):
    """Bitwise-exact duplicate grouping; returns (first_index, inverse, counts)."""
    n = paths.shape[0]
    flat = np.ascontiguousarray(paths.reshape(n, -1))
    as_bits = flat.view(np.uint64)
    _, first, inverse, counts = np.unique(
        as_bits, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse.reshape(-1), counts


def _sorted_system(ts, spec):
    """The sorted dual fit on the distinct paths, scaled by multiplicity.

    Duplicate paths (bitwise-identical) are merged; the reduced system is
    ``((1/n) K + lambda) g = f`` with ``K_ij = sqrt(|I_i| |I_j|) k~`` and
    ``f_j = sqrt(|I_j|) f~_j``.  Payoffs and weights are functions of the
    path, so each group takes its first occurrence.
    """
    first, _, counts = _group_paths(ts.paths)
    _check_dual_size(first.shape[0], "distinct paths")
    root_m = np.sqrt(counts.astype(float))
    sub_w = ts.weights[first]
    M = kernels.tilted_gram(spec, ts.paths[first], sub_w)
    M *= root_m[:, None]
    M *= root_m[None, :]
    M /= ts.n
    _mirror_lower(M)
    fields = {"paths": np.array(ts.paths[first]), "weights": np.array(sub_w),
              "multiplicity": counts.astype(np.int64),
              "support_index": first.astype(np.int64)}
    return (M, root_m * ts.payoff_values[first] / np.sqrt(sub_w), fields,
            lambda g: {"dual_coef": g, "eval_coef": root_m * g / np.sqrt(sub_w)})


def _primal_system(ts, spec):
    """The primal fit: the ``m x m`` tilted normal equations."""
    inv_sqrt_w = 1.0 / np.sqrt(ts.weights)
    V = kernels.feature_matrix(spec, ts.paths) * inv_sqrt_w[:, None]
    M = V.T @ V / ts.n
    _mirror_lower(M)
    fields = {"paths": np.array(ts.paths), "weights": np.array(ts.weights)}
    return (M, V.T @ (ts.payoff_values * inv_sqrt_w) / ts.n, fields,
            lambda h: {"primal_coef": h})


_SYSTEMS = {
    "dual-unsorted": (_unsorted_system, "dual fit"),
    "dual-sorted": (_sorted_system, "dual fit (sorted)"),
    "primal": (_primal_system, "primal fit"),
}


def fit_path(ts, spec, lambdas, mode="dual-unsorted", payoff_id=None):
    """Ridge fits at each ``lambda`` in ``lambdas`` from one system build.

    The mode's matrix is built and the training set hashed once; each lambda
    then only sets the diagonal to ``d0 + lambda`` before its Cholesky solve,
    so every fit equals a path of that lambda alone bitwise.  Returns one
    entry per lambda: its :class:`Estimator`, or the :class:`SolverError` or
    ``OverflowError`` that fit failed with.  Bad inputs raise
    :class:`InputError` and oversized dual systems :class:`CapabilityError`.
    """
    lambdas = list(lambdas)
    build, what = _check_fit_inputs(ts, spec, lambdas, mode)
    try:
        M, rhs, fields, coef_fields = build(ts, spec)
    except OverflowError as exc:
        return [exc] * len(lambdas)
    shared = dict(fields, mode=mode, kernel=spec, n_train=ts.n,
                  payoff_id=ts.payoff_id if payoff_id is None else payoff_id,
                  training_hash=content_hash(ts))
    diag = np.diag_indices_from(M)
    d0 = M[diag]
    out = []
    for lam in lambdas:
        M[diag] = d0 + lam
        try:
            sol, res = _solve_spd(M, rhs, lam, what)
        except SolverError as exc:
            out.append(exc)
        else:
            out.append(Estimator(lam=lam, residual=res, **shared, **coef_fields(sol)))
    return out


def _raise_failure(results):
    for r in results:
        if isinstance(r, Exception):
            raise r


def fit(ts, spec, lam, mode="dual-unsorted", payoff_id=None):
    """One ridge fit by mode name: :func:`fit_path` with a single lambda."""
    results = fit_path(ts, spec, [lam], mode, payoff_id)
    _raise_failure(results)
    return results[0]


def solve(ts, spec, lam, mode="dual-unsorted"):
    """The coefficients a :func:`fit` of ``mode`` stores, bit for bit:
    ``dual_coef``, or ``primal_coef`` for ``"primal"``.

    The same checks, system and solve, without the :class:`Estimator` and its
    training-set hash, which renders the whole sample as CSV.  Raises what
    :func:`fit` raises.
    """
    build, what = _check_fit_inputs(ts, spec, [lam], mode)
    M, rhs, _, _ = build(ts, spec)
    M[np.diag_indices_from(M)] += lam
    return _solve_spd(M, rhs, lam, what)[0]


def predict(est, x):
    """Fitted payoff value(s) at new paths; scalar in, scalar out.

    A dual fit evaluates the kernel-times-vector ``k(x, paths) @ eval_coef
    / n_train`` as :func:`kernels.conditional_gram_dot` at ``t = T``, in
    blocks of ``kernels.BLOCK`` rows: memory is O(block x n_train), and no
    N x n_train Gram is built.  A primal fit is ``phi(x) @ primal_coef``.
    """
    a = np.asarray(x, dtype=float)
    single = a.ndim == 1 or (a.ndim == 2 and a.shape == (est.kernel.d, est.kernel.T))
    X = kernels.as_paths(a, est.kernel.d, est.kernel.T)
    if est.mode == "primal":
        vals = kernels.feature_matrix(est.kernel, X) @ est.primal_coef
    else:
        vals = kernels.conditional_gram_dot(est.kernel, X, est.paths, est.kernel.T,
                                            est.eval_coef) / est.n_train
    return float(vals[0]) if single else vals


def _relative_residual(M, sol, rhs):
    num = np.linalg.norm(M @ sol - rhs)
    den = np.linalg.norm(rhs)
    return float(num / den) if den > 0 else float(num)


def regularization_path(ts, spec, lambdas, mode="primal"):
    """Fits along a ridge path and measures drift from the ``lambda = 0`` fit.

    Returns ``(estimators, errors)`` where ``errors[i]`` is the RMS gap
    between fit ``i`` and the unregularized fit on the training paths.
    Requires the unregularized problem to be well conditioned, so this is a
    finite-dimensional (primal) tool first.
    """
    fits = fit_path(ts, spec, [0.0] + [float(l) for l in lambdas], mode)
    _raise_failure(fits)
    base, ests = fits[0], fits[1:]
    base_vals = predict(base, ts.paths)
    errs = [float(np.sqrt(np.mean((predict(e, ts.paths) - base_vals) ** 2)))
            for e in ests]
    return ests, errs


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_FAMILIES = {"gauss-exp": GaussExpKernel, "gauss-poly": GaussPolyKernel,
             "feature-map": FeatureMapKernel}


def _kernel_to_doc(spec):
    family = {cls: name for name, cls in _FAMILIES.items()}.get(type(spec))
    if family is None:
        raise InputError(f"cannot serialize kernel of type {type(spec).__name__}")
    doc = {"family": family, "d": spec.d, "T": spec.T, "gamma": spec.gamma}
    if isinstance(spec, FeatureMapKernel):
        doc["features"] = [{"powers": [list(p) for p in f.powers], "coef": f.coef}
                           for f in spec.features]
    else:
        doc.update(alpha=spec.alpha, beta=spec.beta)
    return doc


def _kernel_from_doc(doc):
    family = doc.get("family")
    cls = _FAMILIES.get(family)
    if cls is None:
        raise InputError(f"unknown kernel family {family!r} in estimator document")
    common = {"d": doc["d"], "T": doc["T"], "gamma": doc["gamma"]}
    if cls is FeatureMapKernel:
        feats = tuple(
            MonomialFeature(powers=tuple(tuple(int(k) for k in p) for p in f["powers"]),
                            coef=float(f["coef"]))
            for f in doc["features"]
        )
        return cls(features=feats, **common)
    return cls(alpha=doc["alpha"], beta=doc["beta"], **common)


def estimator_to_json(est):
    """Binary-free JSON document; training paths travel via the CSV hash."""
    doc = {
        "mode": est.mode,
        "lambda": est.lam,
        "n_train": est.n_train,
        "payoff_id": est.payoff_id,
        "kernel": _kernel_to_doc(est.kernel),
        "training_hash": est.training_hash,
        "coefficients": {
            name: None if getattr(est, name) is None
            else [kind(v) for v in getattr(est, name).reshape(-1)]
            for name, kind in _ARRAYS.items()
        },
        "residual": est.residual,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def estimator_from_json(text, ts):
    """Rebuild an estimator from its JSON document plus the training set.

    The training set's content hash must match the document; support paths
    are taken from the set (via the stored support index for sorted fits).
    """
    doc = json.loads(text)
    h = content_hash(ts)
    if doc["training_hash"] != h:
        raise InputError(
            "training-set hash mismatch: document was fitted on different data"
        )
    co = doc["coefficients"]
    arrays = {name: None if co[name] is None else np.asarray(co[name], dtype=kind)
              for name, kind in _ARRAYS.items()}
    sup = arrays["support_index"]
    return Estimator(
        mode=doc["mode"],
        kernel=_kernel_from_doc(doc["kernel"]),
        lam=float(doc["lambda"]),
        n_train=int(doc["n_train"]),
        paths=np.array(ts.paths if sup is None else ts.paths[sup]),
        payoff_id=doc["payoff_id"],
        training_hash=doc["training_hash"],
        residual=float(doc.get("residual", float("nan"))),
        **arrays,
    )


def load_estimator(path, ts):
    with open(path) as fh:
        return estimator_from_json(fh.read(), ts)
