"""Rotation-plus-loading parameterization of trace-bounded PSD matrices,
and the multi-start quasi-Newton search built on top of it.

A covariance of size nt with trace at most ``budget`` is written as
V diag(loadings) V^T, where V is a product of nt*(nt-1)/2 plane rotations
taken in lexicographic index order and the loadings are nonnegative.  For
the unconstrained search, the loadings come from a softmax over nt + 1
logits scaled by the budget; the extra coordinate absorbs unused power, so
every parameter vector maps to a feasible matrix and the optimizer can
never leave the feasible set.

Gradients are central finite differences (relative step 1e-6); the search
dimension nt*(nt-1)/2 + nt + 1 is tiny at the problem sizes handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .types import as_matrix

_FD_REL_STEP = 1e-6
_LOGIT_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the multi-start quasi-Newton searches.

    ``n_starts`` counts the warm start plus the random restarts.  A start
    stops at the gradient tolerance ``gtol``, when the line search can no
    longer improve the objective, or at the ``max_iters`` cap; only
    hitting the cap marks the winning start as not converged.
    """

    max_iters: int = 500
    n_starts: int = 8
    seed: int = 0
    gtol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1 or self.n_starts < 1:
            raise ValueError("max_iters and n_starts must be positive")
        if self.gtol <= 0:
            raise ValueError("gtol must be positive")


def rotation_pairs(nt: int) -> list:
    """Lexicographic (p, q) index pairs, p < q, matching the angle ordering."""
    return [(p, q) for p in range(nt - 1) for q in range(p + 1, nt)]


def n_angles(nt: int) -> int:
    return nt * (nt - 1) // 2


def build_rotation(angles, nt: int) -> np.ndarray:
    """Orthogonal matrix from plane-rotation angles.

    The result is the product of the elementary rotations in increasing
    (p, q) order; each factor is an identity except for the 2x2 rotation
    block in rows and columns p and q.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.shape != (n_angles(nt),):
        raise ValueError(
            f"expected {n_angles(nt)} angles for nt = {nt}, got {angles.shape}"
        )
    v = np.eye(nt)
    for (p, q), th in zip(rotation_pairs(nt), angles):
        c, s = math.cos(th), math.sin(th)
        # Right-multiplying by the elementary factor touches columns p, q only.
        vp = c * v[:, p] + s * v[:, q]
        vq = -s * v[:, p] + c * v[:, q]
        v[:, p] = vp
        v[:, q] = vq
    return v


def angles_from_rotation(v) -> np.ndarray:
    """Angles that reproduce an orthogonal matrix through ``build_rotation``.

    Requires det(v) = +1; for a covariance eigenbasis this is no loss,
    since flipping one eigenvector column leaves V diag(w) V^T unchanged.
    The extraction peels one column sphere at a time; on the measure-zero
    configurations where a cosine product vanishes the remaining angles of
    the block are taken as zero.
    """
    v = as_matrix(v, "rotation")
    n = v.shape[0]
    if v.shape[0] != v.shape[1]:
        raise ValueError("rotation matrix must be square")
    if np.max(np.abs(v @ v.T - np.eye(n))) > 1e-8:
        raise ValueError("matrix is not orthogonal within 1e-8")
    if np.linalg.det(v) < 0:
        raise ValueError("matrix must have determinant +1")
    r = v.copy()
    out = []
    for p in range(n - 1):
        m = n - p
        col = r[p:, p]
        th = np.zeros(m - 1)
        cprod = 1.0
        for j in range(m - 1, 1, -1):
            if abs(cprod) < 1e-12:
                break
            s = float(np.clip(col[j] / cprod, -1.0, 1.0))
            th[j - 1] = math.asin(s)
            cprod *= math.cos(th[j - 1])
        if abs(cprod) >= 1e-12 and (abs(col[0]) + abs(col[1])) > 0:
            th[0] = math.atan2(col[1], col[0])
        g = np.eye(n)
        for j in range(1, m):
            c, s = math.cos(th[j - 1]), math.sin(th[j - 1])
            gj = np.eye(n)
            gj[p, p] = c
            gj[p, p + j] = -s
            gj[p + j, p] = s
            gj[p + j, p + j] = c
            g = g @ gj
        r = g.T @ r
        out.extend(th.tolist())
    if np.max(np.abs(r - np.eye(n))) > 1e-6:
        raise ValueError("angle extraction failed to reduce the matrix")
    return np.asarray(out, dtype=float)


@dataclass(frozen=True)
class RotationParam:
    """Angles plus nonnegative loadings parameterizing one covariance.

    When ``budget`` is given, the loading sum may not exceed it by more
    than 1e-9.
    """

    angles: np.ndarray
    loadings: np.ndarray
    budget: float | None = None

    def __post_init__(self):
        angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        loadings = np.atleast_1d(np.asarray(self.loadings, dtype=float))
        nt = loadings.size
        if angles.shape != (n_angles(nt),):
            raise ValueError(
                f"{angles.size} angles do not match {nt} loadings"
            )
        if np.any(loadings < -1e-12):
            raise ValueError("loadings must be nonnegative")
        if self.budget is not None and float(loadings.sum()) > self.budget + 1e-9:
            raise ValueError("loading sum exceeds the budget")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "loadings", np.maximum(loadings, 0.0))

    @property
    def nt(self) -> int:
        return self.loadings.size


def assemble_covariance(rp: RotationParam) -> np.ndarray:
    """V diag(loadings) V^T; PSD by construction with trace = sum(loadings)."""
    v = build_rotation(rp.angles, rp.nt)
    q = (v * rp.loadings) @ v.T
    return 0.5 * (q + q.T)


def _decode(x: np.ndarray, nt: int, budget: float) -> np.ndarray:
    m = n_angles(nt)
    z = x[m:] - x[m:].max()
    w = np.exp(z)
    w = w / w.sum()
    loadings = budget * w[:nt]
    v = build_rotation(x[:m], nt)
    q = (v * loadings) @ v.T
    return 0.5 * (q + q.T)


def _decode_batch(xs: np.ndarray, nt: int, budget: float) -> np.ndarray:
    """Vectorized ``_decode`` over rows of ``xs``; returns (k, nt, nt)."""
    k = xs.shape[0]
    m = n_angles(nt)
    z = xs[:, m:] - xs[:, m:].max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    loadings = budget * w[:, :nt]
    v = np.zeros((k, nt, nt))
    v.reshape(k, nt * nt)[:, :: nt + 1] = 1.0
    cos, sin = np.cos(xs[:, :m]), np.sin(xs[:, :m])
    for i, (p, q) in enumerate(rotation_pairs(nt)):
        c = cos[:, i, None]
        s = sin[:, i, None]
        vp = c * v[:, :, p] + s * v[:, :, q]
        vq = -s * v[:, :, p] + c * v[:, :, q]
        v[:, :, p] = vp
        v[:, :, q] = vq
    qs = np.einsum("kip,kp,kjp->kij", v, loadings, v)
    return 0.5 * (qs + np.transpose(qs, (0, 2, 1)))


def _warm_start(q: np.ndarray, nt: int, budget: float) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    if np.linalg.det(v) < 0:
        v = v.copy()
        v[:, 0] = -v[:, 0]
    try:
        angles = angles_from_rotation(v)
    except ValueError:
        angles = np.zeros(n_angles(nt))
    fracs = np.maximum(w, 0.0) / budget
    sink = max(1.0 - fracs.sum(), 0.0)
    logits = np.log(np.maximum(np.append(fracs, sink), _LOGIT_FLOOR))
    return np.concatenate([angles, logits])


def _fd_points(x: np.ndarray) -> tuple:
    """Stacked x +- step*e_i rows for a central difference, plus the steps."""
    n = x.size
    steps = _FD_REL_STEP * np.maximum(1.0, np.abs(x))
    pts = np.empty((2 * n, n))
    pts[:] = x
    # Row 2i holds x + steps_i e_i, row 2i + 1 holds x - steps_i e_i; in the
    # flattened rows those entries lie 2n + 1 apart.
    flat = pts.reshape(-1)
    flat[:: 2 * n + 1] = x + steps
    flat[n :: 2 * n + 1] = x - steps
    return pts, steps


def maximize_psd_objective(
    objective,
    nt: int,
    budget: float,
    opts: SolverOptions | None = None,
    warm_q: np.ndarray | None = None,
    search_objective=None,
    *,
    batch_search,
) -> tuple:
    """Multi-start quasi-Newton maximization of a function of a PSD matrix.

    ``objective`` maps an nt x nt PSD matrix with trace <= budget to the
    value being maximized; ``search_objective`` may supply a smoothed
    surrogate for the line searches while ranking still uses the true
    objective.  ``batch_search`` maps a (k, nt, nt) covariance stack to
    the k values of the search objective; it evaluates all points of each
    central-difference gradient in one call.  The zero matrix and
    ``warm_q`` are always evaluated as candidates, so the result can never
    fall below either.

    Returns ``(q, value, converged)``.  Deterministic for a fixed seed;
    starts run sequentially in seed order.
    """
    opts = opts or SolverOptions()
    zero = np.zeros((nt, nt))
    if budget <= 0:
        return zero, float(objective(zero)), True
    search = search_objective if search_objective is not None else objective

    rng = np.random.default_rng(opts.seed)
    m = n_angles(nt)
    starts = []
    if warm_q is not None:
        starts.append(_warm_start(warm_q, nt, budget))
    while len(starts) < opts.n_starts:
        angles = rng.uniform(0.0, math.pi, size=m)
        fracs = rng.dirichlet(np.ones(nt + 1))
        starts.append(
            np.concatenate([angles, np.log(np.maximum(fracs, _LOGIT_FLOOR))])
        )

    best_q = zero
    best_val = float(objective(zero))
    best_converged = True
    if warm_q is not None:
        v = float(objective(warm_q))
        if v > best_val:
            best_q, best_val, best_converged = np.array(warm_q, copy=True), v, True

    def neg(x):
        return -search(_decode(x, nt, budget))

    def neg_grad(x):
        pts, steps = _fd_points(x)
        vals = -np.asarray(batch_search(_decode_batch(pts, nt, budget)))
        return (vals[0::2] - vals[1::2]) / (2.0 * steps)

    for x0 in starts:
        res = minimize(
            neg,
            x0,
            jac=neg_grad,
            method="BFGS",
            options={"maxiter": opts.max_iters, "gtol": opts.gtol},
        )
        q = _decode(res.x, nt, budget)
        val = float(objective(q))
        if val > best_val:
            best_q, best_val = q, val
            # status 1 is the iteration cap; a line-search stall (status 2)
            # means no further improvement was possible and counts as a stop.
            best_converged = res.status != 1
    return best_q, best_val, best_converged
