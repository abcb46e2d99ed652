"""Factor parameterization of trace-bounded PSD matrices and the
quasi-Newton searches built on it: one ascent (``ascend``) from a start
matrix (``mixed_start``), the multi-start search that runs several
(``maximize_psd_objective``), and the Frank-Wolfe gap (``fw_gap``) that
tells whether a result is stationary.

The search writes a covariance of size nt with trace at most ``budget`` as
Q = budget * B B^T / (||B||_F^2 + s^2), a Burer-Monteiro factor form
(Burer & Monteiro, Math. Prog. 2003) with one extra coordinate s that
absorbs unused power.  Every parameter vector x = (vec B, s) maps to a
feasible matrix, so the optimizer can never leave the feasible set, and
the gradient in x follows from the objective's gradient in Q by the chain
rule; no finite differences are taken.

Over the set {Q PSD, tr Q <= budget} the Frank-Wolfe gap of an objective
with gradient G at Q is max over S in the set of <G, S - Q>, which is
budget * max(lambda_max(G), 0) - <G, Q>.  It is nonnegative and vanishes
exactly at the first-order stationary points, global optima included.

The module keeps its name, ``rotation``, because ``bench/tracer.py`` wraps
``rotation.maximize_psd_objective`` by it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

# Least s^2 of a warm start: at full power s would be 0, where the search
# gradient in s vanishes and the start could never give power back.
_SLACK_FLOOR = 1e-8

# Share of the isotropic (budget/nt) I mixed into a start matrix.  Start
# matrices are often rank-deficient, and their factor then has exactly-zero
# columns, whose gradient is zero: the ascent could never raise the rank.
# The mix has full rank and keeps the trace.
_ISOTROPIC_MIX = 1e-3

# Knobs of the quasi-Newton searches.  ``N_STARTS`` caps the starts of the
# multi-start search, the warm start plus random restarts, which the
# wiretap solve runs only when its deterministic ascents end away from a
# stationary point.  An ascent stops at the gradient tolerance ``GTOL``,
# when the line search can no longer improve the objective, or at the
# ``MAX_ITERS`` cap; only hitting the cap marks it as not converged.
MAX_ITERS = 500
N_STARTS = 8
GTOL = 1e-7


def _decode(x: np.ndarray, nt: int, budget: float) -> np.ndarray:
    """budget * B B^T / ||x||^2 for x = (vec B, s)."""
    b = x[:-1].reshape(nt, nt)
    return (budget / (x @ x)) * (b @ b.T)


def encode(q: np.ndarray, nt: int, budget: float) -> np.ndarray:
    """A parameter vector that decodes to q (up to the slack floor).

    B is the scaled eigenbasis V diag(sqrt(w+ / budget)), and s takes up
    the unused share of the budget.
    """
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    fracs = np.maximum(w, 0.0) / budget
    slack = np.sqrt(max(1.0 - fracs.sum(), _SLACK_FLOOR))
    return np.append((v * np.sqrt(fracs)).ravel(), slack)


def mixed_start(q: np.ndarray, nt: int, budget: float) -> np.ndarray:
    """Parameter vector of q mixed with ``_ISOTROPIC_MIX`` of (budget/nt) I."""
    start = (1.0 - _ISOTROPIC_MIX) * q + (_ISOTROPIC_MIX * budget / nt) * np.eye(nt)
    return encode(start, nt, budget)


def fw_gap(g: np.ndarray, q: np.ndarray, budget: float) -> float:
    """Frank-Wolfe gap budget * max(lambda_max(G), 0) - <G, Q> at q."""
    top = np.linalg.eigvalsh(g)[-1]
    return float(budget * max(top, 0.0) - np.tensordot(g, q))


def _factor_objective(search_objective, x: np.ndarray, nt: int, budget: float):
    """``(value, gradient in x)`` of ``search_objective`` at ``_decode(x)``.

    With c = ||x||^2, G the (symmetric) gradient in Q and <G, Q> their
    inner product, the chain rule gives 2/c (budget G B - <G, Q> B) for B
    and -2 <G, Q> s / c for s.
    """
    q = _decode(x, nt, budget)
    value, g = search_objective(q)
    c = x @ x
    b = x[:-1].reshape(nt, nt)
    gq = np.tensordot(g, q)
    grad = np.empty_like(x)
    grad[:-1] = ((2.0 / c) * (budget * (g @ b) - gq * b)).ravel()
    grad[-1] = -2.0 * gq * x[-1] / c
    return value, grad


def ascend(search_objective, x0: np.ndarray, nt: int, budget: float) -> tuple:
    """One BFGS ascent from parameter vector ``x0``; returns ``(q, converged)``.

    ``search_objective`` maps a feasible matrix to ``(value, G)``, the value
    to raise and its symmetric gradient G in the matrix.
    """

    def neg(x):
        value, grad = _factor_objective(search_objective, x, nt, budget)
        return -value, -grad

    options = {"maxiter": MAX_ITERS, "gtol": GTOL}
    res = minimize(neg, x0, jac=True, method="BFGS", options=options)
    # status 1 is the iteration cap; a line-search stall (status 2) means
    # no further improvement was possible and counts as a stop.
    return _decode(res.x, nt, budget), res.status != 1


def maximize_psd_objective(
    objective,
    nt: int,
    budget: float,
    warm_q: np.ndarray | None = None,
    *,
    search_objective,
) -> tuple:
    """Multi-start quasi-Newton maximization of a function of a PSD matrix,
    the wiretap solve's fallback when its deterministic result is not
    stationary.

    ``objective`` maps an nt x nt PSD matrix with trace <= budget to the
    value being maximized and ranks the candidates.  Each start runs one
    ``ascend`` of ``search_objective``, the objective itself or a smoothed
    surrogate with its gradient.  The zero matrix and ``warm_q`` are
    always evaluated as candidates, so the result can never fall below
    either; ``warm_q`` is also the first start, and the others are
    standard normal parameter vectors from one fixed stream,
    ``default_rng(0)``.

    Returns ``(q, value, converged)``, the same on every call with the
    same arguments; starts run sequentially.
    """
    zero = np.zeros((nt, nt))
    if budget <= 0:
        return zero, float(objective(zero)), True

    rng = np.random.default_rng(0)
    starts = [] if warm_q is None else [encode(warm_q, nt, budget)]
    while len(starts) < N_STARTS:
        starts.append(rng.standard_normal(nt * nt + 1))

    best_q = zero
    best_val = float(objective(zero))
    best_converged = True
    if warm_q is not None:
        v = float(objective(warm_q))
        if v > best_val:
            best_q, best_val, best_converged = np.array(warm_q, copy=True), v, True

    for x0 in starts:
        q, converged = ascend(search_objective, x0, nt, budget)
        val = float(objective(q))
        if val > best_val:
            best_q, best_val, best_converged = q, val, converged
    return best_q, best_val, best_converged
