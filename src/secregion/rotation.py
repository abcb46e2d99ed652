"""Factor parameterization of trace-bounded PSD matrices and the
multi-start quasi-Newton search built on it.

The search writes a covariance of size nt with trace at most ``budget`` as
Q = budget * B B^T / (||B||_F^2 + s^2), a Burer-Monteiro factor form
(Burer & Monteiro, Math. Prog. 2003) with one extra coordinate s that
absorbs unused power.  Every parameter vector x = (vec B, s) maps to a
feasible matrix, so the optimizer can never leave the feasible set, and
the gradient in x follows from the objective's gradient in Q by the chain
rule; no finite differences are taken.

The module keeps its name, ``rotation``, because ``bench/tracer.py`` wraps
``rotation.maximize_psd_objective`` by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

# Least s^2 of a warm start: at full power s would be 0, where the search
# gradient in s vanishes and the start could never give power back.
_SLACK_FLOOR = 1e-8


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


def _decode(x: np.ndarray, nt: int, budget: float) -> np.ndarray:
    """budget * B B^T / ||x||^2 for x = (vec B, s)."""
    b = x[:-1].reshape(nt, nt)
    return (budget / (x @ x)) * (b @ b.T)


def _encode(q: np.ndarray, nt: int, budget: float) -> np.ndarray:
    """A parameter vector that decodes to q (up to the slack floor).

    B is the scaled eigenbasis V diag(sqrt(w+ / budget)), and s takes up
    the unused share of the budget.
    """
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    fracs = np.maximum(w, 0.0) / budget
    slack = np.sqrt(max(1.0 - fracs.sum(), _SLACK_FLOOR))
    return np.append((v * np.sqrt(fracs)).ravel(), slack)


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


def maximize_psd_objective(
    objective,
    nt: int,
    budget: float,
    opts: SolverOptions | None = None,
    warm_q: np.ndarray | None = None,
    *,
    search_objective,
) -> tuple:
    """Multi-start quasi-Newton maximization of a function of a PSD matrix.

    ``objective`` maps an nt x nt PSD matrix with trace <= budget to the
    value being maximized and ranks the candidates.  ``search_objective``
    maps the same matrix to ``(value, G)``, the value the line searches
    follow (the objective itself or a smoothed surrogate) and its
    symmetric gradient G in the matrix.  The zero matrix and ``warm_q``
    are always evaluated as candidates, so the result can never fall
    below either; ``warm_q`` also seeds the first start, and the others
    are standard normal parameter vectors.

    Returns ``(q, value, converged)``.  Deterministic for a fixed seed;
    starts run sequentially in seed order.
    """
    opts = opts or SolverOptions()
    zero = np.zeros((nt, nt))
    if budget <= 0:
        return zero, float(objective(zero)), True

    rng = np.random.default_rng(opts.seed)
    starts = []
    if warm_q is not None:
        starts.append(_encode(warm_q, nt, budget))
    while len(starts) < opts.n_starts:
        starts.append(rng.standard_normal(nt * nt + 1))

    best_q = zero
    best_val = float(objective(zero))
    best_converged = True
    if warm_q is not None:
        v = float(objective(warm_q))
        if v > best_val:
            best_q, best_val, best_converged = np.array(warm_q, copy=True), v, True

    def neg(x):
        value, grad = _factor_objective(search_objective, x, nt, budget)
        return -value, -grad

    for x0 in starts:
        res = minimize(
            neg,
            x0,
            jac=True,
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
