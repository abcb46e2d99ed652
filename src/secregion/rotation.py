"""Factor parameterization of trace-bounded PSD matrices and the
quasi-Newton searches built on it: one ascent (``ascend``) from a start
matrix (``mixed_start``), the one search driver that ranks ready
candidates and ascents by the true objective (``maximize_psd_objective``),
and the Frank-Wolfe gap (``fw_gap``) that tells whether a result is
stationary.  Every wiretap and multicast search runs through the driver.

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
``rotation.maximize_psd_objective`` by it, binds the driver's ``objective``,
``nt`` and ``search_objective`` arguments by name, and reads the value as
``[1]`` of its result.

``ascend`` imports ``scipy.optimize`` when it is first called, not with
the module.  Every CLI job imports this module, but only the jobs that run
an ascent need the optimizer: the equalized (case 3) multicast solves of
``ps``, and the wiretap solves of ``ps``, ``tdma`` and ``oma`` whose
legitimate receiver has more than one row.  ``scipy.optimize`` also loads
``scipy.linalg``, ``scipy.sparse``, ``scipy.special`` and
``scipy.spatial``.  No module of the package imports scipy when it is
loaded, as the small dense linear algebra comes from numpy's LAPACK
gufuncs, so a job that runs no ascent, no 3-D hull and no wiretap solve
loads no scipy at all.
"""

from __future__ import annotations

import numpy as np

# Least s^2 of a warm start: at full power s would be 0, where the search
# gradient in s vanishes and the start could never give power back.
_SLACK_FLOOR = 1e-8

# Share of the isotropic (budget/nt) I mixed into a start matrix.  Start
# matrices are often rank-deficient, and their factor then has exactly-zero
# columns, whose gradient is zero: the ascent could never raise the rank.
# The mix has full rank and keeps the trace.
_ISOTROPIC_MIX = 1e-3

# Knobs of the quasi-Newton searches.  ``N_STARTS`` counts the starts of
# the wiretap solve's restarts, the water-filling start plus random draws,
# which run only when its deterministic ascents end away from a
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

    from scipy.optimize import minimize

    def neg(x):
        value, grad = _factor_objective(search_objective, x, nt, budget)
        return -value, -grad

    options = {"maxiter": MAX_ITERS, "gtol": GTOL}
    res = minimize(neg, x0, jac=True, method="BFGS", options=options)
    # status 1 is the iteration cap; a line-search stall (status 2) means
    # no further improvement was possible and counts as a stop.
    return _decode(res.x, nt, budget), res.status != 1


def maximize_psd_objective(
    objective, nt: int, budget: float, candidates, starts, *, search_objective
) -> tuple:
    """The one search driver: the best of ready candidates and of ascents.

    ``candidates`` are ``(q, converged)`` pairs taken as they are, and each
    parameter vector in ``starts`` runs one ``ascend`` of
    ``search_objective``, the objective itself or a smoothed surrogate,
    mapping a matrix to ``(value, G)``.  ``objective`` maps an nt x nt PSD
    matrix with trace <= budget to the true value, and ranks the
    candidates and then the ascent results; the first of equals wins, as
    with ``max``.  Returns ``(q, value, converged)`` of the winner.
    """
    results = [*candidates, *(ascend(search_objective, x0, nt, budget) for x0 in starts)]
    values = [float(objective(q)) for q, _ in results]
    best = max(range(len(results)), key=values.__getitem__)
    q, converged = results[best]
    return q, values[best], converged
