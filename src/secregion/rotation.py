"""Factor parameterization of trace-bounded PSD matrices and the
quasi-Newton searches built on it: one BFGS ascent (``ascent``) from a
start matrix (``mixed_start``), the one search driver that runs its
ascents together and ranks ready candidates and ascent results by the
true objective (``maximize_psd_objective``), and the Frank-Wolfe gap
(``fw_gap``) that tells whether a result is stationary.  Every wiretap,
multicast and scenario-C WSR search runs through the driver.

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

``ascent`` is a generator: it yields each parameter vector x where it
needs the objective and is sent back ``(value, gradient in x)``.  So the
driver runs all of its starts in lockstep (``_lockstep``): on each step
it stacks the pending vectors of the unfinished ascents into one (k, n)
array, n = nt^2 + 1, and makes one call of the search objective, which
maps that stack to a (k,) array of values and a (k, n) array of
gradients.  Each row rounds as it would alone, so each ascent takes the
steps it would take alone, bit for bit; a single start is a stack of one
row (``ascend``).  The search objectives are natural in the matrix, a
(k, nt, nt) stack, and ``factor_form`` carries such an objective
``(values, G)`` to x by the chain rule.  The secret-DPC corner of
``corner`` is natural in the factor F of Q = F F^T instead, and
``root_form`` carries its ``(values, G_F)``.

The ascent is a BFGS ascent of the package's own (Nocedal & Wright,
"Numerical Optimization", 2nd ed.: the inverse update of eq. 6.17 and the
strong-Wolfe line search of Alg. 3.5/3.6), written in numpy over the
factor vector x of nt^2 + 1 entries (26 at nt 5).  On vectors this small
the general-purpose ``scipy.optimize.minimize`` spent more time in its own
bookkeeping than in the objective.  No module of the package imports
scipy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Least s^2 of a warm start: at full power s would be 0, where the search
# gradient in s vanishes and the start could never give power back.
_SLACK_FLOOR = 1e-8

# Share of the isotropic (budget/nt) I mixed into a start matrix.  Start
# matrices are often rank-deficient, and their factor then has exactly-zero
# columns, whose gradient is zero: the ascent could never raise the rank.
# The mix has full rank and keeps the trace.
_ISOTROPIC_MIX = 1e-3

# Knobs of the quasi-Newton searches.  An ascent stops when the largest
# entry of its gradient in x is at most ``GTOL``, when the line search
# finds no acceptable step along the gradient, or at the ``MAX_ITERS``
# cap; only hitting the cap marks it as not converged.
MAX_ITERS = 500
GTOL = 1e-7

# Strong Wolfe constants of the line search (sufficient decrease c1 and
# curvature c2, Nocedal & Wright's choice for quasi-Newton steps), and its
# cap on the trial steps of each of its two phases.
_C1 = 1e-4
_C2 = 0.9
_MAX_TRIALS = 20
_EPS = float(np.finfo(float).eps)


def _decode(x: np.ndarray, nt: int, budget: float) -> np.ndarray:
    """budget * B B^T / ||x||^2 for each row x = (vec B, s) of ``x``: one
    matrix for a vector, a (k, nt, nt) stack for a (k, nt^2 + 1) stack.

    ``np.vecdot`` takes each row's ||x||^2 with the dot product of ``x @
    x``, bit for bit; ``einsum`` and ``(x * x).sum(-1)`` round differently.
    """
    b = x[..., :-1].reshape(*x.shape[:-1], nt, nt)
    return (budget / np.vecdot(x, x))[..., None, None] * (b @ b.mT)


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
    return float(budget * max(top, 0.0) - np.vdot(g, q))


def factor_form(search_objective, nt: int, budget: float):
    """The objective of a (k, nt^2 + 1) stack of factor vectors that
    ``search_objective``, a map from a (k, nt, nt) stack of feasible
    matrices to ``(values, G)``, a (k,) array and a stack, gives at
    ``_decode(x)``.

    With c = ||x||^2, G the (symmetric) gradient in Q and <G, Q> their
    inner product, the chain rule gives 2/c (budget G B - <G, Q> B) for B
    and -2 <G, Q> s / c for s.  c and <G, Q> are ``np.vecdot``s of rows,
    which round as ``x @ x`` and ``np.vdot`` do.
    """

    def in_factor(x):
        k = len(x)
        b = x[:, :-1].reshape(k, nt, nt)
        c = np.vecdot(x, x)
        c3 = c[:, None, None]
        q = (budget / c3) * (b @ b.mT)  # _decode(x), sharing b and c
        value, g = search_objective(q)
        gq = np.vecdot(g.reshape(k, -1), q.reshape(k, -1))
        grad = np.empty_like(x)
        grad[:, :-1] = ((2.0 / c3) * (budget * (g @ b) - gq[:, None, None] * b)).reshape(k, -1)
        grad[:, -1] = -2.0 * gq * x[:, -1] / c
        return value, grad

    return in_factor


def root_form(objective, nt: int, budget: float):
    """The objective of a stack of factor vectors for ``objective``, a map
    from a (k, nt, nt) stack of factors F of Q = F F^T to ``(values,
    G_F)``, the gradients in F.

    F = a B with a = sqrt(budget / c) and c = ||x||^2, so that F F^T is
    ``_decode(x)``; the chain rule gives a (G_F - <G_F, B> B / c) for B and
    -a <G_F, B> s / c for s, the products taken as in ``factor_form``.
    """

    def in_factor(x):
        k = len(x)
        b = x[:, :-1].reshape(k, nt, nt)
        c = np.vecdot(x, x)
        a = np.sqrt(budget / c)
        a3 = a[:, None, None]
        value, g = objective(a3 * b)
        gb = np.vecdot(g.reshape(k, -1), x[:, :-1])
        grad = np.empty_like(x)
        grad[:, :-1] = (a3 * (g - (gb / c)[:, None, None] * b)).reshape(k, -1)
        grad[:, -1] = -a * gb * x[:, -1] / c
        return value, grad

    return in_factor


def _cubic_step(a, fa, da, b, fb, db):
    """Minimizer of the cubic through (a, fa, da) and (b, fb, db), clipped
    to the middle 80% of the interval; the midpoint when the cubic has no
    minimizer (Nocedal & Wright, eq. 3.59)."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0.0:
        return 0.5 * (a + b)
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return 0.5 * (a + b)
    t = b - (b - a) * (db + d2 - d1) / denom
    lo, hi = min(a, b), max(a, b)
    pad = 0.1 * (hi - lo)
    return min(max(t, lo + pad), hi - pad)


def _point(step, xa, value, grad, p) -> tuple:
    """A line search's trial at ``step``, the point ``xa``: ``(step, f,
    slope along p, xa, g)``, f and g the negated ``value`` and ``grad``
    that the search minimizes.  The scalars are Python floats, which round
    as numpy's do and cost less to compare."""
    ga = -grad
    return step, -value, float(ga @ p), xa, ga


def _wolfe_step(x, f0, g0, p, step):
    """A step along ``p`` that meets the strong Wolfe conditions for
    minimizing f, as a generator: it yields each trial point, is sent the
    ``(value, gradient)`` to raise there, and returns ``(x, f, g)`` at the
    step, or None when none is found.

    Bracketing (Nocedal & Wright, Alg. 3.5) triples the trial ``step`` until
    it passes a minimizer along the line, and zoom (Alg. 3.6) shrinks the
    bracket by cubic interpolation.  Each trial costs one evaluation,
    which gives the slope along ``p`` too.  The zoom gives up once the
    bracket is so short that the decrease it could still show is below
    the rounding of ``f0``.
    """
    d0 = float(g0 @ p)
    if not d0 < 0.0:
        return None

    def decreases(t, best):
        """Sufficient decrease at t, and a value below the best so far."""
        return t[1] <= f0 + _C1 * t[0] * d0 and t[1] < best[1]

    def flat(t):
        """Strong curvature condition: the slope has flattened enough."""
        return abs(t[2]) <= -_C2 * d0

    prev = (0.0, f0, d0, x, g0)
    for _ in range(_MAX_TRIALS):
        xa = x + step * p
        t = _point(step, xa, *(yield xa), p)
        if not decreases(t, prev):
            lo, hi = prev, t
            break
        if flat(t):
            return t[3], t[1], t[4]
        if t[2] >= 0.0:
            lo, hi = t, prev
            break
        prev, step = t, 3.0 * step
    else:
        return None
    for _ in range(_MAX_TRIALS):
        if abs(hi[0] - lo[0]) * -d0 <= _EPS * abs(f0):
            return None
        step = _cubic_step(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2])
        xa = x + step * p
        t = _point(step, xa, *(yield xa), p)
        if not decreases(t, lo):
            hi = t
        elif flat(t):
            return t[3], t[1], t[4]
        else:
            if t[2] * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = t
    return None


def ascent(x0: np.ndarray, nt: int, budget: float):
    """One BFGS ascent from parameter vector ``x0``, as a generator.

    It yields each parameter vector x where it needs the objective, and is
    sent back ``(value, gradient in x)`` of the value to raise at
    ``_decode(x)``; it returns ``(q, converged)``, ``q`` being ``_decode``
    of the last x.  The first x yielded is ``x0``.  The ascent minimizes
    the negated value over x.  Its inverse Hessian estimate
    starts as the identity and takes the BFGS update after every step
    whose curvature s.y is positive (Nocedal & Wright, eq. 6.17); steps
    come from ``_wolfe_step``, so the value never falls.  When the line
    search finds no step along the quasi-Newton direction, the estimate
    is reset to the identity and the search retried along the gradient.
    ``converged`` is False only when the ascent reached ``MAX_ITERS``
    iterations with the gradient still above ``GTOL``; a line search that
    finds no step along the gradient ends it as converged, since no
    further improvement was found.
    """
    x = np.asarray(x0, dtype=float)
    value, grad = yield x
    f, g = -value, -grad
    h = np.eye(x.size)
    fresh = True
    for k in range(MAX_ITERS + 1):
        if abs(g).max() <= GTOL:
            break
        if k == MAX_ITERS:
            return _decode(x, nt, budget), False
        # A step along the gradient (H the identity) first moves x by a
        # length of 1; a quasi-Newton step first tries its full length.
        step = 1.0 / math.sqrt(g @ g) if fresh else 1.0
        found = yield from _wolfe_step(x, f, g, -(h @ g), step)
        if found is None:
            if fresh:
                break
            # A badly scaled H can fail where the gradient would not: retry
            # from the identity before stopping.
            h, fresh = np.eye(x.size), True
            continue
        fresh = False
        x_new, f, g_new = found
        s, y = x_new - x, g_new - g
        x, g = x_new, g_new
        sy = s @ y
        if sy > 0.0:
            # H + a s s^T - (H y s^T + s y^T H) / sy, a = (sy + y.Hy) / sy^2
            hy = h @ y
            m = s[:, None] * ((0.5 * (sy + y @ hy) / sy**2) * s - hy / sy)
            h += m + m.T
    return _decode(x, nt, budget), True


def _lockstep(search_objective, starts, nt: int, budget: float) -> list:
    """The ``(q, converged)`` of an ``ascent`` from each of ``starts``, run
    together.

    Each step stacks the pending parameter vectors of the unfinished
    ascents into one (k, nt^2 + 1) array, makes one ``search_objective``
    call on it and sends each ascent its row of the ``(values, gradients)``,
    a (k,) and a (k, nt^2 + 1) array.  An ascent's rows are those it would
    get alone, so every ascent ends where it would alone, bit for bit.
    """
    runs = [ascent(x0, nt, budget) for x0 in starts]
    pending = [next(run) for run in runs]
    ends = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        values, grads = search_objective(np.array([pending[i] for i in live]))
        still = []
        for i, value, grad in zip(live, values.tolist(), grads):
            try:
                pending[i] = runs[i].send((value, grad))
                still.append(i)
            except StopIteration as stop:
                ends[i] = stop.value
        live = still
    return ends


def ascend(search_objective, x0: np.ndarray, nt: int, budget: float) -> tuple:
    """``(q, converged)`` of one ``ascent`` from ``x0``: the lockstep
    driver run on one start, ``search_objective`` taking (1, nt^2 + 1)
    stacks."""
    return _lockstep(search_objective, [x0], nt, budget)[0]


class Search(NamedTuple):
    """The driver's winner: its matrix, true value and convergence flag,
    and how many of the ascents (not the candidates) hit ``MAX_ITERS``."""

    q: np.ndarray
    value: float
    converged: bool
    n_unconverged: int


def maximize_psd_objective(
    objective, nt: int, budget: float, candidates, starts, *, search_objective
) -> Search:
    """The one search driver: the best of ready candidates and of ascents.

    ``candidates`` are ``(q, converged)`` pairs taken as they are, and each
    parameter vector in ``starts`` runs one ``ascent`` of
    ``search_objective``, the objective itself or a smoothed or rescaled
    surrogate, as a function of a (k, nt^2 + 1) stack of factor vectors
    (see ``factor_form``); the ascents run in lockstep (``_lockstep``),
    one ``search_objective`` call per step for all of them.
    ``objective`` maps an nt x nt PSD matrix with trace <= budget to the
    true value, and ranks the candidates and then the ascent results; the
    first of equals wins, as with ``max``.
    """
    ascents = _lockstep(search_objective, starts, nt, budget)
    results = [*candidates, *ascents]
    values = [float(objective(q)) for q, _ in results]
    best = max(range(len(results)), key=values.__getitem__)
    q, converged = results[best]
    return Search(q, values[best], converged, sum(not c for _, c in ascents))
