"""Max-min covariance design for the shared message over two whitened links.

The structure has three regimes.  If one user's single-link optimum
already satisfies the other user, that water-filling matrix is globally
optimal (cases 1 and 2).  Otherwise the max-min optimum equalizes the two
rates (case 3).  Max-min is a concave program (Jindal & Luo, ISIT 2006),
and so is its smoothed minimum, the softmin of two concave link rates, so
case 3 runs one BFGS ascent of the softmin (``rotation.ascent``, the
package's own) over the factor form of ``rotation``, with no restarts,
through the search driver ``rotation.search_problems``.  The two
water-filling matrices stand as candidates, and the driver ranks them and
the ascent by the true minimum, which is also the reported rate.  The
case-3 ascents of several problems whose channels share their shapes run
together (``solve_multicasts``); ``solve_multicast`` is the one-problem
case.

The smoothed minimum is -log(exp(-k a) + exp(-k b)) / k; its gradient is
the softmax-weighted sum of the two rate gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .rates import gauss_rate, pair_rate_grad
from .rotation import Problem, Solved, factor_form, mixed_start, search_problems
from .types import as_channel_pair, check_budget
from .waterfill import waterfill

CASE_USER1_BINDING = "case1"
CASE_USER2_BINDING = "case2"
CASE_EQUALIZED = "case3"

# Exact equality of the two case tests classifies as the cheaper case.
_CASE_SLACK = 1e-10

# Sharpness of the smoothed minimum used for case-3 line searches; keeps
# the gradient defined at the kink while matching min() away from it.
SOFTMIN_SHARPNESS = 1e3


@dataclass(frozen=True)
class MulticastResult:
    q: np.ndarray
    rate: float
    case: str | None
    converged: bool


def _softmin(rates, grads) -> tuple:
    """Smoothed min of two link rates and its gradient, from the
    ``(rates, gradients)`` of ``rates.pair_rate_grad``."""
    ab = -SOFTMIN_SHARPNESS * rates
    lse = np.logaddexp(ab[0], ab[1])
    weighted = np.exp(ab - lse)[..., None, None] * grads
    return lse / -SOFTMIN_SHARPNESS, weighted[0] + weighted[1]


def _softmin_grad(h1w, h2w, q) -> tuple:
    """Smoothed min of the two link rates and its gradient in q, unchecked;
    ``q`` is one matrix or a (k, nt, nt) stack."""
    return _softmin(*pair_rate_grad(h1w, h2w)(q))


def _classified(h1w, h2w, p0: float) -> tuple:
    """``(case, q01, q02)``: the regime and the water-fillings it computed.

    ``q02`` is None in case 1, which never needs user 2's optimum.
    """
    q01, _ = waterfill(h1w, p0)
    if gauss_rate(h1w, q01) <= gauss_rate(h2w, q01) + _CASE_SLACK:
        return CASE_USER1_BINDING, q01, None
    q02, _ = waterfill(h2w, p0)
    if gauss_rate(h1w, q02) >= gauss_rate(h2w, q02) - _CASE_SLACK:
        return CASE_USER2_BINDING, q01, q02
    return CASE_EQUALIZED, q01, q02


def case_classify(h1w, h2w, p0: float) -> str:
    """Which regime the max-min design falls into for budget ``p0`` > 0."""
    h1w, h2w = as_channel_pair(h1w, h2w, "h1w", "h2w")
    if p0 <= 0:
        raise ValueError("classification needs a positive budget")
    return _classified(h1w, h2w, p0)[0]


def _min_rate(h1w: np.ndarray, h2w: np.ndarray, q) -> float:
    """The true max-min value: the lesser of the two link rates at q."""
    return min(gauss_rate(h1w, q), gauss_rate(h2w, q))


def _search_together(problems: list) -> Solved:
    """``rotation.search_problems`` on case-3 (h1w, h2w, p0, q01, q02)
    problems whose channels share their shapes: every row of a stacked
    call meets its own problem's links and budget."""
    nt = problems[0][0].shape[1]
    links = pair_rate_grad(
        np.array([h1w for h1w, *_ in problems]), np.array([h2w for _, h2w, *_ in problems])
    )
    # Water-filling is often rank-deficient, so the start is mixed.
    searches = [
        Problem(
            functools.partial(_min_rate, h1w, h2w),
            p0,
            [(q01, True), (q02, True)],
            [mixed_start(q01, nt, p0)],
        )
        for h1w, h2w, p0, q01, q02 in problems
    ]
    budgets = np.array([p0 for _, _, p0, _, _ in problems])
    in_factor = factor_form(lambda q, owner: _softmin(*links(q, owner)), nt, budgets)
    return search_problems(searches, nt, in_factor)


def solve_multicasts(problems) -> Solved:
    """``MulticastResult``s of (h1w, h2w, p0) problems, each bit for bit the
    one ``solve_multicast`` gives it alone.

    The case-3 ascents of the problems whose channels share their shapes
    run together, as one ``rotation.search_problems`` call; ``n_batches``
    and ``n_rows`` count the stacked search-objective calls and their rows.
    """
    checked = []
    for h1w, h2w, p0 in problems:
        h1w, h2w = as_channel_pair(h1w, h2w, "h1w", "h2w")
        check_budget(p0)
        checked.append((h1w, h2w, p0))
    results = [None] * len(checked)
    groups = {}
    for i, (h1w, h2w, p0) in enumerate(checked):
        nt = h1w.shape[1]
        if p0 == 0:
            results[i] = MulticastResult(np.zeros((nt, nt)), 0.0, None, True)
            continue
        case, q01, q02 = _classified(h1w, h2w, p0)
        if case == CASE_EQUALIZED:
            groups.setdefault((h1w.shape, h2w.shape), []).append((i, q01, q02))
            continue
        q = q01 if case == CASE_USER1_BINDING else q02
        results[i] = MulticastResult(q, _min_rate(h1w, h2w, q), case, True)
    n_batches = n_rows = 0
    for members in groups.values():
        found, batches, rows = _search_together([(*checked[i], *fills) for i, *fills in members])
        n_batches += batches
        n_rows += rows
        for (i, _, _), (q, rate, converged, _) in zip(members, found):
            results[i] = MulticastResult(q, rate, CASE_EQUALIZED, converged)
    return Solved(results, n_batches, n_rows)


def solve_multicast(h1w, h2w, p0: float) -> MulticastResult:
    """Covariance maximizing min of the two users' rates under trace <= p0:
    the one-problem case of ``solve_multicasts``."""
    return solve_multicasts([(h1w, h2w, p0)]).results[0]
