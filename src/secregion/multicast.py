"""Max-min covariance design for the shared message over two whitened links.

The structure has three regimes.  If one user's single-link optimum
already satisfies the other user, that water-filling matrix is globally
optimal (cases 1 and 2).  Otherwise the max-min optimum equalizes the two
rates and is found by the rotation-parameterized multi-start search on a
smoothed minimum (case 3); the reported rate always re-evaluates the true
minimum.

The smoothed minimum is -log(exp(-k a) + exp(-k b)) / k, written out with
the floating-point operations of scipy's ``logsumexp`` (1.17) in its order:
it gives that function's values bit for bit without its per-call overhead,
which on two numbers outweighs the arithmetic many times over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rates import gauss_rate, link_rate_batch_fn, link_rate_fn
from .rotation import SolverOptions, maximize_psd_objective
from .types import DimensionError, as_matrix
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


def _softmin(a, b):
    """Smoothed min(a, b), elementwise over scalars or equal-length rows.

    For x = -k (a, b) with hi = max(x): m counts the entries equal to hi
    (2 on an exact tie), s = exp(lo - hi) or 0 on a tie, and the value is
    -(log1p(s) + log(m) + hi) / k, exactly as ``logsumexp`` sums it.
    """
    xa = -SOFTMIN_SHARPNESS * np.asarray(a, dtype=float)
    xb = -SOFTMIN_SHARPNESS * np.asarray(b, dtype=float)
    hi = np.maximum(xa, xb)
    tie = xa == xb
    s = np.where(tie, 0.0, np.exp(np.minimum(xa, xb) - hi))
    out = np.log1p(s) + np.log(np.where(tie, 2.0, 1.0)) + hi
    return -out / SOFTMIN_SHARPNESS


def _validated(h1w, h2w):
    h1w = as_matrix(h1w, "h1w")
    h2w = as_matrix(h2w, "h2w")
    if h1w.shape[1] != h2w.shape[1]:
        raise DimensionError(
            f"channels must share the column count, got {h1w.shape} and {h2w.shape}"
        )
    return h1w, h2w


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
    h1w, h2w = _validated(h1w, h2w)
    if p0 <= 0:
        raise ValueError("classification needs a positive budget")
    return _classified(h1w, h2w, p0)[0]


def solve_multicast(
    h1w, h2w, p0: float, opts: SolverOptions | None = None
) -> MulticastResult:
    """Covariance maximizing min of the two users' rates under trace <= p0."""
    h1w, h2w = _validated(h1w, h2w)
    if p0 < 0:
        raise ValueError("power budget must be nonnegative")
    nt = h1w.shape[1]
    if p0 == 0:
        return MulticastResult(np.zeros((nt, nt)), 0.0, None, True)

    def min_rate(q):
        return min(gauss_rate(h1w, q), gauss_rate(h2w, q))

    case, q01, q02 = _classified(h1w, h2w, p0)
    if case == CASE_USER1_BINDING:
        return MulticastResult(q01, min_rate(q01), case, True)
    if case == CASE_USER2_BINDING:
        return MulticastResult(q02, min_rate(q02), case, True)

    f1, f2 = link_rate_fn(h1w), link_rate_fn(h2w)
    b1, b2 = link_rate_batch_fn(h1w), link_rate_batch_fn(h2w)
    q, _, converged = maximize_psd_objective(
        lambda q: min(f1(q), f2(q)),
        nt,
        p0,
        opts=opts,
        warm_q=q01,
        search_objective=lambda q: float(_softmin(f1(q), f2(q))),
        batch_search=lambda qs: _softmin(b1(qs), b2(qs)),
    )
    # Report through the stock evaluator; the other single-user optimum is
    # a candidate the search did not start from.
    rate = min_rate(q)
    alt = min_rate(q02)
    if alt > rate:
        q, rate, converged = q02, alt, True
    return MulticastResult(q, rate, case, converged)
