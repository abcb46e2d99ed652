"""Power-splitting driver: per-split solves, region sweeps, and hulls.

One split assigns fractions of the power budget to the first-encoded
user's message, the second user's message, and the shared message, then
solves the three stages in that sequence: an interference-free design for
the first message (water-filling or wiretap search by scenario), a design
on the interference-whitened channel for the second, and a max-min design
on the residual-whitened channels for the shared message.

``solve_split`` and ``sweep_points`` share one per-split pipeline and
return its record, ``SplitResult``; the sweep only caches the first
stage, which depends on its own budget alone.
Each split's covariance triple is rated by a single ``evaluate_triple``
call on the original channels, the reported truth.  The rates that the
second and common stages found on their whitened channels must match
that call's rates for the same messages; a disagreement beyond 1e-9
raises ``ConsistencyError``, keeping the transform identities
load-bearing.

The hulls of regions without a common message are 2-D, over (r1, r2),
and Andrew's monotone chain builds them here.  ``scipy.spatial`` (Qhull)
builds only the 3-D hulls, and ``scipy.optimize`` serves only
``region_contains``, its one user in the package (the searches run the
package's own BFGS ascent); both are imported where they are called.
Loading them with the module took about 40% of the time a fresh process
needs to import ``secregion.cli``, and most CLI jobs never call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .multicast import solve_multicast
from .rates import evaluate_triple
from .transforms import whiten_multicast, whiten_p2p, whiten_wiretap
from .types import (
    ORDER_12,
    ORDER_21,
    ORDER_NA,
    ChannelPair,
    ConsistencyError,
    CovarianceTriple,
    PowerSplit,
    RateRegion,
    RateTriple,
    Scenario,
    check_budget,
    pareto_filter,
)
from .waterfill import waterfill
from .wiretap import solve_wiretap

# Budgets this small relative to the total are solver noise, not power.
_BUDGET_FLOOR_REL = 1e-12

# Whitened-solver rates must match original-channel rates to this bound.
_EQUIV_TOL = 1e-9

# The 2-D hull keeps a point a between o and b only when a lies left of
# the line o -> b by more than this share of the largest coordinate, so
# that points within rounding of an edge are not vertices, as in Qhull's
# hull (whose margin is about 3e-15 of the largest coordinate).  A margin
# relative to |a - o| instead would keep rounding noise at a point close
# to o.
_COLLINEAR_REL = 1e-13


@dataclass(frozen=True)
class SplitResult:
    """One solved split; its encoding order is ``rates.order``."""

    split: PowerSplit
    cov: CovarianceTriple
    rates: RateTriple
    converged: bool


def _effective(budget: float, p: float) -> float:
    return budget if budget > _BUDGET_FLOOR_REL * p else 0.0


def _stage_first(work: ChannelPair, scenario: Scenario, p1: float):
    """First-encoded user's covariance on the working channel pair."""
    nt = work.nt
    if p1 == 0:
        return np.zeros((nt, nt)), True
    if scenario.user1_confidential:
        res = solve_wiretap(work.h1, work.h2, p1)
        return res.q, res.converged
    q, _ = waterfill(work.h1, p1)
    return q, True


def _stage_second(work: ChannelPair, scenario: Scenario, qa, p2: float):
    """Second user's covariance given the first layer, via whitening."""
    nt = work.nt
    if p2 == 0:
        return np.zeros((nt, nt)), 0.0, True
    if scenario.user2_confidential:
        h1w, h2w = whiten_wiretap(work, qa)
        res = solve_wiretap(h2w, h1w, p2)
        return res.q, res.rate, res.converged
    qb, rate = waterfill(whiten_p2p(work.h2, qa), p2)
    return qb, rate, True


def _stage_common(work: ChannelPair, qa, qb, p0: float):
    """Shared-message covariance on the residual-whitened channels."""
    nt = work.nt
    if p0 == 0:
        return np.zeros((nt, nt)), 0.0, True
    g1, g2 = whiten_multicast(work, qa, qb)
    res = solve_multicast(g1, g2, p0)
    return res.q, res.rate, res.converged


def _solve_cell(
    ch: ChannelPair,
    scenario: Scenario,
    split: PowerSplit,
    p: float,
    order: str,
    first: tuple,
) -> SplitResult:
    """Finish one split from its first stage ``(qa, converged)``.

    Runs the second and common stages, rates the triple once on the
    original pair, and requires both whitened-channel rates to match the
    rates ``evaluate_triple`` reports; under order "21" the second-encoded
    user is user 1.
    """
    qa, conv1 = first
    work = ch.swapped() if order == ORDER_21 else ch
    qb, rate_b, conv2 = _stage_second(work, scenario, qa, _effective(split.alpha2 * p, p))
    q0, rate_0, conv0 = _stage_common(work, qa, qb, _effective(split.alpha0 * p, p))
    q1, q2 = (qb, qa) if order == ORDER_21 else (qa, qb)
    cov = CovarianceTriple(q0, q1, q2, p)
    rates = evaluate_triple(ch, scenario, cov, order)
    second = rates.r1 if order == ORDER_21 else rates.r2
    for stage, whitened, original in (
        ("second-stage", rate_b, second),
        ("multicast", rate_0, rates.r0),
    ):
        if abs(original - whitened) > _EQUIV_TOL:
            raise ConsistencyError(
                f"whitened {stage} rate {whitened} disagrees with the "
                f"original-channel rate {original} beyond {_EQUIV_TOL}"
            )
    return SplitResult(split, cov, rates, conv1 and conv2 and conv0)


def solve_split(
    ch: ChannelPair,
    scenario: Scenario,
    split: PowerSplit,
    p: float,
    order: str = ORDER_12,
) -> SplitResult:
    """Solve one power split end to end and report original-channel rates."""
    if order not in (ORDER_12, ORDER_21):
        raise ValueError(f"order must be '12' or '21', got {order!r}")
    if order == ORDER_21 and not scenario.allows_order_swap:
        raise ValueError("scenario B supports only the '12' encoding order")
    check_budget(p)
    if not scenario.common_enabled and split.alpha0 * p > _BUDGET_FLOOR_REL * p:
        raise ValueError("alpha0 must be 0 when the common message is disabled")

    work = ch.swapped() if order == ORDER_21 else ch
    first = _stage_first(work, scenario, _effective(split.alpha1 * p, p))
    return _solve_cell(ch, scenario, split, p, order, first)


def _alpha_grid(eps1: float, upper: float) -> list:
    """Grid 0, eps1, 2*eps1, ... with the endpoint ``upper`` included exactly."""
    if upper < 1e-12:
        return [0.0]
    vals = []
    k = 0
    while k * eps1 < upper - 1e-12:
        vals.append(k * eps1)
        k += 1
    vals.append(upper)
    return vals


def sweep_points(ch: ChannelPair, scenario: Scenario, p: float, eps1: float) -> list:
    """``SplitResult``s of all grid splits in every applicable encoding order.

    The first-stage solution depends only on its own budget, so it is
    cached per (order, alpha1) cell; cells are visited in a fixed order,
    so the same problem always gives the same points.
    """
    if not 0.0 < eps1 <= 0.5:
        raise ValueError("eps1 must lie in (0, 0.5]")
    check_budget(p)
    points = []
    for order in scenario.orders:
        work = ch.swapped() if order == ORDER_21 else ch
        for a1 in _alpha_grid(eps1, 1.0):
            first = _stage_first(work, scenario, _effective(a1 * p, p))
            a2_values = (
                _alpha_grid(eps1, 1.0 - a1)
                if scenario.common_enabled
                else [1.0 - a1]
            )
            for a2 in a2_values:
                split = PowerSplit(max(1.0 - a1 - a2, 0.0), a1, a2)
                points.append(_solve_cell(ch, scenario, split, p, order, first))
    return points


def sweep_region(ch: ChannelPair, scenario: Scenario, p: float, eps1: float) -> RateRegion:
    """Achievable region: Pareto frontier of the hull of all swept splits."""
    pts = sweep_points(ch, scenario, p, eps1)
    return RateRegion(tuple(hull_pareto([sp.rates for sp in pts])), scenario, p)


def _chain(xy: list, idx, tol: float) -> list:
    """One monotone chain: the indices ``idx`` of ``xy`` kept by left turns.

    A turn o -> a -> b counts as left when the cross product of a - o and
    b - o exceeds ``tol`` times the 1-norm of b - o, that is, when a lies
    left of the line o -> b by more than about ``tol``.
    """
    kept = []
    for i in idx:
        bx, by = xy[i]
        while len(kept) >= 2:
            ox, oy = xy[kept[-2]]
            ax, ay = xy[kept[-1]]
            vx, vy = bx - ox, by - oy
            if (ax - ox) * vy - (ay - oy) * vx > tol * (abs(vx) + abs(vy)):
                break
            kept.pop()
        kept.append(i)
    return kept


def _hull_2d(pts: np.ndarray) -> np.ndarray:
    """Vertex indices of the convex hull of 2-D points, counterclockwise.

    Andrew's monotone chain: the lower hull over the points sorted by
    (x, y), then the upper hull over them in reverse.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    xy = pts[order].tolist()
    tol = _COLLINEAR_REL * float(np.abs(pts).max())
    lower = _chain(xy, range(len(xy)), tol)
    upper = _chain(xy, range(len(xy) - 1, -1, -1), tol)
    return order[lower[:-1] + upper[:-1]]


def _hull_vertex_indices(arr: np.ndarray) -> np.ndarray:
    """Indices of hull vertices of the rows of ``arr``, robust to degeneracy.

    The hull is built in 2-D over (r1, r2) when every r0 vanishes and in
    3-D otherwise; rank-deficient or tiny inputs fall back to keeping all
    rows (the Pareto filter still runs afterwards).  Only the 3-D hull
    loads ``scipy.spatial``.
    """
    uniq, first_idx = np.unique(arr, axis=0, return_index=True)
    if np.ptp(arr[:, 0]) <= 1e-12:
        pts = uniq[:, 1:]
    else:
        pts = uniq
    dim = pts.shape[1]
    if uniq.shape[0] < dim + 2:
        return first_idx
    centered = pts - pts.mean(axis=0)
    rank = np.linalg.matrix_rank(centered, tol=1e-12)
    if rank < dim:
        return first_idx
    if dim == 2:
        return first_idx[_hull_2d(pts)]
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
    except QhullError:
        return first_idx
    return first_idx[hull.vertices]


def hull_pareto(points: Sequence[RateTriple]) -> list:
    """Pareto-nondominated vertices of the hull of the points plus the origin.

    Time-sharing between any two returned points lies on or under the
    returned surface.  Dominated points are swept out before the hull is
    built, which keeps the hull input small even for oracle-sized clouds.
    It returns objects of its input only, of equal points the first in
    input order, sorted by coordinates for reproducible downstream files.
    """
    pts = list(points)
    if not pts:
        raise ValueError("hull_pareto needs at least one point")
    # The origin anchors the hull from below so that points under the
    # time-sharing surface are interior; it joins after the Pareto sweep
    # (which would discard it) and leaves again in the final filter.
    frontier = pareto_filter(pts)
    frontier.append(RateTriple(0.0, 0.0, 0.0, ORDER_NA))
    arr = np.array([t.as_array() for t in frontier])
    candidates = [frontier[i] for i in _hull_vertex_indices(arr)]
    kept = pareto_filter(candidates)
    kept.sort(key=lambda t: (t.r0, t.r1, t.r2, t.order))
    return kept


def _points_as_array(region) -> np.ndarray:
    if isinstance(region, RateRegion):
        return region.as_array()
    seq = list(region)
    if seq and isinstance(seq[0], RateTriple):
        return np.array([t.as_array() for t in seq])
    return np.asarray(seq, dtype=float)


def region_contains(region, target, slack: float = 0.0) -> bool:
    """Free-disposal membership test for a rate point.

    True when some convex combination of the region's points (and the
    origin) dominates ``target - slack`` componentwise.  Rate regions are
    downward comprehensive, so domination rather than equality is the
    right notion of membership.  It solves a feasibility linear program
    with ``scipy.optimize.linprog``.
    """
    from scipy.optimize import linprog

    pts = np.vstack([_points_as_array(region), np.zeros(3)])
    t = (
        target.as_array() if isinstance(target, RateTriple) else np.asarray(target, float)
    ) - slack
    if np.all(t <= 0):
        return True
    n = pts.shape[0]
    res = linprog(
        c=np.zeros(n),
        A_ub=-pts.T,
        b_ub=-t,
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
    )
    return bool(res.status == 0)
