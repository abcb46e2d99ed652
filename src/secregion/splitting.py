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

A region is reported as its frontier under time-sharing: the vertices of
the free-disposal hull of its points, the points some nonnegative weight
on (r0, r1, r2) exposes.  ``hull_pareto`` builds it here in numpy, with
Andrew's monotone chain for regions without a common message (2-D, over
(r1, r2)) and Quickhull over the points and their free-disposal corners
for the rest (3-D), so no job loads Qhull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .multicast import solve_multicast
from .rates import evaluate_triple
from .transforms import whiten_multicast, whiten_p2p, whiten_wiretap
from .types import (
    ORDER_12,
    ORDER_21,
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

# A frontier keeps a point only when it lies beyond the edge (2-D) or the
# facet (3-D) of the others by more than this share of the largest
# coordinate, so that points within rounding of an edge or a facet are not
# vertices, as in Qhull's hulls (whose margin is about 3e-15 of the largest
# coordinate).  A margin relative to the edge, as |a - o| for a point a
# between o and b, would keep rounding noise at a point close to o.
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
    """Achievable region: the frontier of all swept splits under time-sharing."""
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


def _frontier_2d(xy: np.ndarray, tol: float) -> np.ndarray:
    """Vertex indices of the free-disposal hull of nonnegative 2-D points.

    The points no other point weakly dominates (the first of equal ones)
    form a staircase, taken in descending x.  Between the hull's corners
    (x_max, 0) and (0, y_max) the monotone chain keeps its vertices, as the
    upper half of Andrew's algorithm would.  The two ends of the staircase
    are always vertices, even when one lies within ``tol`` of its corner.
    """
    order = np.lexsort((-xy[:, 1], -xy[:, 0]))
    y = xy[order, 1]
    stair = np.ones(len(y), dtype=bool)
    stair[1:] = y[1:] > np.maximum.accumulate(y)[:-1]
    order = order[stair]
    seq = xy[order].tolist()
    seq = [[seq[0][0], 0.0], *seq, [0.0, seq[-1][1]]]
    inner = [i - 1 for i in _chain(seq, range(len(seq)), tol)[1:-1]]
    return order[sorted({0, len(order) - 1, *inner})]


def _frontier_3d(pts: np.ndarray, tol: float) -> np.ndarray:
    """Vertex indices of the free-disposal hull of nonnegative 3-D points.

    That hull is the convex hull of the points and their corners, the
    copies with some coordinates zeroed.  Quickhull (Barber, Dobkin &
    Huhdanpaa, ACM TOMS 1996) builds it from the simplex of the origin and
    the three axis maxima.  The corners needed are the axis maxima and,
    in each coordinate plane, the vertices of the 2-D frontier of the
    points' projection; coordinates within ``tol`` of 0 are set to 0 first.

    A point joins the hull only when it lies more than ``tol`` outside a
    facet, and every facet it lies less than ``tol`` under is replaced with
    the ones it sees.  So no facet is ever a sliver, and no point within
    ``tol`` of a facet or an edge of the final hull is one of its vertices.
    Of equal points the cloud's row with the lowest index joins.  The
    points whose projections give the corners are vertices as well (a
    weight nearly zero on the dropped coordinate exposes each), and they
    are returned even where they lie within ``tol`` of their corner.
    """
    n = len(pts)
    pts = np.where(pts > tol, pts, 0.0)
    rows, sources = [pts], []
    for k in range(3):
        sources.append(_frontier_2d(np.delete(pts, k, axis=1), tol))
        corner = pts[sources[-1]]
        corner[:, k] = 0.0
        rows.append(corner)
    rows += [np.diag(pts.max(axis=0)), np.zeros((1, 3))]
    cloud = np.vstack(rows)
    xyz = cloud.tolist()
    # Facet f: vertices counterclockwise seen from outside, unit outward
    # normal, offset, the facet across each edge (verts[k], verts[k + 1]),
    # and the (indices, heights) of the points it is the farthest under.
    verts, normal, offset, across, outside, alive = [], [], [], [], [], []

    def add_facet(a, b, c):
        ax, ay, az = xyz[a]
        ux, uy, uz = (q - r for q, r in zip(xyz[b], xyz[a]))
        vx, vy, vz = (q - r for q, r in zip(xyz[c], xyz[a]))
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        s = math.sqrt(nx * nx + ny * ny + nz * nz)
        normal.append((nx / s, ny / s, nz / s))
        offset.append((nx * ax + ny * ay + nz * az) / s)
        verts.append((a, b, c))
        across.append([-1, -1, -1])
        outside.append(None)
        alive.append(True)
        return len(verts) - 1

    def height(f, p):
        (nx, ny, nz), (x, y, z) = normal[f], xyz[p]
        return nx * x + ny * y + nz * z - offset[f]

    def share(facets, idx):
        """Hand each point of ``idx`` to the facet it lies farthest over."""
        if not len(idx):
            return
        h = cloud[idx] @ np.array([normal[f] for f in facets]).T
        h -= np.array([offset[f] for f in facets])
        best = h.argmax(axis=1)
        far = h[np.arange(len(idx)), best]
        for j, f in enumerate(facets):
            sel = (best == j) & (far > tol)
            if sel.any():
                outside[f] = (idx[sel], far[sel])

    a0, a1, a2, origin = range(len(xyz) - 4, len(xyz))
    first = [
        add_facet(origin, a1, a0),
        add_facet(origin, a2, a1),
        add_facet(origin, a0, a2),
        add_facet(a0, a1, a2),
    ]
    edge_of = {}
    for f in first:
        a, b, c = verts[f]
        edge_of.update({(a, b): f, (b, c): f, (c, a): f})
    for f in first:
        a, b, c = verts[f]
        across[f] = [edge_of[(b, a)], edge_of[(c, b)], edge_of[(a, c)]]
    share(first, np.arange(len(xyz) - 4))
    todo = [f for f in first if outside[f] is not None]
    while todo:
        f = todo.pop()
        if not alive[f]:
            continue
        idx, far = outside[f]
        eye = int(idx[far.argmax()])
        # Walk the facets the eye sees, or lies within tol under, depth
        # first and each edge counterclockwise: the edges to the others
        # come out as the horizon, in order around the eye (Lloyd's
        # quickhull3d).
        seen, horizon, stack = {f}, [], [(f, [0, 1, 2])]
        while stack:
            g, edges = stack[-1]
            if not edges:
                stack.pop()
                continue
            k = edges.pop(0)
            h = across[g][k]
            if h in seen:
                continue
            if height(h, eye) > -tol:
                seen.add(h)
                e = across[h].index(g)
                stack.append((h, [(e + 1) % 3, (e + 2) % 3]))
            else:
                horizon.append((verts[g][k], verts[g][(k + 1) % 3], h))
        new = [add_facet(a, b, eye) for a, b, _ in horizon]
        for i, (a, b, h) in enumerate(horizon):
            across[new[i]] = [h, new[(i + 1) % len(new)], new[i - 1]]
            across[h][verts[h].index(b)] = new[i]
        pool = [outside[g][0] for g in seen if outside[g] is not None]
        for g in seen:
            alive[g] = False
            outside[g] = None
        if pool:
            idx = np.sort(np.concatenate(pool))
            share(new, idx[idx != eye])
        todo.extend(g for g in new if outside[g] is not None)
    hull = {v for f in range(len(verts)) if alive[f] for v in verts[f] if v < n}
    return np.union1d(sorted(hull), np.concatenate(sources)).astype(int)


def _frontier_vertices(cloud: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``cloud`` that span its free-disposal hull.

    ``cloud`` holds distinct nonnegative rows of up to three rates, none
    strictly dominated by another.  Its free-disposal hull is
    (conv(F + {0}) - R+^d) & R+^d, and the rows returned are its vertices:
    the rows that some nonnegative weight exposes.  A row within
    ``_COLLINEAR_REL`` times the largest coordinate of an edge or a facet
    is not a vertex, and a coordinate no row exceeds by that margin is
    dropped, so the answer does not depend on the scale of the rates.
    """
    scale = float(cloud.max())
    if scale <= 0.0:
        return np.zeros(1, dtype=int)
    tol = _COLLINEAR_REL * scale
    pts = cloud[:, cloud.max(axis=0) > tol]
    if pts.shape[1] == 1:
        return np.array([int(pts[:, 0].argmax())])
    if pts.shape[1] == 2:
        return _frontier_2d(pts, tol)
    return _frontier_3d(pts, tol)


def hull_pareto(points: Sequence[RateTriple]) -> list:
    """Vertices of the free-disposal hull of the points: the frontier.

    The returned points are the ones some nonnegative weight on
    (r0, r1, r2) exposes, so none lies under a time-share of the others,
    and every other point lies under a time-share of the returned ones
    (within ``_COLLINEAR_REL`` of the largest rate).  Dominated points
    are swept out first, which keeps the hull input small even for
    oracle-sized clouds.  It returns objects of its input only, of equal
    points the first in input order, sorted by coordinates for
    reproducible downstream files.
    """
    pts = list(points)
    if not pts:
        raise ValueError("hull_pareto needs at least one point")
    frontier = pareto_filter(pts)
    arr = np.array([t.as_array() for t in frontier])
    uniq, first_idx = np.unique(arr, axis=0, return_index=True)
    kept = [frontier[i] for i in first_idx[_frontier_vertices(uniq)]]
    kept.sort(key=lambda t: (t.r0, t.r1, t.r2, t.order))
    return kept

