"""Power-splitting driver: per-split solves, region sweeps, and hulls.

One split assigns fractions of the power budget to the first-encoded
user's message, the second user's message, and the shared message, then
solves the three stages in that sequence: an interference-free design for
the first message (water-filling or wiretap search by scenario), a design
on the interference-whitened channel for the second, and a max-min design
on the residual-whitened channels for the shared message.

``sweep_points`` solves its grid in stage waves (``_sweep``): every
first-stage problem of the grid, both encoding orders included, is
solved once per (order, budget), as it depends on its own budget alone;
then every cell's second stage on the channels whitened by its first
stage, and then every cell's shared-message stage.  The wiretap and
multicast problems of a wave are solved together
(``wiretap.solve_wiretaps``, ``multicast.solve_multicasts``), their
searches sharing stacked objective calls, and each gives what it gives
alone, bit for bit.  ``solve_split`` is the sweep of a one-cell grid, and
both return the record ``SplitResult``.
Each order's covariance triples are rated by one ``evaluate_stack`` call
on the original channels, the reported truth, each row bit for bit its
``evaluate_triple`` call.  The rates that a cell's second and common
stages found on their whitened channels must match its rates for the
same messages; a disagreement beyond 1e-9 raises ``ConsistencyError``,
keeping the transform identities load-bearing.  ``SweepCounts`` records
what the searches did.

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

from .multicast import solve_multicasts
from .rates import evaluate_stack
from .rotation import Solved
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
from .wiretap import WiretapResult, solve_wiretaps

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


@dataclass
class SweepCounts:
    """What the searches of a sweep did, summed over its stage waves.

    ``search_batches`` counts the stacked search-objective calls of the
    wiretap and multicast searches (the rescues' corner searches
    included) and ``search_rows`` their rows, one per objective
    evaluation; ``wiretap_rescues`` counts the wiretap solves that ran
    the corner-search rescue, and ``wiretap_gap_max`` is the largest
    final Frank-Wolfe gap of a wiretap solve, in bits (0 when none is
    positive).
    """

    search_batches: int = 0
    search_rows: int = 0
    wiretap_rescues: int = 0
    wiretap_gap_max: float = 0.0

    def add(self, solved: Solved) -> None:
        """Count one wave's ``Solved`` record."""
        self.search_batches += solved.n_batches
        self.search_rows += solved.n_rows
        for res in solved.results:
            if isinstance(res, WiretapResult):
                self.wiretap_rescues += res.restarted
                self.wiretap_gap_max = max(self.wiretap_gap_max, res.gap)


def _stage_wave(confidential: bool, problems: list, nt: int, counts: SweepCounts) -> list:
    """``(q, rate, converged)`` of each (h, he, budget) problem of a stage.

    With ``confidential`` each is the wiretap problem of link h against
    the eavesdropper he, and they are solved together
    (``solve_wiretaps``); otherwise each is water-filling on h.  A zero
    budget gives the zero matrix, with no solve and no channel read.
    """
    out = [(np.zeros((nt, nt)), 0.0, True)] * len(problems)
    live = [i for i, (_, _, budget) in enumerate(problems) if budget != 0]
    if confidential:
        solved = solve_wiretaps([problems[i] for i in live])
        counts.add(solved)
        for i, res in zip(live, solved.results):
            out[i] = (res.q, res.rate, res.converged)
    else:
        for i in live:
            h, _, budget = problems[i]
            out[i] = (*waterfill(h, budget), True)
    return out


def _gate(rates: RateTriple, whitened_second: float, whitened_common: float) -> None:
    """Raise ``ConsistencyError`` unless a cell's whitened-channel rates
    match its reported rates for the same messages; under order "21" the
    second-encoded user is user 1."""
    second = rates.r1 if rates.order == ORDER_21 else rates.r2
    for stage, whitened, original in (
        ("second-stage", whitened_second, second),
        ("multicast", whitened_common, rates.r0),
    ):
        if abs(original - whitened) > _EQUIV_TOL:
            raise ConsistencyError(
                f"whitened {stage} rate {whitened} disagrees with the "
                f"original-channel rate {original} beyond {_EQUIV_TOL}"
            )


def _sweep(
    ch: ChannelPair, scenario: Scenario, p: float, cells: list, counts: SweepCounts
) -> list:
    """The ``SplitResult`` of each (order, split) of ``cells``, solved in
    stage waves.

    The first wave solves one first-stage problem per (order, budget),
    both orders together; the second whitens by each first-stage result
    and solves every cell's second stage together, and the common wave
    every cell's multicast stage.  Then each order's cells are rated by
    one ``evaluate_stack`` call on the original pair, every row bit for
    bit its ``evaluate_triple`` call, and each cell passes ``_gate``.
    """
    nt = ch.nt
    works = {order: ch.swapped() if order == ORDER_21 else ch for order in scenario.orders}
    keys = [(order, _effective(split.alpha1 * p, p)) for order, split in cells]

    firsts = list(dict.fromkeys(keys))
    problems = [(works[order].h1, works[order].h2, p1) for order, p1 in firsts]
    first = dict(zip(firsts, _stage_wave(scenario.user1_confidential, problems, nt, counts)))

    # Each first stage's whitened channels are made once, and only where a
    # cell of it has a second-stage budget.
    whitened = {}
    problems = []
    for key, (_, split) in zip(keys, cells):
        p2 = _effective(split.alpha2 * p, p)
        if p2 != 0 and key not in whitened:
            work, qa = works[key[0]], first[key][0]
            if scenario.user2_confidential:
                h1w, h2w = whiten_wiretap(work, qa)
                whitened[key] = (h2w, h1w)
            else:
                whitened[key] = (whiten_p2p(work.h2, qa), None)
        problems.append((*whitened.get(key, (None, None)), p2))
    second = _stage_wave(scenario.user2_confidential, problems, nt, counts)

    common = [(np.zeros((nt, nt)), 0.0, True)] * len(cells)
    shared, problems = [], []
    for n, ((order, split), key) in enumerate(zip(cells, keys)):
        p0 = _effective(split.alpha0 * p, p)
        if p0 != 0:
            shared.append(n)
            problems.append((*whiten_multicast(works[order], first[key][0], second[n][0]), p0))
    solved = solve_multicasts(problems)
    counts.add(solved)
    for n, res in zip(shared, solved.results):
        common[n] = (res.q, res.rate, res.converged)

    results = [None] * len(cells)
    for order in scenario.orders:
        idx = [n for n, (o, _) in enumerate(cells) if o == order]
        covs = []
        for n in idx:
            qa, qb = first[keys[n]][0], second[n][0]
            q1, q2 = (qb, qa) if order == ORDER_21 else (qa, qb)
            covs.append(CovarianceTriple(common[n][0], q1, q2, p))
        if not covs:
            continue
        stacks = (np.array([getattr(c, name) for c in covs]) for name in ("q0", "q1", "q2"))
        rows = evaluate_stack(ch, scenario, *stacks, (order,))[0].tolist()
        for n, cov, row in zip(idx, covs, rows):
            rates = RateTriple(*row, order)
            _gate(rates, second[n][1], common[n][1])
            converged = first[keys[n]][2] and second[n][2] and common[n][2]
            results[n] = SplitResult(cells[n][1], cov, rates, converged)
    return results


def solve_split(
    ch: ChannelPair,
    scenario: Scenario,
    split: PowerSplit,
    p: float,
    order: str = ORDER_12,
) -> SplitResult:
    """Solve one power split end to end and report original-channel rates:
    the sweep of a one-cell grid."""
    if order not in (ORDER_12, ORDER_21):
        raise ValueError(f"order must be '12' or '21', got {order!r}")
    if order == ORDER_21 and not scenario.allows_order_swap:
        raise ValueError("scenario B supports only the '12' encoding order")
    check_budget(p)
    if not scenario.common_enabled and split.alpha0 * p > _BUDGET_FLOOR_REL * p:
        raise ValueError("alpha0 must be 0 when the common message is disabled")
    return _sweep(ch, scenario, p, [(order, split)], SweepCounts())[0]


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


def sweep_points(
    ch: ChannelPair,
    scenario: Scenario,
    p: float,
    eps1: float,
    counts: SweepCounts | None = None,
) -> list:
    """``SplitResult``s of all grid splits in every applicable encoding order.

    The cells are listed order by order, alpha1 ascending and then alpha2,
    and solved in stage waves (see ``_sweep``), so the same problem always
    gives the same points.  When ``counts`` is given, what the searches
    did is added to it.
    """
    if not 0.0 < eps1 <= 0.5:
        raise ValueError("eps1 must lie in (0, 0.5]")
    check_budget(p)
    cells = []
    for order in scenario.orders:
        for a1 in _alpha_grid(eps1, 1.0):
            a2_values = (
                _alpha_grid(eps1, 1.0 - a1)
                if scenario.common_enabled
                else [1.0 - a1]
            )
            for a2 in a2_values:
                cells.append((order, PowerSplit(max(1.0 - a1 - a2, 0.0), a1, a2)))
    return _sweep(ch, scenario, p, cells, SweepCounts() if counts is None else counts)


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

