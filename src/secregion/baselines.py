"""Independent validators: random-search oracle and orthogonal baselines.

The random-search region approximates the optimal nonlinear-coding region
on small instances by evaluating a large number of random covariance
triples; every reported point is achievable because it passes through the
shared rate evaluator with validated covariances; one of its sample
families is a rotated diagonal, whose rotation ``build_rotation`` forms
from plane-rotation angles.  The orthogonal
baselines serve each message in its own time slot (equal-length TDMA) or
time-share the two single-user optima (OMA).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .multicast import solve_multicast
from .rates import evaluate_stack
from .splitting import hull_pareto
from .types import (
    ORDER_12,
    ORDER_21,
    ORDER_NA,
    ChannelPair,
    RateRegion,
    RateTriple,
    Scenario,
    _dominated_by,
    check_budget,
    check_covariance_stacks,
)
from .waterfill import waterfill
from .wiretap import solve_wiretap

# Sample family cycle: two full-rank draws, one rank-one, one rotated
# diagonal.  Extreme points of these regions are frequently low rank;
# a pure full-rank sampler under-covers them.
_FAMILY_CYCLE = ("full", "full", "rank1", "rotdiag")


# Samples drawn, validated and rated together.  Larger blocks amortize the
# stacked calls further but widen the pairwise Pareto prefilter.
_BLOCK = 256


def n_angles(nt: int) -> int:
    return nt * (nt - 1) // 2


def build_rotation(angles, nt: int) -> np.ndarray:
    """Orthogonal matrix from plane-rotation angles.

    The result is the product of the elementary rotations in increasing
    lexicographic (p, q) order, p < q; each factor is an identity except
    for the 2x2 rotation block in rows and columns p and q.  A stack of
    angle rows, of shape (..., n_angles), gives the (..., nt, nt) stack of
    their rotations, each built with the same arithmetic as a single row.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.shape[-1] != n_angles(nt):
        raise ValueError(
            f"expected rows of {n_angles(nt)} angles for nt = {nt}, got {angles.shape}"
        )
    v = np.zeros(angles.shape[:-1] + (nt, nt))
    v[..., range(nt), range(nt)] = 1.0
    cos, sin = np.cos(angles), np.sin(angles)
    for i, (p, q) in enumerate(itertools.combinations(range(nt), 2)):
        c, s = cos[..., i, None], sin[..., i, None]
        # Right-multiplying by the elementary factor touches columns p, q only.
        vp = c * v[..., :, p] + s * v[..., :, q]
        vq = -s * v[..., :, p] + c * v[..., :, q]
        v[..., :, p] = vp
        v[..., :, q] = vq
    return v


def _draw_block(
    rng: np.random.Generator, nt: int, first: int, n: int, p: float, common: bool
) -> np.ndarray:
    """Covariances of samples first, ..., first + n - 1 as an (n, 3, nt, nt) array.

    The generator is called sample by sample, each sample drawing its
    Dirichlet power shares and then its three shapes, so a seed gives the
    same covariances at any block size; the arithmetic that turns the
    draws into covariances runs on the whole block.
    Shape families: a Gram matrix of a square Gaussian, an outer product of
    a Gaussian vector, or a rotated diagonal with Dirichlet loadings.
    """
    n_active = 3 if common else 2
    shares = np.empty((n, n_active))
    gauss = np.empty((n, 3, nt, nt))
    vecs = np.empty((n, 3, nt))
    angles = np.empty((n, 3, n_angles(nt)))
    loads = np.empty((n, 3, nt))
    share_alpha, load_alpha = np.ones(n_active), np.ones(nt)
    families = [_FAMILY_CYCLE[(first + j) % len(_FAMILY_CYCLE)] for j in range(n)]
    for j, family in enumerate(families):
        shares[j] = rng.dirichlet(share_alpha)
        if family == "full":
            rng.standard_normal(out=gauss[j])
        elif family == "rank1":
            rng.standard_normal(out=vecs[j])
        else:
            for m in range(3):
                angles[j, m] = rng.uniform(0.0, math.pi, n_angles(nt))
                loads[j, m] = rng.dirichlet(load_alpha)
    shapes = np.empty((n, 3, nt, nt))
    kind = np.array(families)
    full, rank1, rotdiag = kind == "full", kind == "rank1", kind == "rotdiag"
    g = gauss[full]
    shapes[full] = g @ g.swapaxes(-1, -2)
    shapes[rank1] = vecs[rank1][..., :, None] * vecs[rank1][..., None, :]
    v = build_rotation(angles[rotdiag], nt)
    shapes[rotdiag] = (v * loads[rotdiag][..., None, :]) @ v.swapaxes(-1, -2)
    shapes = 0.5 * (shapes + shapes.swapaxes(-1, -2))

    traces = shares * p
    if not common:
        traces = np.concatenate([np.zeros((n, 1)), traces], axis=1)
    t = np.trace(shapes, axis1=-2, axis2=-1)
    live = (traces > 0) & (t > 0)
    scale = traces / np.where(live, t, 1.0)
    return np.where(live[..., None, None], shapes * scale[..., None, None], 0.0)


def _undominated(rows: np.ndarray, kept: int) -> np.ndarray:
    """Mask of the rows that no other row strictly dominates or repeats earlier.

    The first ``kept`` rows must already be mutually undominated and
    distinct.  Of several equal rows only the first stays: the hull in
    ``hull_pareto`` keeps only the first of equal points anyway, and the
    kept set cannot grow with repeats (as at zero power, where every
    sample rates (0, 0, 0)).
    """
    old, new = rows[:kept], rows[kept:]
    fresh = ~_dominated_by(new, old, ties=True)
    survivors = new[fresh]
    fresh[fresh] = ~_dominated_by(
        survivors, survivors, ties=np.tri(len(survivors), k=-1, dtype=bool)
    )
    return np.concatenate([~_dominated_by(old, survivors), fresh])


def random_search_region(
    ch: ChannelPair,
    scenario: Scenario,
    p: float,
    n_samples: int,
    seed: int = 0,
) -> RateRegion:
    """Pareto hull over random covariance triples with simplex trace splits.

    Sample zero is always the all-zero triple, so a single-sample run
    returns the origin.  Both encoding orders are evaluated when the
    scenario permits a swap.  Deterministic for a fixed seed.

    Samples are drawn, validated and rated ``_BLOCK`` at a time.  After
    each block the points that another point strictly dominates, and
    repeats of an earlier point, are dropped, keeping sample order (order
    "12" before "21" within a sample); only the survivors become
    ``RateTriple`` points for the hull.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    check_budget(p)
    rng = np.random.default_rng(seed)
    orders = (ORDER_12, ORDER_21) if scenario.allows_order_swap else (ORDER_12,)
    tags = (ORDER_NA,) + orders
    rows = np.zeros((1, 3))
    codes = np.zeros(1, dtype=int)
    for first in range(0, n_samples - 1, _BLOCK):
        n = min(_BLOCK, n_samples - 1 - first)
        q = _draw_block(rng, ch.nt, first, n, p, scenario.common_enabled)
        stacks = (q[:, 0], q[:, 1], q[:, 2])
        check_covariance_stacks(stacks, p)
        rates = evaluate_stack(ch, scenario, *stacks, orders)
        kept = len(rows)
        rows = np.concatenate([rows, rates.transpose(1, 0, 2).reshape(-1, 3)])
        codes = np.concatenate([codes, np.tile(np.arange(1, len(tags)), n)])
        mask = _undominated(rows, kept)
        rows, codes = rows[mask], codes[mask]
    points = [RateTriple(*map(float, r), tags[c]) for r, c in zip(rows, codes)]
    return RateRegion(tuple(hull_pareto(points)), scenario, p)


def _slot_rates(ch: ChannelPair, scenario: Scenario, p: float) -> tuple:
    """Full-power single-message optima for the three slots."""
    r0 = solve_multicast(ch.h1, ch.h2, p).rate if scenario.common_enabled else 0.0
    if scenario.user1_confidential:
        r1 = solve_wiretap(ch.h1, ch.h2, p).rate
    else:
        r1 = waterfill(ch.h1, p)[1]
    if scenario.user2_confidential:
        r2 = solve_wiretap(ch.h2, ch.h1, p).rate
    else:
        r2 = waterfill(ch.h2, p)[1]
    return r0, r1, r2


def tdma_region(ch: ChannelPair, scenario: Scenario, p: float) -> RateRegion:
    """Equal-length orthogonal slots, one message per slot at full power.

    Each message gets 1/3 of the time (1/2 without a common message), so
    the achieved point is the per-slot optimum scaled by the slot share.
    """
    check_budget(p)
    r0, r1, r2 = _slot_rates(ch, scenario, p)
    n_slots = 3 if scenario.common_enabled else 2
    point = RateTriple(r0 / n_slots, r1 / n_slots, r2 / n_slots, ORDER_NA)
    return RateRegion(tuple(hull_pareto([point])), scenario, p)


def oma_timeshare(ch: ChannelPair, scenario: Scenario, p: float) -> RateRegion:
    """Segment between the two full-power single-user optima.

    Defined for the two-message case only; the common message must be
    disabled.
    """
    if scenario.common_enabled:
        raise ValueError("the time-share baseline is defined without a common message")
    check_budget(p)
    _, r1, r2 = _slot_rates(ch, scenario, p)
    endpoints = [
        RateTriple(0.0, r1, 0.0, ORDER_NA),
        RateTriple(0.0, 0.0, r2, ORDER_NA),
    ]
    return RateRegion(tuple(hull_pareto(endpoints)), scenario, p)
