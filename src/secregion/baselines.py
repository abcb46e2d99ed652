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
    ORDER_NA,
    ChannelPair,
    RateRegion,
    RateTriple,
    Scenario,
    check_budget,
    check_covariance_stacks,
    pareto_mask,
)
from .waterfill import waterfill
from .wiretap import solve_wiretap

# Sample family cycle: two full-rank draws, one rank-one, one rotated
# diagonal.  Extreme points of these regions are frequently low rank;
# a pure full-rank sampler under-covers them.
_FAMILY_CYCLE = ("full", "full", "rank1", "rotdiag")


# Samples drawn, validated and rated together.  Larger blocks amortize the
# stacked calls further, but hold more rows before the Pareto filter.
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


def _dirichlet_ones(e: np.ndarray) -> np.ndarray:
    """Flat-Dirichlet rows from rows of standard exponential draws.

    ``Generator.dirichlet(np.ones(k))`` draws k standard exponentials (its
    gamma draws of unit shape), sums them left to right and multiplies each
    by the reciprocal of the sum; this is that arithmetic, bit for bit.
    """
    total = e[..., 0]
    for i in range(1, e.shape[-1]):
        total = total + e[..., i]
    return e * (1.0 / total)[..., None]


def _draw_block(
    rng: np.random.Generator, nt: int, first: int, n: int, p: float, common: bool
) -> np.ndarray:
    """Covariances of samples first, ..., first + n - 1 as an (n, 3, nt, nt) array.

    The generator is called sample by sample for raw draws only, in a
    fixed order: the standard exponentials of the power shares, then the
    shape draws (standard normals, or for a rotated diagonal, per shape,
    uniform angle draws and then standard exponential loads).  So a seed
    gives the same covariances at any block size.  The rest runs once on
    the whole block: the Dirichlet and angle arithmetic, which matches
    ``Generator.dirichlet(np.ones(k))`` and ``uniform(0, pi)`` bit for bit,
    and the arithmetic that turns the draws into covariances.
    Shape families: a Gram matrix of a square Gaussian, an outer product of
    a Gaussian vector, or a rotated diagonal with Dirichlet loadings.
    """
    n_active = 3 if common else 2
    share_draws = np.empty((n, n_active))
    gauss = np.empty((n, 3, nt, nt))
    vecs = np.empty((n, 3, nt))
    unit_angles = np.empty((n, 3, n_angles(nt)))
    load_draws = np.empty((n, 3, nt))
    families = [_FAMILY_CYCLE[(first + j) % len(_FAMILY_CYCLE)] for j in range(n)]
    for j, family in enumerate(families):
        rng.standard_exponential(out=share_draws[j])
        if family == "full":
            rng.standard_normal(out=gauss[j])
        elif family == "rank1":
            rng.standard_normal(out=vecs[j])
        else:
            for m in range(3):
                rng.random(out=unit_angles[j, m])
                rng.standard_exponential(out=load_draws[j, m])
    shapes = np.empty((n, 3, nt, nt))
    kind = np.array(families)
    full, rank1, rotdiag = kind == "full", kind == "rank1", kind == "rotdiag"
    g = gauss[full]
    shapes[full] = g @ g.swapaxes(-1, -2)
    shapes[rank1] = vecs[rank1][..., :, None] * vecs[rank1][..., None, :]
    v = build_rotation(math.pi * unit_angles[rotdiag], nt)
    loads = _dirichlet_ones(load_draws[rotdiag])
    shapes[rotdiag] = (v * loads[..., None, :]) @ v.swapaxes(-1, -2)
    shapes = 0.5 * (shapes + shapes.swapaxes(-1, -2))

    traces = _dirichlet_ones(share_draws) * p
    if not common:
        traces = np.concatenate([np.zeros((n, 1)), traces], axis=1)
    t = np.trace(shapes, axis1=-2, axis2=-1)
    live = (traces > 0) & (t > 0)
    scale = traces / np.where(live, t, 1.0)
    return np.where(live[..., None, None], shapes * scale[..., None, None], 0.0)


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

    Samples are drawn, validated and rated ``_BLOCK`` at a time, and each
    block keeps only its rows that no other row of the block strictly
    dominates.  The rows that survive one more Pareto filter over the union
    of those (dominance is transitive, so it drops what the whole cloud
    dominates) become ``RateTriple`` points in sample order, order "12"
    before "21" within a sample.  ``hull_pareto`` keeps the first of each
    set of equal points in that order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    check_budget(p)
    rng = np.random.default_rng(seed)
    tags = (ORDER_NA,) + scenario.orders
    rows = [np.zeros((1, 3))]
    codes = [np.zeros(1, dtype=int)]
    for first in range(0, n_samples - 1, _BLOCK):
        n = min(_BLOCK, n_samples - 1 - first)
        q = _draw_block(rng, ch.nt, first, n, p, scenario.common_enabled)
        stacks = (q[:, 0], q[:, 1], q[:, 2])
        check_covariance_stacks(stacks, p)
        rates = evaluate_stack(ch, scenario, *stacks, scenario.orders)
        rates = rates.transpose(1, 0, 2).reshape(-1, 3)
        kept = pareto_mask(rates)
        rows.append(rates[kept])
        codes.append(np.tile(np.arange(1, len(tags)), n)[kept])
    rows, codes = np.concatenate(rows), np.concatenate(codes)
    kept = pareto_mask(rows)
    points = [RateTriple(*map(float, r), tags[c]) for r, c in zip(rows[kept], codes[kept])]
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
