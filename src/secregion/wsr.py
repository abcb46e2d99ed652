"""Weighted-sum-rate maximization without a shared message.

The weighted sum w1 R1 + w2 R2 of the two users' rates under encoding
order "12" is maximized over the covariance pairs (q1, q2) with
tr q1 + tr q2 <= p.  The paper reaches it by block successive
maximization under a bisected power multiplier; here every scenario runs
the factor ascents of ``rotation`` instead.

In scenarios A and B the pair is the k = 2 case of ``rotation``'s
Burer-Monteiro factor form: x = (vec B1, vec B2, s) and
Qj = p Bj Bj^T / ||x||^2, so every x is a feasible pair and the budget
binds through s alone.  The objective reads each user's link
0.5 log2|I + Hu X Hu^T| at X = q1 and at q1 + q2, rate and gradient from
``rates.link_rate_grad``, and ``rates.rate_rule``, the one place where the
scenario rules are written, turns the link values into rates.  The rule
is linear in the link values, so the same rule applied to each link's
gradient in (q1, q2), the link's gradient in the blocks it sees, gives
the rates' gradients: one call carries values and gradients together
(``_weighted_sum``).

* The starts are the isotropic split, each user's water-filling block
  alone, and half of each user's together; in B also user 1's wiretap
  beam from ``rates.wiretap_pencil``.  Each is mixed with a little of the
  isotropic split (``rotation.mixed_start``).
* The zero pair and each user's water-filling block alone (in B also the
  unmixed beam) are ready candidates, so that no point falls below a
  single-user point.
* ``rotation.GTOL`` is absolute, and the value scales like the power at
  small budgets, so each problem's ascents follow its value divided by
  its best start's value.  Where that value is not positive no ascent
  runs.
* The driver ranks candidates and results by the ``rates.rate_stack``
  weighted sum, and the reported rates are ``rates.evaluate_triple``'s on
  the original channels.

Every (weight, channel orientation) of a sweep is one problem, and the
problems whose channels share their shapes are solved by one
``rotation.search_problems`` call, each row of a stacked call under its
own channels and weights; ``wsr_solve`` is the one-problem case.  The
Frank-Wolfe gap over the pair, p max(lambda_max(G1), lambda_max(G2), 0)
- <G1, q1> - <G2, q2>, reports how far each point is from stationary.

Scenario C, where both messages are confidential, runs the ascent over
the secret-DPC corner of ``corner``, which covers both encoding orders;
its sweep is one lockstep too.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .corner import _within_budget, corner_search
from .rates import evaluate_triple, pair_rate_grad, rate_rule, rate_stack, wiretap_pencil
from .rotation import Problem, _decode, factor_form, fw_gap, mixed_start, search_problems
from .splitting import SweepCounts, _alpha_grid, hull_pareto
from .types import (
    ORDER_12,
    ORDER_21,
    ChannelPair,
    CovarianceTriple,
    RateRegion,
    RateTriple,
    Scenario,
)
from .waterfill import DegenerateChannelWarning, waterfill


@dataclass(frozen=True)
class WsrConfig:
    """The weights of the two users' rates, checked here once.

    Both must be finite and nonnegative; the solvers trust them.
    """

    w1: float
    w2: float

    def __post_init__(self):
        for name in ("w1", "w2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("weights must be nonnegative")


@dataclass(frozen=True)
class WsrSolution:
    """A weighted-sum-rate point and what its search did.

    ``unused`` is the budget the point leaves, p minus its power, and
    ``gap`` its Frank-Wolfe gap in bits over the pairs within the budget.
    ``lam`` is the multiplier that the weighted sum's gradient G in
    (q1, q2) implies at the point, <G, Q> / p.  ``n_ascents`` counts the
    ascents run for the point and ``n_unconverged_ascents`` those that
    stopped at ``rotation.MAX_ITERS``.
    """

    q1: np.ndarray
    q2: np.ndarray
    rates: RateTriple
    lam: float
    converged: bool
    unused: float
    gap: float
    n_ascents: int
    n_unconverged_ascents: int


def _weighted_sum(scenario: Scenario, h1: np.ndarray, h2: np.ndarray):
    """The map from an (m, 2, nt, nt) stack of pairs (q1, q2), per-row
    weights and the row-to-problem map ``owner`` to ``(values, G)``: the
    unclamped w1 R1 + w2 R2 of each row under order "12", and its
    gradients in (q1, q2), an (m, 2, nt, nt) stack, in bits.

    ``h1`` and ``h2`` are the users' channels, or (n, rows, nt) stacks of
    the channels of n problems, as for ``rates.pair_rate_grad``.  Each
    link value becomes a jet: the value, its gradient in q1, and its
    gradient in q2, which is the link's own gradient at q1 + q2 and zero
    at q1.  ``rates.rate_rule`` applied to the jets gives every rate's
    value and gradients, as the rule only adds and subtracts link values.
    """
    links = pair_rate_grad(h1, h2)

    def objective(q, w1, w2, *owner):
        m, _, nt, _ = q.shape
        q1 = q[:, 0]
        at = np.concatenate((q1 + q[:, 1], q1))  # q1 + q2, then q1
        rows = (np.concatenate((owner[0], owner[0])),) if owner else ()
        values, grads = links(at, *rows)
        n = nt * nt
        jets = np.zeros((2, 2, m, 1 + 2 * n))
        jets[..., 0] = values.reshape(2, 2, m)
        jets[..., 1 : 1 + n] = grads.reshape(2, 2, m, n)
        jets[:, 0, :, 1 + n :] = jets[:, 0, :, 1 : 1 + n]
        # Order "12" reads no q2 entries, and with q0 = 0 no shared ones.
        rule = rate_rule(scenario, [(None, jets[u, 0], jets[u, 1], None) for u in (0, 1)])[0]
        total = w1[:, None] * rule[..., 1] + w2[:, None] * rule[..., 2]
        return total[:, 0], total[:, 1:].reshape(m, 2, nt, nt)

    return objective


def _pair_seeds(ch: ChannelPair, scenario: Scenario, p: float) -> tuple:
    """``(candidates, starts)`` of every A or B problem on ``ch``: the
    ready pairs and the mixed start vectors, shared by all weights."""
    nt = ch.nt
    zero = np.zeros((nt, nt))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateChannelWarning)
        wf1, wf2 = waterfill(ch.h1, p)[0], waterfill(ch.h2, p)[0]
    iso = (p / (2.0 * nt)) * np.eye(nt)
    ready = [(zero, zero), (wf1, zero), (zero, wf2)]
    seeds = [(iso, iso), (wf1, zero), (zero, wf2), (0.5 * wf1, 0.5 * wf2)]
    if scenario.user1_confidential:
        top = wiretap_pencil(ch.h1, ch.h2, p)[1][:, -1]
        beam = (p / (top @ top)) * np.outer(top, top)
        ready.append((beam, zero))
        seeds.append((beam, zero))
    candidates = [(np.array(pair), True) for pair in ready]
    return candidates, [mixed_start(np.array(pair), nt, p) for pair in seeds]


def _rated(ch: ChannelPair, scenario: Scenario, w1: float, w2: float, q: np.ndarray) -> float:
    """The ``rate_stack`` weighted sum of the pair ``q``, order "12"."""
    zero = np.zeros((1, ch.nt, ch.nt))
    _, r1, r2 = rate_stack(ch, scenario, zero, q[:1], q[1:])[0, 0]
    return w1 * r1 + w2 * r2


def _search_pairs(jobs: list, scenario: Scenario, p: float, counts: SweepCounts) -> list:
    """``(q1, q2, converged, n_ascents, n_unconverged)``, as
    ``corner.CornerSearch`` has them, of A or B problems (ch, w1, w2)
    whose channels share their shapes, searched together by one
    ``rotation.search_problems`` call."""
    nt = jobs[0][0].nt
    w1, w2 = (np.array([job[i] for job in jobs]) for i in (1, 2))
    objective = _weighted_sum(
        scenario,
        np.array([ch.h1 for ch, _, _ in jobs]),
        np.array([ch.h2 for ch, _, _ in jobs]),
    )
    seeds = {}
    for ch, _, _ in jobs:
        if id(ch) not in seeds:
            seeds[id(ch)] = _pair_seeds(ch, scenario, p)
    # Each problem's best start value, from one stacked call.
    starts = [seeds[id(ch)][1] for ch, _, _ in jobs]
    owner = np.repeat(np.arange(len(jobs)), [len(x) for x in starts])
    at_starts = objective(_decode(np.concatenate(starts), nt, p), w1[owner], w2[owner], owner)[0]
    scale = np.full(len(jobs), -math.inf)
    np.maximum.at(scale, owner, at_starts)

    def scaled(q, owner):
        values, grads = objective(q, w1[owner], w2[owner], owner)
        return values / scale[owner], grads / scale[owner][:, None, None, None]

    problems = [
        Problem(
            functools.partial(_rated, ch, scenario, float(v1), float(v2)),
            p,
            seeds[id(ch)][0],
            x if top > 0.0 else [],
        )
        for (ch, v1, v2), x, top in zip(jobs, starts, scale)
    ]
    solved = search_problems(problems, nt, factor_form(scaled, nt, np.full(len(jobs), p)))
    counts.add(solved)
    return [
        (*found.q, found.converged, len(problem.starts), found.n_unconverged)
        for found, problem in zip(solved.results, problems)
    ]


def _solve(jobs: list, scenario: Scenario, p: float, counts: SweepCounts) -> list:
    """The ``WsrSolution`` of each (ch, w1, w2) problem, under scenario
    ``scenario`` without a shared message.

    In A and B the problems whose channels share their shapes are
    searched together; in C each channel pair's weights are one corner
    search.  ``counts`` sums the stacked search-objective calls and rows.
    """
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"power budget must be positive and finite, got {p}")
    groups = {}
    for i, (ch, _, _) in enumerate(jobs):
        # C's corner search takes one pair; A and B stack channels of one shape.
        key = id(ch) if scenario.user2_confidential else (ch.h1.shape, ch.h2.shape)
        groups.setdefault(key, []).append(i)
    found = [None] * len(jobs)
    for members in groups.values():
        group = [jobs[i] for i in members]
        if scenario.user2_confidential:
            solved = corner_search(group[0][0], [(w1, w2) for _, w1, w2 in group], p)
            counts.add(solved)
            ends = solved.results
        else:
            ends = _search_pairs(group, scenario, p, counts)
        for i, end in zip(members, ends):
            found[i] = end
    solutions = []
    for (ch, w1, w2), (q1, q2, converged, n_ascents, n_unconverged) in zip(jobs, found):
        q1, q2 = _within_budget(q1, q2, p)
        q = np.array((q1, q2))
        g = _weighted_sum(scenario, ch.h1, ch.h2)(q[None], np.array([w1]), np.array([w2]))[1][0]
        lam = float(np.vdot(g, q)) / p
        zeros = np.zeros_like(q1)
        rates = evaluate_triple(ch, scenario, CovarianceTriple(zeros, q1, q2, p), ORDER_12)
        unused = p - float(np.trace(q1) + np.trace(q2))
        solutions.append(
            WsrSolution(
                q1, q2, rates, lam, converged, unused, fw_gap(g, q, p), n_ascents, n_unconverged
            )
        )
    return solutions


def wsr_solve(ch: ChannelPair, scenario: Scenario, cfg: WsrConfig, p: float) -> WsrSolution:
    """The weighted-sum-rate point of one weight pair: the one-problem case
    of the sweep's solve.  The rates are ``rates.evaluate_triple``'s on the
    original channels, under order "12"."""
    scenario_off = Scenario(scenario.tag, common_enabled=False)
    return _solve([(ch, cfg.w1, cfg.w2)], scenario_off, p, SweepCounts())[0]


def wsr_sweep_points(
    ch: ChannelPair,
    scenario: Scenario,
    p: float,
    sigma: float = 0.05,
    counts: SweepCounts | None = None,
) -> list:
    """Every solve of the weight sweep (w, 1 - w), as (point, solution) pairs.

    Scenario A is also solved with the user roles exchanged; the exchanged
    points are mapped back to user order and carry the "21" order tag,
    while their solutions stay in the exchanged roles.  Scenario B has one
    order, and C's corner search covers both in one solve.  Every solve of
    the sweep runs in one lockstep per channel shape; ``counts``, when
    given, adds their stacked search-objective calls and rows.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    scenario_off = Scenario(scenario.tag, common_enabled=False)
    both = scenario_off.allows_order_swap and not scenario_off.user2_confidential
    pairs = (ch, ch.swapped()) if both else (ch,)
    jobs = [(pair, w1, 1.0 - w1) for w1 in _alpha_grid(sigma, 1.0) for pair in pairs]
    sols = _solve(jobs, scenario_off, p, SweepCounts() if counts is None else counts)
    solved = []
    for (pair, _, _), sol in zip(jobs, sols):
        if pair is ch:
            solved.append((sol.rates, sol))
        else:
            point = RateTriple(0.0, sol.rates.r2, sol.rates.r1, ORDER_21)
            solved.append((point, sol))
    return solved


def wsr_sweep(
    ch: ChannelPair,
    scenario: Scenario,
    p: float,
    sigma: float = 0.05,
) -> RateRegion:
    """Frontier traced by sweeping the weight pair (w, 1 - w).

    The Pareto hull of the points of ``wsr_sweep_points``.
    """
    solved = wsr_sweep_points(ch, scenario, p, sigma)
    scenario_off = Scenario(scenario.tag, common_enabled=False)
    return RateRegion(tuple(hull_pareto([pt for pt, _ in solved])), scenario_off, p)
