"""Weighted-sum-rate maximization without a shared message.

The weighted sum of the two users' rates is maximized under the total
power constraint by bisecting the Lagrange multiplier of the power term
and, at each multiplier, running block-successive maximization: the
coupled terms that are convex in the block being updated are replaced by
their first-order expansion, whose negative gradient is the power price
matrix, and each penalized block then has the exact closed-form solution
of ``closed_form_block``.

Sign and scale convention, fixed here once: every price matrix is the
exact negative gradient, in bits, of the convexified part of the
objective, and the block penalty is always lam*I + price.  This is the
unique choice under which the linearization is a true minorizer, which in
turn makes the Lagrangian ascent monotone; both properties are enforced
by tests and the ascent is asserted at runtime.

The closed-form block works in natural log, so bit-denominated block
weights are passed through ``bits_block_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rates import LN2, evaluate_triple, gauss_rate, layered_rate, rate_stack, resolvent
from .splitting import hull_pareto
from .types import (
    ORDER_12,
    ORDER_21,
    ChannelPair,
    ConsistencyError,
    CovarianceTriple,
    RateRegion,
    RateTriple,
    Scenario,
    as_matrix,
)

# Ascent of the Lagrangian is exact in the algebra; this slack absorbs
# eigensolver round-off only.
_ASCENT_SLACK = 1e-9

_S_JITTER = 1e-12


class BracketError(RuntimeError):
    """The multiplier bracket produced no power crossing."""


@dataclass(frozen=True)
class WsrConfig:
    """Weights, multiplier bracket, and tolerances for the dual search.

    ``lambda_max`` defaults to ten times the larger weight; the bracket is
    widened tenfold and retried once if it fails to straddle the power
    constraint.
    """

    w1: float
    w2: float
    lambda_min: float = 1e-6
    lambda_max: float | None = None
    eps2: float = 1e-5
    eps3: float = 1e-9
    max_inner: int = 500

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("weights must be nonnegative")
        if self.lambda_max is None:
            object.__setattr__(
                self, "lambda_max", 10.0 * max(self.w1, self.w2, 0.1)
            )
        if not self.lambda_min < self.lambda_max:
            raise ValueError("lambda_min must be below lambda_max")
        if self.eps2 <= 0 or self.eps3 <= 0:
            raise ValueError("eps2 and eps3 must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be positive")


def bits_block_weight(w: float) -> float:
    """Natural-log block weight equivalent to (w/2)*log2 in the objective."""
    return w / (2.0 * LN2)


def _gram(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H^T (I + H X H^T)^{-1} H."""
    return resolvent(h, x)[1]


# ---------------------------------------------------------------------------
# Convexified objective parts and their price matrices.  Each coupling_*
# function is the exact piece of the objective, in bits, that gets
# linearized in the named block; the matching price matrix is its negative
# gradient, checked against finite differences by the test suite.
# ---------------------------------------------------------------------------


def coupling_term_a(ch: ChannelPair, q1, q2, w2: float) -> float:
    """Scenario A, first block: user 2's layered rate as a function of q1."""
    return w2 * layered_rate(ch.h2, q2, q1)


def price_matrix_a(ch: ChannelPair, q1, q2, w2: float) -> np.ndarray:
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    c = w2 / (2.0 * LN2)
    return c * (_gram(ch.h2, q1) - _gram(ch.h2, q1 + q2))


def coupling_term_b(ch: ChannelPair, q1, q2, w1: float, w2: float) -> float:
    """Scenario B, first block: leakage penalty plus user 2's layered rate."""
    return -w1 * gauss_rate(ch.h2, q1) + w2 * layered_rate(ch.h2, q2, q1)


def price_matrix_b(ch: ChannelPair, q1, q2, w1: float, w2: float) -> np.ndarray:
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    return (w1 + w2) / (2.0 * LN2) * _gram(ch.h2, q1) - w2 / (2.0 * LN2) * _gram(
        ch.h2, q1 + q2
    )


def coupling_term_c1(ch: ChannelPair, q1, q2, w1: float, w2: float) -> float:
    """Scenario C, first block: both leakage terms as a function of q1."""
    return (
        -(w1 + w2) * gauss_rate(ch.h2, q1)
        + w2 * gauss_rate(ch.h2, q1 + q2)
        - w2 * gauss_rate(ch.h1, q1 + q2)
    )


def price_matrix_c1(ch: ChannelPair, q1, q2, w1: float, w2: float) -> np.ndarray:
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    return price_matrix_b(ch, q1, q2, w1, w2) + w2 / (2.0 * LN2) * _gram(
        ch.h1, q1 + q2
    )


def coupling_term_c2(ch: ChannelPair, q1, q2, w2: float) -> float:
    """Scenario C, second block: user 1's leakage as a function of q2."""
    return -w2 * gauss_rate(ch.h1, q1 + q2)


def price_matrix_c2(ch: ChannelPair, q1, q2, w2: float) -> np.ndarray:
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    return w2 / (2.0 * LN2) * _gram(ch.h1, q1 + q2)


def closed_form_block(w: float, s, r, h) -> np.ndarray:
    """Exact maximizer of w*ln|I + R^{-1} H Q H^T| - tr(S Q) over PSD Q.

    ``s`` must be symmetric positive definite after a +1e-12*I jitter and
    ``r`` symmetric positive definite.  The solution loads the singular
    modes of R^{-1/2} H S^{-1/2} up to the level ``w``.
    """
    s = as_matrix(s, "s")
    r = as_matrix(r, "r")
    h = as_matrix(h, "h")
    s = 0.5 * (s + s.T) + _S_JITTER * np.eye(s.shape[0])
    ws, vs = np.linalg.eigh(s)
    if ws[0] <= 0:
        raise ValueError("penalty matrix is indefinite after regularization")
    s_isqrt = (vs / np.sqrt(ws)) @ vs.T
    wr, vr = np.linalg.eigh(0.5 * (r + r.T))
    if wr[0] <= 0:
        raise ValueError("noise matrix must be positive definite")
    r_isqrt = (vr / np.sqrt(wr)) @ vr.T
    _, sig, vt = np.linalg.svd(r_isqrt @ h @ s_isqrt)
    lam = np.zeros(s.shape[0])
    pos = sig > np.finfo(float).tiny ** 0.5
    lam[: sig.size][pos] = np.maximum(w - 1.0 / sig[pos] ** 2, 0.0)
    q = s_isqrt @ (vt.T * lam) @ vt @ s_isqrt
    return 0.5 * (q + q.T)


@dataclass(frozen=True)
class BsmmState:
    q1: np.ndarray
    q2: np.ndarray
    wsr: float
    lagrangian: float
    n_iters: int
    converged: bool


def bsmm_inner(
    ch: ChannelPair,
    scenario: Scenario,
    cfg: WsrConfig,
    lam: float,
    p: float,
) -> BsmmState:
    """Alternating closed-form block updates at a fixed multiplier.

    Starts from q1 = q2 = p/(2 nt) * I and stops when the weighted sum
    rate moves by less than ``cfg.eps3`` or after ``cfg.max_inner``
    rounds.  The Lagrangian is asserted nondecreasing each round; a
    violation beyond round-off signals a price-matrix bug and raises
    ``ConsistencyError``.
    """
    if lam <= 0:
        raise ValueError("the multiplier must be positive")
    nt = ch.nt
    eye = np.eye(nt)
    eye1 = np.eye(ch.n1)
    q1 = (p / (2.0 * nt)) * eye
    q2 = q1.copy()
    w1, w2 = cfg.w1, cfg.w2

    zero = np.zeros((1, nt, nt))

    def weighted_sum(q1, q2):
        # The unclamped rates: the ascent runs on the true objective.
        _, r1, r2 = rate_stack(ch, scenario, zero, q1[None], q2[None])[0, 0]
        return float(w1 * r1 + w2 * r2)

    def lagrangian(q1, q2, wsr):
        return wsr - lam * (float(np.trace(q1) + np.trace(q2)) - p)

    prev_lagr = lagrangian(q1, q2, weighted_sum(q1, q2))
    prev_wsr = 0.0
    wsr = 0.0
    converged = False
    i = 0
    for i in range(1, cfg.max_inner + 1):
        if scenario.tag == "A":
            a = price_matrix_a(ch, q1, q2, w2)
            q1 = closed_form_block(bits_block_weight(w1), lam * eye + a, eye1, ch.h1)
            q2 = closed_form_block(
                bits_block_weight(w2),
                lam * eye,
                np.eye(ch.n2) + ch.h2 @ q1 @ ch.h2.T,
                ch.h2,
            )
        elif scenario.tag == "B":
            a = price_matrix_b(ch, q1, q2, w1, w2)
            q1 = closed_form_block(bits_block_weight(w1), lam * eye + a, eye1, ch.h1)
            q2 = closed_form_block(
                bits_block_weight(w2),
                lam * eye,
                np.eye(ch.n2) + ch.h2 @ q1 @ ch.h2.T,
                ch.h2,
            )
        else:
            a = price_matrix_c1(ch, q1, q2, w1, w2)
            q1 = closed_form_block(
                bits_block_weight(w1 + w2), lam * eye + a, eye1, ch.h1
            )
            a2 = price_matrix_c2(ch, q1, q2, w2)
            q2 = closed_form_block(
                bits_block_weight(w2),
                lam * eye + a2,
                np.eye(ch.n2) + ch.h2 @ q1 @ ch.h2.T,
                ch.h2,
            )
        wsr = weighted_sum(q1, q2)
        lagr = lagrangian(q1, q2, wsr)
        if lagr < prev_lagr - _ASCENT_SLACK:
            raise ConsistencyError(
                f"Lagrangian fell from {prev_lagr} to {lagr}; price matrix is wrong"
            )
        prev_lagr = lagr
        if abs(wsr - prev_wsr) < cfg.eps3:
            converged = True
            break
        prev_wsr = wsr
    return BsmmState(q1, q2, wsr, prev_lagr, i, converged)


@dataclass(frozen=True)
class WsrSolution:
    q1: np.ndarray
    q2: np.ndarray
    rates: RateTriple
    lam: float
    converged: bool
    n_bisect: int


def wsr_solve(
    ch: ChannelPair, scenario: Scenario, cfg: WsrConfig, p: float
) -> WsrSolution:
    """Bisection on the power multiplier around the inner block solver.

    Power above the budget means the multiplier is too small and below
    means too large; the bracket halves until narrower than ``cfg.eps2``.
    The returned point is the last one inside the budget, so its power
    sits within one bisection band of the budget unless the constraint is
    slack, in which case the multiplier rests at the bottom of the
    bracket.
    """
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"power budget must be positive and finite, got {p}")
    nt = ch.nt
    if cfg.w1 == 0 and cfg.w2 == 0:
        zeros = np.zeros((nt, nt))
        rates = evaluate_triple(
            ch, scenario, CovarianceTriple(zeros, zeros, zeros, p), ORDER_12
        )
        return WsrSolution(zeros, zeros, rates, cfg.lambda_min, True, 0)

    def attempt(lo: float, hi: float):
        feasible = None
        n = 0
        while hi - lo > cfg.eps2:
            mid = 0.5 * (lo + hi)
            n += 1
            state = bsmm_inner(ch, scenario, cfg, mid, p)
            used = float(np.trace(state.q1) + np.trace(state.q2))
            if used < p:
                hi = mid
                feasible = (state, mid)
            else:
                lo = mid
        if feasible is None:
            state = bsmm_inner(ch, scenario, cfg, hi, p)
            used = float(np.trace(state.q1) + np.trace(state.q2))
            if used <= p * (1.0 + 1e-8):
                feasible = (state, hi)
        return feasible, n

    feasible, n = attempt(cfg.lambda_min, cfg.lambda_max)
    if feasible is None:
        wide = replace(
            cfg, lambda_min=cfg.lambda_min / 10.0, lambda_max=cfg.lambda_max * 10.0
        )
        feasible, n2 = attempt(wide.lambda_min, wide.lambda_max)
        n += n2
        if feasible is None:
            raise BracketError(
                f"no multiplier in [{wide.lambda_min}, {wide.lambda_max}] kept the "
                f"power within {p}"
            )
    state, lam = feasible
    zeros = np.zeros((nt, nt))
    rates = evaluate_triple(
        ch, scenario, CovarianceTriple(zeros, state.q1, state.q2, p), ORDER_12
    )
    return WsrSolution(state.q1, state.q2, rates, lam, state.converged, n)


def _positive_part_norm(g: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (g + g.T))
    return float(max(w[-1], 0.0))


def _lagrangian_gradients(
    ch: ChannelPair, scenario: Scenario, q1, q2, lam: float, w1: float, w2: float
) -> tuple:
    c1, c2 = bits_block_weight(w1), bits_block_weight(w2)
    eye = np.eye(ch.nt)
    if scenario.tag == "A":
        g1 = c1 * _gram(ch.h1, q1) + c2 * (
            _gram(ch.h2, q1 + q2) - _gram(ch.h2, q1)
        ) - lam * eye
        g2 = c2 * _gram(ch.h2, q1 + q2) - lam * eye
    elif scenario.tag == "B":
        g1 = (
            c1 * _gram(ch.h1, q1)
            - (c1 + c2) * _gram(ch.h2, q1)
            + c2 * _gram(ch.h2, q1 + q2)
            - lam * eye
        )
        g2 = c2 * _gram(ch.h2, q1 + q2) - lam * eye
    else:
        g1 = (
            (c1 + c2) * (_gram(ch.h1, q1) - _gram(ch.h2, q1))
            + c2 * (_gram(ch.h2, q1 + q2) - _gram(ch.h1, q1 + q2))
            - lam * eye
        )
        g2 = c2 * (_gram(ch.h2, q1 + q2) - _gram(ch.h1, q1 + q2)) - lam * eye
    return g1, g2


def kkt_residual(
    ch: ChannelPair,
    scenario: Scenario,
    q1,
    q2,
    lam: float,
    w1: float,
    w2: float,
    p: float,
) -> float:
    """Largest violation of the first-order optimality conditions.

    Returns the maximum over: each block's stationarity residual projected
    onto the PSD cone (the gradient must be negative semidefinite and
    orthogonal to the block), the complementary-slackness product
    lam * (p - used power), and the dual-feasibility violation (-lam)+.
    """
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    g1, g2 = _lagrangian_gradients(ch, scenario, q1, q2, lam, w1, w2)
    parts = [
        _positive_part_norm(g1),
        abs(float(np.tensordot(g1, q1))),
        _positive_part_norm(g2),
        abs(float(np.tensordot(g2, q2))),
        abs(lam * (p - float(np.trace(q1) + np.trace(q2)))),
        max(-lam, 0.0),
    ]
    return float(max(parts))


def wsr_sweep_points(
    ch: ChannelPair,
    scenario: Scenario,
    p: float,
    sigma: float = 0.05,
    base: WsrConfig | None = None,
) -> list:
    """Every solve of the weight sweep (w, 1 - w), as (point, solution) pairs.

    Scenarios whose encoding order matters are also solved with the user
    roles exchanged; the exchanged points are mapped back to user order
    and carry the "21" order tag, while their solutions stay in the
    exchanged roles.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    scenario_off = Scenario(scenario.tag, common_enabled=False)
    weights = []
    w = 0.0
    while w < 1.0 - 1e-12:
        weights.append(w)
        w += sigma
    weights.append(1.0)
    solved = []
    for w1 in weights:
        cfg = (
            replace(base, w1=w1, w2=1.0 - w1)
            if base is not None
            else WsrConfig(w1=w1, w2=1.0 - w1)
        )
        sol = wsr_solve(ch, scenario_off, cfg, p)
        solved.append((sol.rates, sol))
        if scenario_off.allows_order_swap:
            swapped = wsr_solve(ch.swapped(), scenario_off, cfg, p)
            point = RateTriple(0.0, swapped.rates.r2, swapped.rates.r1, ORDER_21)
            solved.append((point, swapped))
    return solved


def wsr_sweep(
    ch: ChannelPair,
    scenario: Scenario,
    p: float,
    sigma: float = 0.05,
    base: WsrConfig | None = None,
) -> RateRegion:
    """Frontier traced by sweeping the weight pair (w, 1 - w).

    The Pareto hull of the points of ``wsr_sweep_points``.
    """
    solved = wsr_sweep_points(ch, scenario, p, sigma, base)
    scenario_off = Scenario(scenario.tag, common_enabled=False)
    return RateRegion(tuple(hull_pareto([pt for pt, _ in solved])), scenario_off, p)
