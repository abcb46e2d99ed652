"""Weighted-sum-rate maximization without a shared message.

In scenarios A and B, the weighted sum of the two users' rates is
maximized under the total power constraint by a root search on the used power over the inverse of
the Lagrange multiplier of the power term (``wsr_solve``: secant steps up
from the multiplier at which no mode loads, then Illinois regula falsi
with a bisection fallback, to a relative power tolerance ``POWER_TOL``)
and, at each multiplier, running block-successive maximization: each
block keeps its own concave rate term exactly, the rest of the objective,
which is convex in that block, is replaced by its first-order expansion,
whose negative gradient is the block's price matrix (``block_price``), and
each penalized block then has the exact closed-form solution of
``closed_form_block``.

Block successive maximization converges linearly, and slowly where the
users' links are coupled, so the inner loop ``bsmm_inner`` accelerates it
with guarded SQUAREM steps (Varadhan & Roland, Scand. J. Stat. 2008).
After two plain rounds x1 = F(x0) and x2 = F(x1) of the state
x = (q1, q2), it extrapolates to x0 - 2 alpha r + alpha^2 v, with
r = x1 - x0, v = x2 - 2 x1 + x0 and alpha = min(-|r|/|v|, -1), projects
each block onto the PSD cone and runs one plain round from there.  That
round's result is kept only if its Lagrangian is no lower than x2's, so
the loop stays monotone and the ascent check runs on every round.

Sign and scale convention, fixed here once: every price matrix is the
exact negative gradient, in bits, of the linearized part of the
objective, and the block penalty is always lam*I + price.  This is the
unique choice under which the linearization is a true minorizer, which in
turn makes the Lagrangian ascent monotone; both properties are enforced
by tests, which check the prices by finite differences of
``rates.rate_stack``, and the ascent is asserted at runtime.

The closed-form block works in natural log, so bit-denominated block
weights are passed through ``bits_block_weight``.

One copy of each rule serves both the checked public functions and the
inner loop.  ``block_price`` forms its Gram matrices with
``rates.resolvent`` and hands them to the price core ``price_from_grams``;
``closed_form_block`` validates and whitens its inputs and hands them to
``load_modes``, built on the kernel of ``waterfill``; the weighted sum is
``rates.rate_rule`` applied to link values.  The inner loop calls the same
three functions and computes each link value it reads once per round.
``load_modes`` returns, besides the block, the log-determinant of its link
and, for a scalar penalty, the link's Gram matrix, both from the SVD that
loads the modes.  So block 1 gives user 1's link at q1, and one Cholesky
factor L of user 2's link matrix I + H2 q1 H2^T gives its log-determinant,
the Gram matrix Y^T Y with Y = L^{-1} H2 for the next block-1 price, and
the whitened channel Y of block 2.  Block 2 has no price, so its penalty
is the scalar lam; ``load_modes`` then skips the eigendecomposition of
the penalty, and block 2 gives user 2's link at q1 + q2, so a round
factors one link matrix.  The factors and the mode loading call numpy's
LAPACK gufuncs directly, as the matrices have only a few rows and numpy's
per-call wrappers would cost more than the routines.

Scenario C, where both messages are confidential, runs no BSMM: its
weighted sum is one ascent over the secret-DPC corner, which covers both
encoding orders (``corner.corner_search``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, inv

from .corner import corner_search
from .rates import (
    LN2,
    _factor,
    evaluate_triple,
    identity,
    link_logdet,
    link_rate_grad,
    rate_rule,
    resolvent,
)
from .splitting import _alpha_grid, hull_pareto
from .types import (
    ORDER_12,
    ORDER_21,
    ChannelPair,
    ConsistencyError,
    CovarianceTriple,
    DimensionError,
    RateRegion,
    RateTriple,
    Scenario,
    as_matrix,
)
from .waterfill import load_level, singular_modes

# Ascent of the Lagrangian is exact in the algebra; this slack absorbs
# eigensolver round-off only.  The Lagrangian grows like lambda * p, so
# the check also allows a few ulps of its value.  And a covariance's
# entries round to ulps of its power, which moves a link value H Q H^T by
# about eps ||H||^2 tr(Q), so the check allows _LINK_ROUNDING times the
# weights, the largest squared channel norm and the power as well.
_ASCENT_SLACK = 1e-9
_LINK_ROUNDING = 16 * np.finfo(float).eps

_S_JITTER = 1e-12


# The dual search (see ``wsr_solve``) stops once a point within the budget
# uses at least (1 - POWER_TOL) of it.  An inner solve stops when the
# weighted sum moves by less than EPS3, or after MAX_INNER rounds.
POWER_TOL = 1e-9
EPS3 = 1e-9
MAX_INNER = 500
# The dual search's cap on inner solves, and the regula falsi steps it
# allows without halving the bracket before it takes a bisection step.
_MAX_SOLVES = 100
_HALVING_STEPS = 3


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


def bits_block_weight(w: float) -> float:
    """Natural-log block weight equivalent to (w/2)*log2 in the objective."""
    return w / (2.0 * LN2)


def _check_bsmm_scenario(scenario: Scenario) -> None:
    """BSMM serves scenarios A and B; C runs the corner search."""
    if scenario.user2_confidential:
        raise ValueError("scenario C has no BSMM blocks: wsr_solve runs the corner search")


def price_from_grams(scenario: Scenario, w1: float, w2: float, block: int, g2_1, g2_12):
    """The price core: a block's price from the Gram matrices of the links.

    ``g2_1`` and ``g2_12`` are H2^T (I + H2 X H2^T)^{-1} H2, in natural
    units, at X = q1 and at q1 + q2; only block 1 reads them, and block 2
    may pass None.  Returns the price matrix, or 0.0 when the block has no
    price.  The scenario is trusted to be A or B (see ``block_price``).
    """
    if block != 1:
        return 0.0
    leak = w1 if scenario.user1_confidential else 0.0
    return ((leak + w2) * g2_1 - w2 * g2_12) / (2.0 * LN2)


def block_price(
    ch: ChannelPair,
    scenario: Scenario,
    q1,
    q2,
    w1: float,
    w2: float,
    block: int,
) -> np.ndarray:
    """Price matrix of one block: the negative gradient, in bits, of the part
    of w1*R1 + w2*R2 (order "12", no shared message) that the block linearizes.

    With g_u(X) = 0.5*log2|I + Hu X Hu^T|, and c1 = 1 when user 1's
    message is confidential (scenario B) and 0 otherwise (A), the objective
    is w1*(g1(q1) - c1*g2(q1)) + w2*(g2(q1 + q2) - g2(q1)).  Block 1 keeps
    w1*g1(q1) and block 2 keeps user 2's layered rate
    w2*(g2(q1 + q2) - g2(q1)); what is left is convex in the block, and
    block 2's price is zero.  The Grams come from ``rates.resolvent`` and
    go through ``price_from_grams``, the core that the inner loop calls
    too.  Scenario C has no blocks and raises ``ValueError``.
    """
    if block not in (1, 2):
        raise ValueError(f"block must be 1 or 2, got {block!r}")
    _check_bsmm_scenario(scenario)
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    g2_1 = g2_12 = None
    if block == 1:
        g2_1 = resolvent(ch.h2, q1)[2]
        g2_12 = resolvent(ch.h2, q1 + q2)[2]
    return np.zeros((ch.nt, ch.nt)) + price_from_grams(
        scenario, w1, w2, block, g2_1, g2_12
    )


def load_modes(w: float, s, y: np.ndarray) -> tuple:
    """Exact maximizer of w*ln|I + Y Q Y^T| - tr(S Q) over PSD Q.

    Returns ``(q, ln|I + Y Q Y^T|, gram)``.  ``y`` is an already whitened
    channel.  The penalty ``s`` is either a symmetric matrix, of which only
    the lower triangle is read, or a scalar c standing for S = c*I; it must
    be positive definite after a +1e-12*I jitter, or ``ValueError`` is
    raised, and nothing else is checked.  Water-filling's kernel
    (``waterfill.singular_modes``, ``load_level``) loads the kept modes of
    Y S^{-1/2} = U diag(sig) V^T with lam_i = (w - 1/sig_i^2)+, so
    Q = S^{-1/2} V diag(lam) V^T S^{-1/2}, and gives the log-determinant
    sum_i ln(1 + sig_i^2 lam_i) from the same SVD.
    For a scalar penalty ``gram`` is Y^T (I + Y Q Y^T)^{-1} Y =
    V diag(c sig_i^2 / (1 + sig_i^2 lam_i)) V^T, the Gram matrix that
    ``rates.resolvent`` would give at the returned q; for a matrix penalty
    it is None.  The scalar penalty needs no eigendecomposition, and its q
    equals that of the matrix c*I bit for bit when ``y`` holds no -0.0, as
    no product from ``rates.resolvent`` does.
    """
    # A Python float (np.float64 included) skips np.ndim's ~2 us.
    if isinstance(s, float) or np.ndim(s) == 0:
        c = s + _S_JITTER
        if c <= 0:
            raise ValueError("penalty is not positive after regularization")
        r = 1.0 / math.sqrt(c)
        vt, sig, k = singular_modes(y * r)
        lam, logdet = load_level(w, sig, k)
        # The product order of the matrix case with S^{-1/2} = r*I.
        q = ((vt.T * lam) * r) @ vt * r
        # The Gram as Z Z^T, which numpy forms exactly symmetric.
        z = vt.T * [math.sqrt(c * (v * v) / (1.0 + v * v * x)) for v, x in zip(sig, lam)]
        gram = z @ z.T
    else:
        s = s + _jitter(y.shape[1])
        ws, vs = eigh_lo(s)
        # The gufunc returns NaN throughout when it does not converge.
        if ws[0] != ws[0]:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        if ws[0] <= 0:
            raise ValueError("penalty matrix is indefinite after regularization")
        s_isqrt = (vs / np.sqrt(ws)) @ vs.T
        vt, sig, k = singular_modes(y @ s_isqrt)
        lam, logdet = load_level(w, sig, k)
        q = s_isqrt @ (vt.T * lam) @ vt @ s_isqrt
        gram = None
    return 0.5 * (q + q.T), logdet, gram


@lru_cache(maxsize=None)
def _jitter(nt: int) -> np.ndarray:
    """The penalty jitter _S_JITTER * I, built once per size and read-only."""
    jitter = _S_JITTER * identity(nt)
    jitter.flags.writeable = False
    return jitter


def closed_form_block(w: float, s, r, h) -> np.ndarray:
    """Exact maximizer of w*ln|I + R^{-1} H Q H^T| - tr(S Q) over PSD Q.

    ``r`` must be square with ``h``'s rows and ``s`` square with its
    columns, or ``DimensionError`` is raised.  ``s`` must be positive
    definite after a +1e-12*I jitter and ``r`` positive definite; both are
    symmetrized first.  With R = L L^T, the Cholesky factor from
    ``rates._factor``, the channel is whitened to L^{-1} H, which leaves
    the objective unchanged, and ``load_modes`` solves the whitened
    problem.
    """
    s = as_matrix(s, "s")
    r = as_matrix(r, "r")
    h = as_matrix(h, "h")
    nr, nt = h.shape
    if r.shape != (nr, nr):
        raise DimensionError(f"r must be {nr} x {nr} to match h, got shape {r.shape}")
    if s.shape != (nt, nt):
        raise DimensionError(f"s must be {nt} x {nt} to match h, got shape {s.shape}")
    s = 0.5 * (s + s.T)
    try:
        chol = _factor(r)[1]
    except np.linalg.LinAlgError:
        raise ValueError("noise matrix must be positive definite") from None
    return load_modes(w, s, inv(chol) @ h)[0]


@dataclass(frozen=True)
class BsmmState:
    """An inner solve's end point and what it did.

    ``n_iters`` counts every BSMM round, the one after each extrapolated
    point included, and ``n_extrapolated`` the SQUAREM steps kept.
    ``wsr`` is the weighted sum of the unclamped rates at the end point.
    """

    q1: np.ndarray
    q2: np.ndarray
    n_iters: int
    converged: bool
    n_extrapolated: int
    wsr: float


class _Point(NamedTuple):
    """A point of the inner loop: the blocks, the Grams of the next block-1
    price (user 2 at q1 and at q1 + q2), and the weighted sum, Lagrangian
    and power there."""

    q1: np.ndarray
    q2: np.ndarray
    grams: tuple
    wsr: float
    lagr: float
    used: float


def _psd_part(x: np.ndarray) -> np.ndarray:
    """Each symmetric matrix of the stack ``x`` with its negative
    eigenvalues set to 0, symmetrized."""
    w, v = eigh_lo(x)
    x = (v * np.maximum(w, 0.0)[:, None, :]) @ v.mT
    return 0.5 * (x + x.mT)


def bsmm_inner(
    ch: ChannelPair,
    scenario: Scenario,
    cfg: WsrConfig,
    lam: float,
    p: float,
) -> BsmmState:
    """Alternating closed-form block updates at a fixed multiplier, with
    guarded SQUAREM steps.

    Starts from q1 = q2 = p/(2 nt) * I.  A round F maps x = (q1, q2) to
    the next pair of blocks, and the Lagrangian is asserted nondecreasing
    over each round; a violation beyond round-off signals a price-matrix
    bug and raises ``ConsistencyError``.  After every two kept rounds
    x1 = F(x0), x2 = F(x1), a SQUAREM step (Varadhan & Roland, Scand. J.
    Stat. 2008) extrapolates them: with r = x1 - x0, v = x2 - 2 x1 + x0
    and alpha = min(-|r|/|v|, -1) in the Frobenius norm over both blocks,
    x' = x0 - 2 alpha r + alpha^2 v, each block projected onto the PSD
    cone.  At alpha = -1, x' would be x2, and the loop goes on from x2.
    Otherwise the link values at x' are computed afresh and one round
    gives x3 = F(x'), kept only if its Lagrangian is no lower than x2's;
    else the loop goes on from x2.  A step so long that round-off defeats
    a factor at x' or a factor or penalty of the round from it is dropped
    the same way.  So the Lagrangian never falls from
    kept point to kept point.  The loop stops when the weighted sum rate
    moves by less than ``EPS3`` between consecutive kept points, or after
    ``MAX_INNER`` rounds, counting each round from an extrapolated point.

    A round computes only the link values it reads, each once, and the
    weighted sum is ``rates.rate_rule`` on them.  Block 1's mode loading
    gives user 1's log-determinant at q1.  One ``rates.resolvent`` factor
    of user 2 at the new q1 gives its log-determinant and the Gram of the
    next block-1 price, and whitens block 2's channel.  Block 2's price is
    zero and its penalty goes to ``load_modes`` as the scalar lam; its
    modes then give user 2's link at q1 + q2, as
    |M2(q1 + q2)| = |M2(q1)| |I + Y2 q2 Y2^T| with M2(X) = I + H2 X H2^T,
    and the Gram of the next block-1 price, so the round factors nothing
    else.  The start and each extrapolated point, which no round produced,
    factor user 2 at q1 and at q1 + q2, which the next price reads, and
    user 1 at q1.  Scenario C, which has no blocks, raises ``ValueError``.
    The other inputs are trusted: ``wsr_solve`` and the ``WsrConfig`` and
    ``ChannelPair`` constructors check them.
    """
    _check_bsmm_scenario(scenario)
    if lam <= 0:
        raise ValueError("the multiplier must be positive")
    nt = ch.nt
    h1, h2 = ch.h1, ch.h2
    lam_eye = lam * identity(nt)
    w1, w2 = cfg.w1, cfg.w2
    k1 = bits_block_weight(w1)
    k2 = bits_block_weight(w2)
    half = 0.5 / LN2
    rounding = _LINK_ROUNDING * (w1 + w2) * max(np.vdot(h1, h1), np.vdot(h2, h2))

    def end_point(q1, q2, ld1_1, ld2_1, ld2_12, grams):
        # The unclamped rates: the ascent runs on the true objective.  With
        # q0 = 0 the shared entries are None and r0 is not computed; order
        # "12" never reads the q2 entries, nor, with user 2's message not
        # confidential, user 1's at q1 + q2.
        links = (
            (None, None, half * ld1_1, None),
            (None, half * ld2_12, half * ld2_1, None),
        )
        _, r1, r2 = rate_rule(scenario, links)[0]
        wsr = float(w1 * r1 + w2 * r2)
        # The power as a float sum of each diagonal, which adds in the order
        # of ndarray.trace at a fraction of its per-call cost.
        used = sum(q1.diagonal().tolist()) + sum(q2.diagonal().tolist())
        return _Point(q1, q2, grams, wsr, wsr - lam * (used - p), used)

    def refresh(q1, q2):
        # The link values at a point that no round produced.
        ld2_1, _, g2_1 = resolvent(h2, q1)
        ld2_12, _, g2_12 = resolvent(h2, q1 + q2)
        ld1_1 = link_logdet(h1, q1)
        return end_point(q1, q2, ld1_1, ld2_1, ld2_12, (g2_1, g2_12))

    def bsmm_round(x):
        price = price_from_grams(scenario, w1, w2, 1, *x.grams)
        q1, ld1_1, _ = load_modes(k1, lam_eye + price, h1)
        ld2_1, y2, g2_1 = resolvent(h2, q1)
        # No price: the scalar penalty lam, whose modes give user 2's link
        # at q1 + q2 relative to q1, and the Gram there.
        q2, ld2_2, g2_12 = load_modes(k2, lam, y2)
        y = end_point(q1, q2, ld1_1, ld2_1, ld2_1 + ld2_2, (g2_1, g2_12))
        # The blocks ascend with the penalty lam + _S_JITTER (see
        # load_modes), so the Lagrangian at lam may also fall by _S_JITTER
        # times the power a round gives up.
        slack = (
            _ASCENT_SLACK
            + 16 * math.ulp(x.lagr)
            + rounding * max(x.used, y.used)
            + _S_JITTER * max(x.used - y.used, 0.0)
        )
        if y.lagr < x.lagr - slack:
            raise ConsistencyError(
                f"Lagrangian fell from {x.lagr} to {y.lagr}; price matrix is wrong"
            )
        return y

    def extrapolate(x0, x1, x2):
        # The SQUAREM point, or None where alpha = -1 (x' = x2) or v = 0.
        r = np.stack((x1.q1 - x0.q1, x1.q2 - x0.q2))
        v = np.stack((x2.q1 - x1.q1, x2.q2 - x1.q2)) - r
        norm_r, norm_v = math.sqrt(np.vdot(r, r)), math.sqrt(np.vdot(v, v))
        if not norm_r > norm_v > 0.0:
            return None
        alpha = -norm_r / norm_v
        x = np.stack((x0.q1, x0.q2)) - (2.0 * alpha) * r + (alpha * alpha) * v
        try:
            return refresh(*_psd_part(x))
        except np.linalg.LinAlgError:
            # So long a step that round-off defeats a factor at its point.
            return None

    start = (p / (2.0 * nt)) * identity(nt)
    x = refresh(start, start)
    prev_wsr = 0.0
    kept = [x]  # the kept points since the last step
    rival = None  # x2, while the round from its extrapolated point runs
    n_iters = n_extrapolated = 0
    converged = False
    while n_iters < MAX_INNER:
        try:
            x = bsmm_round(x)
        except (np.linalg.LinAlgError, ValueError):
            # From an extrapolated point so far out that round-off makes a
            # factor or a penalty fail, the round is dropped like one whose
            # Lagrangian falls; from a kept point it is an error.
            if rival is None:
                raise
            x = None
        n_iters += 1
        if rival is not None:
            if x is None or x.lagr < rival.lagr:
                x, kept, rival = rival, [rival], None
                continue
            n_extrapolated += 1
            rival = None
        if abs(x.wsr - prev_wsr) < EPS3:
            converged = True
            break
        prev_wsr = x.wsr
        kept.append(x)
        if len(kept) == 3 and n_iters < MAX_INNER:
            step = extrapolate(*kept)
            if step is None:
                kept = [x]
            else:
                x, kept, rival = step, [], x
    return BsmmState(x.q1, x.q2, n_iters, converged, n_extrapolated, x.wsr)


@dataclass(frozen=True)
class WsrSolution:
    """A weighted-sum-rate point and what its search did.

    ``lam`` is the multiplier of the returned point and ``unused`` the
    budget it leaves, p minus its power.  In scenarios A and B,
    ``n_bisect`` counts the inner solves of the multiplier search,
    ``n_rounds`` sums their BSMM rounds, ``n_capped`` counts those that
    stopped at ``MAX_INNER`` rounds without converging, and
    ``n_extrapolated`` sums the SQUAREM steps they kept.  In scenario C
    those are 0, and ``n_ascents`` counts the corner search's ascents,
    ``n_evals`` the evaluations of their objective, ``n_batches`` the
    stacked calls that made them (see ``rotation._lockstep``) and
    ``n_unconverged_ascents`` those that stopped at
    ``rotation.MAX_ITERS``; ``lam`` is then the
    multiplier that the corner's gradient G at the result S implies,
    <G, S> / p.
    """

    q1: np.ndarray
    q2: np.ndarray
    rates: RateTriple
    lam: float
    converged: bool
    n_bisect: int
    n_rounds: int
    n_capped: int
    n_extrapolated: int
    unused: float
    n_ascents: int = 0
    n_evals: int = 0
    n_unconverged_ascents: int = 0
    n_batches: int = 0


def wsr_solve(
    ch: ChannelPair, scenario: Scenario, cfg: WsrConfig, p: float
) -> WsrSolution:
    """In scenarios A and B, a root search on the used power over x = 1/lam
    around the inner solver.

    Every block penalty is lam*I plus a PSD price, and block 2's whitened
    channel is no larger than H2, so no mode loads power at
    lam >= idle = max(k1 ||H1||^2, k2 ||H2||^2), over the blocks'
    natural-log weights k and spectral norms: the power is 0 for
    x <= 1/idle, and that end of the bracket needs no solve.  Past it a
    lone mode of weight k loads k x - 1/sig^2, so the power is close to
    piecewise linear in x, with a kink where a mode switches on.

    The search steps up from 1/idle, first by p/k for the idle block's k,
    then by the secant through the last two points, held to 2 to 16 times
    the last step, until the power exceeds the budget: where the power is
    concave in x the secant falls short of the budget, and the floor makes
    the step-up bracket it instead of creeping up on it.  Illinois regula
    falsi then narrows the bracket, with a bisection step whenever
    ``_HALVING_STEPS`` steps in a row have not halved it.  The search stops
    when a point within the budget uses at least (1 - ``POWER_TOL``) of it,
    when the bracket is 4 ulps wide, or after ``_MAX_SOLVES`` inner solves.
    The step-up also stops when the constraint is slack: when the unused
    budget, priced at the multiplier, is worth at most ``POWER_TOL`` of the
    best weighted sum so far.  The power need not be monotone in x, as
    inner solves may end at different stationary points, so the search
    returns the point within the budget with the highest weighted sum that
    it visited; the zero covariance, at lam = idle, is one.

    Scenario C runs no BSMM but the secret-DPC corner search
    (``corner.corner_search``).  Either way the rates are
    ``rates.evaluate_triple``'s on the original channels, under order "12".
    """
    if not (np.isfinite(p) and p > 0):
        raise ValueError(f"power budget must be positive and finite, got {p}")
    zeros = np.zeros((ch.nt, ch.nt))
    if scenario.user2_confidential:
        found = corner_search(ch, cfg.w1, cfg.w2, p)
        q1, q2 = found.q1, found.q2
        rates = evaluate_triple(ch, scenario, CovarianceTriple(zeros, q1, q2, p), ORDER_12)
        unused = p - float(np.trace(q1) + np.trace(q2))
        counts = found.n_ascents, found.n_evals, found.n_unconverged, found.n_batches
        return WsrSolution(q1, q2, rates, found.lam, found.converged, 0, 0, 0, 0, unused, *counts)
    k1 = bits_block_weight(cfg.w1)
    k2 = bits_block_weight(cfg.w2)
    g1, g2 = k1 * np.linalg.norm(ch.h1, 2) ** 2, k2 * np.linalg.norm(ch.h2, 2) ** 2
    idle = float(max(g1, g2))
    best = [0.0, None, idle]  # weighted sum, state, multiplier
    n_solves = n_rounds = n_capped = n_extrapolated = 0

    def power(x: float) -> float:
        # The power used at lam = 1/x; records the best point within budget.
        nonlocal n_solves, n_rounds, n_capped, n_extrapolated
        state = bsmm_inner(ch, scenario, cfg, 1.0 / x, p)
        n_solves += 1
        n_rounds += state.n_iters
        n_capped += not state.converged
        n_extrapolated += state.n_extrapolated
        used = float(np.trace(state.q1) + np.trace(state.q2))
        if used <= p and state.wsr > best[0]:
            best[:] = state.wsr, state, 1.0 / x
        return used

    # The search aims at the middle of the window [(1 - POWER_TOL) p, p], so
    # that it stops whichever side of the middle it lands on.
    target = p * (1.0 - 0.5 * POWER_TOL)

    def reached(used: float) -> bool:
        return (1.0 - POWER_TOL) * p <= used <= p

    def slack(x: float, used: float) -> bool:
        # The unused budget, priced at lam = 1/x, can raise the weighted sum
        # by at most lam (p - used) where the inner point maximizes the
        # Lagrangian: once that is POWER_TOL of the best sum so far, or, while
        # nothing has loaded, once lam is POWER_TOL of idle, the constraint
        # is slack to the tolerance.
        if best[0] > 0.0:
            return (p - used) / x <= POWER_TOL * best[0]
        return x * idle * POWER_TOL >= 1.0

    # The penalties carry the _S_JITTER of load_modes, so where idle is no
    # larger no mode loads at any multiplier.
    if idle > _S_JITTER:
        # Step up by secant until the power exceeds the target:
        # a < b, fa < 0 < fb, with f the power less the target.
        a, fa = 1.0 / idle, -target
        step = max(p / (k1 if g1 >= g2 else k2), 4.0 * math.ulp(a))
        b = a + step
        used = power(b)
        fb = used - target
        while (
            fb <= 0.0
            and not reached(used)
            and not slack(b, used)
            and n_solves < _MAX_SOLVES
        ):
            secant = -fb * step / (fb - fa) if fb > fa else math.inf
            step = min(max(secant, 2.0 * step), 16.0 * step)
            a, fa, b = b, fb, b + step
            used = power(b)
            fb = used - target
        # Illinois regula falsi on [a, b], with a bisection step whenever
        # the bracket has not halved for _HALVING_STEPS steps.  sb stays
        # positive unless the step-up stopped below the target.
        sa, sb, side = fa, fb, 0  # the end values, halved on a repeated side
        width, stalled = b - a, 0
        while (
            sb > 0.0
            and not reached(used)
            and n_solves < _MAX_SOLVES
            and b - a > 4.0 * math.ulp(b)
        ):
            x = 0.5 * (a + b)
            if stalled < _HALVING_STEPS:
                falsi = a - sa * (b - a) / (sb - sa)
                if a < falsi < b:
                    x = falsi
            used = power(x)
            if used <= target:
                a, sa = x, used - target
                if side < 0:
                    sb *= 0.5
                side = -1
            else:
                b, sb = x, used - target
                if side > 0:
                    sa *= 0.5
                side = 1
            if b - a <= 0.5 * width:
                width, stalled = b - a, 0
            else:
                stalled += 1
    _, state, lam = best
    q1, q2, converged = (zeros, zeros, True) if state is None else (
        state.q1, state.q2, state.converged
    )
    rates = evaluate_triple(ch, scenario, CovarianceTriple(zeros, q1, q2, p), ORDER_12)
    return WsrSolution(
        q1,
        q2,
        rates,
        lam,
        converged,
        n_solves,
        n_rounds,
        n_capped,
        n_extrapolated,
        p - float(np.trace(q1) + np.trace(q2)),
    )


def _positive_part_norm(g: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (g + g.T))
    return float(max(w[-1], 0.0))


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
    Block 2 has no price, and scenario C, which has no blocks, raises
    ``ValueError``.
    """
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    eye = np.eye(ch.nt)
    g1 = (
        w1 * link_rate_grad(ch.h1, q1)[1]
        - block_price(ch, scenario, q1, q2, w1, w2, 1)
        - lam * eye
    )
    g2 = w2 * link_rate_grad(ch.h2, q1 + q2)[1] - lam * eye
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
) -> list:
    """Every solve of the weight sweep (w, 1 - w), as (point, solution) pairs.

    Scenario A is also solved with the user roles exchanged; the exchanged
    points are mapped back to user order and carry the "21" order tag,
    while their solutions stay in the exchanged roles.  Scenario B has one
    order, and C's corner search covers both in one solve.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    scenario_off = Scenario(scenario.tag, common_enabled=False)
    solved = []
    for w1 in _alpha_grid(sigma, 1.0):
        cfg = WsrConfig(w1=w1, w2=1.0 - w1)
        sol = wsr_solve(ch, scenario_off, cfg, p)
        solved.append((sol.rates, sol))
        if scenario_off.allows_order_swap and not scenario_off.user2_confidential:
            swapped = wsr_solve(ch.swapped(), scenario_off, cfg, p)
            point = RateTriple(0.0, swapped.rates.r2, swapped.rates.r1, ORDER_21)
            solved.append((point, swapped))
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
