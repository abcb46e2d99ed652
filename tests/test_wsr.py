import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion import (
    ChannelPair,
    Scenario,
    WsrConfig,
    gauss_rate,
    solve_wiretap,
    waterfill,
    wsr_solve,
)
from secregion.corner import _corner, _lift
from secregion.rates import LN2, evaluate_triple, rate_stack, resolvent
from secregion.rotation import fw_gap
from secregion.splitting import SweepCounts
from secregion.types import ORDER_12, CovarianceTriple
from secregion.waterfill import SV_CUTOFF_REL
from secregion.wsr import _weighted_sum, wsr_sweep, wsr_sweep_points

from conftest import WSR_PRICE_PAIRS, fd_gradient, random_psd, wsr_linearized_part

# The reference loop's stop rule: the weighted sum moves by less than EPS3,
# or MAX_INNER rounds.
EPS3 = 1e-9
MAX_INNER = 500


def bits_block_weight(w):
    """Natural-log block weight equivalent to (w/2)*log2 in the objective."""
    return w / (2.0 * LN2)


def idle_multiplier(ch, cfg, k1=None):
    """max(k1 ||H1||^2, k2 ||H2||^2): at a larger multiplier no mode loads.

    Block 1's weight is w1 unless ``k1`` (in bits) says otherwise."""
    k1 = bits_block_weight(cfg.w1 if k1 is None else k1)
    k2 = bits_block_weight(cfg.w2)
    return max(k1 * np.linalg.norm(ch.h1, 2) ** 2, k2 * np.linalg.norm(ch.h2, 2) ** 2)


def random_instance(rng, nt=2, n1=2, n2=2):
    ch = ChannelPair(rng.standard_normal((n1, nt)), rng.standard_normal((n2, nt)))
    q1 = random_psd(rng, nt, float(rng.uniform(0.2, 3)))
    q2 = random_psd(rng, nt, float(rng.uniform(0.2, 3)))
    return ch, q1, q2


class TestPriceMatrices:
    def test_a_zero_when_q2_zero(self, ch22):
        q1 = random_psd(np.random.default_rng(0), 2, 2.0)
        a = ab_price(ch22, Scenario("A", False), q1, np.zeros((2, 2)), 1.0, 1.0, 1)
        assert np.allclose(a, 0.0, atol=1e-12)

    def test_a_scalar_value(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        a = ab_price(ch, Scenario("A", False), [[0.0]], [[1.0]], 1.0, 1.0, 1)
        assert a[0, 0] == pytest.approx((1.0 - 0.5) / (2.0 * LN2), abs=1e-12)

    def test_b_scalar_value(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        a = ab_price(ch, Scenario("B", False), [[0.0]], [[0.0]], 1.0, 1.0, 1)
        assert a[0, 0] == pytest.approx(1.0 / (2.0 * LN2), abs=1e-12)

    def test_b_pure_leakage_when_w2_zero(self, ch22):
        rng = np.random.default_rng(1)
        q1 = random_psd(rng, 2, 1.0)
        q2 = random_psd(rng, 2, 1.0)
        a = ab_price(ch22, Scenario("B", False), q1, q2, 0.7, 0.0, 1)
        m = np.eye(2) + ch22.h2 @ q1 @ ch22.h2.T
        ref = 0.7 / (2 * LN2) * ch22.h2.T @ np.linalg.solve(m, ch22.h2)
        assert np.allclose(a, ref, atol=1e-12)

    def test_bad_block_rejected(self, ch22):
        with pytest.raises(ValueError, match="block"):
            ab_price(ch22, Scenario("A", False), np.eye(2), np.eye(2), 1.0, 1.0, 0)

    @pytest.mark.parametrize("which", [*WSR_PRICE_PAIRS, "c1", "c2"])
    def test_matches_finite_differences(self, which):
        # c1 and c2 check the scenario-C prices of the reference loop.
        tag, block = WSR_PRICE_PAIRS.get(which) or ("C", int(which[1]))
        sc = Scenario(tag, False)
        rng = np.random.default_rng([ord(tag), block])
        for _ in range(10):
            ch, q1, q2 = random_instance(rng)
            w1, w2 = float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 1))
            if tag == "C":
                price = c_price(ch, q1, q2, w1, w2, block)
            else:
                price = ab_price(ch, sc, q1, q2, w1, w2, block)
            part = wsr_linearized_part(ch, sc, q1, q2, w1, w2, block)
            ref = -fd_gradient(part, q1 if block == 1 else q2)
            assert np.linalg.norm(price - ref) <= 1e-5 * max(1.0, np.linalg.norm(ref))

    def test_prices_are_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch, q1, q2 = random_instance(rng)
            for tag, block in WSR_PRICE_PAIRS.values():
                a = ab_price(ch, Scenario(tag, False), q1, q2, 0.5, 0.8, block)
                assert np.allclose(a, a.T, atol=1e-12)
                assert np.linalg.eigvalsh(a)[0] >= -1e-10

    def test_minorizer_validity(self):
        # convexity of the linearized parts means the linearization at any
        # point lies below the function everywhere
        rng = np.random.default_rng(4)
        for _ in range(20):
            ch, q1, q2 = random_instance(rng)
            w1, w2 = 0.6, 0.9
            for tag, block in WSR_PRICE_PAIRS.values():
                sc = Scenario(tag, False)
                part = wsr_linearized_part(ch, sc, q1, q2, w1, w2, block)
                price = ab_price(ch, sc, q1, q2, w1, w2, block)
                at = q1 if block == 1 else q2
                f0 = part(at)
                for _ in range(10):
                    x = random_psd(rng, 2, float(rng.uniform(0.1, 4)))
                    bound = f0 - float(np.tensordot(price, x - at))
                    assert part(x) >= bound - 1e-9


class TestClosedFormBlock:
    def test_zero_weight(self):
        q = closed_form_block(0.0, np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(q, 0.0, atol=1e-12)

    def test_scalar_boundary(self):
        q = closed_form_block(1.0, [[1.0]], [[1.0]], [[1.0]])
        assert q[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_scalar_interior(self):
        # first-order condition w*h^2/(1 + h^2 q) = s gives q = 3/4
        q = closed_form_block(1.0, [[1.0]], [[1.0]], [[2.0]])
        assert q[0, 0] == pytest.approx(0.75, abs=1e-10)

    def test_maximizes_reference_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 2
            h = rng.standard_normal((n, n))
            s = random_psd(rng, n, 2.0) + 0.5 * np.eye(n)
            r = random_psd(rng, n, 1.0) + np.eye(n)
            w = float(rng.uniform(0.2, 2))

            def obj(q):
                m = np.eye(n) + np.linalg.solve(r, h @ q @ h.T)
                sign, logdet = np.linalg.slogdet(m)
                return w * logdet - float(np.tensordot(s, q))

            qstar = closed_form_block(w, s, r, h)
            base = obj(qstar)
            assert np.linalg.eigvalsh(qstar)[0] >= -1e-10
            for _ in range(300):
                q = random_psd(rng, n, float(rng.uniform(0.01, 3)))
                assert base >= obj(q) - 1e-8


def numpy_load_modes(w, s, y):
    """The mode-loading kernel written with numpy.linalg, as a reference."""
    s = 0.5 * (s + s.T) + 1e-12 * np.eye(s.shape[0])
    ws, vs = np.linalg.eigh(s)
    s_isqrt = (vs / np.sqrt(ws)) @ vs.T
    _, sig, vt = np.linalg.svd(y @ s_isqrt)
    lam = np.zeros(s.shape[0])
    kept = sig**2 > (SV_CUTOFF_REL * sig[0]) ** 2
    with np.errstate(divide="ignore"):
        lam[: sig.size] = np.where(kept, np.maximum(w - 1.0 / sig**2, 0.0), 0.0)
    q = s_isqrt @ (vt.T * lam) @ vt @ s_isqrt
    return 0.5 * (q + q.T)


class TestBsmmInner:
    """The reference loop, ``plain_bsmm``, at fixed multipliers."""

    def test_single_block_degenerate(self, ch22):
        # with w1 = 0 the first block stays at zero and the second is a
        # single closed-form load against the multiplier
        cfg = WsrConfig(w1=0.0, w2=1.0)
        trace = []
        q1, _ = plain_bsmm(ch22, Scenario("A", False), cfg, 0.2, 12.0, trace=trace)
        assert np.allclose(q1, 0.0, atol=1e-12)
        assert len(trace) < MAX_INNER

    def test_monotone_lagrangian_no_raise(self, ch22, ch_row3):
        for ch in (ch22, ch_row3):
            for tag in ("A", "B"):
                cfg = WsrConfig(w1=0.7, w2=0.3)
                trace = []
                plain_bsmm(ch, Scenario(tag, False), cfg, 0.15, 10.0, trace=trace)
                assert_monotone(trace)

    def test_wiretap_cross_agreement(self, ch22):
        cfg = WsrConfig(w1=1.0, w2=0.0)
        sol = wsr_solve(ch22, Scenario("B", False), cfg, 12.0)
        ref = solve_wiretap(ch22.h1, ch22.h2, 12.0)
        assert sol.rates.r1 == pytest.approx(ref.rate, abs=1e-3)

    def test_mid_bracket_convergence(self, ch_row3):
        # Half the idle multiplier, above which no mode loads power.
        cfg = WsrConfig(w1=1.0, w2=1.0)
        lam_mid = 0.5 * idle_multiplier(ch_row3, cfg)
        trace = []
        q1, q2 = plain_bsmm(ch_row3, Scenario("A", False), cfg, lam_mid, 10.0, trace=trace)
        assert len(trace) < 200
        assert np.trace(q1) + np.trace(q2) > 0.0


class TestWsrSolve:
    def test_waterfill_regime(self):
        ch = ChannelPair(np.eye(2), np.diag([2.0, 1.0]))
        cfg = WsrConfig(w1=0.0, w2=1.0)
        sol = wsr_solve(ch, Scenario("A", False), cfg, 1.0)
        assert sol.rates.r2 == pytest.approx(0.5 * np.log2(4.5 * 1.125), abs=1e-3)

    def test_power_within_budget(self, ch22):
        cfg = WsrConfig(w1=0.5, w2=0.5)
        sol = wsr_solve(ch22, Scenario("C", False), cfg, 12.0)
        used = float(np.trace(sol.q1) + np.trace(sol.q2))
        assert sol.unused == 12.0 - used
        # binding constraint on this instance
        assert 12.0 * (1 - 1e-9) <= used <= 12.0

    @pytest.mark.parametrize("p", [1e4, 1e6, 1e8])
    def test_high_power_reaches_waterfill(self, p):
        # With w1 = 0 the problem is water-filling user 2's channel.  An
        # absolute 1e-5 bracket on the multiplier once stopped this search
        # at lam = 1.05e-5, 68,459 units of power at every p from 1e5 on.
        ch = ChannelPair([[1.0, 0.5]], [[0.3, 1.0]])
        sol = wsr_solve(ch, Scenario("A", False), WsrConfig(0.0, 1.0), p)
        assert abs(sol.rates.r2 - waterfill(ch.h2, p)[1]) <= 1e-6
        assert 0.0 <= sol.unused <= 1e-6 * p

    @pytest.mark.parametrize("tag, p", [("A", 1e8), ("C", 1e12)])
    def test_high_power_rounds_pass_ascent_check(self, tag, p):
        # The ascents stay finite and within the budget at high power.
        ch = ChannelPair([[0.3, 1.0]], [[1.0, 0.5]])
        sol = wsr_solve(ch, Scenario(tag, False), WsrConfig(0.5, 0.5), p)
        assert 0.0 <= sol.unused < p

    @pytest.mark.parametrize("w1", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("tag", ["A", "B", "C"])
    def test_tiny_budget_spent(self, tag, w1):
        # At p 1e-9 the reference's power rises from 0 to 1000 p within
        # 0.03% of the multiplier; the ascent spends the budget and meets
        # the reference.
        ch, p = ChannelPair([[20.0, 5.0]], [[4.0, 30.0]]), 1e-9
        sc, cfg = Scenario(tag, False), WsrConfig(w1, 1.0 - w1)
        sol = wsr_solve(ch, sc, cfg, p)
        assert 0.0 <= sol.unused <= 1e-6 * p
        zero = np.zeros((2, 2))
        ref = evaluate_triple(
            ch, sc, CovarianceTriple(zero, *bisect_wsr(ch, sc, cfg, p), p), ORDER_12
        )
        want = cfg.w1 * ref.r1 + cfg.w2 * ref.r2
        assert cfg.w1 * sol.rates.r1 + cfg.w2 * sol.rates.r2 >= want * (1 - 2e-9)

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.0, 0.0)])
    def test_non_finite_budget_rejected(self, ch22, budget, weights):
        with pytest.raises(ValueError, match="finite"):
            wsr_solve(ch22, Scenario("A", False), WsrConfig(*weights), budget)

    def test_zero_weights_shortcut(self, ch22):
        # No start has a positive value, so no ascent runs.
        sol = wsr_solve(ch22, Scenario("A", False), WsrConfig(0.0, 0.0), 5.0)
        assert sol.rates.as_array().tolist() == [0.0, 0.0, 0.0]
        assert (sol.n_ascents, sol.n_unconverged_ascents, sol.gap) == (0, 0, 0.0)

    def test_power_monotone_in_multiplier(self, ch22):
        # The reference loop spends less power at a higher multiplier.
        cfg = WsrConfig(w1=0.5, w2=0.5)
        sc = Scenario("A", False)
        powers = []
        for lam in (0.05, 0.1, 0.2, 0.4, 0.8):
            q1, q2 = plain_bsmm(ch22, sc, cfg, lam, 12.0)
            powers.append(float(np.trace(q1) + np.trace(q2)))
        assert all(b <= a + 1e-6 for a, b in zip(powers, powers[1:]))

    def test_weak_duality_at_solution(self, ch22):
        cfg = WsrConfig(w1=0.4, w2=0.6)
        sc = Scenario("B", False)
        sol = wsr_solve(ch22, sc, cfg, 12.0)
        used = float(np.trace(sol.q1) + np.trace(sol.q2))
        zero = np.zeros((1, 2, 2))
        _, r1, r2 = rate_stack(ch22, sc, zero, sol.q1[None], sol.q2[None])[0, 0]
        primal = cfg.w1 * r1 + cfg.w2 * r2
        dual_lower = primal - sol.lam * (used - 12.0)
        assert dual_lower >= primal - 1e-12

    def test_zero_gap_on_scalar_instance(self):
        # global optimum by grid search; the dual estimate must match it
        ch = ChannelPair([[1.0]], [[0.6]])
        sc = Scenario("C", False)
        w1, w2, p = 0.7, 0.3, 2.0
        grid = np.linspace(0, p, 401)
        best = 0.0
        for t1 in grid:
            r1 = 0.5 * (np.log2(1 + t1) - np.log2(1 + 0.36 * t1))
            for t2 in grid[grid <= p - t1 + 1e-12]:
                r2 = 0.5 * (
                    np.log2(1 + 0.36 * (t1 + t2))
                    - np.log2(1 + 0.36 * t1)
                    - np.log2(1 + t1 + t2)
                    + np.log2(1 + t1)
                )
                best = max(best, w1 * max(r1, 0) + w2 * max(r2, 0))
        sol = wsr_solve(ch, sc, WsrConfig(w1=w1, w2=w2), p)
        primal = w1 * sol.rates.r1 + w2 * sol.rates.r2
        assert primal == pytest.approx(best, abs=2e-3)

    def test_ascent_violation_detected(self, ch22):
        # A deliberately mis-scaled price breaks the minorizer, and the
        # reference loop's Lagrangian falls: the monotone check that the
        # prices are tested by is not vacuous.
        sc, cfg = Scenario("A", False), WsrConfig(1.0, 1.0)

        def wrong(ch, sc, q1, q2, w1, w2, block):
            return 4.0 * ab_price(ch, sc, q1, q2, w1, w2, block)

        trace = []
        plain_bsmm(ch22, sc, cfg, 0.05, 12.0, trace=trace, price=wrong)
        with pytest.raises(AssertionError):
            assert_monotone(trace)


class TestWsrConfig:
    def test_fields_are_the_weights(self):
        assert [f.name for f in dataclasses.fields(WsrConfig)] == ["w1", "w2"]

    @pytest.mark.parametrize("field", ["w1", "w2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, field, value):
        kwargs = {"w1": 1.0, "w2": 0.5, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            WsrConfig(**kwargs)

    @pytest.mark.parametrize("field", ["w1", "w2"])
    def test_negative_weight_rejected(self, field):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            WsrConfig(**{"w1": 1.0, "w2": 0.5, field: -0.1})


# The no-common wsr solves of the benchmark: every (weight, order) solve of
# wsr_sweep_points at sigma 0.5; rates and multipliers to 1e-12, counts
# exactly, and each job's search counts.  Each solve's "floor" is the
# weighted value, in the solution's own roles, that the block successive
# maximization reached there before the factor ascent replaced it; C's
# solves are the corner search's, one per weight, and their floor is the
# better of the two orders that BSMM solved before.
WSR_COUNTS = ("n_ascents", "n_unconverged_ascents")
WSR_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "wsr_golden.json").read_text()
)


def test_wsr_golden(request):
    for key, job in WSR_GOLDEN["jobs"].items():
        name, tag, power = key.split("-")
        ch, p = request.getfixturevalue(name), float(power[1:])
        counts = SweepCounts()
        got = wsr_sweep_points(ch, Scenario(tag, False), p, sigma=0.5, counts=counts)
        want = job["solves"]
        assert len(got) == len(want)
        assert (counts.search_batches, counts.search_rows) == (
            job["search_batches"],
            job["search_rows"],
        ), key
        for (point, sol), ref in zip(got, want):
            assert point.order == ref["order"]
            assert np.abs(sol.rates.as_array() - ref["rates"]).max() <= 1e-12, key
            assert sol.converged == ref["converged"], key
            assert abs(sol.lam - ref["lam"]) <= 1e-12, key
            counts = tuple(getattr(sol, name) for name in WSR_COUNTS)
            assert counts == tuple(ref[name] for name in WSR_COUNTS), key
            # In the solution's own roles, whatever the order tag.
            value = ref["w1"] * sol.rates.r1 + (1.0 - ref["w1"]) * sol.rates.r2
            assert value >= ref["floor"] - 1e-12, key
            assert 0.0 <= sol.unused <= 1e-9 * p, key


# The plain loop converges slowly where the users' links are coupled, above
# all at the end weights; each of its solves within the budget is still a
# lower bound on the optimum, and the warm starts of ``bisect_wsr`` carry
# its progress from one multiplier to the next.
REFERENCE_ROUNDS = 100
_SLACK_X = 2.0**60


def bisect_wsr(ch, sc, cfg, p, rtol=0.0):
    """The paper's multiplier search, as plain bisection on x = 1/lam, as a
    reference.

    From 1/idle, at which no mode loads, x doubles until the power exceeds
    p; then the bracket halves until it is 4 ulps wide, or ``rtol`` times
    x.  Where x grows ``_SLACK_X``-fold without reaching the budget, the
    budget does not bind.  Each multiplier runs ``plain_bsmm`` from the
    last solve's blocks, for at most ``REFERENCE_ROUNDS`` rounds.  Returns
    the blocks of the last inner solve within the budget (zero if there is
    none).
    """
    confidential2 = sc.user2_confidential
    blocks = None

    def solve(x):
        q1, q2 = plain_bsmm(ch, sc, cfg, 1.0 / x, p, blocks, REFERENCE_ROUNDS)
        return (q1, q2), float(np.trace(q1) + np.trace(q2))

    zero = np.zeros((ch.nt, ch.nt))
    feasible = (zero, zero)
    start = lo = 1.0 / idle_multiplier(ch, cfg, cfg.w1 + cfg.w2 if confidential2 else None)
    hi = 2.0 * lo
    blocks, used = solve(hi)
    while used <= p:
        feasible, lo, hi = blocks, hi, 2.0 * hi
        if hi > _SLACK_X * start:
            return feasible  # the budget does not bind
        blocks, used = solve(hi)
    while hi - lo > max(4.0 * math.ulp(hi), rtol * hi):
        mid = 0.5 * (lo + hi)
        blocks, used = solve(mid)
        if used <= p:
            feasible, lo = blocks, mid
        else:
            hi = mid
    return feasible


@st.composite
def budget_cases(draw):
    """A channel pair (nt 1-4, 1-4 rows each), a scenario, weights that are
    0 one time in three and otherwise in [0.01, 1], and a budget log-uniform
    in [1e-6, 1e6]."""
    nt = draw(st.integers(1, 4))
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ch = ChannelPair(rng.standard_normal((n1, nt)), rng.standard_normal((n2, nt)))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    cfg = WsrConfig(draw(weight), draw(weight))
    return ch, Scenario(draw(st.sampled_from("ABC")), False), cfg, 10.0 ** draw(
        st.floats(-6.0, 6.0)
    )


@settings(max_examples=150, deadline=None)
@given(budget_cases())
def test_power_budget_at_every_scale(case):
    # Never over the budget.  Where the weighted sum is one user's
    # water-filling (scenarios A and B with w1 = 0, scenario A with w2 = 0)
    # the power is continuous and unbounded in 1/lam, so the search also
    # spends the budget and reaches water-filling's rate.  With both blocks
    # active the inner solves can end at different stationary points on
    # either side of a multiplier, and the power can jump past the budget.
    ch, sc, cfg, p = case
    sol = wsr_solve(ch, sc, cfg, p)
    used = float(np.trace(sol.q1) + np.trace(sol.q2))
    assert used <= p * (1 + 1e-8)
    assert sol.unused == p - used
    if sc.tag in "AB" and cfg.w1 == 0.0 < cfg.w2:
        h, rate = ch.h2, sol.rates.r2
    elif sc.tag == "A" and cfg.w2 == 0.0 < cfg.w1:
        h, rate = ch.h1, sol.rates.r1
    else:
        return
    assert used >= (1 - 1e-6) * p
    want = waterfill(h, p)[1]
    assert abs(rate - want) <= 1e-6 * want


@pytest.mark.parametrize("tag", ["A", "C"])
def test_swapping_users_mirrors_sweep(ch_row3, tag):
    # The weight grid is symmetric.  In A each weight is solved in both
    # roles, so exchanging the users exchanges r1 and r2 and the order
    # tags, exactly.  C's corner search covers both orders in one solve,
    # with the users' terms exchanged bit for bit, and each point is its
    # lifted pair under order "12"; the pairs of the two problems are split
    # off one factor by complementary projectors, so their rates agree to
    # round-off.
    scenario = Scenario(tag, common_enabled=False)
    region = wsr_sweep(ch_row3, scenario, 4.0, 0.5)
    swapped = wsr_sweep(ch_row3.swapped(), scenario, 4.0, 0.5)
    if tag == "A":
        mirror = {"12": "21", "21": "12"}
        assert sorted((t.r1, t.r2, t.order) for t in region.points) == sorted(
            (t.r2, t.r1, mirror[t.order]) for t in swapped.points
        )
        return
    assert {t.order for t in region.points} == {t.order for t in swapped.points} == {"12"}
    got = np.array(sorted((t.r1, t.r2) for t in region.points))
    want = np.array(sorted((t.r2, t.r1) for t in swapped.points))
    assert got.shape == want.shape and np.abs(got - want).max() <= 1e-12


def ab_price(ch, sc, q1, q2, w1, w2, block):
    """Scenarios A and B's BSMM block prices, kept here for the reference
    loop: the negative gradient, in bits, of the part of w1 R1 + w2 R2
    (order "12", no shared message) that the block linearizes.

    With g_u(X) = 0.5 log2|I + Hu X Hu^T| and c1 = 1 when user 1's message
    is confidential (B) and 0 otherwise (A), the objective is
    w1 (g1(q1) - c1 g2(q1)) + w2 (g2(q1 + q2) - g2(q1)).  Block 1 keeps
    w1 g1(q1) and block 2 keeps user 2's layered rate; what is left is
    convex in the block, and block 2's price is zero.
    """
    if block not in (1, 2):
        raise ValueError(f"block must be 1 or 2, got {block!r}")
    if block == 2:
        return np.zeros((ch.nt, ch.nt))
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    leak = w1 if sc.user1_confidential else 0.0
    g2_1, g2_12 = resolvent(ch.h2, q1)[2], resolvent(ch.h2, q1 + q2)[2]
    return ((leak + w2) * g2_1 - w2 * g2_12) / (2.0 * LN2)


def c_price(ch, q1, q2, w1, w2, block):
    """Scenario C's BSMM block prices, kept here for the reference loop.

    In C block 1 keeps (w1 + w2) g1(q1), and user 2's secrecy term
    -w2 (g1(q1 + q2) - g1(q1)) adds w2 times user 1's Gram at q1 + q2 to
    the price of either block, beside block 1's user-2 terms of scenario B.
    """
    price = w2 * resolvent(ch.h1, q1 + q2)[2]
    if block == 1:
        g2_1, g2_12 = resolvent(ch.h2, q1)[2], resolvent(ch.h2, q1 + q2)[2]
        price = price + (w1 + w2) * g2_1 - w2 * g2_12
    return price / (2.0 * LN2)


def closed_form_block(w, s, r, h):
    """Exact maximizer of w ln|I + R^{-1} H Q H^T| - tr(S Q) over PSD Q:
    ``numpy_load_modes`` on the channel whitened by R = L L^T, L^{-1} H,
    which leaves the objective unchanged."""
    s, r, h = (np.asarray(m, dtype=float) for m in (s, r, h))
    return numpy_load_modes(w, s, np.linalg.solve(np.linalg.cholesky(r), h))


def plain_bsmm(ch, sc, cfg, lam, p, start=None, rounds=MAX_INNER, trace=None, price=None):
    """The paper's inner loop, block successive maximization at a fixed
    multiplier, as a reference: alternating closed-form blocks from
    ``start``, by default q1 = q2 = p/(2 nt) I, until the weighted sum
    moves by less than EPS3, or after ``rounds`` rounds.  The blocks take
    ``ab_price``, or in scenario C ``c_price`` and block 1 the weight
    w1 + w2; ``price`` replaces the scenario's price.  ``trace``, when
    given, collects the Lagrangian after each round."""
    w1, w2 = cfg.w1, cfg.w2
    confidential2 = sc.user2_confidential
    k1 = (w1 + w2 if confidential2 else w1) / (2.0 * LN2)
    k2 = w2 / (2.0 * LN2)
    if price is None:
        price = (lambda ch, sc, *args: c_price(ch, *args)) if confidential2 else ab_price

    lam_eye = lam * np.eye(ch.nt)
    q1, q2 = start or ((p / (2.0 * ch.nt)) * np.eye(ch.nt),) * 2
    prev_wsr = 0.0
    for _ in range(rounds):
        penalty = lam_eye + price(ch, sc, q1, q2, w1, w2, 1)
        q1 = closed_form_block(k1, penalty, np.eye(ch.n1), ch.h1)
        noise = np.eye(ch.n2) + ch.h2 @ q1 @ ch.h2.T
        penalty = lam_eye + price(ch, sc, q1, q2, w1, w2, 2)
        q2 = closed_form_block(k2, penalty, noise, ch.h2)
        wsr = lagrangian(ch, sc, cfg, 0.0, 0.0, q1, q2)
        if trace is not None:
            trace.append(lagrangian(ch, sc, cfg, lam, p, q1, q2))
        if abs(wsr - prev_wsr) < EPS3:
            break
        prev_wsr = wsr
    return q1, q2


def lagrangian(ch, sc, cfg, lam, p, q1, q2):
    """w1 R1 + w2 R2 - lam (tr q1 + tr q2 - p), on the unclamped rates."""
    zero = np.zeros((1, ch.nt, ch.nt))
    _, r1, r2 = rate_stack(ch, sc, zero, q1[None], q2[None])[0, 0]
    return cfg.w1 * r1 + cfg.w2 * r2 - lam * (np.trace(q1) + np.trace(q2) - p)


def assert_monotone(trace):
    """Each Lagrangian of the reference loop at least the one before, up
    to eigensolver round-off."""
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9 - 16 * math.ulp(before), (before, after)


def pair_gap(ch, sc, w1, w2, q1, q2, p):
    """The Frank-Wolfe gap of w1 R1 + w2 R2 over the pairs within p, at
    (q1, q2), from the ascent's own gradient."""
    q = np.array((q1, q2), dtype=float)
    g = _weighted_sum(sc, ch.h1, ch.h2)(q[None], np.array([w1]), np.array([w2]))[1][0]
    return fw_gap(g, q, p)


class TestKktResidual:
    """Stationarity as the Frank-Wolfe gap over the pair."""

    def test_stationary_scalar_solution(self):
        # hand-built stationary point: q2 solves the single-block problem,
        # and it spends the budget
        ch = ChannelPair([[1.0]], [[1.0]])
        sc = Scenario("A", False)
        lam = 0.1
        q2 = 1.0 / (2.0 * lam * LN2) - 1.0
        res = pair_gap(ch, sc, 0.0, 1.0, np.zeros((1, 1)), [[q2]], q2)
        assert abs(res) < 1e-8

    def test_perturbation_increases_residual(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        sc = Scenario("A", False)
        lam = 0.1
        q2 = 1.0 / (2.0 * lam * LN2) - 1.0
        base = pair_gap(ch, sc, 0.0, 1.0, np.zeros((1, 1)), [[q2]], q2)
        bumped = pair_gap(ch, sc, 0.0, 1.0, np.zeros((1, 1)), [[q2 - 0.1]], q2)
        assert bumped >= 10 * max(abs(base), 1e-12)

    def test_slack_power_zero_multiplier(self, ch22):
        zero = np.zeros((2, 2))
        assert pair_gap(ch22, Scenario("A", False), 0.0, 0.0, zero, zero, 5.0) == 0.0


def orders(ch, sc, cfg):
    """The (pair, weights) of each encoding order that the region of ``sc``
    has: order "12" on the pair as given and, in A and C, order "21" as
    order "12" on the exchanged pair with the weights exchanged, whose
    weighted sum in its own roles is the same sum."""
    pairs = [(ch, cfg)]
    if sc.allows_order_swap:
        pairs.append((ch.swapped(), WsrConfig(cfg.w2, cfg.w1)))
    return pairs


def bsmm_reference(ch, sc, cfg, p, rtol=1e-9):
    """The paper's method, plain BSMM under the bisected multiplier: its
    best weighted sum over the orders of ``orders``.

    The bisection stops at ``rtol`` of the multiplier, so the reference is
    a point within the budget.
    """
    zero = np.zeros((ch.nt, ch.nt))
    best = 0.0
    for pair, weights in orders(ch, sc, cfg):
        q1, q2 = bisect_wsr(pair, sc, weights, p, rtol)
        rates = evaluate_triple(pair, sc, CovarianceTriple(zero, q1, q2, p), ORDER_12)
        best = max(best, weights.w1 * rates.r1 + weights.w2 * rates.r2)
    return best


class TestCornerSearch:
    """Scenario C's WSR: one ascent over the secret-DPC corner."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(0.0, 1.0))
    def test_gradient_matches_finite_differences(self, seed, nt, w1):
        rng = np.random.default_rng(seed)
        h1 = rng.standard_normal((int(rng.integers(1, 5)), nt))
        h2 = rng.standard_normal((int(rng.integers(1, 5)), nt))
        f = rng.standard_normal((nt, nt))
        value, grad = _corner(h1, h2, w1, 1.0 - w1, f)
        assert value >= 0.0
        for i in range(nt):
            for j in range(nt):
                t = 1e-6 * max(1.0, abs(f[i, j]))
                up, down = f.copy(), f.copy()
                up[i, j] += t
                down[i, j] -= t
                fd = (
                    _corner(h1, h2, w1, 1.0 - w1, up)[0]
                    - _corner(h1, h2, w1, 1.0 - w1, down)[0]
                ) / (2.0 * t)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_lifted_pair_rates_at_the_corner(self, seed, nt):
        # evaluate_triple of the lifted pair under order "12" gives C1 and
        # C2 of the covariance it splits.
        rng = np.random.default_rng(seed)
        ch = ChannelPair(
            rng.standard_normal((int(rng.integers(1, 5)), nt)),
            rng.standard_normal((int(rng.integers(1, 5)), nt)),
        )
        p = 10.0 ** rng.uniform(-3.0, 4.0)
        s = random_psd(rng, nt, p)
        q1, q2 = _lift(ch.h1, ch.h2, s, p)
        assert np.trace(q1) + np.trace(q2) <= p
        assert np.allclose(q1 + q2, s, rtol=0.0, atol=1e-12 * p)
        rates = evaluate_triple(
            ch, Scenario("C", False), CovarianceTriple(np.zeros_like(s), q1, q2, p)
        )
        f = np.linalg.cholesky(s + 1e-300 * np.eye(nt))
        c1 = _corner(ch.h1, ch.h2, 1.0, 0.0, f)[0]
        c2 = _corner(ch.h1, ch.h2, 0.0, 1.0, f)[0]
        assert abs(rates.r1 - c1) <= 1e-9 * max(1.0, c1)
        assert abs(rates.r2 - c2) <= 1e-9 * max(1.0, c2)

    @pytest.mark.parametrize("w1", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("pair", ["identical", "degraded", "one-row"])
    def test_kink_and_degenerate_pairs(self, pair, w1):
        # Pairs whose pencil has eigenvalues at 1, where log2+ has its kink:
        # identical users (the region is {0}), a degraded user 2 (every mode
        # of user 1 has lam > 1, every other lam = 1) and one-row users at
        # nt 3 (one lam above 1, one below, one at 1).
        rng = np.random.default_rng(21)
        h1 = rng.standard_normal((2, 3))
        h2 = {
            "identical": h1,
            "degraded": 0.5 * h1,
            "one-row": rng.standard_normal((1, 3)),
        }[pair]
        if pair == "one-row":
            h1 = h1[:1]
        ch, p = ChannelPair(h1, h2), 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = wsr_solve(ch, Scenario("C", False), WsrConfig(w1, 1.0 - w1), p)
        rates = sol.rates.as_array()
        assert np.isfinite(rates).all() and (rates >= 0.0).all()
        assert 0.0 <= sol.unused <= p
        if pair == "identical":
            assert not rates.any()
        elif pair == "degraded":
            # User 2 has no secrecy at any covariance; where user 1 has
            # weight the point is user 1's wiretap solve.
            assert sol.rates.r2 <= 1e-12
            if w1 > 0.0:
                assert abs(sol.rates.r1 - solve_wiretap(h1, h2, p).rate) <= 1e-9

    def test_one_solve_per_weight_covers_both_orders(self, ch22):
        solved = wsr_sweep_points(ch22, Scenario("C", False), 12.0, sigma=0.25)
        assert [pt.order for pt, _ in solved] == ["12"] * 5
        for pt, sol in solved:
            assert pt is sol.rates
            assert sol.n_ascents == 5 and sol.n_unconverged_ascents == 0

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.floats(0.0, 1.0),
        st.floats(-3.0, 4.0),
        st.sampled_from("ABC"),
    )
    def test_never_below_the_bsmm_reference(self, seed, nt, w1, log_p, tag):
        # Every scenario's ascent against the paper's method, over the
        # orders of the region: C's corner search covers both in one
        # solve, and A solves each order as the sweep does.
        rng = np.random.default_rng(seed)
        ch = ChannelPair(
            rng.standard_normal((int(rng.integers(1, 5)), nt)),
            rng.standard_normal((int(rng.integers(1, 5)), nt)),
        )
        sc, cfg, p = Scenario(tag, False), WsrConfig(w1, 1.0 - w1), 10.0**log_p
        got = 0.0
        for pair, weights in orders(ch, sc, cfg) if tag != "C" else [(ch, cfg)]:
            sol = wsr_solve(pair, sc, weights, p)
            got = max(got, weights.w1 * sol.rates.r1 + weights.w2 * sol.rates.r2)
        want = bsmm_reference(ch, sc, cfg, p)
        assert got >= want - 1e-9 * want


class TestFactorAscent:
    """Scenarios A and B as the two-block factor ascent of ``rotation``."""

    @pytest.mark.parametrize("tag", ["A", "B", "C"])
    def test_gradient_matches_finite_differences(self, tag):
        # The jets through rate_rule give the gradient of the rate_stack
        # weighted sum in each block.
        sc = Scenario(tag, False)
        rng = np.random.default_rng([ord(tag), 7])
        for _ in range(10):
            ch, q1, q2 = random_instance(rng, nt=int(rng.integers(1, 4)), n2=1)
            w1, w2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            q = np.array((q1, q2))
            value, grad = _weighted_sum(sc, ch.h1, ch.h2)(q[None], np.array([w1]), np.array([w2]))
            zero = np.zeros((1, ch.nt, ch.nt))

            def weighted(a, b):
                _, r1, r2 = rate_stack(ch, sc, zero, a[None], b[None])[0, 0]
                return w1 * r1 + w2 * r2

            assert abs(value[0] - weighted(q1, q2)) <= 1e-12 * max(1.0, abs(value[0]))
            for block, at in ((0, q1), (1, q2)):
                f = (lambda x: weighted(x, q2)) if block == 0 else (lambda x: weighted(q1, x))
                ref = fd_gradient(f, at)
                assert np.abs(grad[0, block] - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())

    def test_stack_rows_as_alone(self, ch22, ch22b):
        # Rows of several problems, each with its own channels and weights,
        # give what each gives alone, bit for bit.
        rng = np.random.default_rng(3)
        chans = [ch22, ch22b, ch22.swapped()]
        owner = np.array([2, 0, 1, 1, 0], dtype=np.intp)
        w1, w2 = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
        q = np.array([[random_psd(rng, 2, 3.0) for _ in range(2)] for _ in owner])
        for sc in (Scenario("A", False), Scenario("B", False)):
            together = _weighted_sum(
                sc, np.array([c.h1 for c in chans]), np.array([c.h2 for c in chans])
            )(q, w1[owner], w2[owner], owner)
            for i, k in enumerate(owner):
                alone = _weighted_sum(sc, chans[k].h1, chans[k].h2)(
                    q[i : i + 1], w1[k : k + 1], w2[k : k + 1]
                )
                assert together[0][i] == alone[0][0]
                assert np.array_equal(together[1][i], alone[1][0])

    @pytest.mark.parametrize("tag", ["A", "B", "C"])
    def test_sweep_solves_are_each_weights_solve(self, ch_row3, tag):
        # wsr_solve is the one-problem case of the sweep's lockstep, bit
        # for bit, in either orientation of the pair.
        sc = Scenario(tag, False)
        solved = wsr_sweep_points(ch_row3, sc, 4.0, 0.25)
        pairs = (ch_row3, ch_row3.swapped()) if tag == "A" else (ch_row3,)
        jobs = [(pair, w) for w in (0.0, 0.25, 0.5, 0.75, 1.0) for pair in pairs]
        assert len(solved) == len(jobs)
        for (pair, w), (_, sol) in zip(jobs, solved):
            alone = wsr_solve(pair, sc, WsrConfig(w, 1.0 - w), 4.0)
            assert np.array_equal(alone.q1, sol.q1) and np.array_equal(alone.q2, sol.q2)
            assert (alone.rates, alone.gap, alone.lam) == (sol.rates, sol.gap, sol.lam)

    @pytest.mark.parametrize("sigma", [0.5, 0.05])
    @pytest.mark.parametrize("tag", ["A", "B"])
    @pytest.mark.parametrize("name, p", [("ch22", 12.0), ("ch22b", 10.0), ("ch_row3", 4.0)])
    def test_stationary_to_the_value(self, request, name, p, tag, sigma):
        # Every point of the sweep ends with a Frank-Wolfe gap of at most
        # 1e-7 of its weighted sum.
        ch = request.getfixturevalue(name)
        grid = np.linspace(0.0, 1.0, round(1 / sigma) + 1)
        solved = wsr_sweep_points(ch, Scenario(tag, False), p, sigma)
        per = len(solved) // len(grid)
        for k, (_, sol) in enumerate(solved):
            w1 = grid[k // per]
            value = w1 * sol.rates.r1 + (1.0 - w1) * sol.rates.r2
            assert sol.gap <= 1e-7 * value, (k, sol.gap, value)

    @pytest.mark.parametrize("p", [1e9, 1e12])
    def test_high_power_spends_the_budget(self, p):
        # The A sweep on this pair spends its budget at every weight, and
        # its (1, 0) end point is user 1's water-filling capacity (20.0925
        # bits at p 1e12).
        ch = ChannelPair([[1.0, 0.5]], [[0.3, 1.0]])
        solved = wsr_sweep_points(ch, Scenario("A", False), p, 0.5)
        assert max(sol.unused for _, sol in solved) <= 1e-6 * p
        want = waterfill(ch.h1, p)[1]
        end = [sol for point, sol in solved if point.order == "12"][-1]
        assert abs(end.rates.r1 - want) <= 1e-9 * want
