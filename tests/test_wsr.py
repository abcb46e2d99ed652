import numpy as np
import pytest

from secregion import (
    ChannelPair,
    ConsistencyError,
    Scenario,
    WsrConfig,
    block_price,
    bsmm_inner,
    closed_form_block,
    kkt_residual,
    solve_wiretap,
    waterfill,
    wsr_solve,
)
from secregion.rates import LN2, rate_stack

from conftest import WSR_PRICE_PAIRS, fd_gradient, random_psd, wsr_linearized_part


def random_instance(rng, nt=2, n1=2, n2=2):
    ch = ChannelPair(rng.standard_normal((n1, nt)), rng.standard_normal((n2, nt)))
    q1 = random_psd(rng, nt, float(rng.uniform(0.2, 3)))
    q2 = random_psd(rng, nt, float(rng.uniform(0.2, 3)))
    return ch, q1, q2


class TestPriceMatrices:
    def test_a_zero_when_q2_zero(self, ch22):
        q1 = random_psd(np.random.default_rng(0), 2, 2.0)
        a = block_price(ch22, Scenario("A", False), q1, np.zeros((2, 2)), 1.0, 1.0, 1)
        assert np.allclose(a, 0.0, atol=1e-12)

    def test_a_scalar_value(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        a = block_price(ch, Scenario("A", False), [[0.0]], [[1.0]], 1.0, 1.0, 1)
        assert a[0, 0] == pytest.approx((1.0 - 0.5) / (2.0 * LN2), abs=1e-12)

    def test_b_scalar_value(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        a = block_price(ch, Scenario("B", False), [[0.0]], [[0.0]], 1.0, 1.0, 1)
        assert a[0, 0] == pytest.approx(1.0 / (2.0 * LN2), abs=1e-12)

    def test_b_pure_leakage_when_w2_zero(self, ch22):
        rng = np.random.default_rng(1)
        q1 = random_psd(rng, 2, 1.0)
        q2 = random_psd(rng, 2, 1.0)
        a = block_price(ch22, Scenario("B", False), q1, q2, 0.7, 0.0, 1)
        m = np.eye(2) + ch22.h2 @ q1 @ ch22.h2.T
        ref = 0.7 / (2 * LN2) * ch22.h2.T @ np.linalg.solve(m, ch22.h2)
        assert np.allclose(a, ref, atol=1e-12)

    def test_bad_block_rejected(self, ch22):
        with pytest.raises(ValueError, match="block"):
            block_price(ch22, Scenario("A", False), np.eye(2), np.eye(2), 1.0, 1.0, 0)

    @pytest.mark.parametrize("which", list(WSR_PRICE_PAIRS))
    def test_matches_finite_differences(self, which):
        tag, block = WSR_PRICE_PAIRS[which]
        sc = Scenario(tag, False)
        rng = np.random.default_rng([ord(tag), block])
        for _ in range(10):
            ch, q1, q2 = random_instance(rng)
            w1, w2 = float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 1))
            price = block_price(ch, sc, q1, q2, w1, w2, block)
            part = wsr_linearized_part(ch, sc, q1, q2, w1, w2, block)
            ref = -fd_gradient(part, q1 if block == 1 else q2)
            assert np.linalg.norm(price - ref) <= 1e-5 * max(1.0, np.linalg.norm(ref))

    def test_prices_are_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch, q1, q2 = random_instance(rng)
            for tag, block in WSR_PRICE_PAIRS.values():
                a = block_price(ch, Scenario(tag, False), q1, q2, 0.5, 0.8, block)
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
                price = block_price(ch, sc, q1, q2, w1, w2, block)
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

    def test_indefinite_penalty_rejected(self):
        with pytest.raises(ValueError):
            closed_form_block(1.0, [[-1.0]], [[1.0]], [[1.0]])


class TestBsmmInner:
    def test_single_block_degenerate(self, ch22):
        # with w1 = 0 the first block stays at zero and the second is a
        # single closed-form load against the multiplier
        cfg = WsrConfig(w1=0.0, w2=1.0)
        st = bsmm_inner(ch22, Scenario("A", False), cfg, 0.2, 12.0)
        assert np.allclose(st.q1, 0.0, atol=1e-12)
        assert st.converged

    def test_monotone_lagrangian_no_raise(self, ch22, ch_row3):
        for ch in (ch22, ch_row3):
            for tag in ("A", "B", "C"):
                cfg = WsrConfig(w1=0.7, w2=0.3)
                st = bsmm_inner(ch, Scenario(tag, False), cfg, 0.15, 10.0)
                assert st.n_iters <= cfg.max_inner

    def test_wiretap_cross_agreement(self, ch22):
        cfg = WsrConfig(w1=1.0, w2=0.0)
        sol = wsr_solve(ch22, Scenario("B", False), cfg, 12.0)
        ref = solve_wiretap(ch22.h1, ch22.h2, 12.0)
        assert sol.rates.r1 == pytest.approx(ref.rate, abs=1e-3)

    def test_mid_bracket_convergence(self, ch_row3):
        cfg = WsrConfig(w1=1.0, w2=1.0)
        lam_mid = 0.5 * (cfg.lambda_min + cfg.lambda_max)
        st = bsmm_inner(ch_row3, Scenario("A", False), cfg, lam_mid, 10.0)
        assert st.converged and st.n_iters < 200

    def test_bad_multiplier_rejected(self, ch22):
        with pytest.raises(ValueError):
            bsmm_inner(ch22, Scenario("A", False), WsrConfig(1, 1), 0.0, 1.0)


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
        assert used <= 12.0 * (1 + 1e-8)
        assert used >= 11.5  # binding constraint on this instance

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.0, 0.0)])
    def test_non_finite_budget_rejected(self, ch22, budget, weights):
        with pytest.raises(ValueError, match="finite"):
            wsr_solve(ch22, Scenario("A", False), WsrConfig(*weights), budget)

    def test_zero_weights_shortcut(self, ch22):
        sol = wsr_solve(ch22, Scenario("A", False), WsrConfig(0.0, 0.0), 5.0)
        assert sol.rates.as_array().tolist() == [0.0, 0.0, 0.0]

    def test_power_monotone_in_multiplier(self, ch22):
        cfg = WsrConfig(w1=0.5, w2=0.5)
        sc = Scenario("A", False)
        powers = []
        for lam in (0.05, 0.1, 0.2, 0.4, 0.8):
            st = bsmm_inner(ch22, sc, cfg, lam, 12.0)
            powers.append(float(np.trace(st.q1) + np.trace(st.q2)))
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

    def test_ascent_violation_detected(self, ch22, monkeypatch):
        # a deliberately mis-scaled price breaks the minorizer and must trip
        # the monotone ascent assertion rather than silently converge
        import secregion.wsr as wsr_mod

        orig = wsr_mod.block_price
        monkeypatch.setattr(
            wsr_mod, "block_price", lambda *args: 4.0 * orig(*args)
        )
        with pytest.raises(ConsistencyError):
            bsmm_inner(ch22, Scenario("A", False), WsrConfig(1.0, 1.0), 0.05, 12.0)


class TestKktResidual:
    def test_stationary_scalar_solution(self):
        # hand-built stationary point: q2 solves the single-block problem
        ch = ChannelPair([[1.0]], [[1.0]])
        sc = Scenario("A", False)
        lam = 0.1
        q2 = 1.0 / (2.0 * lam * LN2) - 1.0
        p = q2
        res = kkt_residual(ch, sc, np.zeros((1, 1)), [[q2]], lam, 0.0, 1.0, p)
        assert res < 1e-8

    def test_perturbation_increases_residual(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        sc = Scenario("A", False)
        lam = 0.1
        q2 = 1.0 / (2.0 * lam * LN2) - 1.0
        base = kkt_residual(ch, sc, np.zeros((1, 1)), [[q2]], lam, 0.0, 1.0, q2)
        bumped = kkt_residual(
            ch, sc, np.zeros((1, 1)), [[q2 + 0.1]], lam, 0.0, 1.0, q2
        )
        assert bumped >= 10 * max(base, 1e-12)

    def test_slack_power_zero_multiplier(self, ch22):
        res = kkt_residual(
            ch22,
            Scenario("A", False),
            np.zeros((2, 2)),
            np.zeros((2, 2)),
            0.0,
            0.0,
            0.0,
            5.0,
        )
        assert res == 0.0
