import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secregion import (
    ChannelPair,
    ConsistencyError,
    DimensionError,
    Scenario,
    WsrConfig,
    block_price,
    bsmm_inner,
    closed_form_block,
    gauss_rate,
    kkt_residual,
    solve_wiretap,
    waterfill,
    wsr_solve,
)
from secregion.corner import _corner, _lift
from secregion.rates import LN2, evaluate_triple, rate_stack, resolvent
from secregion.types import ORDER_12, CovarianceTriple
from secregion.waterfill import SV_CUTOFF_REL
from secregion.wsr import (
    EPS3,
    MAX_INNER,
    POWER_TOL,
    bits_block_weight,
    load_modes,
    wsr_sweep,
    wsr_sweep_points,
)

from conftest import WSR_PRICE_PAIRS, fd_gradient, random_psd, wsr_linearized_part


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

    @pytest.mark.parametrize("r", [[[-1.0]], [[1.0, 2.0], [2.0, 1.0]]])
    def test_noise_not_positive_definite_rejected(self, r):
        # The failed factorization raises, and numpy reports no invalid value.
        n = len(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="noise matrix must be positive definite"):
                closed_form_block(1.0, np.eye(n), r, np.eye(n))

    @pytest.mark.parametrize(
        "s, r, h",
        [
            (np.eye(2), np.ones((1, 2)), np.eye(2)),
            (np.eye(2), np.ones((2, 3)), np.eye(2)),
            (np.eye(2), np.eye(2), np.ones((3, 2))),
            (np.eye(3), np.eye(2), np.eye(2)),
            (np.ones((2, 3)), np.eye(2), np.eye(2)),
        ],
        ids=["r-row", "r-2x3", "h-3x2", "s-3x3", "s-2x3"],
    )
    def test_mismatched_shapes_rejected(self, s, r, h):
        with pytest.raises(DimensionError):
            closed_form_block(1.0, s, r, h)


@st.composite
def mode_cases(draw):
    """A weight, a whitened channel (1-5 rows, nt 1-5), a positive definite
    penalty matrix and a positive scalar penalty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt, rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    w = draw(st.floats(0.0, 5.0))
    s = random_psd(rng, nt, float(rng.uniform(0.1, 10))) + 0.05 * np.eye(nt)
    c = 10.0 ** draw(st.floats(-6.0, 1.0))
    return w, rng.standard_normal((rows, nt)), s, c


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


class TestLoadModes:
    @settings(max_examples=200, deadline=None)
    @given(mode_cases())
    def test_matches_numpy_reference(self, case):
        w, y, s, _ = case
        assert np.array_equal(load_modes(w, s, y)[0], numpy_load_modes(w, s, y))

    @settings(max_examples=200, deadline=None)
    @given(mode_cases())
    def test_scalar_penalty_is_scaled_identity(self, case):
        w, y, _, c = case
        nt = y.shape[1]
        q, logdet, gram = load_modes(w, c, y)
        q_eye, logdet_eye, _ = load_modes(w, c * np.eye(nt), y)
        assert np.array_equal(q, q_eye)
        assert logdet == logdet_eye
        # A numpy scalar or a 0-d array takes the same scalar branch.
        for scalar in (np.float64(c), np.array(c)):
            q_s, logdet_s, gram_s = load_modes(w, scalar, y)
            assert np.array_equal(q_s, q) and logdet_s == logdet
            assert gram_s is not None and np.array_equal(gram_s, gram)

    @settings(max_examples=300, deadline=None)
    @given(
        mode_cases(),
        st.sampled_from(["scalar", "matrix"]),
        st.sampled_from(["drawn", "zero weight", "no mode loaded"]),
    )
    def test_link_values_match_resolvent(self, case, penalty, level):
        # The log-determinant and the Gram that the kernel reads off its SVD
        # are those of rates.resolvent at the returned q.
        w, y, s, c = case
        if level == "zero weight":
            w = 0.0
        elif level == "no mode loaded":
            # Every mode's 1/sig^2 exceeds w once the penalty is at least
            # w * sig_max(Y)^2 times the identity.
            floor = 2.0 * w * np.linalg.norm(y, 2) ** 2 + 1.0
            s, c = s + floor * np.eye(y.shape[1]), c + floor
        q, logdet, gram = load_modes(w, c if penalty == "scalar" else s, y)
        want_logdet, _, want_gram = resolvent(y, q)
        if level != "drawn":
            assert not q.any() and logdet == 0.0
        # resolvent forms M = I + Y Q Y^T, whose entries round to about
        # eps * |M|; the kernel never forms M.
        m_norm = np.linalg.norm(np.eye(y.shape[0]) + y @ q @ y.T, 2)
        assert abs(logdet - want_logdet) <= 1e-12 + 1e-14 * m_norm
        if penalty == "matrix":
            assert gram is None
        else:
            assert np.array_equal(gram, gram.T)
            assert np.abs(gram - want_gram).max() <= 1e-12

    @pytest.mark.parametrize("c", [-1e-12, -1.0])
    def test_nonpositive_scalar_penalty_rejected(self, c):
        y = np.array([[1.0, 0.5]])
        with pytest.raises(ValueError):
            load_modes(1.0, c, y)
        with pytest.raises(ValueError):
            load_modes(1.0, c * np.eye(2), y)


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
            for tag in ("A", "B"):
                cfg = WsrConfig(w1=0.7, w2=0.3)
                st = bsmm_inner(ch, Scenario(tag, False), cfg, 0.15, 10.0)
                assert st.n_iters <= MAX_INNER

    def test_wiretap_cross_agreement(self, ch22):
        cfg = WsrConfig(w1=1.0, w2=0.0)
        sol = wsr_solve(ch22, Scenario("B", False), cfg, 12.0)
        ref = solve_wiretap(ch22.h1, ch22.h2, 12.0)
        assert sol.rates.r1 == pytest.approx(ref.rate, abs=1e-3)

    def test_mid_bracket_convergence(self, ch_row3):
        # Half the idle multiplier, above which no mode loads power: the
        # search's bracket starts at its inverse.
        cfg = WsrConfig(w1=1.0, w2=1.0)
        lam_mid = 0.5 * idle_multiplier(ch_row3, cfg)
        st = bsmm_inner(ch_row3, Scenario("A", False), cfg, lam_mid, 10.0)
        assert st.converged and st.n_iters < 200
        assert np.trace(st.q1) + np.trace(st.q2) > 0.0

    @pytest.mark.parametrize("tag, first, per_round", [("A", 2, 1), ("B", 2, 1)])
    def test_factors_only_what_it_reads(self, ch22, monkeypatch, tag, first, per_round):
        # A round factors user 2 at the new q1 and nothing else.  The
        # starting point and each extrapolated point cost the same: the two
        # links the next price reads and one link_logdet.
        import secregion.wsr as wsr_mod

        calls = {"resolvent": 0, "link_logdet": 0}
        for name in calls:

            def counted(*args, name=name, orig=getattr(wsr_mod, name)):
                calls[name] += 1
                return orig(*args)

            monkeypatch.setattr(wsr_mod, name, counted)
        for rounds in (3, 4):
            monkeypatch.setattr(wsr_mod, "MAX_INNER", rounds)
            calls.update(resolvent=0, link_logdet=0)
            st = bsmm_inner(ch22, Scenario(tag, False), WsrConfig(0.5, 0.5), 0.1, 12.0)
            assert st.n_iters == rounds and not st.converged
            points = 1 + st.n_extrapolated
            assert calls == {
                "resolvent": first * points + per_round * rounds,
                "link_logdet": points,
            }

    def test_bad_multiplier_rejected(self, ch22):
        with pytest.raises(ValueError):
            bsmm_inner(ch22, Scenario("A", False), WsrConfig(1, 1), 0.0, 1.0)

    def test_scenario_c_has_no_blocks(self, ch22):
        # C's WSR is the corner search; BSMM, its prices and its KKT check
        # refuse it rather than run without user 2's leak terms.
        sc, z = Scenario("C", False), np.zeros((2, 2))
        with pytest.raises(ValueError, match="corner"):
            bsmm_inner(ch22, sc, WsrConfig(0.5, 0.5), 0.1, 12.0)
        for block in (1, 2):
            with pytest.raises(ValueError, match="corner"):
                block_price(ch22, sc, z, z, 0.5, 0.5, block)
        with pytest.raises(ValueError, match="corner"):
            kkt_residual(ch22, sc, z, z, 0.1, 0.5, 0.5, 12.0)

    @pytest.mark.parametrize("tag", ["A", "B"])
    def test_state_carries_weighted_sum(self, ch22, tag):
        # The end point's unclamped weighted sum, as rate_stack gives it.
        sc, cfg = Scenario(tag, False), WsrConfig(0.6, 0.4)
        state = bsmm_inner(ch22, sc, cfg, 0.1, 12.0)
        want = lagrangian(ch22, sc, cfg, 0.0, 0.0, state.q1, state.q2)
        assert abs(state.wsr - want) <= 1e-12


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
        assert 12.0 * (1 - POWER_TOL) <= used <= 12.0

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
        # Near the budget a BSMM round's Lagrangian can fall by the rounding
        # of the covariances' entries (A at 1e8), which is no price bug, and
        # the ascent check allows it.  C's corner search must stay finite
        # and within the budget at 1e12 too.
        ch = ChannelPair([[0.3, 1.0]], [[1.0, 0.5]])
        sol = wsr_solve(ch, Scenario(tag, False), WsrConfig(0.5, 0.5), p)
        assert 0.0 <= sol.unused < p

    @pytest.mark.parametrize("w1", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("tag", ["A", "B", "C"])
    def test_tiny_budget_spent(self, tag, w1):
        # At p 1e-9 the power rises from 0 to 1000 p within 0.03% of the
        # multiplier, so only an exit on power places it.
        ch, p = ChannelPair([[20.0, 5.0]], [[4.0, 30.0]]), 1e-9
        sc, cfg = Scenario(tag, False), WsrConfig(w1, 1.0 - w1)
        sol = wsr_solve(ch, sc, cfg, p)
        assert 0.0 <= sol.unused <= 1e-6 * p
        zero = np.zeros((2, 2))
        ref = evaluate_triple(
            ch, sc, CovarianceTriple(zero, *bisect_wsr(ch, sc, cfg, p), p), ORDER_12
        )
        want = cfg.w1 * ref.r1 + cfg.w2 * ref.r2
        assert cfg.w1 * sol.rates.r1 + cfg.w2 * sol.rates.r2 >= want * (1 - 2 * POWER_TOL)

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.0, 0.0)])
    def test_non_finite_budget_rejected(self, ch22, budget, weights):
        with pytest.raises(ValueError, match="finite"):
            wsr_solve(ch22, Scenario("A", False), WsrConfig(*weights), budget)

    def test_zero_weights_shortcut(self, ch22):
        sol = wsr_solve(ch22, Scenario("A", False), WsrConfig(0.0, 0.0), 5.0)
        assert sol.rates.as_array().tolist() == [0.0, 0.0, 0.0]
        assert (sol.n_bisect, sol.n_rounds, sol.n_capped) == (0, 0, 0)

    def test_counts_every_inner_solve(self, ch22, monkeypatch):
        import secregion.wsr as wsr_mod

        states = []
        orig = wsr_mod.bsmm_inner

        def recorded(*args):
            states.append(orig(*args))
            return states[-1]

        monkeypatch.setattr(wsr_mod, "bsmm_inner", recorded)
        # A cap low enough that some inner solves reach it.
        monkeypatch.setattr(wsr_mod, "MAX_INNER", 10)
        cfg = WsrConfig(w1=0.5, w2=0.5)
        sol = wsr_solve(ch22, Scenario("B", False), cfg, 12.0)
        assert sol.n_rounds == sum(state.n_iters for state in states)
        assert sol.n_capped == sum(not state.converged for state in states) > 0
        assert all(state.n_iters == 10 for state in states if not state.converged)
        assert sol.n_extrapolated == sum(state.n_extrapolated for state in states) > 0

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
        # the monotone ascent assertion rather than silently converge; the
        # inner loop prices its blocks through the Gram-level core
        import secregion.wsr as wsr_mod

        orig = wsr_mod.price_from_grams
        monkeypatch.setattr(
            wsr_mod, "price_from_grams", lambda *args: 4.0 * orig(*args)
        )
        with pytest.raises(ConsistencyError):
            bsmm_inner(ch22, Scenario("A", False), WsrConfig(1.0, 1.0), 0.05, 12.0)


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
# wsr_sweep_points at sigma 0.5; rates to 1e-12, counts and multipliers
# exactly.  Each A solve's "floor" is the weighted value that the earlier
# multiplier bisection, with its absolute 1e-5 bracket, reached there.
# C's solves are the corner search's, one per weight, and their floor is
# the better of the two orders that BSMM solved before.
WSR_COUNTS = (
    "n_rounds",
    "n_capped",
    "n_extrapolated",
    "n_ascents",
    "n_evals",
    "n_unconverged_ascents",
)
WSR_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "wsr_golden.json").read_text()
)


def test_wsr_golden(request):
    total = 0
    for key, want in WSR_GOLDEN["jobs"].items():
        name, tag, power = key.split("-")
        ch, p = request.getfixturevalue(name), float(power[1:])
        got = wsr_sweep_points(ch, Scenario(tag, False), p, sigma=0.5)
        assert len(got) == len(want)
        for (point, sol), ref in zip(got, want):
            assert point.order == ref["order"]
            assert np.abs(sol.rates.as_array() - ref["rates"]).max() <= 1e-12, key
            assert (sol.n_bisect, sol.converged, sol.lam) == (
                ref["n_bisect"],
                ref["converged"],
                ref["lam"],
            ), key
            counts = tuple(getattr(sol, name) for name in WSR_COUNTS)
            assert counts == tuple(ref.get(name, 0) for name in WSR_COUNTS), key
            # In the solution's own roles, whatever the order tag.
            value = ref["w1"] * sol.rates.r1 + (1.0 - ref["w1"]) * sol.rates.r2
            assert value >= ref["floor"] - 1e-12, key
            assert 0.0 <= sol.unused <= POWER_TOL * p, key
            total += sol.n_rounds
    assert total == WSR_GOLDEN["total_rounds"] == 634


# The plain loop converges slowly where the users' links are coupled, above
# all at the end weights; each of its solves within the budget is still a
# lower bound on the optimum, and the warm starts of ``bisect_wsr`` carry
# its progress from one multiplier to the next.
C_REFERENCE_ROUNDS = 100
_SLACK_X = 2.0**60


def bisect_wsr(ch, sc, cfg, p, rtol=0.0):
    """The multiplier search as plain bisection on x = 1/lam, as a reference.

    From 1/idle, at which no mode loads, x doubles until the power exceeds
    p; then the bracket halves until it is 4 ulps wide, or ``rtol`` times
    x.  Where x grows ``_SLACK_X``-fold without reaching the budget, the
    budget does not bind.  Each multiplier runs ``bsmm_inner``, or in
    scenario C, which the package solves without BSMM, ``plain_bsmm`` from
    the last solve's blocks, for at most ``C_REFERENCE_ROUNDS`` rounds.
    Returns the blocks of the last inner solve within the budget (zero if
    there is none).
    """
    confidential2 = sc.user2_confidential
    blocks = None

    def solve(x):
        if confidential2:
            q1, q2 = plain_bsmm(ch, sc, cfg, 1.0 / x, p, blocks, C_REFERENCE_ROUNDS)
        else:
            state = bsmm_inner(ch, sc, cfg, 1.0 / x, p)
            q1, q2 = state.q1, state.q2
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
    in [1e-6, 1e6].  Smaller weights are left out: the blocks' 1e-12 penalty
    jitter caps a mode of weight k at about k * 1e12 units of power."""
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


@st.composite
def loop_cases(draw):
    nt = draw(st.integers(1, 4))
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ch = ChannelPair(rng.standard_normal((n1, nt)), rng.standard_normal((n2, nt)))
    sc = Scenario(draw(st.sampled_from("AB")), False)
    w1, w2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    lam = draw(st.floats(0.02, 2.0))
    p = draw(st.floats(0.5, 10.0))
    return ch, sc, WsrConfig(w1, w2), lam, p


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


def plain_bsmm(ch, sc, cfg, lam, p, start=None, rounds=MAX_INNER):
    """The inner loop without SQUAREM steps, from the checked entry points,
    as a reference: alternating closed-form blocks from ``start``, by
    default q1 = q2 = p/(2 nt) I, until the weighted sum moves by less than
    EPS3, or after ``rounds`` rounds.  In scenario C, which the package
    solves without BSMM, the blocks take ``c_price`` and block 1 the weight
    w1 + w2."""
    w1, w2 = cfg.w1, cfg.w2
    confidential2 = sc.user2_confidential
    k1 = (w1 + w2 if confidential2 else w1) / (2.0 * LN2)
    k2 = w2 / (2.0 * LN2)

    def price(q1, q2, block):
        if confidential2:
            return c_price(ch, q1, q2, w1, w2, block)
        return block_price(ch, sc, q1, q2, w1, w2, block)

    lam_eye = lam * np.eye(ch.nt)
    q1, q2 = start or ((p / (2.0 * ch.nt)) * np.eye(ch.nt),) * 2
    prev_wsr = 0.0
    for _ in range(rounds):
        q1 = closed_form_block(k1, lam_eye + price(q1, q2, 1), np.eye(ch.n1), ch.h1)
        noise = np.eye(ch.n2) + ch.h2 @ q1 @ ch.h2.T
        q2 = closed_form_block(k2, lam_eye + price(q1, q2, 2), noise, ch.h2)
        wsr = lagrangian(ch, sc, cfg, 0.0, 0.0, q1, q2)
        if abs(wsr - prev_wsr) < EPS3:
            break
        prev_wsr = wsr
    return q1, q2


def lagrangian(ch, sc, cfg, lam, p, q1, q2):
    """w1 R1 + w2 R2 - lam (tr q1 + tr q2 - p), on the unclamped rates."""
    zero = np.zeros((1, ch.nt, ch.nt))
    _, r1, r2 = rate_stack(ch, sc, zero, q1[None], q2[None])[0, 0]
    return cfg.w1 * r1 + cfg.w2 * r2 - lam * (np.trace(q1) + np.trace(q2) - p)


class TestLoopAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(loop_cases())
    def test_prices_and_weighted_sum(self, case):
        # Record what the inner loop computes at every iterate, extrapolated
        # points included, then replay the iterates through block_price,
        # gauss_rate and rate_stack.
        import secregion.wsr as wsr_mod

        ch, sc, cfg, lam, p = case
        events = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("price_from_grams", "load_modes", "rate_rule", "_psd_part"):
                orig = getattr(wsr_mod, name)

                def recorded(*args, orig=orig, name=name):
                    events.append((name, args, orig(*args)))
                    return events[-1][2]

                mp.setattr(wsr_mod, name, recorded)
            mp.setattr(wsr_mod, "MAX_INNER", 25)
            state = bsmm_inner(ch, sc, cfg, lam, p)
        events = iter(events)

        def take(want):
            name, args, result = next(events)
            assert name == want
            return args, result

        def point(q1, q2):
            # Every link value the loop computed, at the link's covariance
            # (q0 = 0), and its weighted sum; returns the loop's Lagrangian.
            (_, links, *_), rule = take("rate_rule")
            for h, values in zip((ch.h1, ch.h2), links):
                for x, value in zip((q1 + q2, q1 + q2, q1, q2), values):
                    if value is not None:
                        assert abs(value - gauss_rate(h, x)) <= 1e-12
            zero = np.zeros((1, ch.nt, ch.nt))
            _, r1, r2 = rate_stack(ch, sc, zero, q1[None], q2[None])[0, 0]
            _, l1, l2 = rule[0]
            assert abs(l1 - r1) <= 1e-12 and abs(l2 - r2) <= 1e-12
            wsr = float(cfg.w1 * l1 + cfg.w2 * l2)
            assert abs(wsr - (cfg.w1 * r1 + cfg.w2 * r2)) <= 1e-12
            used = float(np.trace(q1) + np.trace(q2))
            return q1, q2, wsr - lam * (used - p)

        def check_price(result, q1, q2, block):
            want = block_price(ch, sc, q1, q2, cfg.w1, cfg.w2, block)
            assert np.abs(result - want).max() <= 1e-12

        start = (p / (2.0 * ch.nt)) * np.eye(ch.nt)
        x = point(start, start)
        rival = None
        n_rounds = n_kept = 0
        for name, _, result in events:
            if name == "_psd_part":
                # A SQUAREM point; x2 is the rival of the round from it.
                rival, x = x, point(*result)
                continue
            assert name == "price_from_grams"
            q1, q2, _ = x
            check_price(result, q1, q2, 1)
            q1 = take("load_modes")[1][0]
            # Block 2 has no price.
            assert not block_price(ch, sc, q1, q2, cfg.w1, cfg.w2, 2).any()
            x = point(q1, take("load_modes")[1][0])
            n_rounds += 1
            if rival is not None:
                if x[2] < rival[2]:
                    x = rival
                else:
                    n_kept += 1
                rival = None
        assert (n_rounds, n_kept) == (state.n_iters, state.n_extrapolated)
        assert np.array_equal(x[0], state.q1) and np.array_equal(x[1], state.q2)

    @settings(max_examples=60, deadline=None)
    @given(loop_cases())
    # 161 of the first 166 SQUAREM rounds are dropped here.  With each
    # dropped round counted toward MAX_INNER the loop stopped at the cap
    # 7.3e-6 below the plain loop, which converges in 490 rounds.
    @example(
        (
            ChannelPair(
                [
                    [-0.65179115, -0.17471729, 1.66372399],
                    [0.65914775, -1.64139729, -0.00520326],
                    [-0.62346374, 0.14863152, -1.60818778],
                    [0.24177188, 0.23538092, 1.57562603],
                ],
                [
                    [0.31664502, 0.51054666, -1.49311668],
                    [2.25272912, -1.91564556, 1.10180186],
                    [-0.32990407, -0.88064652, -0.65628501],
                ],
            ),
            Scenario("A", False),
            WsrConfig(0.25, 0.25),
            0.0234375,
            1.0,
        )
    )
    def test_squarem_ascends_at_least_as_far(self, case):
        # At the same multiplier the accelerated loop ends at a Lagrangian no
        # lower than the plain loop's, up to the stop rule's tolerance, and
        # both end points are PSD.
        ch, sc, cfg, lam, p = case
        state = bsmm_inner(ch, sc, cfg, lam, p)
        ref = plain_bsmm(ch, sc, cfg, lam, p)
        got = lagrangian(ch, sc, cfg, lam, p, state.q1, state.q2)
        assert got >= lagrangian(ch, sc, cfg, lam, p, *ref) - 1e-9
        for q in (state.q1, state.q2, *ref):
            assert np.linalg.eigvalsh(q)[0] >= -1e-12 * max(1.0, np.abs(q).max())


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


def corner_reference(ch, cfg, p, rtol=1e-9):
    """The plain scenario-C BSMM weighted sum over both encoding orders.

    Order "12" runs ``bisect_wsr`` on the pair as given; order "21" runs it
    on the exchanged pair with the weights exchanged, whose weighted sum in
    its own roles is the same sum.  The bisection stops at ``rtol`` of the
    multiplier, so the reference is a point within the budget.
    """
    sc, zero = Scenario("C", False), np.zeros((ch.nt, ch.nt))
    best = 0.0
    for pair, (v1, v2) in ((ch, (cfg.w1, cfg.w2)), (ch.swapped(), (cfg.w2, cfg.w1))):
        q1, q2 = bisect_wsr(pair, sc, WsrConfig(v1, v2), p, rtol)
        rates = evaluate_triple(pair, sc, CovarianceTriple(zero, q1, q2, p), ORDER_12)
        best = max(best, v1 * rates.r1 + v2 * rates.r2)
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
            assert sol.n_ascents == 5 and sol.n_evals > 0 and sol.n_bisect == 0

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.floats(0.0, 1.0),
        st.floats(-3.0, 4.0),
    )
    def test_never_below_the_bsmm_reference(self, seed, nt, w1, log_p):
        rng = np.random.default_rng(seed)
        ch = ChannelPair(
            rng.standard_normal((int(rng.integers(1, 5)), nt)),
            rng.standard_normal((int(rng.integers(1, 5)), nt)),
        )
        cfg, p = WsrConfig(w1, 1.0 - w1), 10.0**log_p
        sol = wsr_solve(ch, Scenario("C", False), cfg, p)
        got = cfg.w1 * sol.rates.r1 + cfg.w2 * sol.rates.r2
        want = corner_reference(ch, cfg, p)
        assert got >= want - 1e-9 * want
