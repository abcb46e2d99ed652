import numpy as np
import pytest

from secregion import (
    case_classify,
    gauss_rate,
    multicast,
    rotation,
    solve_multicast,
    waterfill,
    whiten_multicast,
)
from secregion.multicast import SOFTMIN_SHARPNESS, _softmin_grad
from secregion.rates import link_rate_grad
from secregion.rotation import encode

from conftest import random_psd

class TestCaseClassify:
    def test_identical_channels_tie_breaks_cheap(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2, 2))
        assert case_classify(h, h, 2.0) == "case1"

    def test_dominated_user_binds(self):
        # user 1 is strictly weaker; its optimum already satisfies user 2
        assert case_classify(np.array([[1.0]]), np.array([[10.0]]), 1.0) == "case1"
        assert case_classify(np.array([[10.0]]), np.array([[1.0]]), 1.0) == "case2"

    def test_crossing_channels_equalize(self):
        got = case_classify(np.diag([2.0, 0.5]), np.diag([0.5, 2.0]), 4.0)
        assert got == "case3"

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            case_classify(np.eye(2), np.eye(2), 0.0)


class TestSoftmin:
    def test_tie_and_underflow(self):
        k = SOFTMIN_SHARPNESS
        h, q = np.array([[2.0, 1.0]]), np.diag([1.0, 0.5])
        r, g = link_rate_grad(h, q)
        value, grad = _softmin_grad(h, h, q)
        assert value == pytest.approx(r - np.log(2.0) / k, abs=1e-15)
        # the softmax weights exp(-k r - lse) carry about k r ulps of error
        assert np.allclose(grad, g, rtol=1e-12, atol=0.0)
        # beyond a gap of 0.75 bits exp(-k gap) underflows to zero
        weak = np.array([[0.1, 0.0]])
        r_weak, g_weak = link_rate_grad(weak, q)
        assert r - r_weak > 0.75
        for pair in ((h, weak), (weak, h)):
            value, grad = _softmin_grad(*pair, q)
            assert value == r_weak
            assert np.array_equal(grad, g_weak)


class TestSolveMulticast:
    @pytest.mark.parametrize(
        "h1, h2, case, fills",
        [
            (np.array([[1.0]]), np.array([[10.0]]), "case1", 1),
            (np.array([[10.0]]), np.array([[1.0]]), "case2", 2),
            (np.diag([2.0, 0.5]), np.diag([0.5, 2.0]), "case3", 2),
        ],
    )
    def test_waterfills_each_link_once(self, monkeypatch, h1, h2, case, fills):
        calls = []

        def counted(h, p):
            calls.append(p)
            return waterfill(h, p)

        monkeypatch.setattr(multicast, "waterfill", counted)
        assert solve_multicast(h1, h2, 4.0).case == case
        assert len(calls) == fills

    def test_zero_budget(self):
        res = solve_multicast(np.eye(2), np.eye(2), 0.0)
        assert res.rate == 0.0 and res.case is None

    def test_binding_user_value(self):
        res = solve_multicast(np.array([[1.0]]), np.array([[10.0]]), 1.0)
        assert res.case == "case1"
        assert res.rate == pytest.approx(0.5, abs=1e-12)

    def test_identical_channels_use_waterfilling(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((2, 2))
        res = solve_multicast(h, h, 3.0)
        _, ref = waterfill(h, 3.0)
        assert res.rate == pytest.approx(ref, abs=1e-12)

    def test_equalized_case_balances_rates(self):
        h1 = np.diag([2.0, 0.5])
        h2 = np.diag([0.5, 2.0])
        res = solve_multicast(h1, h2, 4.0)
        assert res.case == "case3"
        r1, r2 = gauss_rate(h1, res.q), gauss_rate(h2, res.q)
        assert res.rate == pytest.approx(min(r1, r2), abs=1e-12)
        assert abs(r1 - r2) < 1e-4
        # symmetric crossing instance has a known equal-split optimum
        assert res.rate == pytest.approx(0.5 * np.log2(13.5), abs=1e-6)

    def test_reported_rate_is_min(self, ch22b):
        res = solve_multicast(ch22b.h1, ch22b.h2, 10.0)
        r1, r2 = gauss_rate(ch22b.h1, res.q), gauss_rate(ch22b.h2, res.q)
        assert res.rate == pytest.approx(min(r1, r2), abs=1e-12)

    def test_oracle_dominance_small(self):
        rng = np.random.default_rng(2)
        h1 = rng.standard_normal((2, 2))
        h2 = rng.standard_normal((2, 2))
        res = solve_multicast(h1, h2, 2.0)
        best = 0.0
        for _ in range(2000):
            q = random_psd(rng, 2, 2.0)
            best = max(best, min(gauss_rate(h1, q), gauss_rate(h2, q)))
        assert res.rate >= best - 1e-3

    @pytest.mark.parametrize("scale", [0.3, 3.0])
    def test_binding_cases_globally_optimal(self, scale):
        # one user uniformly weaker makes its water-filling matrix the
        # exact max-min optimum; random sampling must never beat it
        rng = np.random.default_rng(4)
        base = rng.standard_normal((2, 2))
        h1, h2 = scale * base, base
        res = solve_multicast(h1, h2, 2.0)
        assert res.case == ("case1" if scale < 1 else "case2")
        for _ in range(3000):
            q = random_psd(rng, 2, 2.0)
            assert res.rate >= min(gauss_rate(h1, q), gauss_rate(h2, q)) - 1e-12

    # Case 3 with a rank-one water-filling matrix for user 1.  An ascent
    # started from that matrix alone stops at 2.2652 bits; the eight-start
    # search reached 2.4005293372310836.
    TRAP = (np.array([[1.51, -1.25]]), np.array([[0.86, 0.49], [0.87, 1.88]]), 8.6)

    def test_rank_deficient_start_escapes(self):
        res = solve_multicast(*self.TRAP)
        assert res.case == "case3" and res.converged
        assert res.rate >= 2.4005293372310836 - 1e-8

    def test_ascent_start_has_full_rank_factor(self, monkeypatch):
        h1, h2, p = self.TRAP
        starts = []

        def recorded(search_objective, x0, nt, budget):
            starts.append(x0)
            return ascend(search_objective, x0, nt, budget)

        ascend = rotation.ascend
        monkeypatch.setattr(rotation, "ascend", recorded)
        solve_multicast(h1, h2, p)
        (x0,) = starts

        def least_column_norm(x):
            return np.linalg.norm(x[:-1].reshape(2, 2), axis=0).min()

        # the unmixed water-filling start is the trap: a zero factor column
        assert least_column_norm(encode(waterfill(h1, p)[0], 2, p)) == 0.0
        assert least_column_norm(x0) > 0.0

    def test_monotone_in_budget(self, ch22b):
        rates = [solve_multicast(ch22b.h1, ch22b.h2, p).rate for p in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a - 1e-6 for a, b in zip(rates, rates[1:]))

    def test_oracle_dominance_published_instance(self, ch22b):
        z = np.zeros((2, 2))
        g1, g2 = whiten_multicast(ch22b, z, z)
        res = solve_multicast(g1, g2, 10.0)
        rng = np.random.default_rng(3)
        best = 0.0
        for _ in range(20000):
            q = random_psd(rng, 2, 10.0)
            best = max(best, min(gauss_rate(g1, q), gauss_rate(g2, q)))
        assert res.rate >= best - 1e-3


@pytest.mark.parametrize("nt", [4, 5])
def test_wide_case3_beats_isotropic_and_waterfilling(nt):
    rng = np.random.default_rng(40 + nt)
    while True:
        h1 = rng.standard_normal((int(rng.integers(1, 6)), nt))
        h2 = rng.standard_normal((int(rng.integers(1, 6)), nt))
        p = float(rng.uniform(0.5, 20))
        if case_classify(h1, h2, p) == "case3":
            break
    res = solve_multicast(h1, h2, p)
    candidates = [np.eye(nt) * (p / nt), waterfill(h1, p)[0], waterfill(h2, p)[0]]
    for q in candidates:
        assert res.rate >= min(gauss_rate(h1, q), gauss_rate(h2, q))
