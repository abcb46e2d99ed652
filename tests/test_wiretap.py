import numpy as np
import pytest
from scipy.linalg import eigh

from secregion import secrecy_rate, solve_wiretap, waterfill

from conftest import random_psd


class TestSecrecyRate:
    def test_zero(self):
        assert secrecy_rate([[2.0]], [[1.0]], [[0.0]]) == 0.0

    def test_scalar(self):
        got = secrecy_rate([[2.0]], [[1.0]], [[1.0]])
        assert got == pytest.approx(0.5 * np.log2(2.5), abs=1e-12)

    def test_no_eavesdropper(self):
        rng = np.random.default_rng(0)
        hm = rng.standard_normal((2, 2))
        q = random_psd(rng, 2, 2.0)
        from secregion import gauss_rate

        assert secrecy_rate(hm, np.zeros((2, 2)), q) == pytest.approx(
            gauss_rate(hm, q), abs=1e-12
        )


class TestSolveWiretap:
    def test_zero_power(self):
        res = solve_wiretap([[2.0]], [[1.0]], 0.0)
        assert res.rate == 0.0 and np.array_equal(res.q, np.zeros((1, 1)))

    def test_degraded_scalar_full_power(self):
        # derivative 4/(1+4p) - 1/(1+p) > 0 for all p, so full power is best
        res = solve_wiretap([[2.0]], [[1.0]], 1.0)
        assert res.q[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert res.rate == pytest.approx(0.5 * np.log2(2.5), abs=1e-9)

    def test_reversed_scalar_silent(self):
        res = solve_wiretap([[1.0]], [[2.0]], 1.0)
        assert res.rate == 0.0
        assert np.allclose(res.q, 0.0, atol=1e-12)

    def test_reduces_to_waterfilling_without_eavesdropper(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            hm = rng.standard_normal((2, 2))
            p = float(rng.uniform(0.5, 8))
            res = solve_wiretap(hm, np.zeros((2, 2)), p)
            _, ref = waterfill(hm, p)
            assert res.rate == pytest.approx(ref, abs=1e-6)

    def test_never_below_warm_start(self, ch22):
        res = solve_wiretap(ch22.h1, ch22.h2, 12.0)
        qwf, _ = waterfill(ch22.h1, 12.0)
        assert res.rate >= max(secrecy_rate(ch22.h1, ch22.h2, qwf), 0.0) - 1e-9

    def test_trace_within_budget(self, ch22):
        res = solve_wiretap(ch22.h1, ch22.h2, 12.0)
        assert np.trace(res.q) <= 12.0 + 1e-9
        assert np.linalg.eigvalsh(res.q)[0] >= -1e-12

    def test_beats_random_sampling(self):
        rng = np.random.default_rng(2)
        hm = rng.standard_normal((2, 2))
        he = rng.standard_normal((2, 2))
        res = solve_wiretap(hm, he, 3.0)
        best = 0.0
        for _ in range(2000):
            q = random_psd(rng, 2, float(rng.uniform(0, 3.0)))
            best = max(best, secrecy_rate(hm, he, q))
        assert res.rate >= best - 1e-3

    def test_seeded_reproducibility(self, ch22):
        a = solve_wiretap(ch22.h1, ch22.h2, 12.0, seed=3)
        b = solve_wiretap(ch22.h1, ch22.h2, 12.0, seed=3)
        assert np.array_equal(a.q, b.q) and a.rate == b.rate

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            solve_wiretap([[1.0]], [[1.0]], -0.1)


class TestWideArrays:
    """nt = 4 and 5, beyond the two- and three-antenna published instances."""

    @pytest.mark.parametrize("nt", [4, 5])
    def test_reaches_rank_one_beam_bound(self, nt):
        # A unit beam v at full power achieves 0.5 log2 of the ratio
        # v^T (I + p Hm^T Hm) v / v^T (I + p He^T He) v, at best the top
        # generalized eigenvalue of the pair.
        rng = np.random.default_rng(20 + nt)
        for _ in range(3):
            hm = rng.standard_normal((int(rng.integers(1, 6)), nt))
            he = rng.standard_normal((int(rng.integers(1, 6)), nt))
            p = float(rng.uniform(0.5, 20))
            top = eigh(
                np.eye(nt) + p * hm.T @ hm, np.eye(nt) + p * he.T @ he, eigvals_only=True
            )[-1]
            bound = max(0.5 * np.log2(top), 0.0)
            assert solve_wiretap(hm, he, p).rate >= bound - 1e-6

    @pytest.mark.parametrize("nt", [4, 5])
    def test_reduces_to_waterfilling_without_eavesdropper(self, nt):
        rng = np.random.default_rng(30 + nt)
        for rows in (1, 3, 5):
            hm = rng.standard_normal((rows, nt))
            p = float(rng.uniform(0.5, 20))
            res = solve_wiretap(hm, np.zeros((1, nt)), p)
            assert res.rate == pytest.approx(waterfill(hm, p)[1], abs=1e-6)
