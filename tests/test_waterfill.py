import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion import DegenerateChannelWarning, gauss_rate, water_level, waterfill
from secregion.waterfill import SV_CUTOFF_REL

from conftest import random_psd


def numpy_waterfill(h, p):
    """Water-filling's covariance written with numpy.linalg, as a reference."""
    nt = h.shape[1]
    if p == 0:
        return np.zeros((nt, nt))
    _, s, vt = np.linalg.svd(h)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((nt, nt))
    keep = s > SV_CUTOFF_REL * s[0]
    s_act = s[keep]
    basis = vt[: s_act.size]
    gains = s_act**2
    floors = 1.0 / gains
    mu = water_level(floors, p)
    loads = np.maximum(mu - floors, 0.0)
    q = (basis.T * loads) @ basis
    return 0.5 * (q + q.T)


@st.composite
def channel_cases(draw, deficient=True):
    """A channel (1-5 rows, nt 1-5) and a budget p in [1e-9, 1e6].  With
    ``deficient``, one draw in three has its weakest singular value scaled
    down by 1e-8 to 1e-16, which makes it near-rank-deficient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, nt = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h = rng.standard_normal((rows, nt)) * 10.0 ** rng.uniform(-1, 1, (rows, 1))
    if deficient and min(rows, nt) > 1 and draw(st.integers(0, 2)) == 0:
        u, s, vt = np.linalg.svd(h, full_matrices=False)
        s[-1] *= 10.0 ** rng.uniform(-16, -8)
        h = (u * s) @ vt
    return h, 10.0 ** draw(st.floats(-9.0, 6.0))


class TestWaterLevel:
    def test_two_modes(self):
        assert water_level([0.25, 1.0], 1.0) == pytest.approx(1.125, abs=1e-15)

    def test_single_mode(self):
        assert water_level([0.25], 3.0) == pytest.approx(3.25, abs=1e-15)

    def test_zero_budget_gives_min_floor(self):
        assert water_level([0.25, 1.0, 4.0], 0.0) == 0.25

    def test_budget_met_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            floors = np.sort(rng.uniform(0.05, 5.0, n))
            p = float(rng.uniform(0, 20))
            mu = water_level(floors, p)
            assert np.sum(np.maximum(mu - floors, 0.0)) == pytest.approx(p, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            water_level([], 1.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            water_level([1.0, 0.5], 1.0)


class TestWaterfill:
    def test_zero_power(self):
        q, rate = waterfill(np.eye(2), 0.0)
        assert rate == 0.0 and np.array_equal(q, np.zeros((2, 2)))

    def test_two_level_hand_case(self):
        q, rate = waterfill(np.diag([2.0, 1.0]), 1.0)
        assert np.allclose(q, np.diag([0.875, 0.125]), atol=1e-12)
        assert rate == pytest.approx(0.5 * np.log2(4.5 * 1.125), abs=1e-12)

    def test_strong_mode_only(self):
        # water level 0.75 sits below the weak mode's floor of 1
        q, rate = waterfill(np.diag([2.0, 1.0]), 0.5)
        assert np.allclose(q, np.diag([0.5, 0.0]), atol=1e-12)
        assert rate == pytest.approx(0.5 * np.log2(3.0), abs=1e-12)

    def test_budget_and_kkt(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = rng.standard_normal((2, 2))
            p = float(rng.uniform(0.1, 10))
            q, rate = waterfill(h, p)
            assert np.trace(q) == pytest.approx(p, abs=1e-10)
            # equalization: loads + floors agree across active modes
            s = np.linalg.svd(h, compute_uv=False)
            _, _, vt = np.linalg.svd(h)
            loads = np.diag(vt @ q @ vt.T)
            floors = 1.0 / s**2
            levels = [l + f for l, f in zip(loads, floors) if l > 1e-12]
            assert max(levels) - min(levels) < 1e-10
            for load, floor in zip(loads, floors):
                if load <= 1e-12:
                    assert floor >= max(levels) - 1e-10
            assert rate == pytest.approx(gauss_rate(h, q), abs=1e-10)

    def test_beats_random_equal_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = rng.standard_normal((2, 2))
            p = float(rng.uniform(0.5, 6))
            _, rate = waterfill(h, p)
            for _ in range(500):
                assert rate >= gauss_rate(h, random_psd(rng, 2, p)) - 1e-12

    def test_rank_deficient_channel(self):
        h = np.array([[1.0, 0.0], [2.0, 0.0]])
        q, rate = waterfill(h, 4.0)
        # no power on the dead column
        assert abs(q[1, 1]) < 1e-12 and abs(q[0, 1]) < 1e-12
        assert rate == pytest.approx(gauss_rate(h, q), abs=1e-12)

    def test_degenerate_channel_warns(self):
        with pytest.warns(DegenerateChannelWarning):
            q, rate = waterfill(np.zeros((2, 2)), 1.0)
        assert rate == 0.0 and np.array_equal(q, np.zeros((2, 2)))

    @settings(max_examples=300, deadline=None)
    @given(channel_cases())
    def test_covariance_matches_numpy_reference(self, case):
        h, p = case
        assert np.array_equal(waterfill(h, p)[0], numpy_waterfill(h, p))

    @settings(max_examples=100, deadline=None)
    @given(channel_cases(deficient=False))
    def test_rate_matches_60_digit_determinant(self, case):
        # The rate is the log-determinant of the returned covariance's link,
        # accurate at every budget, the tiny ones included.
        mpmath = pytest.importorskip("mpmath")
        h, p = case
        q, rate = waterfill(h, p)
        with mpmath.workdps(60):
            hm = mpmath.matrix(h.tolist())
            m = mpmath.eye(h.shape[0]) + hm * mpmath.matrix(q.tolist()) * hm.T
            want = mpmath.log(mpmath.det(m)) / (2 * mpmath.log(2))
            assert abs(rate - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "h",
        [
            1e-150 * np.eye(2),
            1e-160 * np.eye(2),
            1e-170 * np.eye(2),
            np.diag([1e-170, 5e-171]),
        ],
        ids=["1e-150", "1e-160", "1e-170", "diag-1e-170-5e-171"],
    )
    @pytest.mark.parametrize("p", [1e-3, 1.0, 7.5])
    def test_tiny_channel_spends_the_budget(self, h, p):
        # The floors 1/sig^2 overflow, or lose the budget in their rounding;
        # the modes tied for the largest singular value share it.
        q, rate = waterfill(h, p)
        assert abs(np.trace(q) - p) <= 4 * np.spacing(p)
        tied = np.diag(h) == h[0, 0]
        assert np.array_equal(np.diag(q), np.where(tied, p / tied.sum(), 0.0))
        assert not (q - np.diag(np.diag(q))).any()
        assert 0.0 <= rate < 1e-290

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            waterfill(np.eye(2), -1.0)
