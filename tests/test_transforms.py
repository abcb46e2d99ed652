"""The interference-whitening transform ``rates.whiten``, Y = L^{-1} H for
I + H X H^T = L L^T, on the three stages of a split that use it: the
point-to-point and wiretap second stages, whitened by the first layer,
and the shared-message stage, whitened by both individual layers.  The
contract, tested to 1e-12: rates on the whitened channels equal the
layered rates on the original ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion import ChannelPair, gauss_rate, layered_rate
from secregion.rates import whiten

from conftest import random_psd


class TestWhitenP2p:
    def test_scalar(self):
        got = whiten(np.array([[1.0]]), np.array([[3.0]]))
        assert np.allclose(got, [[0.5]], atol=1e-14)

    def test_zero_interference_keeps_rates(self):
        rng = np.random.default_rng(0)
        h2 = rng.standard_normal((2, 2))
        h2w = whiten(h2, np.zeros((2, 2)))
        for _ in range(20):
            q2 = random_psd(rng, 2, 2.0)
            assert gauss_rate(h2w, q2) == pytest.approx(gauss_rate(h2, q2), abs=1e-12)

    def test_rate_equivalence_published_channels(self, ch22):
        rng = np.random.default_rng(1)
        q1 = 6.0 * np.eye(2)
        h2w = whiten(ch22.h2, q1)
        for _ in range(100):
            q2 = random_psd(rng, 2, float(rng.uniform(0.1, 12)))
            assert gauss_rate(h2w, q2) == pytest.approx(
                layered_rate(ch22.h2, q2, q1), abs=1e-12
            )


class TestWhitenWiretap:
    def test_scalar_values(self):
        ch = ChannelPair([[2.0]], [[1.0]])
        q1 = np.array([[1.0]])
        h1w, h2w = whiten(ch.h1, q1), whiten(ch.h2, q1)
        assert np.allclose(h1w, [[2.0 / np.sqrt(5.0)]], atol=1e-14)
        assert np.allclose(h2w, [[1.0 / np.sqrt(2.0)]], atol=1e-14)

    def test_rate_equivalence_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = ChannelPair(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            q1 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
            h1w, h2w = whiten(ch.h1, q1), whiten(ch.h2, q1)
            for _ in range(5):
                q2 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
                whitened = gauss_rate(h2w, q2) - gauss_rate(h1w, q2)
                original = layered_rate(ch.h2, q2, q1) - layered_rate(ch.h1, q2, q1)
                assert whitened == pytest.approx(original, abs=1e-12)


class TestWhitenMulticast:
    def test_scalar(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        q1, q2 = np.array([[1.0]]), np.array([[2.0]])
        g1 = whiten(ch.h1, q1 + q2)
        assert np.allclose(g1, [[0.5]], atol=1e-14)

    def test_rate_equivalence(self, ch22b):
        rng = np.random.default_rng(3)
        for _ in range(30):
            q1 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
            q2 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
            g1, g2 = whiten(ch22b.h1, q1 + q2), whiten(ch22b.h2, q1 + q2)
            q0 = random_psd(rng, 2, float(rng.uniform(0.1, 10)))
            assert gauss_rate(g1, q0) == pytest.approx(
                layered_rate(ch22b.h1, q0, q1 + q2), abs=1e-12
            )
            assert gauss_rate(g2, q0) == pytest.approx(
                layered_rate(ch22b.h2, q0, q1 + q2), abs=1e-12
            )


class TestBasisInvariance:
    def test_left_orthogonal_factor_changes_nothing(self):
        # A rotation of the receive side must give the same rates even
        # though the whitened channel differs.
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 3))
        q1 = random_psd(rng, 3, 2.0)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        hw_a = whiten(h, q1)
        hw_b = whiten(u @ h, q1)
        for _ in range(10):
            q2 = random_psd(rng, 3, 1.5)
            assert gauss_rate(hw_a, q2) == pytest.approx(gauss_rate(hw_b, q2), abs=1e-11)


@st.composite
def whitening_cases(draw):
    """A channel of 1-4 rows over nt 1-5 antennas, a stack of 1-4
    interference covariances X, each of rank 0 to nt and, unless zero, of
    trace 1e-3 to 1e3, and a signal covariance Q of trace 1e-3 to 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt = draw(st.integers(1, 5))
    h = rng.standard_normal((draw(st.integers(1, 4)), nt))
    xs = []
    for _ in range(draw(st.integers(1, 4))):
        g = rng.standard_normal((nt, draw(st.integers(0, nt))))
        x = g @ g.T
        if g.size:
            x *= 10.0 ** draw(st.floats(-3.0, 3.0)) / np.trace(x)
        xs.append(x)
    return h, np.array(xs), random_psd(rng, nt, 10.0 ** draw(st.floats(-3.0, 3.0)))


class TestWhitenContract:
    @settings(max_examples=400, deadline=None)
    @given(whitening_cases())
    def test_layered_rate_and_stacked_rows(self, case):
        # 1e-12, or 1e-12 per bit of the largest log-determinant where it
        # exceeds one bit: with X of trace 1e3, I + H X H^T has condition
        # numbers up to about 1e4, and against a 40-digit reference
        # gauss_rate on Y and layered_rate on H rounded by up to 1.2e-12
        # and 1.6e-12 in 30,000 draws.
        h, xs, q = case
        ys = whiten(h, xs)
        for x, y in zip(xs, ys):
            assert y.tobytes() == whiten(h, x).tobytes()
            tol = 1e-12 * max(1.0, gauss_rate(h, q + x))
            assert abs(gauss_rate(y, q) - layered_rate(h, q, x)) <= tol
