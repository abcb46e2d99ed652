import numpy as np
import pytest

from secregion import (
    ChannelPair,
    gauss_rate,
    layered_rate,
    whiten_multicast,
    whiten_p2p,
    whiten_wiretap,
)

from conftest import random_psd


class TestWhitenP2p:
    def test_scalar(self):
        got = whiten_p2p([[1.0]], [[3.0]])
        assert np.allclose(got, [[0.5]], atol=1e-14)

    def test_zero_interference_keeps_rates(self):
        rng = np.random.default_rng(0)
        h2 = rng.standard_normal((2, 2))
        h2w = whiten_p2p(h2, np.zeros((2, 2)))
        for _ in range(20):
            q2 = random_psd(rng, 2, 2.0)
            assert gauss_rate(h2w, q2) == pytest.approx(gauss_rate(h2, q2), abs=1e-12)

    def test_rate_equivalence_published_channels(self, ch22):
        rng = np.random.default_rng(1)
        q1 = 6.0 * np.eye(2)
        h2w = whiten_p2p(ch22.h2, q1)
        for _ in range(100):
            q2 = random_psd(rng, 2, float(rng.uniform(0.1, 12)))
            assert gauss_rate(h2w, q2) == pytest.approx(
                layered_rate(ch22.h2, q2, q1), abs=1e-12
            )


class TestWhitenWiretap:
    def test_scalar_values(self):
        ch = ChannelPair([[2.0]], [[1.0]])
        h1w, h2w = whiten_wiretap(ch, [[1.0]])
        assert np.allclose(h1w, [[2.0 / np.sqrt(5.0)]], atol=1e-14)
        assert np.allclose(h2w, [[1.0 / np.sqrt(2.0)]], atol=1e-14)

    def test_rate_equivalence_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = ChannelPair(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            q1 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
            h1w, h2w = whiten_wiretap(ch, q1)
            for _ in range(5):
                q2 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
                whitened = gauss_rate(h2w, q2) - gauss_rate(h1w, q2)
                original = layered_rate(ch.h2, q2, q1) - layered_rate(ch.h1, q2, q1)
                assert whitened == pytest.approx(original, abs=1e-12)


class TestWhitenMulticast:
    def test_scalar(self):
        ch = ChannelPair([[1.0]], [[1.0]])
        g1, _ = whiten_multicast(ch, [[1.0]], [[2.0]])
        assert np.allclose(g1, [[0.5]], atol=1e-14)

    def test_rate_equivalence(self, ch22b):
        rng = np.random.default_rng(3)
        for _ in range(30):
            q1 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
            q2 = random_psd(rng, 2, float(rng.uniform(0.1, 5)))
            g1, g2 = whiten_multicast(ch22b, q1, q2)
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
        hw_a = whiten_p2p(h, q1)
        hw_b = whiten_p2p(u @ h, q1)
        for _ in range(10):
            q2 = random_psd(rng, 3, 1.5)
            assert gauss_rate(hw_a, q2) == pytest.approx(gauss_rate(hw_b, q2), abs=1e-11)
