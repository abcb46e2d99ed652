import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from secregion import (
    ChannelPair,
    CovarianceTriple,
    DimensionError,
    ORDER_21,
    Scenario,
    evaluate_triple,
    gauss_rate,
    layered_rate,
)
from secregion import rates
from secregion.rates import (
    evaluate_stack,
    identity,
    link_logdet,
    link_rate_grad,
    pencil,
    rate_rule,
    rate_stack,
    resolvent,
)
from secregion.types import check_covariance_stacks

from conftest import random_psd


def eig_logdet_rate(h, q):
    """Independent eigenvalue-based evaluation of 0.5*log2|I + H Q H^T|."""
    m = np.eye(h.shape[0]) + h @ q @ h.T
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    return 0.5 * float(np.sum(np.log2(w)))


def scalar_ch(h1, h2):
    return ChannelPair([[float(h1)]], [[float(h2)]])


def core(ch, tag, q0, q1, q2):
    """Unclamped (r0, r1, r2) of one triple in order "12", from ``rate_stack``."""
    qs = [np.asarray(q, dtype=float)[None] for q in (q0, q1, q2)]
    return rate_stack(ch, Scenario(tag), *qs)[0, 0]


class TestCommonRate:
    def test_zero_q0(self):
        ch = scalar_ch(1.0, 1.0)
        assert core(ch, "A", [[0.0]], [[1.0]], [[1.0]])[0] == 0.0

    def test_scalar_value(self):
        ch = scalar_ch(1.0, 1.0)
        r0 = core(ch, "A", [[4.0]], [[0.0]], [[0.0]])[0]
        assert r0 == pytest.approx(0.5 * np.log2(5.0), abs=1e-12)

    def test_matrix_value_vs_independent_eval(self, ch22):
        q0 = 6.0 * np.eye(2)
        z = np.zeros((2, 2))
        expected = min(eig_logdet_rate(ch22.h1, q0), eig_logdet_rate(ch22.h2, q0))
        assert core(ch22, "A", q0, z, z)[0] == pytest.approx(expected, abs=1e-12)

    def test_reduces_to_interference_free_min(self, ch22):
        q0 = random_psd(np.random.default_rng(0), 2, 3.0)
        z = np.zeros((2, 2))
        expected = min(gauss_rate(ch22.h1, q0), gauss_rate(ch22.h2, q0))
        assert core(ch22, "A", q0, z, z)[0] == pytest.approx(expected, abs=1e-12)

    def test_scale_monotone(self, ch22):
        z = np.zeros((2, 2))
        q0 = random_psd(np.random.default_rng(1), 2, 2.0)
        r1 = core(ch22, "A", q0, z, z)[0]
        r2 = core(ch22, "A", 2 * q0, z, z)[0]
        assert r2 >= r1 - 1e-12


class TestPrivateRates:
    """Scenario A: user 1 first and interference-free, user 2 over user 1."""

    def test_user1_zero(self, ch22):
        z = np.zeros((2, 2))
        assert core(ch22, "A", z, z, z)[1] == 0.0

    def test_user1_scalar(self):
        r1 = core(scalar_ch(1, 1), "A", [[0.0]], [[3.0]], [[0.0]])[1]
        assert r1 == pytest.approx(1.0, abs=1e-12)

    def test_user1_diagonal(self):
        ch = ChannelPair(np.diag([2.0, 1.0]), np.eye(2))
        z = np.zeros((2, 2))
        got = core(ch, "A", z, np.diag([0.875, 0.125]), z)[1]
        assert got == pytest.approx(0.5 * np.log2(4.5 * 1.125), abs=1e-12)

    def test_user2_zero(self, ch22):
        z = np.zeros((2, 2))
        assert core(ch22, "A", z, z, z)[2] == 0.0

    def test_user2_no_interference(self):
        r2 = core(scalar_ch(2, 1), "A", [[0.0]], [[0.0]], [[3.0]])[2]
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_user2_scalar_sinr(self):
        r2 = core(scalar_ch(1, 1), "A", [[0.0]], [[1.0]], [[2.0]])[2]
        assert r2 == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_own_power(self):
        rng = np.random.default_rng(3)
        ch = ChannelPair(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        z = np.zeros((2, 2))
        for _ in range(25):
            q1 = random_psd(rng, 2, 1.0)
            bump = random_psd(rng, 2, 0.5)
            assert core(ch, "A", z, q1 + bump, z)[1] >= core(ch, "A", z, q1, z)[1] - 1e-12


class TestConfidentialRates:
    """Scenario B protects user 1 from user 2; C also user 2 from user 1."""

    def test_user1_zero(self, ch22):
        z = np.zeros((2, 2))
        assert core(ch22, "B", z, z, z)[1] == 0.0

    def test_user1_scalar(self):
        got = core(scalar_ch(2, 1), "B", [[0.0]], [[1.0]], [[0.0]])[1]
        assert got == pytest.approx(0.5 * np.log2(5.0 / 2.0), abs=1e-12)

    def test_user1_negative_when_leaky(self):
        got = core(scalar_ch(1, 2), "B", [[0.0]], [[1.0]], [[0.0]])[1]
        assert got == pytest.approx(0.5 * np.log2(2.0 / 5.0), abs=1e-12)
        assert got < 0

    def test_degradation_vs_private(self):
        rng = np.random.default_rng(4)
        z = np.zeros((2, 2))
        for _ in range(25):
            ch = ChannelPair(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            q1 = random_psd(rng, 2, 2.0)
            assert core(ch, "B", z, q1, z)[1] <= core(ch, "A", z, q1, z)[1] + 1e-12

    def test_user2_zero(self, ch22):
        z = np.zeros((2, 2))
        assert core(ch22, "C", z, z, z)[2] == 0.0

    def test_user2_reduces_to_swapped_user1(self):
        got = core(scalar_ch(1, 2), "C", [[0.0]], [[0.0]], [[1.0]])[2]
        assert got == pytest.approx(0.5 * np.log2(5.0 / 2.0), abs=1e-12)

    def test_identical_channels_cancel(self):
        got = core(scalar_ch(1, 1), "C", [[0.0]], [[0.7]], [[1.3]])[2]
        assert got == pytest.approx(0.0, abs=1e-12)


class TestEvaluateTriple:
    def test_all_zero(self, ch22):
        z = np.zeros((2, 2))
        cov = CovarianceTriple(z, z, z, 1.0)
        t = evaluate_triple(ch22, Scenario("C"), cov)
        assert (t.r0, t.r1, t.r2) == (0.0, 0.0, 0.0)

    def test_single_beam_conf(self, ch22):
        q1 = np.zeros((2, 2))
        q1[0, 0] = 12.0
        z = np.zeros((2, 2))
        cov = CovarianceTriple(z, q1, z, 12.0)
        t = evaluate_triple(ch22, Scenario("C"), cov)
        expected = eig_logdet_rate(ch22.h1, q1) - eig_logdet_rate(ch22.h2, q1)
        assert t.r1 == pytest.approx(max(expected, 0.0), abs=1e-12)
        assert t.r0 == 0.0 and t.r2 == 0.0

    def test_b_rate_below_a_rate(self, ch22):
        rng = np.random.default_rng(5)
        q1 = random_psd(rng, 2, 4.0)
        q2 = random_psd(rng, 2, 2.0)
        cov = CovarianceTriple(np.zeros((2, 2)), q1, q2, 6.0)
        ra = evaluate_triple(ch22, Scenario("A"), cov)
        rb = evaluate_triple(ch22, Scenario("B"), cov)
        assert rb.r1 <= ra.r1 + 1e-12
        assert rb.r2 == pytest.approx(ra.r2, abs=1e-12)

    def test_order_swap_scenario_a(self, ch22):
        rng = np.random.default_rng(6)
        q1 = random_psd(rng, 2, 3.0)
        q2 = random_psd(rng, 2, 3.0)
        cov = CovarianceTriple(np.zeros((2, 2)), q1, q2, 6.0)
        t = evaluate_triple(ch22, Scenario("A"), cov, ORDER_21)
        assert t.r2 == pytest.approx(gauss_rate(ch22.h2, q2), abs=1e-12)
        assert t.r1 == pytest.approx(layered_rate(ch22.h1, q1, q2), abs=1e-12)
        assert t.order == ORDER_21

    def test_order_swap_rejected_for_b(self, ch22):
        z = np.zeros((2, 2))
        cov = CovarianceTriple(z, z, z, 1.0)
        with pytest.raises(ValueError):
            evaluate_triple(ch22, Scenario("B"), cov, ORDER_21)


def slogdet_rates(h1, h2, tag, q0, q1, q2, order):
    """Independent rate triple from slogdet, with the order swap spelled out."""

    def c(h, q):
        sign, logabs = np.linalg.slogdet(np.eye(h.shape[0]) + h @ q @ h.T)
        assert sign > 0
        return 0.5 * logabs / np.log(2.0)

    if order == ORDER_21:
        h1, h2, q1, q2 = h2, h1, q2, q1
    qi = q1 + q2
    r0 = min(c(h1, q0 + qi) - c(h1, qi), c(h2, q0 + qi) - c(h2, qi))
    first = c(h1, q1) - (c(h2, q1) if tag in ("B", "C") else 0.0)
    second = c(h2, qi) - c(h2, q1) - ((c(h1, qi) - c(h1, q1)) if tag == "C" else 0.0)
    if order == ORDER_21:
        first, second = second, first
    return max(r0, 0.0), max(first, 0.0), max(second, 0.0)


def psd_stack(rng, k, nt, max_trace):
    """k random PSD matrices of random rank (zero included) and trace."""
    out = np.zeros((k, nt, nt))
    for i in range(k):
        g = rng.standard_normal((nt, int(rng.integers(0, nt + 1))))
        b = g @ g.T
        if np.trace(b) > 0:
            out[i] = b * (rng.uniform(0.0, max_trace) / np.trace(b))
    return out


@st.composite
def stacked_cases(draw):
    nt = draw(st.integers(1, 4))
    n1 = draw(st.integers(1, 5))
    n2 = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    tag = draw(st.sampled_from("ABC"))
    common = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ch = ChannelPair(rng.standard_normal((n1, nt)), rng.standard_normal((n2, nt)))
    q0 = psd_stack(rng, k, nt, 4.0) if common else np.zeros((k, nt, nt))
    q1 = psd_stack(rng, k, nt, 4.0)
    q2 = psd_stack(rng, k, nt, 4.0)
    return ch, Scenario(tag, common), q0, q1, q2


class TestEvaluateStack:
    @settings(max_examples=150, deadline=None)
    @given(stacked_cases())
    def test_matches_per_triple_and_slogdet(self, case):
        ch, sc, q0, q1, q2 = case
        orders = sc.orders
        p = float(np.trace(q0 + q1 + q2, axis1=1, axis2=2).max())
        check_covariance_stacks((q0, q1, q2), p)
        got = evaluate_stack(ch, sc, q0, q1, q2, orders)
        assert got.shape == (len(orders), q0.shape[0], 3)
        assert np.array_equal(got, np.maximum(rate_stack(ch, sc, q0, q1, q2, orders), 0.0))
        for n, order in enumerate(orders):
            for i in range(q0.shape[0]):
                t = evaluate_triple(ch, sc, CovarianceTriple(q0[i], q1[i], q2[i], p), order)
                ref = slogdet_rates(ch.h1, ch.h2, sc.tag, q0[i], q1[i], q2[i], order)
                assert got[n, i] == pytest.approx([t.r0, t.r1, t.r2], abs=1e-12)
                assert got[n, i] == pytest.approx(ref, abs=1e-12)

    def test_eigenvalue_fallback(self, ch_row3, monkeypatch):
        rng = np.random.default_rng(21)
        qs = [psd_stack(rng, 6, 3, 3.0) for _ in range(3)]
        want = evaluate_stack(ch_row3, Scenario("C"), *qs, ("12", "21"))

        want_rate = gauss_rate(ch_row3.h1, qs[0][0])
        # The factorization reports failure as NaN throughout, as the
        # gufunc does when round-off leaves a matrix indefinite.
        monkeypatch.setattr(rates, "cholesky_lo", lambda m: np.full_like(m, np.nan))
        got = evaluate_stack(ch_row3, Scenario("C"), *qs, ("12", "21"))
        assert got == pytest.approx(want, abs=1e-12)
        assert gauss_rate(ch_row3.h1, qs[0][0]) == pytest.approx(want_rate, abs=1e-12)

    def test_fallback_is_per_matrix(self, ch_row3):
        # One matrix of the stack, I - 4 H H^T, is indefinite: it falls back
        # to eigenvalues alone, and every other row keeps the bits of its
        # own stack of one, so a rate never depends on its neighbours.
        rng = np.random.default_rng(22)
        q = psd_stack(rng, 5, 3, 3.0)
        q[2] = -4.0 * np.eye(3)
        for h in (ch_row3.h1, ch_row3.h2):
            got = link_logdet(h, q)
            assert np.isfinite(got[2]) and got[2] < -700.0
            for i in (0, 1, 3, 4):
                assert got[i].tobytes() == link_logdet(h, q[i : i + 1])[0].tobytes()

    def test_rejects_bad_order_and_shape(self, ch22):
        z = np.zeros((3, 2, 2))
        with pytest.raises(ValueError):
            evaluate_stack(ch22, Scenario("B"), z, z, z, ("12", "21"))
        with pytest.raises(DimensionError):
            evaluate_stack(ch22, Scenario("A"), z, z, np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("fault", ["asymmetric", "indefinite", "over_budget"])
    def test_stacked_check_matches_triple_message(self, slot, fault):
        rng = np.random.default_rng(slot)
        qs = [psd_stack(rng, 5, 2, 1.0) for _ in range(3)]
        check_covariance_stacks(qs, 3.0)
        bad = 3
        if fault == "asymmetric":
            qs[slot][bad, 0, 1] += 1e-6
        elif fault == "indefinite":
            qs[slot][bad] = [[1.0, 0.0], [0.0, -1e-3]]
        else:
            qs[slot][bad] = 5.0 * np.eye(2)
        with pytest.raises(ValueError) as triple_err:
            CovarianceTriple(qs[0][bad], qs[1][bad], qs[2][bad], 3.0)
        with pytest.raises(ValueError) as stack_err:
            check_covariance_stacks(qs, 3.0)
        assert str(stack_err.value) == str(triple_err.value)


class TestNumericalPaths:
    def test_cholesky_agrees_with_eigenvalue_path(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            nt = int(rng.integers(1, 4))
            h = rng.standard_normal((n, nt))
            q = random_psd(rng, nt, float(rng.uniform(0.1, 10)))
            assert gauss_rate(h, q) == pytest.approx(eig_logdet_rate(h, q), abs=1e-10)

    def test_fast_link_fn_matches_public_path(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            h = rng.standard_normal((n, 3))
            for _ in range(20):
                q = random_psd(rng, 3, float(rng.uniform(0.1, 8)))
                assert link_rate_grad(h, q)[0] == gauss_rate(h, q)

    def test_dimension_mismatch(self, ch22):
        with pytest.raises(DimensionError):
            gauss_rate(ch22.h1, np.eye(3))

    def test_common_components_order(self, ch22):
        # On a pair of equal links the shared message's rate is that link's
        # component; on ch22 it is the worse of user 1's and user 2's.
        q0 = np.eye(2)
        z = np.zeros((2, 2))
        c1 = core(ChannelPair(ch22.h1, ch22.h1), "A", q0, z, z)[0]
        c2 = core(ChannelPair(ch22.h2, ch22.h2), "A", q0, z, z)[0]
        assert c1 == pytest.approx(gauss_rate(ch22.h1, q0), abs=1e-12)
        assert c2 == pytest.approx(gauss_rate(ch22.h2, q0), abs=1e-12)
        assert core(ch22, "A", q0, z, z)[0] == pytest.approx(min(c1, c2), abs=1e-12)


@st.composite
def link_cases(draw):
    """A channel (1-5 rows, nt 1-5), a PSD covariance of trace 1e-3 to 1e3
    (rank 1 to nt) and a symmetric direction of unit norm."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt, rows, rank = (draw(st.integers(1, 5)) for _ in range(3))
    power = 10.0 ** draw(st.floats(-3.0, 3.0))
    h = rng.standard_normal((rows, nt))
    g = rng.standard_normal((nt, min(rank, nt)))
    q = g @ g.T
    q *= power / np.trace(q)
    d = rng.standard_normal((nt, nt))
    d = d + d.T
    return h, q, d / np.linalg.norm(d)


@st.composite
def wiretap_pencils(draw):
    """The pencil (I + p Hm^T Hm, I + p He^T He) of a wiretap solve: nt 1-5,
    1-5 rows per channel, p 1e-6 to 1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt, rows_m, rows_e = (draw(st.integers(1, 5)) for _ in range(3))
    p = 10.0 ** draw(st.floats(-6.0, 8.0))
    hm = rng.standard_normal((rows_m, nt))
    he = rng.standard_normal((rows_e, nt))
    eye = np.eye(nt)
    return eye + p * (hm.T @ hm), eye + p * (he.T @ he)


class TestPencil:
    # Tolerances are 1e-12 relative to the pencil's own scales.  With fewer
    # eavesdropper rows than antennas B = L L^T is nearly singular at high
    # power (condition number kb up to about 1e9), and every Cholesky
    # reduction loses accuracy with it: an eigenvalue moves by up to
    # eps ||B^-1|| (||A|| + |lam| ||B||) under rounding of A and B, and
    # scipy's reference dsygvd errs by up to sqrt(kb) times that (kappa of
    # its L), where `pencil`, against 80-digit mpmath, stays within it.
    @settings(max_examples=300, deadline=None)
    @given(wiretap_pencils())
    def test_matches_scipy_eigh(self, ab):
        a, b = ab
        lam, v = pencil(a, b)
        ref = eigh(a, b, eigvals_only=True)
        na, nb = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
        nbi = 1.0 / np.linalg.eigvalsh(b)[0]
        kb = nb * nbi
        scale = nbi * (na + np.abs(ref) * nb) * np.sqrt(kb)
        assert np.all(np.abs(lam - ref) <= 1e-12 * scale)
        assert np.all(np.diff(lam) >= 0.0)
        # B-orthonormal eigenvectors ...
        assert np.abs(v.T @ b @ v - np.eye(len(a))).max() <= 1e-12 * kb
        # ... and a normwise backward error of at most 1e-12.
        res = np.linalg.norm(a @ v - (b @ v) * lam)
        assert res <= 1e-12 * (na + np.abs(lam).max() * nb) * np.linalg.norm(v)


class TestLinkRateGrad:
    @settings(max_examples=200, deadline=None)
    @given(link_cases())
    def test_value_is_gauss_rate(self, case):
        h, q, _ = case
        assert link_rate_grad(h, q)[0] == gauss_rate(h, q)

    @settings(max_examples=200, deadline=None)
    @given(link_cases())
    def test_gradient_matches_central_difference(self, case):
        h, q, d = case
        _, g = link_rate_grad(h, q)
        assert np.allclose(g, g.T, rtol=0.0, atol=0.0)
        t = 1e-5
        fd = (gauss_rate(h, q + t * d) - gauss_rate(h, q - t * d)) / (2.0 * t)
        assert np.tensordot(g, d) == pytest.approx(fd, rel=1e-6, abs=1e-7)


class TestSharedFactor:
    @settings(max_examples=300, deadline=None)
    @given(link_cases())
    def test_resolvent_matches_numpy(self, case):
        h, q, _ = case
        ld, y, gram = resolvent(h, q)
        m = np.eye(h.shape[0]) + h @ q @ h.T
        chol = np.linalg.cholesky(0.5 * (m + m.T))
        y_ref = np.linalg.inv(chol) @ h
        want = (2.0 * np.sum(np.log(np.diagonal(chol))), y_ref, y_ref.T @ y_ref)
        # resolvent calls the gufuncs behind these numpy functions.
        for got, ref in zip((ld, y, gram), want):
            assert np.array_equal(got, ref)
        assert np.shape(ld) == () and y.shape == h.shape
        # Y is the whitened channel: Y^T Y = H^T M^{-1} H.
        assert np.allclose(gram, h.T @ np.linalg.solve(m, h), atol=1e-9)
        assert ld == pytest.approx(np.linalg.slogdet(m)[1], abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(link_cases())
    def test_logdet_alone_matches_resolvent(self, case):
        h, q, _ = case
        assert link_logdet(h, q) == resolvent(h, q)[0]

    def test_identity_is_cached_read_only(self):
        assert identity(3) is identity(3)
        assert np.array_equal(identity(3), np.eye(3))
        with pytest.raises(ValueError):
            identity(3)[0, 0] = 2.0

    def test_resolvent_rejects_indefinite_link(self):
        # The failed factorization raises, and numpy reports no invalid value.
        h = np.array([[1.0, 0.5], [0.2, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError):
                resolvent(h, -4.0 * np.eye(2))
            with pytest.raises(np.linalg.LinAlgError):
                link_logdet(h, -4.0 * np.eye(2))

    def test_resolvent_in_concurrent_threads(self):
        # The gufunc releases the interpreter lock, so factorizations in
        # several threads overlap (the 200-row links make that likely); each
        # must run in a context of its own.
        rng = np.random.default_rng(3)
        cases = [(rng.standard_normal((200, 3)), random_psd(rng, 3, 2.0)) for _ in range(4)]
        want = [resolvent(h, q)[1] for h, q in cases]
        errors = []

        def work():
            try:
                for _ in range(5):
                    for (h, q), y in zip(cases, want):
                        # A threaded BLAS may split the work otherwise
                        # when called from several threads at once.
                        assert np.allclose(resolvent(h, q)[1], y, rtol=1e-12, atol=0.0)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    @settings(max_examples=100, deadline=None)
    @given(stacked_cases())
    def test_rule_on_scalar_link_values(self, case):
        # The rule reads only the link values an order needs; the rest may
        # be None, as in the WSR search, and float entries give one row.
        ch, sc, q0, q1, q2 = case
        orders = sc.orders
        want = rate_stack(ch, sc, q0, q1, q2, orders)
        for i in range(q0.shape[0]):
            qs = [q0[i] + q1[i] + q2[i], q1[i] + q2[i], q1[i], q2[i]]
            links = [[gauss_rate(h, q) for q in qs] for h in (ch.h1, ch.h2)]
            for n, order in enumerate(orders):
                skip = 3 if order == "12" else 2
                partial = [
                    [None if j == skip else v for j, v in enumerate(u)] for u in links
                ]
                got = rate_rule(sc, partial, (order,))
                assert np.shape(got) == (1, 3)
                assert got[0] == pytest.approx(want[n, i], abs=1e-12)
