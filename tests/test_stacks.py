"""Every objective of the lockstep search driver takes a stack of rows, and
each row of a stacked call must equal, bit for bit, the call on that row
alone: the driver's ascents then take the steps they would take alone."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion.corner import _corner, _eigen_factor
from secregion.multicast import _softmin_grad
from secregion.rates import (
    _whitened,
    link_logdet,
    link_rate_grad,
    pair_rate_grad,
    pencil,
    whiten,
)
from secregion.rotation import _decode, factor_form, root_form
from secregion.wiretap import _secrecy_rate_grad


def same(stacked, rows):
    """The stacked result against the row results, byte for byte."""
    return np.asarray(stacked).tobytes() == np.array(rows).tobytes()


@st.composite
def stacks(draw):
    """Two channels of 1-4 rows over nt 1-5 antennas, a budget of 1e-3 to
    1e3, and k = 1-8 factor vectors with their matrices and factors.

    The last row's factor has a zero column when nt > 1: a mode that
    neither user sees, whose corner pencils have lam = 1, the kink of
    log2+.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt, k = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    h1 = rng.standard_normal((draw(st.integers(1, 4)), nt))
    h2 = rng.standard_normal((draw(st.integers(1, 4)), nt))
    budget = 10.0 ** draw(st.floats(-3.0, 3.0))
    x = rng.standard_normal((k, nt * nt + 1)) * 10.0 ** rng.uniform(-2.0, 2.0, (k, 1))
    if nt > 1:
        x[-1, :-1].reshape(nt, nt)[:, 0] = 0.0
    f = np.sqrt(budget / np.vecdot(x, x))[:, None, None] * x[:, :-1].reshape(k, nt, nt)
    return h1, h2, budget, x, _decode(x, nt, budget), f


@st.composite
def waves(draw):
    """The links of m = 1-4 problems, 1-4 rows each over one nt of 1-5,
    and k = 1-8 PSD matrices with their owners among the problems."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt, m, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rows = st.integers(1, 4)
    h1s = [rng.standard_normal((draw(rows), nt)) for _ in range(m)]
    h2s = [rng.standard_normal((draw(rows), nt)) for _ in range(m)]
    g = rng.standard_normal((k, nt, nt)) * 10.0 ** rng.uniform(-2.0, 2.0, (k, 1, 1))
    owner = np.array(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)))
    return h1s, h2s, g @ g.mT, owner


weights = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


class TestStackedPrimitives:
    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_decode(self, case):
        _, h2, budget, x, q, _ = case
        nt = h2.shape[1]
        assert same(q, [_decode(row, nt, budget) for row in x])

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_resolvent_and_link_rate_grad(self, case):
        h1, _, _, _, q, _ = case
        for got, want in zip(_whitened(h1, q), zip(*(_whitened(h1, m) for m in q))):
            assert same(got, want)
        for got, want in zip(link_rate_grad(h1, q), zip(*(link_rate_grad(h1, m) for m in q))):
            assert same(got, want)

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_pair_rate_grad(self, case):
        # Both for channels of one shape, factored as one stack, and others.
        h1, h2, _, _, q, _ = case
        for pair in ((h1, h2), (h1, 2.0 * h1)):
            rates, grads = pair_rate_grad([pair[0]], [pair[1]])(q)
            singles = [[link_rate_grad(h, m) for m in q] for h in pair]
            assert same(rates, [[r for r, _ in rows] for rows in singles])
            assert same(grads, [[g for _, g in rows] for rows in singles])

    @settings(max_examples=150, deadline=None)
    @given(waves())
    def test_pair_rate_grad_wave(self, case):
        # The links of several problems, of any row counts: every row of a
        # wave's call is its own one-problem call on that one matrix.
        h1s, h2s, q, owner = case
        rates, grads = pair_rate_grad(h1s, h2s)(q, owner)
        alone = [pair_rate_grad([h1s[i]], [h2s[i]])(m) for m, i in zip(q, owner)]
        assert same(rates.T, [r for r, _ in alone])
        assert same(grads.transpose(1, 0, 2, 3), [g for _, g in alone])

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_pencil(self, case):
        h1, h2, _, _, q, _ = case
        eye = np.eye(q.shape[-1])
        a, b = eye + q @ (h1.T @ h1) @ q, eye + q @ (h2.T @ h2) @ q
        lam, v = pencil(a, b)
        rows = [pencil(ai, bi) for ai, bi in zip(a, b)]
        assert same(lam, [r[0] for r in rows]) and same(v, [r[1] for r in rows])

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_secrecy_and_softmin(self, case):
        h1, h2, _, _, q, _ = case
        for objective in (_secrecy_rate_grad, _softmin_grad):
            values, grads = objective(h1, h2, q)
            rows = [objective(h1, h2, m) for m in q]
            assert same(values, [r[0] for r in rows]) and same(grads, [r[1] for r in rows])

    @settings(max_examples=150, deadline=None)
    @given(stacks(), weights, weights)
    def test_corner(self, case, w1, w2):
        h1, h2, _, _, _, f = case
        values, grads = _corner(h1, h2, w1, w2, f)
        rows = [_corner(h1, h2, w1, w2, fi) for fi in f]
        assert same(values, [r[0] for r in rows]) and same(grads, [r[1] for r in rows])

    def test_corner_kink_is_masked(self):
        # A zero factor column is a mode that neither user sees, with
        # lam = 1 exactly in both pencils: masked, it adds nothing, and the
        # factor without that column gives the same value and gradient.
        rng = np.random.default_rng(5)
        h1, h2 = rng.standard_normal((2, 3)), rng.standard_normal((1, 3))
        f = rng.standard_normal((3, 3))
        f[:, 0] = 0.0
        eye = np.eye(3)
        a, b = eye + (h1 @ f).T @ (h1 @ f), eye + (h2 @ f).T @ (h2 @ f)
        assert (pencil(a, b)[0] == 1.0).any() and (pencil(b, a)[0] == 1.0).any()
        value, grad = _corner(h1, h2, 0.5, 1.0, f[None])
        narrow_value, narrow_grad = _corner(h1, h2, 0.5, 1.0, f[:, 1:])
        assert value[0] == pytest.approx(narrow_value, rel=1e-12)
        assert np.allclose(grad[0, :, 1:], narrow_grad, rtol=1e-12, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(stacks(), weights, weights)
    def test_factor_and_root_forms(self, case, w1, w2):
        # The search objectives of the drivers' callers, each row against
        # a stack of one.
        h1, h2, budget, x, _, _ = case
        nt = h1.shape[1]
        objectives = [
            factor_form(lambda q: _secrecy_rate_grad(h1, h2, q), nt, budget),
            factor_form(lambda q: _softmin_grad(h1, h2, q), nt, budget),
            root_form(lambda f: _corner(h1, h2, w1, w2, f), nt, budget),
        ]
        for objective in objectives:
            values, grads = objective(x)
            rows = [objective(row[None]) for row in x]
            assert same(values, [r[0][0] for r in rows])
            assert same(grads, [r[1][0] for r in rows])


class TestFailedFactor:
    """A link matrix that is not positive definite, in any row of a stack,
    raises from the searches' primitives instead of passing NaN on."""

    H = np.array([[1.0, 0.5], [0.2, 1.0]])
    OWNER = np.array([0, 1, 1])

    def stack(self, bad_row):
        q = np.stack([np.eye(2), 0.5 * np.eye(2), np.diag([2.0, 0.1])])
        q[bad_row] = -4.0 * np.eye(2)
        return q

    @pytest.mark.parametrize("bad_row", [0, 1, 2])
    def test_indefinite_row_raises(self, bad_row):
        q = self.stack(bad_row)
        calls = [
            lambda: whiten(self.H, q),
            lambda: link_rate_grad(self.H, q),
            lambda: pair_rate_grad([self.H], [2.0 * self.H])(q),
            lambda: pair_rate_grad([self.H], [self.H[:1]])(q),
            lambda: pair_rate_grad([self.H, self.H[:1]], [self.H[:1], self.H])(q, self.OWNER),
            lambda: _secrecy_rate_grad(self.H, self.H[:1], q),
            lambda: _softmin_grad(self.H, 2.0 * self.H, q),
            lambda: pencil(np.eye(2) + q, np.eye(2) + q),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in calls:
                with pytest.raises(np.linalg.LinAlgError):
                    call()

    def test_reported_rates_keep_the_eigenvalue_fallback(self):
        # The log-determinants behind reported rates still fall back to
        # eigenvalue sums on a stack, each eigenvalue floored at the least
        # positive double.
        q = self.stack(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            logdet = link_logdet(self.H, q)
        assert np.isfinite(logdet).all()
        m = np.eye(2) + self.H @ q[0] @ self.H.T
        assert logdet[0] == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)

    def test_eigen_factor_of_stack(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((4, 3, 3))
        s = g @ g.mT
        assert same(_eigen_factor(s), [_eigen_factor(m) for m in s])
