import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion import build_rotation
from secregion.baselines import n_angles
from secregion.multicast import _softmin_grad
from secregion.rotation import (
    _decode,
    _factor_objective,
    ascend,
    encode,
    fw_gap,
    maximize_psd_objective,
    mixed_start,
)
from secregion.wiretap import _secrecy_rate_grad


class TestBuildRotation:
    def test_zero_angles_identity(self):
        assert np.array_equal(build_rotation(np.zeros(3), 3), np.eye(3))

    def test_quarter_turn(self):
        v = build_rotation([np.pi / 2], 2)
        assert np.allclose(v, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_three_dim_product_order(self):
        a, b, c = 0.3, -0.7, 1.2

        def factor(p, q, th):
            g = np.eye(3)
            g[p, p] = g[q, q] = np.cos(th)
            g[p, q] = -np.sin(th)
            g[q, p] = np.sin(th)
            return g

        expected = factor(0, 1, a) @ factor(0, 2, b) @ factor(1, 2, c)
        assert np.allclose(build_rotation([a, b, c], 3), expected, atol=1e-14)

    def test_orthogonal(self):
        rng = np.random.default_rng(0)
        for nt in (2, 3, 4, 5):
            v = build_rotation(rng.uniform(-np.pi, np.pi, n_angles(nt)), nt)
            assert np.max(np.abs(v.T @ v - np.eye(nt))) < 1e-12

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            build_rotation([0.1, 0.2], 2)

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(4)
        for nt in (1, 2, 3, 4):
            rows = rng.uniform(0.0, np.pi, (7, 3, n_angles(nt)))
            stack = build_rotation(rows, nt)
            assert stack.shape == (7, 3, nt, nt)
            for idx in np.ndindex(7, 3):
                assert build_rotation(rows[idx], nt).tobytes() == stack[idx].tobytes()


class TestFactorParam:
    def test_decode_diagonal(self):
        x = np.array([2.0, 0.0, 0.0, 1.0, 0.0])
        assert np.allclose(_decode(x, 2, 2.5), np.diag([2.0, 0.5]), atol=1e-15)

    def test_decode_rank_one(self):
        x = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        assert np.allclose(_decode(x, 2, 2.0), [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_feasible_for_every_vector(self):
        rng = np.random.default_rng(3)
        for nt in (1, 2, 3, 4, 5):
            for _ in range(50):
                x = rng.standard_normal(nt * nt + 1) * 10.0 ** rng.uniform(-3, 3)
                q = _decode(x, nt, 2.5)
                assert np.array_equal(q, q.T)
                assert np.trace(q) <= 2.5 * (1 + 1e-12)
                assert np.linalg.eigvalsh(q)[0] >= -1e-12

    def test_encode_round_trip(self):
        rng = np.random.default_rng(1)
        for nt in (1, 2, 3, 4, 5):
            for share in (0.3, 1.0):
                g = rng.standard_normal((nt, nt))
                q = g @ g.T
                q *= share * 4.0 / np.trace(q)
                # full power keeps a slack of 1e-8 of the budget
                assert np.allclose(_decode(encode(q, nt, 4.0), nt, 4.0), q, atol=1e-7)


    def test_mixed_start_full_rank_at_budget(self):
        # A rank-one start keeps its trace and gains every direction.
        q = np.diag([3.0, 0.0, 0.0])
        mixed = _decode(mixed_start(q, 3, 3.0), 3, 3.0)
        assert np.trace(mixed) == pytest.approx(3.0, rel=1e-7)
        assert np.linalg.eigvalsh(mixed)[0] == pytest.approx(1e-3, rel=1e-6)


class TestFrankWolfeGap:
    def test_linear_objective(self):
        # For tr(D q) the gap is the distance to the optimum p * max(D).
        d = np.diag([1.0, 3.0])
        for q in (np.zeros((2, 2)), np.diag([2.0, 0.0]), np.diag([0.5, 0.5])):
            assert fw_gap(d, q, 2.0) == pytest.approx(6.0 - np.trace(d @ q), abs=1e-15)
        assert fw_gap(d, np.diag([0.0, 2.0]), 2.0) == 0.0

    def test_negative_gradient_stays_at_zero(self):
        # No direction ascends, so zero power is stationary.
        assert fw_gap(-np.eye(3), np.zeros((3, 3)), 5.0) == 0.0
        assert fw_gap(-np.eye(3), np.eye(3), 5.0) == pytest.approx(3.0)


@st.composite
def search_cases(draw):
    """Two channels (1-5 rows, nt 1-5), a budget of 1e-3 to 1e3 and a
    standard normal parameter vector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt = draw(st.integers(1, 5))
    h1 = rng.standard_normal((draw(st.integers(1, 5)), nt))
    h2 = rng.standard_normal((draw(st.integers(1, 5)), nt))
    budget = 10.0 ** draw(st.floats(-3.0, 3.0))
    return h1, h2, budget, rng.standard_normal(nt * nt + 1)


def assert_central_difference(search, x, nt, budget):
    """The chain-rule gradient of ``search`` at ``_decode(x)`` against
    central differences of its value, coordinate by coordinate."""
    _, grad = _factor_objective(search, x, nt, budget)
    for i in range(x.size):
        t = 1e-6 * max(1.0, abs(x[i]))
        up, down = x.copy(), x.copy()
        up[i] += t
        down[i] -= t
        fd = (
            _factor_objective(search, up, nt, budget)[0]
            - _factor_objective(search, down, nt, budget)[0]
        ) / (2.0 * t)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestFactorGradient:
    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_wiretap_difference(self, case):
        h1, h2, budget, x = case
        assert_central_difference(
            lambda q: _secrecy_rate_grad(h1, h2, q), x, h1.shape[1], budget
        )

    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_multicast_softmin(self, case):
        h1, h2, budget, x = case
        assert_central_difference(
            lambda q: _softmin_grad(h1, h2, q), x, h1.shape[1], budget
        )


def with_gradient(objective, gradient):
    """Value-and-gradient callable, as the search follows."""
    return lambda q: (objective(q), gradient(q))


class TestDriver:
    def test_feasible_by_construction(self):
        # whatever the objective does, iterates stay PSD within budget
        seen = []

        def spiky(q):
            seen.append(q)
            return -float(np.sum((q - 0.3) ** 2))

        q, _, _ = maximize_psd_objective(
            spiky,
            2,
            1.5,
            search_objective=with_gradient(spiky, lambda q: -2.0 * (q - 0.3)),
        )
        for qq in seen + [q]:
            assert np.trace(qq) <= 1.5 + 1e-9
            assert np.linalg.eigvalsh(qq)[0] >= -1e-12

    def test_zero_budget(self):
        def obj(q):
            return float(np.trace(q))

        search = with_gradient(obj, lambda q: np.eye(2))
        q, val, conv = maximize_psd_objective(obj, 2, 0.0, search_objective=search)
        assert np.array_equal(q, np.zeros((2, 2))) and val == 0.0 and conv

    def test_deterministic(self):
        def obj(q):
            return float(np.trace(q @ np.diag([1.0, 2.0])))

        search = with_gradient(obj, lambda q: np.diag([1.0, 2.0]))
        a = maximize_psd_objective(obj, 2, 1.0, search_objective=search)
        b = maximize_psd_objective(obj, 2, 1.0, search_objective=search)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_single_ascent_reaches_concave_optimum(self):
        # max tr(D q) with tr q <= 1 from the isotropic start
        d = np.diag([1.0, 3.0])
        x0 = encode(0.5 * np.eye(2), 2, 1.0)
        q, converged = ascend(lambda q: (float(np.trace(q @ d)), d), x0, 2, 1.0)
        assert converged
        assert np.trace(q @ d) == pytest.approx(3.0, abs=1e-5)

    def test_concave_reference(self):
        # max tr(D q) with tr q <= 1 puts everything on the largest diagonal
        def obj(q):
            return float(np.trace(q @ np.diag([1.0, 3.0])))

        search = with_gradient(obj, lambda q: np.diag([1.0, 3.0]))
        q, val, _ = maximize_psd_objective(obj, 2, 1.0, search_objective=search)
        assert val == pytest.approx(3.0, abs=1e-5)
