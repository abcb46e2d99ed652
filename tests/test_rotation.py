import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion import build_rotation, rotation
from secregion.baselines import n_angles
from secregion.multicast import _softmin_grad
from secregion.rates import gauss_rate, link_rate_grad
from secregion.rotation import (
    _decode,
    ascend,
    encode,
    factor_form,
    fw_gap,
    maximize_psd_objective,
    mixed_start,
    root_form,
)
from secregion.waterfill import waterfill
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
    in_factor = factor_form(search, nt, budget)
    _, grad = in_factor(x)
    for i in range(x.size):
        t = 1e-6 * max(1.0, abs(x[i]))
        up, down = x.copy(), x.copy()
        up[i] += t
        down[i] -= t
        fd = (in_factor(up)[0] - in_factor(down)[0]) / (2.0 * t)
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


class TestRootForm:
    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_matches_matrix_chain_rule(self, case):
        # tr(K Q) with Q = F F^T has the gradient 2 K F in F and K in Q, so
        # root_form and factor_form must give one value and one x-gradient.
        h1, _, budget, x = case
        nt = h1.shape[1]
        k = h1.T @ h1
        in_root = root_form(lambda f: (np.vdot(k, f @ f.T), 2.0 * k @ f), nt, budget)
        in_matrix = factor_form(lambda q: (np.vdot(k, q), k), nt, budget)
        (v_root, g_root), (v_matrix, g_matrix) = in_root(x), in_matrix(x)
        assert v_root == pytest.approx(v_matrix, rel=1e-12, abs=1e-300)
        assert np.allclose(g_root, g_matrix, rtol=1e-10, atol=1e-12 * np.abs(g_matrix).max())

    def test_zero_slack_keeps_zero_gradient(self):
        # A start at full power stays there: the slack's gradient is 0.
        x = np.append(np.random.default_rng(1).standard_normal(4), 0.0)
        _, grad = root_form(lambda f: (np.vdot(f, f), 2.0 * f), 2, 3.0)(x)
        assert grad[-1] == 0.0


def with_gradient(objective, gradient):
    """Value-and-gradient callable, as the search follows."""
    return lambda q: (objective(q), gradient(q))


def fail(*args, **kwargs):
    raise AssertionError("an ascent ran")


class TestDriver:
    D = np.diag([1.0, 3.0])

    def linear(self, q):
        return float(np.trace(q @ self.D))

    def linear_search(self, q):
        return self.linear(q), self.D

    def test_feasible_by_construction(self):
        # whatever the objective does, iterates stay PSD within budget
        seen = []

        def spiky(q):
            seen.append(q)
            return -float(np.sum((q - 0.3) ** 2))

        rng = np.random.default_rng(0)
        q, _, _, _ = maximize_psd_objective(
            spiky,
            2,
            1.5,
            [(np.zeros((2, 2)), True)],
            [rng.standard_normal(5) for _ in range(4)],
            search_objective=factor_form(
                with_gradient(spiky, lambda q: -2.0 * (q - 0.3)), 2, 1.5
            ),
        )
        assert len(seen) > 5
        for qq in seen + [q]:
            assert np.trace(qq) <= 1.5 + 1e-9
            assert np.linalg.eigvalsh(qq)[0] >= -1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        starts = [rng.standard_normal(5) for _ in range(3)]
        a = maximize_psd_objective(
            self.linear, 2, 1.0, [], starts, search_objective=factor_form(self.linear_search, 2, 1.0)
        )
        b = maximize_psd_objective(
            self.linear, 2, 1.0, [], starts, search_objective=factor_form(self.linear_search, 2, 1.0)
        )
        assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]

    def test_single_ascent_reaches_concave_optimum(self):
        # max tr(D q) with tr q <= 1 from the isotropic start
        x0 = encode(0.5 * np.eye(2), 2, 1.0)
        q, converged = ascend(factor_form(self.linear_search, 2, 1.0), x0, 2, 1.0)
        assert converged
        assert np.trace(q @ self.D) == pytest.approx(3.0, abs=1e-5)

    def test_concave_reference(self):
        # max tr(D q) with tr q <= 1 puts everything on the largest diagonal
        q, val, converged, _ = maximize_psd_objective(
            self.linear,
            2,
            1.0,
            [(np.zeros((2, 2)), True), (np.diag([1.0, 0.0]), True)],
            [encode(0.5 * np.eye(2), 2, 1.0)],
            search_objective=factor_form(self.linear_search, 2, 1.0),
        )
        assert converged
        assert val == pytest.approx(3.0, abs=1e-5) and val == self.linear(q)

    def test_candidate_beats_equal_ascent(self, monkeypatch):
        # An ascent that ends on a candidate's value does not displace it.
        best = np.diag([0.0, 1.0])
        monkeypatch.setattr(rotation, "ascend", lambda *args: (best.copy(), False))
        q, val, converged, _ = maximize_psd_objective(
            self.linear,
            2,
            1.0,
            [(np.zeros((2, 2)), True), (best, True)],
            [np.ones(5)],
            search_objective=factor_form(self.linear_search, 2, 1.0),
        )
        assert q is best and val == 3.0 and converged

    def test_first_of_equal_candidates_wins(self):
        first, second = np.diag([0.0, 1.0]), np.diag([0.0, 1.0])
        q, _, converged, _ = maximize_psd_objective(
            self.linear,
            2,
            1.0,
            [(first, False), (second, True)],
            [],
            search_objective=factor_form(self.linear_search, 2, 1.0),
        )
        assert q is first and not converged

    def test_counts_unconverged_ascents(self, monkeypatch):
        # Of three ascents the first and the last stop at the cap.
        flags = iter([False, True, False])
        monkeypatch.setattr(
            rotation, "ascend", lambda *args: (np.diag([0.0, 1.0]), next(flags))
        )
        result = maximize_psd_objective(
            self.linear,
            2,
            1.0,
            [(np.zeros((2, 2)), True)],
            [np.ones(5)] * 3,
            search_objective=factor_form(self.linear_search, 2, 1.0),
        )
        assert result.n_unconverged == 2 and not result.converged
        assert result.value == result[1] == 3.0

    def test_empty_starts_run_no_ascent(self, monkeypatch):
        monkeypatch.setattr(rotation, "ascend", fail)
        q, val, _, _ = maximize_psd_objective(
            self.linear,
            2,
            1.0,
            [(np.zeros((2, 2)), True), (np.diag([1.0, 0.0]), True)],
            [],
            search_objective=factor_form(self.linear_search, 2, 1.0),
        )
        assert np.array_equal(q, np.diag([1.0, 0.0])) and val == 1.0


class TestAscent:
    """The package's BFGS ascent with its strong-Wolfe line search."""

    @pytest.mark.parametrize(
        "h, budget",
        [
            ([[0.3, 2.5], [2.2, 1.8]], 12.0),
            ([[0.1560, -0.6372, -0.4055], [-1.1450, -0.1417, 0.0708]], 4.0),
            ([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.1]], 0.5),
        ],
    )
    def test_single_link_reaches_waterfilling(self, h, budget):
        # The log-det objective is concave, and water-filling is its optimum.
        h = np.array(h)
        nt = h.shape[1]
        x0 = mixed_start(np.diag(np.arange(1.0, nt + 1)) * budget / nt, nt, budget)
        q, converged = ascend(
            factor_form(lambda q: link_rate_grad(h, q), nt, budget), x0, nt, budget
        )
        assert converged
        assert gauss_rate(h, q) == pytest.approx(waterfill(h, budget)[1], abs=1e-10)
        assert fw_gap(link_rate_grad(h, q)[1], q, budget) <= 1e-7

    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_value_never_below_start(self, case):
        h1, h2, budget, x = case
        nt = h1.shape[1]

        def search(q):
            return _secrecy_rate_grad(h1, h2, q)

        q, _ = ascend(factor_form(search, nt, budget), x, nt, budget)
        assert search(q)[0] >= search(_decode(x, nt, budget))[0]

    def test_iteration_cap_marks_unconverged(self, ch22, monkeypatch):
        monkeypatch.setattr(rotation, "MAX_ITERS", 2)
        x0 = np.random.default_rng(0).standard_normal(5)
        search = factor_form(lambda q: _secrecy_rate_grad(ch22.h1, ch22.h2, q), 2, 12.0)
        q, converged = ascend(search, x0, 2, 12.0)
        assert not converged
        assert np.trace(q) <= 12.0 * (1 + 1e-12)

    def test_failed_quasi_newton_search_retries_along_gradient(self, monkeypatch):
        # The second line search (the first along a quasi-Newton direction)
        # fails; the ascent retries along the gradient and still converges.
        found = rotation._wolfe_step
        along_gradient = []

        def fail_second(fun, x, f0, g0, p, step):
            along_gradient.append(np.array_equal(p, -g0))
            return None if len(along_gradient) == 2 else found(fun, x, f0, g0, p, step)

        monkeypatch.setattr(rotation, "_wolfe_step", fail_second)
        h = np.array([[0.3, 2.5], [2.2, 1.8]])
        x0 = mixed_start(np.diag([8.0, 4.0]), 2, 12.0)
        search = factor_form(lambda q: link_rate_grad(h, q), 2, 12.0)
        q, converged = ascend(search, x0, 2, 12.0)
        assert along_gradient[:3] == [True, False, True]
        assert converged
        assert gauss_rate(h, q) == pytest.approx(waterfill(h, 12.0)[1], abs=1e-10)

    def test_flat_line_stops_converged(self):
        # The gradient asks for more power, but the value never changes: no
        # step gives a sufficient decrease, so the ascent stops where it began.
        x0 = encode(np.diag([1.0, 0.5]), 2, 3.0)
        with np.errstate(all="raise"):
            flat = factor_form(lambda q: (1.0, np.eye(2)), 2, 3.0)
            q, converged = ascend(flat, x0, 2, 3.0)
        assert converged
        assert np.array_equal(q, _decode(x0, 2, 3.0))
