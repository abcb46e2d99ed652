import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion import build_rotation, rotation
from secregion.baselines import n_angles
from secregion.multicast import _softmin_grad
from secregion.rates import gauss_rate, link_rate_grad, pair_rate_grad
from secregion.rotation import (
    Problem,
    _decode,
    encode,
    factor_form,
    fw_gap,
    mixed_start,
    root_form,
    search_problems,
)
from secregion.waterfill import waterfill
from secregion.wiretap import _secrecy_rate_grad

from conftest import random_psd


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
    central differences of its value, coordinate by coordinate, each
    vector a stack of one row."""
    in_factor = factor_form(search, nt, budget)
    (grad,) = in_factor(x[None])[1]
    for i in range(x.size):
        t = 1e-6 * max(1.0, abs(x[i]))
        up, down = x.copy(), x.copy()
        up[i] += t
        down[i] -= t
        fd = (in_factor(up[None])[0][0] - in_factor(down[None])[0][0]) / (2.0 * t)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestBlocks:
    """k blocks that share one budget: x = (vec B1, ..., vec Bk, s)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 3))
    def test_decode_feasible_and_rowwise(self, seed, nt, k):
        rng = np.random.default_rng(seed)
        budget = 10.0 ** rng.uniform(-3.0, 3.0)
        x = rng.standard_normal((4, k * nt * nt + 1))
        q = _decode(x, nt, budget)
        assert q.shape == (4, k, nt, nt)
        for row, blocks in zip(x, q):
            assert np.array_equal(_decode(row, nt, budget), blocks)
            assert np.trace(blocks, axis1=-2, axis2=-1).sum() <= budget * (1 + 1e-12)
            assert np.linalg.eigvalsh(blocks).min() >= -1e-12 * budget

    def test_encode_round_trip(self):
        rng = np.random.default_rng(2)
        q = np.array([random_psd(rng, 3, t) for t in (1.0, 0.5)])
        x = encode(q, 3, 4.0)
        assert x.size == 2 * 9 + 1
        assert np.allclose(_decode(x, 3, 4.0), q, atol=1e-12)

    def test_mixed_start_keeps_the_trace(self):
        # Each block mixes in the isotropic split, budget/(k nt) I, so the
        # trace sum stays at the budget and every block has full rank.
        q = np.array([np.diag([6.0, 0.0]), np.zeros((2, 2))])
        blocks = _decode(mixed_start(q, 2, 6.0), 2, 6.0)
        assert np.trace(blocks, axis1=-2, axis2=-1).sum() == pytest.approx(6.0, rel=1e-7)
        assert np.linalg.eigvalsh(blocks).min() > 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 3))
    def test_gradient_matches_central_differences(self, seed, nt, k):
        # Each block its own link: sum_j 0.5 log2|I + Hj Qj Hj^T|.
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((k, int(rng.integers(1, 4)), nt))
        budget = 10.0 ** rng.uniform(-2.0, 2.0)

        def links(q):
            rates, grads = link_rate_grad(h, q)
            return rates.sum(-1), grads

        assert_central_difference(links, rng.standard_normal(k * nt * nt + 1), nt, budget)

    @settings(max_examples=60, deadline=None)
    @given(search_cases())
    def test_one_block_unchanged(self, case):
        # One block takes the products of the one-block form, bit for bit:
        # 2/c (budget G B - <G, Q> B) for B and -2 <G, Q> s / c for s.
        h1, h2, budget, x = case
        nt = h1.shape[1]
        x = np.array([x, 2.0 * x])
        search = stacked(lambda q: _secrecy_rate_grad(h1, h2, q))
        values, grads = factor_form(search, nt, budget)(x)
        b = x[:, :-1].reshape(2, nt, nt)
        c = np.vecdot(x, x)
        c3 = c[:, None, None]
        q = (budget / c3) * (b @ b.mT)
        want_values, g = search(q)
        gq = np.vecdot(g.reshape(2, -1), q.reshape(2, -1))
        want = np.empty_like(x)
        want[:, :-1] = ((2.0 / c3) * (budget * (g @ b) - gq[:, None, None] * b)).reshape(2, -1)
        want[:, -1] = -2.0 * gq * x[:, -1] / c
        assert np.array_equal(values, want_values) and np.array_equal(grads, want)

    def test_gap_over_blocks(self):
        # budget * max(lambda_max(G1), lambda_max(G2), 0) - sum_j <Gj, Qj>.
        g = np.array([np.diag([1.0, 3.0]), np.diag([2.0, -1.0])])
        zero = np.zeros((2, 2))
        assert fw_gap(g, np.array([zero, zero]), 2.0) == 6.0
        assert fw_gap(g, np.array([np.diag([0.0, 2.0]), zero]), 2.0) == 0.0
        q = np.array([np.diag([0.5, 0.0]), np.diag([1.0, 0.5])])
        assert fw_gap(g, q, 2.0) == 6.0 - (0.5 + 2.0 - 0.5)
        assert fw_gap(-np.abs(g), np.array([zero, zero]), 2.0) == 0.0


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
        in_root = root_form(stacked(lambda f: (np.vdot(k, f @ f.T), 2.0 * k @ f)), nt, budget)
        in_matrix = factor_form(stacked(lambda q: (np.vdot(k, q), k)), nt, budget)
        (v_root, g_root), (v_matrix, g_matrix) = in_root(x[None]), in_matrix(x[None])
        assert v_root == pytest.approx(v_matrix, rel=1e-12, abs=1e-300)
        assert np.allclose(g_root, g_matrix, rtol=1e-10, atol=1e-12 * np.abs(g_matrix).max())

    def test_zero_slack_keeps_zero_gradient(self):
        # A start at full power stays there: the slack's gradient is 0.
        x = np.append(np.random.default_rng(1).standard_normal(4), 0.0)
        _, grad = root_form(stacked(lambda f: (np.vdot(f, f), 2.0 * f)), 2, 3.0)(x[None])
        assert grad[0, -1] == 0.0


def stacked(single):
    """The stacked form of a one-matrix ``(value, gradient)`` objective, as
    the search follows: the (k,) values and (k, n, n) gradients of a
    (k, n, n) stack, matrix by matrix."""

    def on_stack(q):
        values, grads = zip(*(single(m) for m in q))
        return np.array(values), np.array(grads)

    return on_stack


def with_gradient(objective, gradient):
    """Stacked value-and-gradient callable, as the search follows."""
    return stacked(lambda q: (objective(q), gradient(q)))


def ascend(search_objective, x0, nt, budget):
    """``(q, converged)`` of one ``rotation.ascent`` from ``x0``, run by the
    lockstep driver on one start, ``search_objective`` taking (1, nt^2 + 1)
    stacks."""
    runs = [rotation.ascent(x0, nt, budget)]
    ends, _, _ = rotation._lockstep(
        lambda x, owner: search_objective(x), runs, np.zeros(1, dtype=np.intp)
    )
    return ends[0]


def search_one(rank, nt, budget, candidates, starts, *, search_objective):
    """``search_problems`` on one problem, ``search_objective`` taking the
    problem's (k, nt^2 + 1) stacks alone and ``rank`` its stack of
    candidates and ascent results."""
    problem = Problem(budget, candidates, starts)
    solved = search_problems(
        [problem], nt, lambda x, owner: search_objective(x), lambda q, owner: rank(q)
    )
    return solved.results[0]


def each(objective):
    """The rank map of a one-matrix ``objective``: its value at each
    matrix of a stack."""
    return lambda q: np.array([objective(m) for m in q])


def fail(*args, **kwargs):
    raise AssertionError("an ascent ran")


def ended_ascents(*ends):
    """A stand-in for ``rotation.ascent`` whose i-th ascent yields its
    start once and then ends with ``ends[i]``."""
    ends = iter(ends)

    def ascent(x0, nt, budget):
        yield x0
        return next(ends)

    return ascent


class TestDriver:
    D = np.diag([1.0, 3.0])

    def linear(self, q):
        """tr(q D) of one matrix or of each matrix of a stack."""
        return np.trace(q @ self.D, axis1=-2, axis2=-1)

    def linear_search(self, q):
        return stacked(lambda m: (self.linear(m), self.D))(q)

    def test_feasible_by_construction(self):
        # whatever the objective does, iterates stay PSD within budget
        seen = []

        def spiky(q):
            seen.append(q)
            return -float(np.sum((q - 0.3) ** 2))

        rng = np.random.default_rng(0)
        q, _, _, _ = search_one(
            each(spiky),
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
        a = search_one(
            self.linear, 2, 1.0, [], starts, search_objective=factor_form(self.linear_search, 2, 1.0)
        )
        b = search_one(
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
        q, val, converged, _ = search_one(
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
        monkeypatch.setattr(rotation, "ascent", ended_ascents((best.copy(), False)))
        q, val, converged, _ = search_one(
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
        q, _, converged, _ = search_one(
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
        monkeypatch.setattr(
            rotation,
            "ascent",
            ended_ascents(*((np.diag([0.0, 1.0]), flag) for flag in (False, True, False))),
        )
        result = search_one(
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
        monkeypatch.setattr(rotation, "ascent", fail)
        q, val, _, _ = search_one(
            self.linear,
            2,
            1.0,
            [(np.zeros((2, 2)), True), (np.diag([1.0, 0.0]), True)],
            [],
            search_objective=fail,
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

        def fail_second(x, f0, g0, p, step):
            along_gradient.append(np.array_equal(p, -g0))
            if len(along_gradient) == 2:
                return None
            return (yield from found(x, f0, g0, p, step))

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
            flat = factor_form(stacked(lambda q: (1.0, np.eye(2))), 2, 3.0)
            q, converged = ascend(flat, x0, 2, 3.0)
        assert converged
        assert np.array_equal(q, _decode(x0, 2, 3.0))


class TestNonFiniteSlope:
    def test_overflowing_gradient_ends_the_ascent(self):
        # Scaled by 1e300, the gradient's squared norm overflows and the
        # slope along it is not finite: the line search gives up at once,
        # and the ascent ends where it began, without raising.
        h = np.array([[0.3, 2.5], [2.2, 1.8]])
        x0 = mixed_start(np.diag([8.0, 4.0]), 2, 12.0)

        def huge(q):
            rates, grads = link_rate_grad(h, q)
            return 1e300 * rates, 1e300 * grads

        with np.errstate(over="ignore"):
            q, converged = ascend(factor_form(huge, 2, 12.0), x0, 2, 12.0)
        assert converged
        assert np.array_equal(q, _decode(x0, 2, 12.0))


def alone(search_objective, x0, nt, budget):
    """``(q, converged)`` of one ``rotation.ascent`` from ``x0`` run by
    itself, each trial point a stack of one row: the reference for the
    lockstep driver."""
    run = rotation.ascent(x0, nt, budget)
    x = next(run)
    while True:
        values, grads = search_objective(x[None])
        try:
            x = run.send((values[0], grads[0]))
        except StopIteration as stop:
            return stop.value


def alone_search(rank, nt, budget, candidates, starts, search_objective):
    """The driver's ranking over ``candidates`` and the ascents run alone,
    each ranked as a stack of one."""
    ascents = [alone(search_objective, x0, nt, budget) for x0 in starts]
    results = [*candidates, *ascents]
    values = [float(rank(q[None])[0]) for q, _ in results]
    best = max(range(len(results)), key=values.__getitem__)
    q, converged = results[best]
    return q, values[best], converged, sum(not c for _, c in ascents)


def sizes_seen(search_objective, sizes):
    """``search_objective`` that records the stack size of each call."""

    def recorded(x, *owner):
        sizes.append(len(x))
        return search_objective(x, *owner)

    return recorded


class TestLockstep:
    """The lockstep driver against each of its ascents run alone: the same
    matrix, value, convergence flag and unconverged count, bit for bit."""

    def assert_same(self, got, want):
        q, value, converged, n_unconverged = want
        assert got.q.tobytes() == q.tobytes()
        assert got.value == value
        assert got.converged == converged and got.n_unconverged == n_unconverged

    @settings(max_examples=40, deadline=None)
    @given(search_cases(), st.integers(1, 6))
    def test_wiretap_starts_match_alone(self, case, k):
        h1, h2, budget, x = case
        nt = h1.shape[1]
        rng = np.random.default_rng(int(abs(x[0]) * 1e6))
        starts = [x] + [rng.standard_normal(x.size) for _ in range(k - 1)]
        search = factor_form(lambda q: _secrecy_rate_grad(h1, h2, q), nt, budget)

        def rate(q):
            return _secrecy_rate_grad(h1, h2, q)[0]

        candidates = [(np.zeros((nt, nt)), True)]
        got = search_one(rate, nt, budget, candidates, starts, search_objective=search)
        self.assert_same(got, alone_search(rate, nt, budget, candidates, starts, search))

    def test_starts_end_at_different_steps(self, ch22):
        # One start sits where the value is flat, so its line search fails
        # and it stops, converged, at its first step; the others ascend.
        # The stack shrinks as ascents end.
        search = factor_form(lambda q: _secrecy_rate_grad(ch22.h1, ch22.h2, q), 2, 12.0)

        def flat_far_away(x):
            values, grads = search(x)
            far = np.vecdot(x, x) > 1e6
            values[far], grads[far] = 1.0, 1.0
            return values, grads

        rng = np.random.default_rng(3)
        starts = [rng.standard_normal(5) for _ in range(3)] + [np.full(5, 1e4)]
        sizes = []
        got = search_one(
            lambda q: _secrecy_rate_grad(ch22.h1, ch22.h2, q)[0],
            2,
            12.0,
            [],
            starts,
            search_objective=sizes_seen(flat_far_away, sizes),
        )
        want = alone_search(
            lambda q: _secrecy_rate_grad(ch22.h1, ch22.h2, q)[0], 2, 12.0, [], starts, flat_far_away
        )
        self.assert_same(got, want)
        assert sizes[0] == 4 and sizes == sorted(sizes, reverse=True) and sizes[-1] == 1
        assert len(set(sizes)) > 2
        flat_q, flat_converged = alone(flat_far_away, starts[-1], 2, 12.0)
        assert flat_converged and np.array_equal(flat_q, _decode(starts[-1], 2, 12.0))

    def test_iteration_cap(self, ch_row3, monkeypatch):
        # Capped at 3 iterations, some ascents stop unconverged.
        monkeypatch.setattr(rotation, "MAX_ITERS", 3)
        h1, h2 = ch_row3.h1, ch_row3.h2
        search = factor_form(lambda q: _secrecy_rate_grad(h1, h2, q), 3, 4.0)
        rng = np.random.default_rng(7)
        starts = [rng.standard_normal(10) for _ in range(5)]

        def rate(q):
            return _secrecy_rate_grad(h1, h2, q)[0]

        got = search_one(rate, 3, 4.0, [], starts, search_objective=search)
        want = alone_search(rate, 3, 4.0, [], starts, search)
        self.assert_same(got, want)
        assert got.n_unconverged > 0

    def test_empty_starts(self):
        candidates = [(np.zeros((2, 2)), True), (np.diag([0.0, 1.0]), False)]

        def trace(q):
            return np.trace(q, axis1=-2, axis2=-1)

        got = search_one(trace, 2, 1.0, candidates, [], search_objective=fail)
        self.assert_same(got, alone_search(trace, 2, 1.0, candidates, [], fail))
        assert got.q is candidates[1][0]

    def test_one_start_is_a_stack_of_one(self, ch22):
        sizes = []
        search = factor_form(lambda q: _secrecy_rate_grad(ch22.h1, ch22.h2, q), 2, 12.0)
        x0 = mixed_start(np.diag([6.0, 6.0]), 2, 12.0)
        q, converged = ascend(sizes_seen(search, sizes), x0, 2, 12.0)
        assert set(sizes) == {1}
        want_q, want_converged = alone(search, x0, 2, 12.0)
        assert q.tobytes() == want_q.tobytes() and converged == want_converged


@st.composite
def problem_sets(draw):
    """One to four wiretap problems over one nt (1-4), each with its own
    channel shapes (1-3 rows each), budget (1e-2 to 1e2) and zero to
    three standard normal starts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nt = draw(st.integers(1, 4))
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        h1, h2 = rng.standard_normal((n1, nt)), rng.standard_normal((n2, nt))
        budget = 10.0 ** draw(st.floats(-2.0, 2.0))
        starts = [rng.standard_normal(nt * nt + 1) for _ in range(draw(st.integers(0, 3)))]
        problems.append((h1, h2, budget, starts))
    return nt, problems


class TestSeveralProblems:
    """``search_problems`` runs the ascents of several problems in one
    lockstep, each row meeting its own problem's channels and budget, and
    ranks all their results in one call; each problem's ``Search`` is its
    own driver call's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(problem_sets())
    def test_each_problem_as_alone(self, case):
        nt, problems = case
        links = pair_rate_grad(*([pr[k] for pr in problems] for k in (0, 1)))

        def search(q, owner):
            rates, grads = links(q, owner)
            return rates[0] - rates[1], grads[0] - grads[1]

        def rate_of(h1, h2):
            return lambda q: _secrecy_rate_grad(h1, h2, q)[0]

        candidates = [(np.zeros((nt, nt)), True)]
        sizes, ranked = [], []

        def rank(q, owner):
            ranked.append(len(q))
            return search(q, owner)[0]

        solved = search_problems(
            [Problem(b, candidates, starts) for _, _, b, starts in problems],
            nt,
            sizes_seen(factor_form(search, nt, np.array([pr[2] for pr in problems])), sizes),
            rank,
        )
        assert ranked == [sum(1 + len(pr[3]) for pr in problems)]
        assert len(solved.results) == len(problems)
        for (h1, h2, b, starts), got in zip(problems, solved.results):
            single = factor_form(lambda q: _secrecy_rate_grad(h1, h2, q), nt, b)
            want = search_one(
                rate_of(h1, h2), nt, b, candidates, starts, search_objective=single
            )
            TestLockstep().assert_same(got, want)
            TestLockstep().assert_same(
                got, alone_search(rate_of(h1, h2), nt, b, candidates, starts, single)
            )
        # The stack shrinks as ascents end, whichever problem they belong to.
        assert sizes == sorted(sizes, reverse=True)
        assert (solved.n_batches, solved.n_rows) == (len(sizes), sum(sizes))
        if sizes:
            assert sizes[0] == sum(len(pr[3]) for pr in problems)

    def test_problems_end_at_different_steps(self, ch22):
        # The second problem's start is flat and ends at its first step;
        # the first problem's ascents go on without it, and the empty third
        # problem is ranked over its candidates alone.
        search = factor_form(lambda q: _secrecy_rate_grad(ch22.h1, ch22.h2, q), 2, 12.0)
        flat = factor_form(stacked(lambda q: (1.0, np.zeros((2, 2)))), 2, 3.0)

        def two_kinds(x, owner):
            values, grads = search(x)
            mine = owner == 1
            if mine.any():
                values[mine], grads[mine] = flat(x[mine])
            return values, grads

        def rate(q):
            return _secrecy_rate_grad(ch22.h1, ch22.h2, q)[0]

        def three_kinds(q, owner):
            kinds = (rate(q), np.ones(len(q)), np.trace(q, axis1=1, axis2=2))
            return np.choose(owner, kinds)

        rng = np.random.default_rng(5)
        starts = [rng.standard_normal(5) for _ in range(2)]
        zero = [(np.zeros((2, 2)), True)]
        sizes = []
        solved = search_problems(
            [
                Problem(12.0, zero, starts),
                Problem(3.0, [], [np.ones(5)]),
                Problem(1.0, [*zero, (np.eye(2) / 2, False)], []),
            ],
            2,
            sizes_seen(two_kinds, sizes),
            three_kinds,
        )
        first, second, third = solved.results
        TestLockstep().assert_same(first, alone_search(rate, 2, 12.0, zero, starts, search))
        assert second.converged and second.q.tobytes() == _decode(np.ones(5), 2, 3.0).tobytes()
        assert third.value == 1.0 and not third.converged and third.n_unconverged == 0
        assert sizes[:2] == [3, 2] and len(sizes) > 5
