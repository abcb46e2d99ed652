import numpy as np
import pytest

from secregion import (
    RotationParam,
    SolverOptions,
    angles_from_rotation,
    assemble_covariance,
    build_rotation,
)
from secregion.rotation import maximize_psd_objective, n_angles


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


class TestAnglesFromRotation:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for nt in (2, 3, 4):
            for _ in range(20):
                v = build_rotation(rng.uniform(-np.pi, np.pi, n_angles(nt)), nt)
                if np.linalg.det(v) < 0:  # build always gives det +1
                    pytest.fail("rotation product lost orientation")
                rebuilt = build_rotation(angles_from_rotation(v), nt)
                assert np.allclose(rebuilt, v, atol=1e-10)

    def test_qr_basis_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            rebuilt = build_rotation(angles_from_rotation(q), 3)
            assert np.allclose(rebuilt, q, atol=1e-9)

    def test_reflection_rejected(self):
        q = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            angles_from_rotation(q)


class TestRotationParam:
    def test_assemble_diagonal(self):
        rp = RotationParam(np.zeros(1), [2.0, 0.5])
        assert np.allclose(assemble_covariance(rp), np.diag([2.0, 0.5]))

    def test_assemble_rank_one(self):
        rp = RotationParam([np.pi / 4], [2.0, 0.0])
        assert np.allclose(assemble_covariance(rp), [[1.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_eigenvalues_are_loadings(self):
        rng = np.random.default_rng(3)
        loads = np.sort(rng.uniform(0, 2, 3))
        rp = RotationParam(rng.uniform(-np.pi, np.pi, 3), loads)
        w = np.linalg.eigvalsh(assemble_covariance(rp))
        assert np.allclose(np.sort(w), loads, atol=1e-12)

    def test_budget_checked(self):
        with pytest.raises(ValueError):
            RotationParam(np.zeros(1), [2.0, 1.0], budget=2.5)

    def test_negative_loading_rejected(self):
        with pytest.raises(ValueError):
            RotationParam(np.zeros(1), [1.0, -0.5])


def batched(objective):
    """Stack version of a scalar objective, as the search's gradients need."""
    return lambda qs: np.array([objective(q) for q in qs])


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
            SolverOptions(n_starts=3, max_iters=40),
            batch_search=batched(spiky),
        )
        for qq in seen + [q]:
            assert np.trace(qq) <= 1.5 + 1e-9
            assert np.linalg.eigvalsh(qq)[0] >= -1e-12

    def test_zero_budget(self):
        def obj(q):
            return float(np.trace(q))

        q, val, conv = maximize_psd_objective(obj, 2, 0.0, batch_search=batched(obj))
        assert np.array_equal(q, np.zeros((2, 2))) and val == 0.0 and conv

    def test_deterministic(self):
        def obj(q):
            return float(np.trace(q @ np.diag([1.0, 2.0])))

        opts, search = SolverOptions(seed=5), batched(obj)
        a = maximize_psd_objective(obj, 2, 1.0, opts, batch_search=search)
        b = maximize_psd_objective(obj, 2, 1.0, opts, batch_search=search)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_concave_reference(self):
        # max tr(D q) with tr q <= 1 puts everything on the largest diagonal
        def obj(q):
            return float(np.trace(q @ np.diag([1.0, 3.0])))

        q, val, _ = maximize_psd_objective(
            obj, 2, 1.0, SolverOptions(), batch_search=batched(obj)
        )
        assert val == pytest.approx(3.0, abs=1e-5)
