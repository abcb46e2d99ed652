import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from secregion import (
    ChannelPair,
    ConsistencyError,
    ORDER_12,
    ORDER_21,
    PowerSplit,
    RateTriple,
    RunConfig,
    Scenario,
    gauss_rate,
    hull_pareto,
    run,
    solve_split,
    solve_wiretap,
    sweep_points,
    sweep_region,
    waterfill,
)
from secregion import splitting, wiretap
from secregion.splitting import _alpha_grid
from secregion.types import pareto_mask

from conftest import region_contains, timeshare_gain


class TestSolveSplit:
    def test_pure_multicast_split(self, ch22b):
        res = solve_split(ch22b, Scenario("A"), PowerSplit(1, 0, 0), 10.0)
        assert res.rates.r1 == 0.0 and res.rates.r2 == 0.0
        assert res.rates.r0 > 0.5

    def test_wiretap_reduction_split(self, ch22):
        sc = Scenario("C", common_enabled=False)
        res = solve_split(ch22, sc, PowerSplit(0, 1, 0), 12.0)
        ref = solve_wiretap(ch22.h1, ch22.h2, 12.0)
        assert res.rates.r1 == pytest.approx(ref.rate, abs=1e-9)
        assert res.rates.r0 == 0.0 and res.rates.r2 == 0.0

    def test_diagonal_hand_computation(self):
        # second stage whitens to gains (1/1.875, 4/1.5); only the strong
        # mode is active at budget 1
        ch = ChannelPair(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        sc = Scenario("A", common_enabled=False)
        res = solve_split(ch, sc, PowerSplit(0, 0.5, 0.5), 2.0)
        assert res.rates.r1 == pytest.approx(0.5 * np.log2(4.5 * 1.125), abs=1e-12)
        assert res.rates.r2 == pytest.approx(0.5 * np.log2(1 + 4.0 / 1.5), abs=1e-12)

    def test_order_swap_rejected_for_b(self, ch22):
        with pytest.raises(ValueError):
            solve_split(ch22, Scenario("B"), PowerSplit(0, 1, 0), 1.0, order=ORDER_21)

    def test_order_swap_symmetry(self, ch22):
        # solving 21 on the pair equals solving 12 on the swapped pair
        sc = Scenario("C", common_enabled=False)
        res21 = solve_split(ch22, sc, PowerSplit(0, 0.6, 0.4), 6.0, order=ORDER_21)
        res12 = solve_split(
            ch22.swapped(), sc, PowerSplit(0, 0.6, 0.4), 6.0, order=ORDER_12
        )
        assert res21.rates.r1 == pytest.approx(res12.rates.r2, abs=1e-12)
        assert res21.rates.r2 == pytest.approx(res12.rates.r1, abs=1e-12)

    def test_common_budget_rejected_when_disabled(self, ch22):
        sc = Scenario("A", common_enabled=False)
        with pytest.raises(ValueError):
            solve_split(ch22, sc, PowerSplit(0.5, 0.25, 0.25), 4.0)

    def test_covariances_fit_budget(self, ch22):
        res = solve_split(ch22, Scenario("C"), PowerSplit(0.2, 0.5, 0.3), 12.0)
        assert res.cov.trace_total() <= 12.0 * (1 + 1e-8)

    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_non_finite_budget_rejected(self, ch22, budget):
        sc = Scenario("A", common_enabled=False)
        with pytest.raises(ValueError, match="finite"):
            solve_split(ch22, sc, PowerSplit(0, 0.5, 0.5), budget)


class TestAlphaGrid:
    def test_endpoints_exact(self):
        g = _alpha_grid(0.05, 1.0)
        assert g[0] == 0.0 and g[-1] == 1.0
        assert len(g) == 21

    def test_non_divisible_step(self):
        g = _alpha_grid(0.3, 1.0)
        assert g[-1] == 1.0 and g[0] == 0.0
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_zero_upper(self):
        assert _alpha_grid(0.1, 0.0) == [0.0]


class TestSweep:
    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_non_finite_budget_rejected(self, ch22, budget):
        with pytest.raises(ValueError, match="finite"):
            sweep_points(ch22, Scenario("A"), budget, 0.5)

    def test_zero_power_region_is_origin(self, ch22):
        reg = sweep_region(ch22, Scenario("A"), 0.0, 0.5)
        assert len(reg.points) == 1
        assert reg.points[0].as_array().tolist() == [0.0, 0.0, 0.0]

    def test_corner_points_present(self, ch22b):
        sc = Scenario("A")
        pts = sweep_points(ch22b, sc, 10.0, 0.5)
        splits = {sp.split.as_tuple() for sp in pts}
        assert (1.0, 0.0, 0.0) in splits
        assert (0.0, 1.0, 0.0) in splits
        assert (0.0, 0.0, 1.0) in splits

    def test_orders_swept(self, ch22):
        sc = Scenario("C", common_enabled=False)
        pts = sweep_points(ch22, sc, 4.0, 0.5)
        assert {sp.rates.order for sp in pts} == {ORDER_12, ORDER_21}
        scb = Scenario("B", common_enabled=False)
        ptsb = sweep_points(ch22, scb, 4.0, 0.5)
        assert {sp.rates.order for sp in ptsb} == {ORDER_12}

    def test_grid_refinement_never_shrinks(self, ch22):
        sc = Scenario("A", common_enabled=False)
        coarse = sweep_region(ch22, sc, 6.0, 0.5)
        fine = sweep_region(ch22, sc, 6.0, 0.25)
        for p in coarse.points:
            assert region_contains(fine, p, slack=1e-9)

    def test_region_monotone_in_power(self, ch22):
        sc = Scenario("B", common_enabled=False)
        small = sweep_region(ch22, sc, 2.0, 0.25)
        large = sweep_region(ch22, sc, 4.0, 0.25)
        for p in small.points:
            assert region_contains(large, p, slack=1e-6)

    def test_region_endpoints_match_wiretap(self, ch22):
        sc = Scenario("C", common_enabled=False)
        reg = sweep_region(ch22, sc, 12.0, 0.5)
        ref1 = solve_wiretap(ch22.h1, ch22.h2, 12.0).rate
        ref2 = solve_wiretap(ch22.h2, ch22.h1, 12.0).rate
        assert reg.max_rate(1) == pytest.approx(ref1, abs=1e-9)
        assert reg.max_rate(2) == pytest.approx(ref2, abs=1e-9)

    def test_scenario_nesting(self, ch22):
        regs = {
            tag: sweep_region(ch22, Scenario(tag, common_enabled=False), 6.0, 0.25)
            for tag in ("A", "B", "C")
        }
        for p in regs["C"].points:
            assert region_contains(regs["B"], p, slack=1e-6)
        for p in regs["B"].points:
            assert region_contains(regs["A"], p, slack=1e-6)


class TestSearchGolden:
    # Pinned sweeps: ch22b A (common on) reaches case-3 multicast cells at
    # both powers, ch22 C runs the wiretap searches.  A change to the search
    # arithmetic must reproduce them bit for bit; JSON keeps every float in
    # a form that reads back to the same bits, so the comparison is exact.
    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "search_golden.json").read_text()
    )

    @pytest.mark.parametrize(
        "name, instance, tag, common, power",
        [
            ("ch22b-A-on-p6", "ch22b", "A", True, 6.0),
            ("ch22b-A-on-p12", "ch22b", "A", True, 12.0),
            ("ch22-C-off-p12", "ch22", "C", False, 12.0),
        ],
    )
    def test_sweep_golden(self, request, name, instance, tag, common, power):
        ch = request.getfixturevalue(instance)
        pts = sweep_points(ch, Scenario(tag, common), power, 0.5)
        golden = self.GOLDEN[name]
        assert [[sp.rates.r0, sp.rates.r1, sp.rates.r2] for sp in pts] == golden["rates"]
        assert [list(sp.split.as_tuple()) for sp in pts] == golden["splits"]
        assert [sp.rates.order for sp in pts] == golden["orders"]
        assert [sp.converged for sp in pts] == golden["converged"]


def assert_same_split(got, want):
    """Two ``SplitResult``s of one split agree bit for bit: rates, order,
    covariance bytes and convergence flag."""
    assert got.split == want.split
    assert got.rates == want.rates
    for name in ("q0", "q1", "q2"):
        assert getattr(got.cov, name).tobytes() == getattr(want.cov, name).tobytes()
    assert got.cov.p_total == want.cov.p_total
    assert got.converged == want.converged


class TestSweepMatchesSolveSplit:
    """Every cell of a sweep, solved in stage waves with the other cells,
    is its own ``solve_split`` call (a one-cell sweep), bit for bit."""

    @pytest.mark.parametrize("common", [False, True])
    @pytest.mark.parametrize("tag", ["A", "B", "C"])
    def test_ch22(self, ch22, tag, common):
        sc = Scenario(tag, common)
        for sp in sweep_points(ch22, sc, 12.0, 0.5):
            assert_same_split(sp, solve_split(ch22, sc, sp.split, 12.0, sp.rates.order))

    @pytest.mark.parametrize("common", [False, True])
    @pytest.mark.parametrize("tag", ["A", "C"])
    def test_mixed_shapes(self, ch_row3, tag, common):
        # ch_row3's users have 2 and 1 rows, so the two orders' problems
        # have channels of different shapes and are searched apart.
        sc = Scenario(tag, common)
        for sp in sweep_points(ch_row3, sc, 4.0, 0.5):
            assert_same_split(sp, solve_split(ch_row3, sc, sp.split, 4.0, sp.rates.order))

    @pytest.mark.parametrize("common", [False, True])
    def test_forced_rescue(self, monkeypatch, common):
        # wiretap_golden instance 42 with the gap gate forced open: every
        # wiretap solve with a search runs the corner search's rescue.
        item = json.loads(
            (Path(__file__).parent / "data" / "wiretap_golden.json").read_text()
        )["instances"][42]
        ch = ChannelPair(item["hm"], item["he"])
        monkeypatch.setattr(wiretap, "GAP_TOL", -1.0)
        rescued = []
        solve = wiretap.solve_wiretaps

        def recorded(problems):
            solved = solve(problems)
            rescued.extend(res.restarted for res in solved.results)
            return solved

        monkeypatch.setattr(splitting, "solve_wiretaps", recorded)
        sc = Scenario("C", common)
        pts = sweep_points(ch, sc, item["p"], 0.5)
        assert sum(rescued) >= 4
        for sp in pts:
            assert_same_split(sp, solve_split(ch, sc, sp.split, item["p"], sp.rates.order))

    def test_counts_add_up_over_waves(self, ch22b, monkeypatch):
        # The sweep's counts are the sums of its waves' records.
        waves = {"solve_wiretaps": [], "solve_multicasts": []}
        for name, seen in waves.items():
            solve = getattr(splitting, name)

            def recorded(problems, solve=solve, seen=seen):
                seen.append(solve(problems))
                return seen[-1]

            monkeypatch.setattr(splitting, name, recorded)
        counts = splitting.SweepCounts()
        sweep_points(ch22b, Scenario("C"), 10.0, 0.25, counts)
        solved = [w for seen in waves.values() for w in seen]
        wiretaps = [res for w in waves["solve_wiretaps"] for res in w.results]
        assert len(waves["solve_wiretaps"]) == 2 and len(waves["solve_multicasts"]) == 1
        assert counts.search_batches == sum(w.n_batches for w in solved) > 0
        assert counts.search_rows == sum(w.n_rows for w in solved) > counts.search_batches
        assert counts.wiretap_gap_max == max(res.gap for res in wiretaps)
        assert counts.wiretap_rescues == sum(res.restarted for res in wiretaps)


def planted(monkeypatch, hit=lambda *args: True):
    """Make ``splitting``'s whitening ``whiten`` return its channel scaled
    by 1.01 on the calls that ``hit`` selects."""
    whiten = splitting.whiten

    def faulty(h, x):
        return 1.01 * whiten(h, x) if hit(h, x) else whiten(h, x)

    monkeypatch.setattr(splitting, "whiten", faulty)


# (whitened stage, scenario tag, common message on, split that runs that
# stage and no other whitened one): the second stage's point-to-point or
# wiretap channels, or the shared message's.
_GATED_STAGES = [
    ("whiten_p2p", "A", False, PowerSplit(0, 0.5, 0.5)),
    ("whiten_wiretap", "C", False, PowerSplit(0, 0.5, 0.5)),
    ("whiten_multicast", "A", True, PowerSplit(1, 0, 0)),
]


class TestConsistencyGate:
    """A whitening that no longer preserves rates trips the gate."""

    @pytest.mark.parametrize("stage, tag, common, split", _GATED_STAGES)
    def test_solve_split_gate_fires(self, ch22, monkeypatch, stage, tag, common, split):
        planted(monkeypatch)
        with pytest.raises(ConsistencyError):
            solve_split(ch22, Scenario(tag, common), split, 12.0)

    @pytest.mark.parametrize("stage, tag, common, split", _GATED_STAGES)
    def test_sweep_points_gate_fires(self, ch22, monkeypatch, stage, tag, common, split):
        planted(monkeypatch)
        with pytest.raises(ConsistencyError):
            sweep_points(ch22, Scenario(tag, common), 12.0, 0.5)

    def test_order_21_gate_fires(self, ch22, monkeypatch):
        # Only the swapped pair's second stage is faulty: in order "21" the
        # second-encoded user is user 1, whose rate the gate must compare.
        sc = Scenario("A", common_enabled=False)
        planted(monkeypatch, lambda h, x: np.array_equal(h, ch22.h1))
        solve_split(ch22, sc, PowerSplit(0, 0.5, 0.5), 12.0, order=ORDER_12)
        with pytest.raises(ConsistencyError):
            solve_split(ch22, sc, PowerSplit(0, 0.5, 0.5), 12.0, order=ORDER_21)
        with pytest.raises(ConsistencyError):
            sweep_points(ch22, sc, 12.0, 0.5)


def _under_a_timeshare(rows: np.ndarray, margin: float = 1e-9) -> list:
    """Rows that a time-share of the others exceeds by more than ``margin``
    times the largest rate in every coordinate."""
    rows = np.asarray(rows, dtype=float)
    rows = rows / (rows.max() if rows.max() > 0 else 1.0)
    return [
        i
        for i in range(len(rows))
        if len(rows) > 1 and timeshare_gain(np.delete(rows, i, axis=0), rows[i]) > margin
    ]


@st.composite
def frontier_clouds(draw):
    """Nonnegative rate clouds, 2-D (r0 = 0) or 3-D, with ties, duplicates,
    collinear and near-coplanar points, at scales from 1e-14 to 1e6."""
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "random", "segment", "plane", "near-plane"]))
    if kind == "grid":
        rows = rng.integers(0, 4, (n, 3)).astype(float)
    elif kind == "random":
        rows = rng.random((n, 3))
    elif kind == "segment":
        a, b, t = rng.random(3), rng.random(3), rng.random(n)
        rows = np.outer(t, a) + np.outer(1.0 - t, b)
    else:
        rows = rng.dirichlet(np.ones(3), n)
        if kind == "near-plane":
            rows *= 1.0 + 1e-12 * rng.standard_normal((n, 1))
    if draw(st.booleans()):
        rows[:, 0] = 0.0
    if draw(st.booleans()):
        rows = np.vstack([rows, rows[: n // 2]])
    return rows * 10.0 ** draw(st.floats(-14.0, 6.0))


def _hull_cloud(rng, kind):
    n = int(rng.integers(4, 60))
    if kind == "random":
        return rng.random((n, 2)) * rng.uniform(0.1, 10.0)
    if kind == "grid":
        return rng.integers(0, 5, (n, 2)).astype(float)
    if kind == "arc":
        t = rng.random(n) * (np.pi / 2)
        return rng.uniform(0.5, 8.0) * np.column_stack([np.cos(t), np.sin(t)])
    # A segment's points, each within rounding of the line through its
    # ends and half of them 1e-6 to 1e-3 of its length from an end, plus
    # its ends and three points off it.
    a, b = rng.random(2) * 5.0, rng.random(2) * 5.0
    t = np.concatenate([rng.random(n - n // 2), 10.0 ** rng.uniform(-6.0, -3.0, n // 2)])
    t = t[:, None]
    return np.vstack([t * a + (1.0 - t) * b, a, b, rng.random((3, 2)) * 5.0])


class TestHullPareto:
    def test_single_point(self):
        pt = RateTriple(1.0, 2.0, 3.0)
        assert hull_pareto([pt]) == [pt]

    def test_two_extremes_kept(self):
        pts = [RateTriple(0, 1, 0), RateTriple(0, 0, 1)]
        kept = hull_pareto(pts)
        assert set((p.r1, p.r2) for p in kept) == {(1.0, 0.0), (0.0, 1.0)}

    def test_dominated_dropped(self):
        pts = [RateTriple(1, 1, 1), RateTriple(0.5, 0.5, 0.5)]
        kept = hull_pareto(pts)
        assert len(kept) == 1 and kept[0].r0 == 1.0

    def test_interior_point_dropped(self):
        pts = [RateTriple(0, 1, 0), RateTriple(0, 0, 1), RateTriple(0, 0.4, 0.4)]
        kept = hull_pareto(pts)
        assert all((p.r1, p.r2) != (0.4, 0.4) for p in kept)

    def test_bulge_point_kept(self):
        pts = [RateTriple(0, 1, 0), RateTriple(0, 0, 1), RateTriple(0, 0.8, 0.8)]
        kept = hull_pareto(pts)
        assert any((p.r1, p.r2) == (0.8, 0.8) for p in kept)

    def test_timeshare_midpoints_inside(self, ch22):
        reg = sweep_region(ch22, Scenario("A", common_enabled=False), 4.0, 0.25)
        pts = list(reg.points)
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j = rng.integers(0, len(pts), 2)
            mid = 0.5 * (pts[i].as_array() + pts[j].as_array())
            assert region_contains(reg, mid, slack=1e-9)

    @pytest.mark.parametrize("kind", ["random", "grid", "arc", "segment"])
    def test_2d_frontier_matches_qhull(self, kind):
        # Qhull stays the reference for the 2-D margin: the frontier is the
        # part of the hull of the Pareto points and the free-disposal corners
        # (x_max, 0), (0, y_max) and the origin that the monotone chain walks.
        # On segment clouds an exact sign test would keep points within
        # rounding of an edge that Qhull drops, and so would a margin
        # relative to |a - o| at the points close to an end.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pts = np.unique(_hull_cloud(rng, kind), axis=0)
            pts = pts[pareto_mask(np.column_stack([np.zeros(len(pts)), pts]))]
            got = np.unique(pts[splitting._frontier_vertices(pts)], axis=0)
            if len(pts) < 3:
                want = pts
            else:
                corners = np.diag(pts.max(axis=0))
                hull = ConvexHull(np.vstack([pts, corners, np.zeros(2)]))
                want = np.unique(pts[hull.vertices[hull.vertices < len(pts)]], axis=0)
            assert np.array_equal(got, want), pts.tolist()

    def test_point_under_a_timeshare_dropped(self):
        # (0.4, 0.4, 0.9) is a vertex of the convex hull, but the midpoint of
        # the other two dominates it.
        pts = [RateTriple(1, 0, 1), RateTriple(0, 1, 1), RateTriple(0.4, 0.4, 0.9)]
        assert hull_pareto(pts) == pts[1::-1]

    def test_point_exposed_by_no_hull_facet_kept(self):
        # Each point is exposed by a positive weight, yet the outward normal
        # of their triangle, (0.98, -0.01, -0.01) up to scale, is not
        # nonnegative: no facet of their hull with the origin exposes them.
        pts = [RateTriple(1, 0.99, 0.99), RateTriple(0.99, 1, 0), RateTriple(0.99, 0, 1)]
        assert sorted(hull_pareto(pts), key=pts.index) == pts

    @pytest.mark.parametrize("plane", ["simplex", "r2-zero"])
    def test_coplanar_cloud_keeps_the_plane_vertices(self, plane):
        # With the origin, points on r2 = 0 span only a plane: the rank
        # fallback of the Qhull-based hull kept every Pareto point of them.
        rng = np.random.default_rng(3)
        if plane == "r2-zero":
            rows = np.column_stack([rng.random((40, 2)), np.zeros(40)])
            rows = rows[pareto_mask(rows)]
            flat = np.vstack([rows[:, :2], np.zeros(2)])
        else:
            rows = rng.dirichlet(np.ones(3), 40)
            flat = rows[:, :2]
        vertices = ConvexHull(flat).vertices
        want = rows[vertices[vertices < len(rows)]]
        got = np.array([t.as_array() for t in hull_pareto([RateTriple(*r) for r in rows])])
        assert 3 <= len(got) < len(rows)
        assert np.array_equal(got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])])

    def test_frontier_does_not_depend_on_scale(self, ch22):
        # The 2-D/3-D choice and every margin are relative: the frontier of
        # a tiny budget's points is the frontier of those points scaled up.
        # Powers of two scale the rates exactly.
        pts = sweep_points(ch22, Scenario("A"), 1e-10, 0.25)

        def kept(shift):
            scaled = [
                RateTriple(*np.ldexp(sp.rates.as_array(), shift), sp.rates.order) for sp in pts
            ]
            where = {id(t): i for i, t in enumerate(scaled)}
            return [where[id(t)] for t in hull_pareto(scaled)]

        assert len(kept(0)) > 3
        assert kept(-60) == kept(-20) == kept(0) == kept(40)

    @pytest.mark.parametrize("power", [1e-10, 1e-14])
    def test_tiny_budget_rows_not_under_a_timeshare(self, ch22, power):
        reg = sweep_region(ch22, Scenario("A"), power, 0.25)
        rows = reg.as_array()
        assert _under_a_timeshare(rows) == []

    def test_oracle_rows_not_under_a_timeshare(self, tmp_path):
        # A rank-one degraded pair: before the in-house frontier, 13 of this
        # job's 25 rows lay under a time-share of the others.
        channels = tmp_path / "deg.txt"
        channels.write_text("1 1 2\n1 0.5\n2 1\n", encoding="utf-8")
        out = tmp_path / "oracle.csv"
        cfg = RunConfig(
            channels=str(channels),
            scenario="A",
            method="oracle",
            power=4.0,
            out=str(out),
            common=True,
            samples=300,
        )
        assert run(cfg) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
        assert len(rows) > 3
        assert _under_a_timeshare(rows) == []

    @settings(max_examples=150, deadline=None)
    @given(frontier_clouds())
    def test_frontier_spans_the_cloud(self, rows):
        kept = hull_pareto([RateTriple(*row) for row in rows])
        got = np.array([t.as_array() for t in kept])
        scale = rows.max() if rows.max() > 0 else 1.0
        assert _under_a_timeshare(got) == []
        for row in rows:
            assert region_contains(got / scale, row / scale, slack=1e-9)


class TestRegionContains:
    def test_origin_always_inside(self):
        pts = [RateTriple(0, 1, 0)]
        assert region_contains(pts, [0.0, 0.0, 0.0])

    def test_free_disposal(self):
        pts = [RateTriple(0, 2, 3)]
        assert region_contains(pts, [0.0, 1.0, 1.0])
        assert not region_contains(pts, [0.0, 2.5, 0.0])

    def test_convex_combination(self):
        pts = [RateTriple(0, 1, 0), RateTriple(0, 0, 1)]
        assert region_contains(pts, [0.0, 0.5, 0.5])
        assert not region_contains(pts, [0.0, 0.6, 0.6])
        assert region_contains(pts, [0.0, 0.6, 0.6], slack=0.2)

    def test_slack_below_default_lp_tolerance(self):
        # A time-share of the corners of the plane r0 + r1 + r2 = 2.26 reaches
        # x + t for t = (2.26 - sum x) / 3, so a point of the diagonal 1.2e-11
        # under (or over) the plane has a gain of +(-)1.2e-11.  A feasibility
        # LP at HiGHS's default tolerance of 1e-7 accepts both at slack -1e-9.
        corners = 2.26 * np.eye(3)
        under = np.full(3, 2.26 / 3 - 1.2e-11)
        over = np.full(3, 2.26 / 3 + 1.2e-11)
        assert region_contains(corners, under)
        assert not region_contains(corners, under, slack=-1e-9)
        assert not region_contains(corners, over)
        assert not region_contains(corners, over, slack=-1e-9)
        assert region_contains(corners, over, slack=1e-10)
