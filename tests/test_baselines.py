import json
import math
from pathlib import Path

import numpy as np
import pytest

from secregion import (
    ChannelPair,
    RateTriple,
    Scenario,
    hull_pareto,
    oma_timeshare,
    random_search_region,
    solve_wiretap,
    tdma_region,
    waterfill,
)
from secregion import baselines
from secregion.baselines import (
    _FAMILY_CYCLE,
    _draw_block,
    build_rotation,
    n_angles,
)
from secregion.types import pareto_mask

from conftest import region_contains


def per_sample_draw_block(rng, nt, first, n, p, common):
    """The oracle's sampler with numpy's own Dirichlet and uniform draws per
    sample, as a reference for the block arithmetic of ``_draw_block``."""
    n_active = 3 if common else 2
    shares = np.empty((n, n_active))
    gauss = np.empty((n, 3, nt, nt))
    vecs = np.empty((n, 3, nt))
    angles = np.empty((n, 3, n_angles(nt)))
    loads = np.empty((n, 3, nt))
    share_alpha, load_alpha = np.ones(n_active), np.ones(nt)
    families = [_FAMILY_CYCLE[(first + j) % len(_FAMILY_CYCLE)] for j in range(n)]
    for j, family in enumerate(families):
        shares[j] = rng.dirichlet(share_alpha)
        if family == "full":
            rng.standard_normal(out=gauss[j])
        elif family == "rank1":
            rng.standard_normal(out=vecs[j])
        else:
            for m in range(3):
                angles[j, m] = rng.uniform(0.0, math.pi, n_angles(nt))
                loads[j, m] = rng.dirichlet(load_alpha)
    shapes = np.empty((n, 3, nt, nt))
    kind = np.array(families)
    full, rank1, rotdiag = kind == "full", kind == "rank1", kind == "rotdiag"
    g = gauss[full]
    shapes[full] = g @ g.swapaxes(-1, -2)
    shapes[rank1] = vecs[rank1][..., :, None] * vecs[rank1][..., None, :]
    v = build_rotation(angles[rotdiag], nt)
    shapes[rotdiag] = (v * loads[rotdiag][..., None, :]) @ v.swapaxes(-1, -2)
    shapes = 0.5 * (shapes + shapes.swapaxes(-1, -2))

    traces = shares * p
    if not common:
        traces = np.concatenate([np.zeros((n, 1)), traces], axis=1)
    t = np.trace(shapes, axis1=-2, axis2=-1)
    live = (traces > 0) & (t > 0)
    scale = traces / np.where(live, t, 1.0)
    return np.where(live[..., None, None], shapes * scale[..., None, None], 0.0)


class TestDrawBlock:
    @pytest.mark.parametrize("nt", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("common", [True, False])
    @pytest.mark.parametrize("first", [0, 1, 2, 3, 6])
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_matches_numpy_dirichlet_and_uniform(self, nt, common, first, n):
        # The block arithmetic on raw draws must give numpy's Dirichlet and
        # uniform draws bit for bit, and leave the generator in the same state.
        seed = 100 * nt + 10 * first + n
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_block(rng, nt, first, n, 3.5, common)
        want = per_sample_draw_block(ref_rng, nt, first, n, 3.5, common)
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()


class TestRandomSearchRegion:
    def test_single_sample_is_origin(self, ch22):
        reg = random_search_region(ch22, Scenario("C", False), 5.0, 1, seed=0)
        assert len(reg.points) == 1
        assert reg.points[0].as_array().tolist() == [0.0, 0.0, 0.0]

    def test_scalar_known_optimum(self):
        ch = ChannelPair([[2.0]], [[1.0]])
        reg = random_search_region(ch, Scenario("C", False), 1.0, 20000, seed=1)
        assert reg.max_rate(1) == pytest.approx(0.5 * np.log2(2.5), abs=1e-2)
        assert reg.max_rate(1) <= 0.5 * np.log2(2.5) + 1e-12

    def test_deterministic(self, ch22):
        a = random_search_region(ch22, Scenario("B", False), 4.0, 500, seed=7)
        b = random_search_region(ch22, Scenario("B", False), 4.0, 500, seed=7)
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert pa.as_array().tolist() == pb.as_array().tolist()

    def test_relaxing_security_only_enlarges(self, ch22):
        # the same covariances rated without security constraints dominate
        # the secured rating pointwise, so the A-region contains the C-region
        regc = random_search_region(ch22, Scenario("C", False), 6.0, 3000, seed=3)
        rega = random_search_region(ch22, Scenario("A", False), 6.0, 3000, seed=3)
        for p in regc.points:
            assert region_contains(rega, p, slack=1e-9)

    def test_common_share_respected(self, ch22):
        reg = random_search_region(ch22, Scenario("A", True), 6.0, 2000, seed=5)
        assert reg.max_rate(0) > 0.0

    def test_blockwise_filter_matches_one_filter(self):
        # Integer coordinates give many ties and exact repeats, and random
        # tags tell equal rows apart.  The hull of the union of the blocks'
        # survivors, after one more filter, must keep the points and tags
        # that the hull of the whole cloud keeps: of equal rows the first in
        # input order stays in both.
        rng = np.random.default_rng(0)
        for _ in range(50):
            rows = rng.integers(0, 4, size=(60, 3)).astype(float)
            tags = rng.choice(["12", "21"], size=60)
            cuts = np.sort(rng.choice(np.arange(1, 60), 4, replace=False))
            blocks = np.split(np.arange(60), cuts)
            kept = np.concatenate([b[pareto_mask(rows[b])] for b in blocks])
            kept = kept[pareto_mask(rows[kept])]

            def hull(idx):
                pts = hull_pareto([RateTriple(*rows[i], tags[i]) for i in idx])
                return [(t.r0, t.r1, t.r2, t.order) for t in pts]

            assert hull(kept) == hull(range(60))

    def test_zero_power_keeps_one_point(self, ch22):
        reg = random_search_region(ch22, Scenario("A", True), 0.0, 3000, seed=0)
        assert [(t.r0, t.r1, t.r2, t.order) for t in reg.points] == [(0.0, 0.0, 0.0, "na")]

    # Regions recorded with the oracle that drew, validated and rated one
    # sample at a time (2000 samples, seed 0): the block-wise oracle must
    # reproduce its random draws, rates and kept points bit for bit.
    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "oracle_golden.json").read_text()
    )

    @pytest.mark.parametrize(
        "name, instance, tag, common, power",
        [
            ("ch22-A-off-p12", "ch22", "A", False, 12.0),
            ("ch22-B-off-p12", "ch22", "B", False, 12.0),
            ("ch22-C-off-p12", "ch22", "C", False, 12.0),
            ("ch22-A-on-p6", "ch22", "A", True, 6.0),
            ("ch_row3-C-off-p4", "ch_row3", "C", False, 4.0),
        ],
    )
    def test_seed_golden(self, request, name, instance, tag, common, power):
        ch = request.getfixturevalue(instance)
        reg = random_search_region(ch, Scenario(tag, common), power, 2000, seed=0)
        assert [[t.r0, t.r1, t.r2] for t in reg.points] == self.GOLDEN[name]["points"]
        assert [t.order for t in reg.points] == self.GOLDEN[name]["orders"]

    @pytest.mark.parametrize(
        "instance, tag, common, power",
        [("ch22", "A", True, 6.0), ("ch_row3", "C", False, 4.0)],
    )
    def test_same_region_at_any_block_size(
        self, request, monkeypatch, instance, tag, common, power
    ):
        ch = request.getfixturevalue(instance)
        regions = []
        for block in (1, 7, 256):
            monkeypatch.setattr(baselines, "_BLOCK", block)
            reg = random_search_region(ch, Scenario(tag, common), power, 600, seed=4)
            regions.append([(t.r0, t.r1, t.r2, t.order) for t in reg.points])
        assert len(regions[0]) > 1
        assert regions[0] == regions[1] == regions[2]


class TestTdmaRegion:
    def test_zero_power(self, ch22):
        reg = tdma_region(ch22, Scenario("A"), 0.0)
        assert reg.points[0].as_array().tolist() == [0.0, 0.0, 0.0]

    def test_diagonal_closed_form(self):
        ch = ChannelPair(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        reg = tdma_region(ch, Scenario("A"), 1.0)
        (pt,) = reg.points
        _, r1 = waterfill(ch.h1, 1.0)
        _, r2 = waterfill(ch.h2, 1.0)
        assert pt.r1 == pytest.approx(r1 / 3.0, abs=1e-12)
        assert pt.r2 == pytest.approx(r2 / 3.0, abs=1e-12)
        assert pt.r0 > 0

    def test_two_slots_without_common(self, ch22):
        reg = tdma_region(ch22, Scenario("A", common_enabled=False), 4.0)
        (pt,) = reg.points
        _, r1 = waterfill(ch22.h1, 4.0)
        assert pt.r0 == 0.0
        assert pt.r1 == pytest.approx(r1 / 2.0, abs=1e-12)

    def test_wiretap_slots_for_secured_users(self, ch22):
        reg = tdma_region(ch22, Scenario("C"), 6.0)
        (pt,) = reg.points
        ref1 = solve_wiretap(ch22.h1, ch22.h2, 6.0).rate
        ref2 = solve_wiretap(ch22.h2, ch22.h1, 6.0).rate
        assert pt.r1 == pytest.approx(ref1 / 3.0, abs=1e-9)
        assert pt.r2 == pytest.approx(ref2 / 3.0, abs=1e-9)


class TestOmaTimeshare:
    def test_requires_common_off(self, ch22):
        with pytest.raises(ValueError):
            oma_timeshare(ch22, Scenario("A", common_enabled=True), 1.0)

    def test_symmetric_channels(self):
        ch = ChannelPair(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        reg = oma_timeshare(ch, Scenario("A", common_enabled=False), 2.0)
        rates = sorted((p.r1, p.r2) for p in reg.points)
        assert rates[0][0] == 0.0 and rates[1][1] == 0.0
        assert rates[0][1] == pytest.approx(rates[1][0], abs=1e-12)

    def test_endpoints_match_solvers(self, ch22):
        reg = oma_timeshare(ch22, Scenario("C", common_enabled=False), 12.0)
        ref1 = solve_wiretap(ch22.h1, ch22.h2, 12.0).rate
        ref2 = solve_wiretap(ch22.h2, ch22.h1, 12.0).rate
        assert any(p.r1 == pytest.approx(ref1, abs=1e-9) for p in reg.points)
        assert any(p.r2 == pytest.approx(ref2, abs=1e-9) for p in reg.points)

    def test_private_endpoint_is_waterfilling(self, ch22):
        reg = oma_timeshare(ch22, Scenario("B", common_enabled=False), 4.0)
        _, wf2 = waterfill(ch22.h2, 4.0)
        assert any(p.r2 == pytest.approx(wf2, abs=1e-12) for p in reg.points)
