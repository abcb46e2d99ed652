"""End-to-end acceptance criteria, one test per criterion.

Each test pins its tolerance, prints one pass line with the measured
numbers (visible with ``pytest -s`` or ``-rA``), and fails loudly
otherwise.  The published channel instances come from conftest fixtures.
"""

import time

import numpy as np
import pytest

from secregion import (
    ChannelPair,
    RunConfig,
    Scenario,
    WsrConfig,
    gauss_rate,
    layered_rate,
    random_search_region,
    run,
    secrecy_rate,
    solve_wiretap,
    sweep_region,
    tdma_region,
    oma_timeshare,
    waterfill,
    whiten_multicast,
    whiten_p2p,
    whiten_wiretap,
    wsr_solve,
    wsr_sweep,
    write_channels,
)
from conftest import (
    WSR_PRICE_PAIRS,
    fd_gradient,
    random_psd,
    region_contains,
    wsr_linearized_part,
)
from test_wsr import ab_price, assert_monotone, plain_bsmm


def batched_link_rates(h, qs):
    """0.5*log2|I + H Q H^T| for a stack of covariances."""
    m = np.eye(h.shape[0]) + np.einsum("ij,kjl,ml->kim", h, qs, h)
    sign, logabs = np.linalg.slogdet(m)
    return 0.5 * logabs / np.log(2.0)


def random_psd_stack(rng, n, count, traces):
    g = rng.standard_normal((count, n, n))
    w = np.einsum("kij,klj->kil", g, g)
    tr = np.einsum("kii->k", w)
    return w * (traces / tr)[:, None, None]


def report(name, detail, elapsed):
    print(f"PASS {name}: {detail} [{elapsed:.1f} s]")


class TestAcceptance:
    def test_criterion_1_transform_exactness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(200):
            nt = int(rng.integers(1, 4))
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            ch = ChannelPair(
                rng.standard_normal((n1, nt)), rng.standard_normal((n2, nt))
            )
            q1 = random_psd(rng, nt, float(rng.uniform(0.1, 6)))
            q2 = random_psd(rng, nt, float(rng.uniform(0.1, 6)))
            q0 = random_psd(rng, nt, float(rng.uniform(0.1, 6)))

            h2w = whiten_p2p(ch.h2, q1)
            worst = max(
                worst, abs(gauss_rate(h2w, q2) - layered_rate(ch.h2, q2, q1))
            )
            w1, w2 = whiten_wiretap(ch, q1)
            got = gauss_rate(w2, q2) - gauss_rate(w1, q2)
            original = layered_rate(ch.h2, q2, q1) - layered_rate(ch.h1, q2, q1)
            worst = max(worst, abs(got - original))
            g1, g2 = whiten_multicast(ch, q1, q2)
            worst = max(
                worst, abs(gauss_rate(g1, q0) - layered_rate(ch.h1, q0, q1 + q2))
            )
            worst = max(
                worst, abs(gauss_rate(g2, q0) - layered_rate(ch.h2, q0, q1 + q2))
            )
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12
        assert elapsed < 5.0
        report("criterion 1 transform exactness", f"max deviation {worst:.2e}", elapsed)

    def test_criterion_2_waterfilling_optimality(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(200)
        worst_gap = np.inf
        worst_kkt = 0.0
        for _ in range(50):
            h = rng.standard_normal((2, 2))
            p = float(rng.uniform(0.2, 10))
            q, rate = waterfill(h, p)
            samples = random_psd_stack(rng, 2, 10000, np.full(10000, p))
            best = float(batched_link_rates(h, samples).max())
            worst_gap = min(worst_gap, rate - best)
            assert rate >= best - 1e-12
            s = np.linalg.svd(h, compute_uv=False)
            _, _, vt = np.linalg.svd(h)
            loads = np.diag(vt @ q @ vt.T)
            floors = 1.0 / s**2
            levels = [l + f for l, f in zip(loads, floors) if l > 1e-12]
            worst_kkt = max(worst_kkt, max(levels) - min(levels))
            assert abs(np.trace(q) - p) < 1e-10
        elapsed = time.perf_counter() - t0
        assert worst_kkt < 1e-10
        assert elapsed < 30.0
        report(
            "criterion 2 water-filling optimality",
            f"min lead over sampling {worst_gap:.2e}, max KKT spread {worst_kkt:.2e}",
            elapsed,
        )

    def test_criterion_3_wiretap_vs_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(300)
        worst_margin = np.inf
        for _ in range(20):
            hm = rng.standard_normal((2, 2))
            he = rng.standard_normal((2, 2))
            p = float(rng.uniform(0.5, 8))
            res = solve_wiretap(hm, he, p)
            traces = rng.uniform(0, p, 20000)
            samples = random_psd_stack(rng, 2, 20000, traces)
            vals = batched_link_rates(hm, samples) - batched_link_rates(he, samples)
            best = max(float(vals.max()), 0.0)
            worst_margin = min(worst_margin, res.rate - best)
            assert res.rate >= best - 1e-3
        # interference-free reduction
        for _ in range(5):
            hm = rng.standard_normal((2, 2))
            p = float(rng.uniform(0.5, 8))
            res = solve_wiretap(hm, np.zeros((2, 2)), p)
            assert res.rate == pytest.approx(waterfill(hm, p)[1], abs=1e-6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        report(
            "criterion 3 wiretap vs oracle",
            f"min margin over 20k samples {worst_margin:.2e}",
            elapsed,
        )

    def test_criterion_4_price_matrices(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(400)
        # Each block price of the paper's BSMM, kept in the tests as the
        # reference of the factor ascent, against finite differences of the
        # rate_stack weighted sum less the block's kept term, for scenarios
        # A and B (test_wsr checks C's prices the same way).
        worst = 0.0
        for _ in range(50):
            nt = int(rng.integers(1, 4))
            ch = ChannelPair(
                rng.standard_normal((int(rng.integers(1, 4)), nt)),
                rng.standard_normal((int(rng.integers(1, 4)), nt)),
            )
            q1 = random_psd(rng, nt, float(rng.uniform(0.2, 4)))
            q2 = random_psd(rng, nt, float(rng.uniform(0.2, 4)))
            w1 = float(rng.uniform(0.1, 1))
            w2 = float(rng.uniform(0.1, 1))
            for tag, block in WSR_PRICE_PAIRS.values():
                sc = Scenario(tag, False)
                price = ab_price(ch, sc, q1, q2, w1, w2, block)
                part = wsr_linearized_part(ch, sc, q1, q2, w1, w2, block)
                grad = fd_gradient(part, q1 if block == 1 else q2)
                rel = np.linalg.norm(price + grad) / max(1.0, np.linalg.norm(grad))
                worst = max(worst, rel)
                assert rel <= 1e-5
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report(
            "criterion 4 price-matrix correctness",
            f"max relative FD deviation {worst:.2e} over 50x4 (scenario, block) cases",
            elapsed,
        )

    def test_criterion_5_bsmm_behavior(self, ch22, ch_row3):
        t0 = time.perf_counter()
        # the reference BSMM loop ascends its Lagrangian monotonically at
        # fixed multipliers
        for ch, p in ((ch22, 12.0), (ch_row3, 4.0)):
            for tag in ("A", "B"):
                for lam in (0.02, 0.1, 0.5):
                    trace = []
                    plain_bsmm(
                        ch, Scenario(tag, False), WsrConfig(0.6, 0.4), lam, p, trace=trace
                    )
                    assert_monotone(trace)
        # the factor ascent ends with the budget spent, and no more
        cfg = WsrConfig(0.5, 0.5)
        sol = wsr_solve(ch22, Scenario("B", False), cfg, 12.0)
        used = float(np.trace(sol.q1) + np.trace(sol.q2))
        assert 12.0 * (1 - 1e-6) <= used <= 12.0 * (1 + 1e-8)
        assert sol.unused == 12.0 - used
        # degenerate-weight reductions on the published instances; C's
        # corner search meets the wiretap solves to 1e-9, in both orders
        worst = worst_c = 0.0
        for ch, p in ((ch22, 12.0), (ch_row3, 2.0), (ch_row3, 4.0), (ch_row3, 10.0)):
            for tag in ("A", "B", "C"):
                sc = Scenario(tag, False)
                pairs = (ch, ch.swapped()) if tag == "C" else (ch,)
                for pair in pairs:
                    sol2 = wsr_solve(pair, sc, WsrConfig(0.0, 1.0), p)
                    ref2 = (
                        solve_wiretap(pair.h2, pair.h1, p).rate
                        if tag == "C"
                        else waterfill(pair.h2, p)[1]
                    )
                    sol1 = wsr_solve(pair, sc, WsrConfig(1.0, 0.0), p)
                    ref1 = (
                        waterfill(pair.h1, p)[1]
                        if tag == "A"
                        else solve_wiretap(pair.h1, pair.h2, p).rate
                    )
                    gap = max(abs(sol2.rates.r2 - ref2), abs(sol1.rates.r1 - ref1))
                    if tag == "C":
                        worst_c = max(worst_c, gap)
                        assert gap <= 1e-9
                    else:
                        worst = max(worst, gap)
                        assert gap <= 1e-3
        elapsed = time.perf_counter() - t0
        report(
            "criterion 5 BSMM behavior",
            f"power within [1 - 1e-6, 1 + 1e-8] of the budget, worst reduction gap "
            f"{worst:.2e} (A, B), {worst_c:.2e} (C, both orders)",
            elapsed,
        )

    def test_criterion_6_two_by_two_qualitative(self, ch22):
        t0 = time.perf_counter()
        regions = {
            tag: sweep_region(ch22, Scenario(tag, False), 12.0, 0.05)
            for tag in ("A", "B", "C")
        }
        gap_r1 = abs(regions["B"].max_rate(1) - regions["C"].max_rate(1))
        gap_r2 = abs(regions["A"].max_rate(2) - regions["B"].max_rate(2))
        assert gap_r1 <= 1e-3
        assert gap_r2 <= 1e-3
        # scenario C frontier sits inside scenario A's region
        pts = [p.as_array() for p in regions["C"].points]
        samples = list(pts)
        rng = np.random.default_rng(600)
        while len(samples) < 50:
            i, j = rng.integers(0, len(pts), 2)
            lam = float(rng.uniform())
            samples.append(lam * pts[i] + (1 - lam) * pts[j])
        inside = sum(
            region_contains(regions["A"], s, slack=1e-9) for s in samples[:50]
        )
        assert inside == 50
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        report(
            "criterion 6 qualitative region structure",
            f"|maxR1(B)-maxR1(C)|={gap_r1:.2e}, |maxR2(A)-maxR2(B)|={gap_r2:.2e}, "
            "50/50 C-frontier points inside A",
            elapsed,
        )

    def test_criterion_7_baseline_domination(self, ch22b, ch_row3):
        t0 = time.perf_counter()
        checked = 0
        for tag in ("A", "B", "C"):
            sc = Scenario(tag, True)
            reg = sweep_region(ch22b, sc, 10.0, 0.05)
            for p in tdma_region(ch22b, sc, 10.0).points:
                assert region_contains(reg, p, slack=1e-6)
                checked += 1
        for power in (2.0, 4.0, 10.0):
            for tag in ("A", "B", "C"):
                sc = Scenario(tag, False)
                reg = sweep_region(ch_row3, sc, power, 0.05)
                ends = [p.as_array() for p in oma_timeshare(ch_row3, sc, power).points]
                if len(ends) == 1:
                    ends = ends * 2
                for t in np.linspace(0.0, 1.0, 11):
                    mid = t * ends[0] + (1 - t) * ends[1]
                    assert region_contains(reg, mid, slack=1e-6)
                    checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        report(
            "criterion 7 baseline domination",
            f"{checked} baseline points inside the power-splitting regions",
            elapsed,
        )

    def test_criterion_8_oracle_sandwich(self, ch22, ch_row3):
        t0 = time.perf_counter()
        for tag in ("A", "C"):
            sc = Scenario(tag, False)
            ps = sweep_region(ch22, sc, 12.0, 0.05)
            oracle = random_search_region(ch22, sc, 12.0, 100000, seed=0)
            for p in ps.points:
                assert region_contains(oracle, p, slack=1e-2)
        for tag in ("A", "B", "C"):
            sc = Scenario(tag, False)
            ps = sweep_region(ch_row3, sc, 4.0, 0.05)
            frontier = wsr_sweep(ch_row3, sc, 4.0, sigma=0.05)
            for p in ps.points:
                assert region_contains(frontier, p, slack=1e-2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0
        report(
            "criterion 8 oracle sandwich",
            "PS within oracle+1e-2 (A, C); WSR frontier covers PS within 1e-2 (A, B, C)",
            elapsed,
        )

    def test_criterion_9_determinism(self, ch22, tmp_path):
        t0 = time.perf_counter()
        chfile = tmp_path / "ch.txt"
        write_channels(ch22, str(chfile))
        digests = []
        for rep in ("x", "y"):
            for method, extra in (
                ("oracle", {"samples": 2000}),
                ("ps", {"eps1": 0.25}),
            ):
                out = tmp_path / f"{method}_{rep}.csv"
                cfg = RunConfig(
                    channels=str(chfile),
                    scenario="C",
                    method=method,
                    power=6.0,
                    out=str(out),
                    common=False,
                    seed=42,
                    **extra,
                )
                assert run(cfg) == 0
                digests.append((method, out.read_bytes()))
        by_method = {}
        for method, blob in digests:
            by_method.setdefault(method, []).append(blob)
        for method, blobs in by_method.items():
            assert blobs[0] == blobs[1], f"{method} output not byte-identical"
        elapsed = time.perf_counter() - t0
        report(
            "criterion 9 determinism",
            "repeated oracle and ps runs byte-identical",
            elapsed,
        )
