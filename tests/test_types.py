import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregion import (
    ChannelPair,
    oma_timeshare,
    random_search_region,
    solve_multicast,
    solve_wiretap,
    tdma_region,
    water_level,
    waterfill,
    CovarianceTriple,
    DimensionError,
    PowerSplit,
    RateRegion,
    RateTriple,
    Scenario,
    pareto_filter,
)
from secregion.types import check_covariance_stacks, pareto_mask


class TestChannelPair:
    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            ChannelPair([[1.0, 2.0]], [[1.0]])

    def test_immutable(self):
        ch = ChannelPair([[1.0, 2.0]], [[3.0, 4.0]])
        with pytest.raises(ValueError):
            ch.h1[0, 0] = 9.0

    def test_swap(self):
        ch = ChannelPair([[1.0, 2.0]], [[3.0, 4.0]])
        sw = ch.swapped()
        assert np.array_equal(sw.h1, ch.h2) and np.array_equal(sw.h2, ch.h1)

    def test_dims(self):
        ch = ChannelPair(np.ones((2, 3)), np.ones((1, 3)))
        assert (ch.n1, ch.n2, ch.nt) == (2, 1, 3)


class TestScenario:
    def test_tags(self):
        assert Scenario("A").tag == "A"
        assert not Scenario("A").user1_confidential
        assert Scenario("B").user1_confidential
        assert not Scenario("B").user2_confidential
        assert Scenario("C").user2_confidential

    def test_swap_rule(self):
        assert Scenario("A").allows_order_swap
        assert not Scenario("B").allows_order_swap
        assert Scenario("C").allows_order_swap

    def test_orders(self):
        assert Scenario("A").orders == ("12", "21")
        assert Scenario("B", False).orders == ("12",)
        assert Scenario("C").orders == ("12", "21")

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            Scenario("D")


class TestCovarianceTriple:
    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            CovarianceTriple(np.eye(2), np.eye(2), np.eye(2), 5.0)

    def test_slack_accepted(self):
        CovarianceTriple(np.eye(2), np.eye(2), np.eye(2), 6.0)

    def test_psd_enforced(self):
        with pytest.raises(ValueError):
            CovarianceTriple([[1.0, 2.0], [2.0, 1.0]], np.zeros((2, 2)), np.zeros((2, 2)), 9.0)

    def test_margins_scale_with_budget(self):
        # eigvalsh rounds at about eps * ||Q||: at p 1e8 exactly-PSD beams can
        # read a least eigenvalue below -1e-9, which a margin that does not
        # scale with p would reject.
        p, z = 1e8, np.zeros((3, 3))
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.standard_normal(3)
            CovarianceTriple(z, (p / (u @ u)) * np.outer(u, u), z, p)
        bent = np.diag([0.5 * p, 0.0, -1e-8 * p])
        with pytest.raises(ValueError, match="PSD check at tolerance 0.1$"):
            CovarianceTriple(z, bent, z, p)
        skew = np.diag([0.5 * p, 0.0, 0.0])
        skew[0, 1] = 1e-9 * p
        with pytest.raises(ValueError, match="not symmetric within 0.01$"):
            CovarianceTriple(z, skew, z, p)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            CovarianceTriple(np.eye(2), np.eye(3), np.eye(2), 10.0)

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf])
    def test_non_finite_budget_rejected(self, budget):
        big = 100.0 * np.eye(2)
        with pytest.raises(ValueError, match="finite"):
            CovarianceTriple(big, big, big, budget)
        with pytest.raises(ValueError, match="finite"):
            check_covariance_stacks([big[None]] * 3, budget)


class TestPowerSplit:
    def test_valid(self):
        s = PowerSplit(0.2, 0.3, 0.5)
        assert s.as_tuple() == (0.2, 0.3, 0.5)

    @pytest.mark.parametrize(
        "fracs", [(0.5, 0.5, 0.5), (0.2, 0.2, 0.2), (-0.1, 0.6, 0.5), (1.1, -0.1, 0.0)]
    )
    def test_simplex_enforced(self, fracs):
        with pytest.raises(ValueError):
            PowerSplit(*fracs)


class TestRateTriple:
    def test_clamp_tiny_negative(self):
        t = RateTriple(-1e-10, 1.0, 0.0)
        assert t.r0 == 0.0

    def test_reject_large_negative(self):
        with pytest.raises(ValueError):
            RateTriple(-0.5, 0.0, 0.0)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            RateTriple(0.0, 0.0, 0.0, "13")


class TestRegionAndPareto:
    def test_region_rejects_dominated(self):
        pts = (RateTriple(1, 1, 1), RateTriple(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            RateRegion(pts, Scenario("A"), 1.0)

    def test_pareto_filter_basic(self):
        pts = [RateTriple(1, 1, 1), RateTriple(0.5, 0.5, 0.5), RateTriple(0, 2, 0)]
        kept = pareto_filter(pts)
        assert RateTriple(1, 1, 1) in kept
        assert RateTriple(0, 2, 0) in kept
        assert RateTriple(0.5, 0.5, 0.5) not in kept

    def test_pareto_filter_keeps_duplicates_and_incomparable(self):
        pts = [RateTriple(1, 0, 0), RateTriple(0, 1, 0), RateTriple(1, 0, 0)]
        assert len(pareto_filter(pts)) == 3

    def test_pareto_matches_quadratic_reference(self):
        rng = np.random.default_rng(11)
        pts = [RateTriple(*rng.uniform(0, 1, 3)) for _ in range(200)]
        kept = set(id(p) for p in pareto_filter(pts))
        arr = np.array([p.as_array() for p in pts])
        for i, p in enumerate(pts):
            ge = (arr >= arr[i]).all(axis=1)
            gt = (arr > arr[i]).any(axis=1)
            dominated = bool((ge & gt).any())
            assert (id(p) not in kept) == dominated


def brute_pareto_mask(rows):
    """O(n^2) reference: a row stays unless another is >= everywhere, > somewhere."""
    return np.array(
        [not any((b >= a).all() and (b > a).any() for b in rows) for a in rows],
        dtype=bool,
    )


# Small integers give ties and exact repeats, and 0.0 and -0.0 are equal
# rows that differ in their bits; a few general floats mix in.
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(0, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 30))
    rows = draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=n, max_size=n))
    arr = np.array(rows, dtype=float).reshape(n, 3)
    if draw(st.booleans()):
        # A constant r0 column, as with the common message off: a 2-D problem.
        arr[:, 0] = draw(st.sampled_from([0.0, -0.0, 1.0]))
    return arr


class TestParetoMask:
    @settings(max_examples=400, deadline=None)
    @given(clouds())
    def test_matches_brute_force(self, rows):
        got = pareto_mask(rows)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert got.tolist() == brute_pareto_mask(rows).tolist()

    def test_empty_and_one_row(self):
        assert pareto_mask(np.empty((0, 3))).tolist() == []
        assert pareto_mask(np.array([[-0.0, 2.0, 1.0]])).tolist() == [True]


_CH = ChannelPair(np.eye(2), np.diag([2.0, 1.0]))

# Every entry point that takes a power budget from its caller, as p -> call.
BUDGET_ENTRY_POINTS = {
    "waterfill": lambda p: waterfill(_CH.h1, p),
    "water_level": lambda p: water_level([1.0, 2.0], p),
    "solve_wiretap": lambda p: solve_wiretap(_CH.h1, _CH.h2, p),
    "solve_multicast": lambda p: solve_multicast(_CH.h1, _CH.h2, p),
    "random_search_region": lambda p: random_search_region(_CH, Scenario("A"), p, 4),
    "tdma_region": lambda p: tdma_region(_CH, Scenario("C"), p),
    "oma_timeshare": lambda p: oma_timeshare(_CH, Scenario("C", False), p),
}


@pytest.mark.parametrize("budget", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_bad_budget_rejected(entry, budget):
    with pytest.raises(ValueError, match="power budget must be nonnegative and finite"):
        BUDGET_ENTRY_POINTS[entry](budget)
