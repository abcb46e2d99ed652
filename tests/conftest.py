import numpy as np
import pytest
from scipy.optimize import linprog

from secregion import ChannelPair, RateRegion, RateTriple, gauss_rate, layered_rate
from secregion.rates import rate_stack

# Published benchmark instances used across the suite.  ch22 is a dense
# 2x2 pair run at power 12; ch22b a second 2x2 pair at power 10; ch_row3
# has a two-row and a one-row user over three transmit antennas (run at
# powers 2, 4, 10); ch_vec2 is the classic two-scalar-user line pair.


@pytest.fixture(scope="session")
def ch22() -> ChannelPair:
    return ChannelPair([[0.3, 2.5], [2.2, 1.8]], [[1.3, 1.2], [1.5, 3.9]])


@pytest.fixture(scope="session")
def ch22b() -> ChannelPair:
    return ChannelPair(
        [[0.3861, 0.6355], [0.9995, 0.6259]],
        [[0.4977, 0.9658], [0.9245, 0.6116]],
    )


@pytest.fixture(scope="session")
def ch_row3() -> ChannelPair:
    return ChannelPair(
        [[0.1560, -0.6372, -0.4055], [-1.1450, -0.1417, 0.0708]],
        [[-1.5032, 0.5503, -0.0334]],
    )


@pytest.fixture(scope="session")
def ch_vec2() -> ChannelPair:
    return ChannelPair([[1.0, 0.4]], [[0.4, 1.0]])


def random_psd(rng: np.random.Generator, n: int, trace: float) -> np.ndarray:
    """Random PSD matrix scaled to the requested trace."""
    g = rng.standard_normal((n, n))
    b = g @ g.T
    return b * (trace / np.trace(b))


def random_channel(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols))


def fd_gradient(f, q, eps=1e-6):
    """Symmetric-basis central finite-difference matrix gradient of f at q."""
    n = q.shape[0]
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            d = np.zeros((n, n))
            d[i, j] += 0.5
            d[j, i] += 0.5
            step = eps * max(1.0, abs(q[i, j]))
            # (f(q + step d) - f(q - step d)) / (2 step) equals tr(grad @ d).
            g[i, j] = g[j, i] = (f(q + step * d) - f(q - step * d)) / (2.0 * step)
    return g


def timeshare_gain(others, target) -> float:
    """Largest t with target + t under a time-share of ``others`` and 0.

    A linear program, solved to 1e-10 feasibility tolerances, fine enough
    to tell a point 1e-11 under a time-share from one 1e-9 under (HiGHS's
    default of 1e-7 is not).
    """
    others = np.asarray(others, dtype=float)
    n, d = others.shape
    res = linprog(
        c=np.r_[np.zeros(n), -1.0],
        A_ub=np.vstack([np.hstack([-others.T, np.ones((d, 1))]), np.r_[np.ones(n), 0.0]]),
        b_ub=np.r_[-np.asarray(target, dtype=float), 1.0],
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return -res.fun


def _rate_rows(points) -> np.ndarray:
    if isinstance(points, (RateRegion, RateTriple)):
        return points.as_array()
    seq = list(points)
    if seq and isinstance(seq[0], RateTriple):
        return np.array([t.as_array() for t in seq])
    return np.asarray(seq, dtype=float)


def region_contains(region, target, slack: float = 0.0) -> bool:
    """Free-disposal membership of a rate point: True when some time-share
    of the region's points and the origin dominates ``target - slack``
    componentwise.  ``region`` is a ``RateRegion`` or a sequence of
    ``RateTriple`` or rate rows, ``target`` a ``RateTriple`` or a row."""
    return timeshare_gain(_rate_rows(region), _rate_rows(target)) >= -slack


# (scenario tag, block) pairs of the WSR block prices, keyed by test id.
# Scenario C has no blocks: its WSR runs the secret-DPC corner search.
WSR_PRICE_PAIRS = {
    "a": ("A", 1),
    "a2": ("A", 2),
    "b": ("B", 1),
    "b2": ("B", 2),
}


def wsr_linearized_part(ch, scenario, q1, q2, w1, w2, block):
    """The part of w1*R1 + w2*R2 that a WSR block linearizes, as a function of it.

    It is the ``rate_stack`` weighted sum (order "12", no shared message)
    minus the block's kept term: (w1 + w2 [user 2 confidential]) *
    gauss_rate(h1, q1) for block 1 and w2 * layered_rate(h2, q2, q1) for
    block 2.  The other block stays at its given value.  Scenario C's
    blocks belong to the reference loop of ``test_wsr``.
    """
    zero = np.zeros((1, ch.nt, ch.nt))
    k1 = w1 + (w2 if scenario.user2_confidential else 0.0)

    def part(x):
        a, b = (x, q2) if block == 1 else (q1, x)
        _, r1, r2 = rate_stack(ch, scenario, zero, a[None], b[None])[0, 0]
        if block == 1:
            kept = k1 * gauss_rate(ch.h1, x)
        else:
            kept = w2 * layered_rate(ch.h2, x, q1)
        return float(w1 * r1 + w2 * r2) - kept

    return part
