"""Closed-form optimal power loading for interference-free MIMO links.

The covariance maximizing 0.5*log2|I + H Q H^T| under a trace budget is
diagonal in the right singular basis of H, with per-mode powers filled up
to a common water level above the inverse squared singular values.  The
water level is found by an exact active-set descent over the sorted
floors, not by bisection, so no iteration tolerance enters the system.
Its mode loading, ``singular_modes`` and ``load_level``, serves ``wsr`` too.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.linalg._umath_linalg import svd_f

from .rates import LN2
from .types import as_matrix, check_budget

# Singular values below this fraction of the largest are treated as zero;
# their inverse-square floors would otherwise overflow the level search.
SV_CUTOFF_REL = 1e-12


class DegenerateChannelWarning(RuntimeWarning):
    """The channel has no usable singular mode; the zero covariance is returned."""


def singular_modes(a: np.ndarray) -> tuple:
    """``(V^T, sig, k)`` from one ``svd_f`` gufunc call: the right singular
    vectors of ``a``, a float per column of ``a`` for its singular values,
    descending, and the count k of those above ``SV_CUTOFF_REL`` times the
    largest (compared squared, so each kept square is positive).
    """
    _, sig, vt = svd_f(a)
    sig = sig.tolist() + [0.0] * (a.shape[1] - len(sig))
    if sig[0] != sig[0]:  # the gufunc's NaN when it does not converge
        raise np.linalg.LinAlgError("SVD did not converge")
    cut = SV_CUTOFF_REL * sig[0]
    k = len(sig)
    while k and sig[k - 1] * sig[k - 1] <= cut * cut:
        k -= 1
    return vt, sig, k


def load_level(w: float, sig: list, k: int) -> tuple:
    """``(lam, sum ln(1 + sig^2 lam))``: the first k modes of ``sig`` load
    max(w - 1/sig^2, 0), the rest nothing; looped over as floats, as
    numpy's per-call cost exceeds the arithmetic on so few modes.
    """
    lam = [0.0] * len(sig)
    logdet = 0.0
    for i in range(k):
        g = sig[i] * sig[i]
        lam[i] = load = max(w - 1.0 / g, 0.0)
        logdet += math.log1p(g * load)
    return lam, logdet


def water_level(floors, p: float) -> float:
    """The unique level mu satisfying sum((mu - floor)+) == p.

    Parameters
    ----------
    floors : array_like
        Positive per-mode floors (inverse squared channel gains), sorted
        ascending.
    p : float
        Nonnegative, finite power budget.  With p == 0 the level equals the
        smallest floor and every mode gets zero power.
    """
    arr = np.asarray(floors, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("floors must be a nonempty 1-D sequence")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("floors must be positive and finite")
    if np.any(np.diff(arr) < 0):
        raise ValueError("floors must be sorted ascending")
    check_budget(p)
    csum = np.cumsum(arr)
    for k in range(arr.size, 0, -1):
        mu = (p + csum[k - 1]) / k
        if mu >= arr[k - 1]:
            return float(mu)
    return float(arr[0])  # unreachable for valid input


def waterfill(h, p: float) -> tuple:
    """Optimal covariance and rate for max 0.5*log2|I + H Q H^T|, tr(Q) <= p.

    Returns ``(q, rate)``.  The trace of ``q`` is ``p`` up to the rounding
    of the water level mu, about k ulps of mu for k loaded modes: within a
    few ulps of ``p`` when ``p`` is at least the smallest floor 1/sig_1^2
    (for ch22's h1 at p 12 it is 1.8e-15 over), coarser relative to ``p``
    when ``p`` is far below that floor.  Where even p/k is lost in the
    rounding of the smallest floor, or a floor overflows, ``p`` is below
    the gaps between distinct floors, so the modes tied for the largest
    singular value share it equally, and the trace is within a few ulps
    of ``p``.  An all-zero channel yields the zero matrix with a
    ``DegenerateChannelWarning``.
    """
    h = as_matrix(h, "channel")
    check_budget(p)
    nt = h.shape[1]
    if p == 0 or not h.any():
        if p:
            warnings.warn("channel has no nonzero singular value", DegenerateChannelWarning)
        return np.zeros((nt, nt)), 0.0
    vt, sig, k = singular_modes(h)
    floors = [1.0 / (x * x) for x in sig[:k]]
    if floors and floors[-1] < math.inf and floors[0] + p / k != floors[0]:
        lam, logdet = load_level(water_level(floors, p), sig, k)
    else:
        ties = sig.count(sig[0])
        lam = [p / ties] * ties + [0.0] * (nt - ties)
        logdet = sum(math.log1p(x * x * load) for x, load in zip(sig, lam))
    q = (vt.T * lam) @ vt
    return 0.5 * (q + q.T), 0.5 * logdet / LN2
