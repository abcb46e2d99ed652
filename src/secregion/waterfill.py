"""Closed-form optimal power loading for interference-free MIMO links.

The covariance maximizing 0.5*log2|I + H Q H^T| under a trace budget is
diagonal in the right singular basis of H, with per-mode powers filled up
to a common water level above the inverse squared singular values.  The
water level is found by an exact active-set descent over the sorted
floors, not by bisection, so no iteration tolerance enters the system.
"""

from __future__ import annotations

import warnings

import numpy as np

from .types import as_matrix, check_budget

# Singular values below this fraction of the largest are treated as zero;
# their inverse-square floors would otherwise overflow the level search.
SV_CUTOFF_REL = 1e-12


class DegenerateChannelWarning(RuntimeWarning):
    """The channel has no usable singular mode; the zero covariance is returned."""


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

    Returns ``(q, rate)``.  The trace of ``q`` equals ``p`` exactly whenever
    the channel has a nonzero singular value; an all-zero channel yields the
    zero matrix with a ``DegenerateChannelWarning``.
    """
    h = as_matrix(h, "channel")
    check_budget(p)
    nt = h.shape[1]
    if p == 0:
        return np.zeros((nt, nt)), 0.0
    _, s, vt = np.linalg.svd(h)
    if s.size == 0 or s[0] <= 0.0:
        warnings.warn("channel has no nonzero singular value", DegenerateChannelWarning)
        return np.zeros((nt, nt)), 0.0
    keep = s > SV_CUTOFF_REL * s[0]
    s_act = s[keep]
    basis = vt[: s_act.size]
    gains = s_act**2
    floors = 1.0 / gains  # ascending because singular values come sorted descending
    mu = water_level(floors, p)
    loads = np.maximum(mu - floors, 0.0)
    q = (basis.T * loads) @ basis
    q = 0.5 * (q + q.T)
    rate = 0.5 * float(np.sum(np.log2(1.0 + gains * loads)))
    return q, rate
