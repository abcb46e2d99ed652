"""Secrecy-rate maximization over a legitimate/eavesdropper channel pair.

Every solve starts from the generalized eigenvectors of the pair
(I + p Hm^T Hm, I + p He^T He).  Full power along the top one, v, gives the
beam rate 0.5 log2 lambda_max, and with one legitimate receive row that
beam (or the zero matrix, when lambda_max <= 1) is optimal (Khisti &
Wornell, IEEE TIT 2010), so no search runs.  With more rows the problem is
nonconvex: one BFGS ascent over the factor form of ``rotation`` starts from
the beam, and a second from the span of the eigenvectors with lambda > 1
when there are two or more, each mixed with a little of the isotropic
matrix.  The zero matrix, the beam and the legitimate channel's
water-filling matrix stay candidates, so the rate never falls below
theirs, nor below zero.

The best candidate is accepted when its Frank-Wolfe gap is at most
``GAP_TOL`` bits, that is when it is stationary.  Otherwise the
multi-start search of ``rotation.maximize_psd_objective`` runs (the
water-filling warm start plus restarts from a fixed random stream), and
the better of the two results is returned.  So the same problem always
gives the same result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .rates import gauss_rate, link_rate_grad
from .rotation import ascend, fw_gap, maximize_psd_objective, mixed_start
from .types import as_channel_pair, check_budget
from .waterfill import DegenerateChannelWarning, waterfill

# Largest Frank-Wolfe gap, in bits, at which the deterministic result is
# taken as stationary and the random restarts are skipped.
GAP_TOL = 1e-7


@dataclass(frozen=True)
class WiretapResult:
    """A secrecy-rate covariance and what the solve did.

    ``gap`` is the Frank-Wolfe gap of ``q`` in bits, and ``restarted``
    tells whether the multi-start search ran.
    """

    q: np.ndarray
    rate: float
    converged: bool
    gap: float
    restarted: bool


def secrecy_rate(hm, he, q) -> float:
    """0.5 * (log2|I + Hm Q Hm^T| - log2|I + He Q He^T|), unclamped."""
    return gauss_rate(hm, q) - gauss_rate(he, q)


def _secrecy_rate_grad(hm, he, q) -> tuple:
    """``secrecy_rate`` and its gradient in q, without argument checks."""
    rm, gm = link_rate_grad(hm, q)
    re, ge = link_rate_grad(he, q)
    return rm - re, gm - ge


def solve_wiretap(hm, he, p: float) -> WiretapResult:
    """Best found covariance for the secrecy rate under a trace budget.

    Returns a PSD matrix with trace at most ``p`` plus the achieved rate.
    With a zero budget, or whenever every positive-power direction leaks
    more than it carries, the zero matrix wins and the rate is 0.
    """
    hm, he = as_channel_pair(hm, he, "legitimate channel", "eavesdropper channel")
    check_budget(p)
    nt = hm.shape[1]
    if p == 0:
        return WiretapResult(np.zeros((nt, nt)), 0.0, True, 0.0, False)

    def rate(q):
        return secrecy_rate(hm, he, q)

    def search(q):
        return _secrecy_rate_grad(hm, he, q)

    eye = np.eye(nt)
    lam, vecs = eigh(eye + p * hm.T @ hm, eye + p * he.T @ he)
    top = vecs[:, -1]
    beam = (p / (top @ top)) * np.outer(top, top)
    # The first of equals wins: zero, beam, water-filling, then the ascents.
    candidates = [(np.zeros((nt, nt)), True), (beam, True)]
    if hm.shape[0] > 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateChannelWarning)
            warm_q, _ = waterfill(hm, p)
        candidates.append((warm_q, True))
        starts = [beam]
        lifted = vecs[:, lam > 1.0]
        if lifted.shape[1] > 1:
            span = lifted @ lifted.T
            starts.append((p / np.trace(span)) * span)
        candidates += [ascend(search, mixed_start(s, nt, p), nt, p) for s in starts]
    q, converged = max(candidates, key=lambda c: rate(c[0]))
    best = rate(q)
    gap = fw_gap(search(q)[1], q, p)
    if hm.shape[0] == 1 or gap <= GAP_TOL:
        return WiretapResult(q, best, converged, gap, False)

    q2, rate2, converged2 = maximize_psd_objective(
        rate, nt, p, warm_q=warm_q, search_objective=search
    )
    if rate2 > best:
        q, best, converged = q2, rate2, converged2
        gap = fw_gap(search(q)[1], q, p)
    return WiretapResult(q, best, converged, gap, True)
