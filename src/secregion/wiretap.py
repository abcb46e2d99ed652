"""Secrecy-rate maximization over a legitimate/eavesdropper channel pair.

Every solve starts from the generalized eigenvectors of the pair
(I + p Hm^T Hm, I + p He^T He), which ``rates.wiretap_pencil`` forms and
``rates.pencil`` solves; the secret-DPC corner search of ``corner`` takes
its wiretap beams from the same call.  Full power along the top one, v,
gives the beam rate 0.5 log2 lambda_max, and with one legitimate receive
row that beam (or the zero matrix, when lambda_max <= 1) is optimal
(Khisti & Wornell, IEEE TIT 2010), so no search runs.  With more rows the
problem is nonconvex: one BFGS ascent (``rotation.ascent``, the package's
own, with a strong-Wolfe line search) over the factor form of
``rotation`` starts from the beam, and a second from the span of the
eigenvectors with lambda > 1 when there are two or more, each mixed with
a little of the isotropic matrix.  The zero matrix, the beam and the
legitimate channel's water-filling matrix stay candidates, so the rate
never falls below theirs, nor below zero.  The search driver
``rotation.maximize_psd_objective`` runs the ascents and ranks everything.

The best result is accepted when its Frank-Wolfe gap is at most
``GAP_TOL`` bits, that is when it is stationary.  Otherwise the corner
search of ``corner`` at weights (1, 0) rescues it: that search maximizes
C1(S), the secrecy capacity under a covariance S (Liu, Liu, Poor &
Shamai, IEEE TIT 2010), and its lifted q1 replaces the first result when
its secrecy rate is higher.  No step draws a random number, so the same
problem always gives the same result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corner import corner_search
from .rates import gauss_rate, pair_rate_grad, wiretap_pencil
from .rotation import factor_form, fw_gap, maximize_psd_objective, mixed_start
from .types import ChannelPair, as_channel_pair, check_budget
from .waterfill import DegenerateChannelWarning, waterfill

# Largest Frank-Wolfe gap, in bits, at which the first search's result is
# taken as stationary and the corner search's rescue is skipped.
GAP_TOL = 1e-7


@dataclass(frozen=True)
class WiretapResult:
    """A secrecy-rate covariance and what the solve did.

    ``gap`` is the Frank-Wolfe gap of ``q`` in bits, and ``restarted``
    tells whether the rescue ran.
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
    """``secrecy_rate`` and its gradient in q, without argument checks;
    ``q`` is one matrix or a (k, nt, nt) stack, as for ``pair_rate_grad``."""
    rates, grads = pair_rate_grad(hm, he)(q)
    return rates[0] - rates[1], grads[0] - grads[1]


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

    lam, vecs = wiretap_pencil(hm, he, p)
    top = vecs[:, -1]
    beam = (p / (top @ top)) * np.outer(top, top)
    candidates = [(np.zeros((nt, nt)), True), (beam, True)]
    starts = []
    if hm.shape[0] > 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateChannelWarning)
            q_wf, _ = waterfill(hm, p)
        candidates.append((q_wf, True))
        starts.append(mixed_start(beam, nt, p))
        lifted = vecs[:, lam > 1.0]
        if lifted.shape[1] > 1:
            span = lifted @ lifted.T
            starts.append(mixed_start((p / np.trace(span)) * span, nt, p))
    in_factor = factor_form(search, nt, p)
    q, best, converged, _ = maximize_psd_objective(
        rate, nt, p, candidates, starts, search_objective=in_factor
    )
    gap = fw_gap(search(q)[1], q, p)
    if hm.shape[0] == 1 or gap <= GAP_TOL:
        return WiretapResult(q, best, converged, gap, False)

    rescue = corner_search(ChannelPair(hm, he), 1.0, 0.0, p)
    rescued = rate(rescue.q1)
    if rescued > best:
        q, best, converged = rescue.q1, rescued, rescue.converged
        gap = fw_gap(search(q)[1], q, p)
    return WiretapResult(q, best, converged, gap, True)
