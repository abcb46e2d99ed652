"""Secrecy-rate maximization over a legitimate/eavesdropper channel pair.

The covariance is searched through the factor parameterization of
``rotation`` with multi-start BFGS on the analytic gradient of the rate
difference; the problem is nonconvex, so one ascent can stop at a local
optimum that a restart escapes.  The water-filling matrix for the
legitimate channel doubles as warm start and as a standing candidate, so
the returned rate never falls below the warm start evaluated under the
secrecy objective, nor below zero (the zero matrix is always a candidate).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rates import gauss_rate, link_rate_grad
from .rotation import maximize_psd_objective
from .types import as_channel_pair, check_budget
from .waterfill import DegenerateChannelWarning, waterfill


@dataclass(frozen=True)
class WiretapResult:
    q: np.ndarray
    rate: float
    converged: bool


def secrecy_rate(hm, he, q) -> float:
    """0.5 * (log2|I + Hm Q Hm^T| - log2|I + He Q He^T|), unclamped."""
    return gauss_rate(hm, q) - gauss_rate(he, q)


def _secrecy_rate_grad(hm, he, q) -> tuple:
    """``secrecy_rate`` and its gradient in q, without argument checks."""
    rm, gm = link_rate_grad(hm, q)
    re, ge = link_rate_grad(he, q)
    return rm - re, gm - ge


def solve_wiretap(hm, he, p: float, seed: int = 0) -> WiretapResult:
    """Best found covariance for the secrecy rate under a trace budget.

    Returns a PSD matrix with trace at most ``p`` plus the achieved rate.
    With a zero budget, or whenever every positive-power direction leaks
    more than it carries, the zero matrix wins and the rate is 0.
    """
    hm, he = as_channel_pair(hm, he, "legitimate channel", "eavesdropper channel")
    check_budget(p)
    nt = hm.shape[1]
    if p == 0:
        return WiretapResult(np.zeros((nt, nt)), 0.0, True)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateChannelWarning)
        warm_q, _ = waterfill(hm, p)

    q, rate, converged = maximize_psd_objective(
        lambda q: secrecy_rate(hm, he, q),
        nt,
        p,
        seed=seed,
        warm_q=warm_q,
        search_objective=lambda q: _secrecy_rate_grad(hm, he, q),
    )
    return WiretapResult(q, rate, converged)
