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
``rotation.search_problems`` runs the ascents and ranks everything by
secrecy rate, r[0] - r[1] of the links' rates from
``rates.pair_rate_grad``, which equal ``secrecy_rate``'s bit for bit.
The searches of a wave of problems over one nt run together in it
(``solve_wiretaps``), whatever their row counts, each row of a stacked
call under its own problem's channels and budget, and ``solve_wiretap``
is the one-problem case.

The best result is accepted when its Frank-Wolfe gap is at most
``GAP_TOL`` bits, that is when it is stationary.  Otherwise the corner
search of ``corner`` at weights (1, 0) rescues it: that search maximizes
C1(S), the secrecy capacity under a covariance S (Liu, Liu, Poor &
Shamai, IEEE TIT 2010), and its lifted q1 replaces the first result when
its secrecy rate is higher; the gate and the rescue run problem by
problem.  No step draws a random number, so the same problem always gives
the same result, alone or beside others.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corner import corner_search
from .rates import gauss_rate, pair_rate_grad, wiretap_pencil
from .rotation import Problem, Solved, factor_form, fw_gap, mixed_start, search_problems
from .types import ChannelPair, check_wave
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


def _secrecy(hms, hes):
    """The map from a stack ``q`` and its row-to-problem map to the
    unchecked ``secrecy_rate`` of each row and its gradient in q, for the
    (hm, he) links of several problems, as for ``rates.pair_rate_grad``."""
    links = pair_rate_grad(hms, hes)

    def rate_grads(q, owner=None):
        rates, grads = links(q, owner)
        return rates[0] - rates[1], grads[0] - grads[1]

    return rate_grads


def _secrecy_rate_grad(hm, he, q) -> tuple:
    """``secrecy_rate`` and its gradient in q, without argument checks;
    ``q`` is one matrix or a (k, nt, nt) stack."""
    return _secrecy([hm], [he])(q)


def _seeds(hm: np.ndarray, he: np.ndarray, p: float) -> tuple:
    """``(candidates, starts)`` of one wiretap search: the zero matrix and
    the beam and, with more than one legitimate row, the water-filling
    matrix, and the mixed starts from the beam and from the span of the
    eigenvectors with lambda > 1."""
    nt = hm.shape[1]
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
    return candidates, starts


def solve_wiretaps(problems) -> Solved:
    """``WiretapResult``s of (hm, he, p) problems over one nt, each bit for
    bit the one ``solve_wiretap`` gives it alone.

    The searches of the problems with a budget run together, whatever
    their row counts, as one ``rotation.search_problems`` call, which
    ranks by the wave's secrecy rates; the gap gate and the rescue then run
    problem by problem.  ``n_batches`` and ``n_rows`` count the stacked
    search-objective calls and their rows, the rescues' corner searches
    included.  Problems of different nt raise ``DimensionError``.
    """
    checked, nt = check_wave(problems, "legitimate channel", "eavesdropper channel")
    results = [WiretapResult(np.zeros((nt, nt)), 0.0, True, 0.0, False)] * len(checked)
    live = [i for i, (_, _, p) in enumerate(checked) if p != 0]
    wave = [checked[i] for i in live]
    secrecy = _secrecy([hm for hm, _, _ in wave], [he for _, he, _ in wave])
    budgets = np.array([p for _, _, p in wave])
    solved = search_problems(
        [Problem(p, *_seeds(hm, he, p)) for hm, he, p in wave],
        nt,
        factor_form(secrecy, nt, budgets),
        lambda q, owner: secrecy(q, owner)[0],
    )
    n_batches, n_rows = solved.n_batches, solved.n_rows
    for j, (i, (q, best, converged, _)) in enumerate(zip(live, solved.results)):
        hm, he, p = wave[j]
        own = np.full(1, j)
        gap = fw_gap(secrecy(q, own)[1], q, p)
        if hm.shape[0] == 1 or gap <= GAP_TOL:
            results[i] = WiretapResult(q, best, converged, gap, False)
            continue
        rescue = corner_search(ChannelPair(hm, he), [(1.0, 0.0)], p)
        n_batches += rescue.n_batches
        n_rows += rescue.n_rows
        lifted = rescue.results[0]
        rescued, g = secrecy(lifted.q1, own)
        if rescued > best:
            q, best, converged = lifted.q1, float(rescued), lifted.converged
            gap = fw_gap(g, q, p)
        results[i] = WiretapResult(q, best, converged, gap, True)
    return Solved(results, n_batches, n_rows)


def solve_wiretap(hm, he, p: float) -> WiretapResult:
    """Best found covariance for the secrecy rate under a trace budget.

    Returns a PSD matrix with trace at most ``p`` plus the achieved rate.
    With a zero budget, or whenever every positive-power direction leaks
    more than it carries, the zero matrix wins and the rate is 0.  The
    one-problem case of ``solve_wiretaps``.
    """
    return solve_wiretaps([(hm, he, p)]).results[0]
