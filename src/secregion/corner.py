"""Scenario C's weighted sum rate as one ascent over the secret-DPC corner.

By Liu, Liu, Poor & Shamai ("Multiple-input multiple-output Gaussian
broadcast channels with confidential messages", IEEE TIT 2010), the
secret-DPC region under a covariance S = F F^T is the rectangle
[0, C1(S)] x [0, C2(S)], with C1 = 0.5 sum log2+ lam_i and
C2 = 0.5 sum log2+ (1/lam_i) over the eigenvalues lam of the pencil
(I + F^T K1 F, I + F^T K2 F), Kj = Hj^T Hj, and its corner at the GSVD
split of S (see also Fakoorian & Swindlehurst, IEEE JSAC 2013).  So the
weighted sum of scenario C, where both messages are confidential, is the
max over tr S <= p of w1 C1(S) + w2 C2(S): one nt x nt matrix for both
encoding orders, which ``corner_search`` finds by ascents of ``rotation``
over the factor F, where the gradient is natural (``_corner``).

* C2 comes from the swapped pencil (I + F^T K2 F, I + F^T K1 F), not from
  1/lam, so that no logarithm of an eigenvalue rounded to 0 is taken.
  ``rates.pencil`` solves each pencil.
* C1 and C2 are the users' secrecy capacities under the covariance
  constraint S, which do not fall as S grows in the Loewner order, so the
  ascents run at full power: every start's slack coordinate is 0, where
  its gradient stays 0.
* ``rotation.GTOL`` is absolute, and the value scales like the power at
  small budgets, so the ascents follow the value divided by the best
  start's value.
* The starts are the isotropic matrix, the top eigenvector of each Kj and
  the two wiretap beams, the top generalized eigenvectors of
  (I + p Kj, I + p Kk) from ``wiretap.wiretap_pencil`` (so they are the
  beams of ``wiretap.solve_wiretap`` bit for bit), each mixed with a
  little of the isotropic matrix.
  The zero matrix and the two unmixed beams stand as ready candidates.

A covariance S is lifted to the pair q1 = F P F^T, q2 = F (I - P) F^T
under order "12" (``_lift``), P the orthogonal projector onto the span of
the eigenvectors with lam > 1, which rates at (C1, C2) in exact
arithmetic.  The search driver ranks its candidates and results by the
``rates.rate_stack`` weighted sum of their lifted pairs: the rates that
are reported.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo

from .rates import LN2, identity, pencil, rate_stack
from .rotation import _decode, maximize_psd_objective, mixed_start, root_form
from .types import ChannelPair, Scenario
from .wiretap import wiretap_pencil

_SCENARIO_C = Scenario("C", common_enabled=False)


class CornerSearch(NamedTuple):
    """The lifted pair of the best covariance found, and what the search did.

    ``lam`` is the multiplier that the corner's gradient G implies at the
    covariance S, <G, S> / p.  ``n_evals`` counts the calls of the ascents'
    objective, and ``n_unconverged`` the ascents that stopped at
    ``rotation.MAX_ITERS``.
    """

    q1: np.ndarray
    q2: np.ndarray
    lam: float
    converged: bool
    n_ascents: int
    n_evals: int
    n_unconverged: int


def _corner(h1, h2, w1: float, w2: float, f: np.ndarray) -> tuple:
    """``(w1 C1 + w2 C2, its gradient in F)`` at S = F F^T, in bits.

    C1 = 0.5 sum log2 lam_i over the eigenvalues lam_i > 1 of the pencil
    (A, B) = (I + F^T K1 F, I + F^T K2 F), and C2 likewise over those of
    (B, A).  With V^T B V = I, d lam_i = 2 v_i^T F^T (K1 - lam_i K2) dF v_i,
    so user 1's term has the gradient
    (w1 / ln 2) sum_i (K1 / lam_i - K2) F v_i v_i^T, and user 2's the same
    with the users exchanged.  At lam_i = 1, where log2+ has a kink, the
    mode is left out.  A zero weight skips its pencil.
    """
    eye = identity(f.shape[1])
    y1, y2 = h1 @ f, h2 @ f
    a, b = eye + y1.T @ y1, eye + y2.T @ y2
    value, grad = 0.0, np.zeros_like(f)
    for w, h, y, hk, yk, own, cross in (
        (w1, h1, y1, h2, y2, a, b),
        (w2, h2, y2, h1, y1, b, a),
    ):
        if w == 0.0:
            continue
        lam, v = pencil(own, cross)
        up = lam > 1.0
        lam, v = lam[up], v[:, up]
        value += w * float(np.log(lam).sum())
        grad += h.T @ (y @ ((v * (w / lam)) @ v.T)) - hk.T @ (yk @ ((w * v) @ v.T))
    return value / (2.0 * LN2), grad / LN2


def _eigen_factor(s: np.ndarray) -> np.ndarray:
    """A factor F with F F^T = S, from the eigenvalues of S clipped at 0."""
    w, v = eigh_lo(s)
    return v * np.sqrt(np.maximum(w, 0.0))


def _lift(h1, h2, s: np.ndarray, p: float) -> tuple:
    """``(q1, q2)``: S = F F^T split at its secret-DPC corner, order "12".

    F is S's eigenvector factor, P the orthogonal projector onto the span
    of the eigenvectors of (I + F^T K1 F, I + F^T K2 F) with lam > 1, and
    q1 = F P F^T, q2 = F (I - P) F^T.  Where the factor form and the split
    round the trace a few ulps past the budget p, the pair is scaled back
    within it.
    """
    nt = len(s)
    f = _eigen_factor(s)
    eye = identity(nt)
    y1, y2 = h1 @ f, h2 @ f
    lam, v = pencil(eye + y1.T @ y1, eye + y2.T @ y2)
    e = np.linalg.qr(v[:, lam > 1.0])[0]
    fe = f @ e
    rest = f - fe @ e.T
    q1, q2 = fe @ fe.T, rest @ rest.T
    used = float(np.trace(q1) + np.trace(q2))
    if used > p:
        shrink = (1.0 - 4.0 * nt * np.finfo(float).eps) * p / used
        q1, q2 = shrink * q1, shrink * q2
    return q1, q2


def corner_search(ch: ChannelPair, w1: float, w2: float, p: float) -> CornerSearch:
    """The max over tr S <= p of w1 C1(S) + w2 C2(S), lifted to (q1, q2).

    The weights must be finite and nonnegative and ``p`` positive; the
    callers check them.
    """
    nt, h1, h2 = ch.nt, ch.h1, ch.h2
    eye = identity(nt)
    zeros = np.zeros((nt, nt))
    beams = [eigh_lo(h.T @ h)[1][:, -1] for h in (h1, h2)]
    beams += [wiretap_pencil(hj, hk, p)[1][:, -1] for hj, hk in ((h1, h2), (h2, h1))]
    mats = [(p / nt) * eye] + [(p / (v @ v)) * np.outer(v, v) for v in beams]
    starts = [mixed_start(q, nt, p) for q in mats]
    for x in starts:
        x[-1] = 0.0  # full power, with no slack to give back

    def rated(s):
        q1, q2 = _lift(h1, h2, s, p)
        _, r1, r2 = rate_stack(ch, _SCENARIO_C, zeros[None], q1[None], q2[None])[0, 0]
        return w1 * r1 + w2 * r2

    # The ascents follow the value over the best start's, as GTOL is
    # absolute.  Where no start has a value, no weighted user has a mode
    # with lam > 1 at a full-rank S, nor at any S, and no ascent runs.
    scale = max(_corner(h1, h2, w1, w2, _eigen_factor(_decode(x, nt, p)))[0] for x in starts)
    n_evals = 0

    def scaled(f):
        nonlocal n_evals
        n_evals += 1
        value, grad = _corner(h1, h2, w1, w2, f)
        return value / scale, grad / scale

    starts = starts if scale > 0.0 else []
    s, _, converged, n_unconverged = maximize_psd_objective(
        rated,
        nt,
        p,
        [(zeros, True)] + [(q, True) for q in mats[3:]],
        starts,
        search_objective=root_form(scaled, nt, p),
    )
    f = _eigen_factor(s)
    lam = float(np.vdot(_corner(h1, h2, w1, w2, f)[1], f)) / (2.0 * p)
    return CornerSearch(*_lift(h1, h2, s, p), lam, converged, len(starts), n_evals, n_unconverged)
