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
  (I + p Kj, I + p Kk) from ``rates.wiretap_pencil`` (so they are the
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

from .rates import LN2, identity, pencil, rate_stack, wiretap_pencil
from .rotation import _decode, maximize_psd_objective, mixed_start, root_form
from .types import ChannelPair, Scenario

_SCENARIO_C = Scenario("C", common_enabled=False)


class CornerSearch(NamedTuple):
    """The lifted pair of the best covariance found, and what the search did.

    ``lam`` is the multiplier that the corner's gradient G implies at the
    covariance S, <G, S> / p.  ``n_evals`` counts the evaluations of the
    ascents' objective, one per row of a stacked call, ``n_batches`` those
    stacked calls, and ``n_unconverged`` the ascents that stopped at
    ``rotation.MAX_ITERS``.
    """

    q1: np.ndarray
    q2: np.ndarray
    lam: float
    converged: bool
    n_ascents: int
    n_evals: int
    n_unconverged: int
    n_batches: int


def _corner(h1, h2, w1: float, w2: float, f: np.ndarray) -> tuple:
    """``(w1 C1 + w2 C2, its gradient in F)`` at S = F F^T, in bits, for
    one factor F or for each of a (k, nt, nt) stack, which gives a (k,)
    array of values and a stack of gradients.

    C1 = 0.5 sum log2 lam_i over the eigenvalues lam_i > 1 of the pencil
    (A, B) = (I + F^T K1 F, I + F^T K2 F), and C2 likewise over those of
    (B, A).  With V^T B V = I, d lam_i = 2 v_i^T F^T (K1 - lam_i K2) dF v_i,
    so user 1's term has the gradient
    (w1 / ln 2) sum_i (K1 / lam_i - K2) F v_i v_i^T, and user 2's the same
    with the users exchanged.  A mode with lam_i <= 1, where log2+ is 0 or
    has its kink, is masked out: its log is taken at 1 and its columns of
    V weigh 0, so every factor keeps all nt modes.  The weights are the
    same for the whole stack, and a zero weight skips its pencil; the
    pencils of two weighted users are solved in one call.  Each
    factor's values round as its own call's do for nt up to 7, where
    numpy sums a row's logs in order.
    """
    eye = identity(f.shape[-1])
    y1, y2 = h1 @ f, h2 @ f
    a, b = eye + y1.mT @ y1, eye + y2.mT @ y2
    value, grad = np.zeros(f.shape[:-2]), np.zeros_like(f)
    users = [u for u in ((w1, h1, y1, h2, y2, a, b), (w2, h2, y2, h1, y1, b, a)) if u[0] != 0.0]
    if not users:
        return value, grad
    # The weighted users' pencils, (A, B) and (B, A), solved in one call.
    lams, vs = pencil(np.array([u[5] for u in users]), np.array([u[6] for u in users]))
    for (w, h, y, hk, yk, _, _), lam, v in zip(users, lams, vs):
        up = lam > 1.0
        kept = np.where(up, lam, 1.0)
        value += w * np.log(kept).sum(-1)
        inner = (v * np.where(up, w / kept, 0.0)[..., None, :]) @ v.mT
        outer = (v * (w * up)[..., None, :]) @ v.mT
        grad += h.T @ (y @ inner) - hk.T @ (yk @ outer)
    return value / (2.0 * LN2), grad / LN2


def _eigen_factor(s: np.ndarray) -> np.ndarray:
    """A factor F with F F^T = S, from the eigenvalues of S clipped at 0;
    ``s`` is one matrix or a stack."""
    w, v = eigh_lo(s)
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :]


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
    factors = _eigen_factor(_decode(np.array(starts), nt, p))
    scale = float(_corner(h1, h2, w1, w2, factors)[0].max())
    n_evals = n_batches = 0

    def scaled(f):
        nonlocal n_evals, n_batches
        n_evals += len(f)
        n_batches += 1
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
    counts = len(starts), n_evals, n_unconverged, n_batches
    return CornerSearch(*_lift(h1, h2, s, p), lam, converged, *counts)
