"""Rate expressions for the two-user downlink with layered messages.

Every achievable-rate formula used anywhere in the package is evaluated
here, always against the original (untransformed) channels.  The
scenario rules for the three messages live only in ``rate_rule``, which
turns per-user link values 0.5 * log2|I + Hu Q Hu^T| into rate triples.
``rate_stack`` is the batched log-determinants of a covariance stack plus
that rule; ``evaluate_stack`` and ``evaluate_triple`` clamp its values for
reporting, and the WSR search feeds the rule the link values and
gradients of ``link_rate_grad``, which the rule, being linear in the link
values, turns into rates and their gradients alike.  ``gauss_rate`` and
``layered_rate`` are the single-link primitives of the subproblem
solvers, and ``link_rate_grad`` gives a link rate with its gradient for
the searches, and ``pair_rate_grad`` those of two links at once, on
stacks of matrices.
Log determinants go through a Cholesky factorization of I + PSD, which
is positive definite by construction.  ``_factor`` is the package's one
Cholesky routine, for one matrix or a stack: the rate functions here and
``resolvent`` take their factors from it, and it raises when round-off
defeats the factorization of any matrix.
Only ``link_logdet``, behind the reported rates, falls back to an
eigenvalue sum instead, for each matrix of a stack whose factor failed,
so that a rate never depends on the other rows of its stack.
Inverse-times-matrix expressions in rates are rewritten as differences
of log determinants; the only inverse formed is that of the Cholesky
factor L in ``resolvent``, which gives the log-determinant, the whitened
channel L^{-1} H and the Gram matrix H^T (I + H Q H^T)^{-1} H of one
link from that one factor.  ``resolvent`` runs in the inner loops of the
searches on matrices of a few rows, so the factor and
L^{-1} come from the LAPACK gufuncs behind ``np.linalg.cholesky`` and
``np.linalg.inv`` (``cholesky_lo`` and ``inv`` of
``numpy.linalg._umath_linalg``), called directly, without numpy's
per-call wrapper.  ``pencil``, the generalized eigenproblem of the
wiretap beams and the secret-DPC corner, reduces its pair by the same
factor; ``wiretap_pencil`` forms the wiretap beams' pair.  The package
thus takes all its dense linear algebra from numpy and imports no scipy.
"""

from __future__ import annotations

import contextvars
import math
import threading
from functools import lru_cache

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, eigh_lo, inv

from .types import (
    ORDER_12,
    ORDER_21,
    ChannelPair,
    CovarianceTriple,
    DimensionError,
    RateTriple,
    Scenario,
    as_matrix,
)

LN2 = math.log(2.0)


@lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """The n x n identity, built once per size and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


class _QuietContext(threading.local):
    """Per thread, a context whose numpy error state ignores invalid values.

    numpy's gufuncs flag a failed factorization as an invalid value, which
    numpy reports as a ``RuntimeWarning``, but the callers raise
    ``np.linalg.LinAlgError`` instead.  ``Context.run`` in a context made
    once costs far less than entering ``np.errstate`` on every call; each
    thread has its own, as two threads cannot enter one context at once.
    """

    def __init__(self):
        with np.errstate(invalid="ignore"):
            self.context = contextvars.copy_context()


_QUIET = _QuietContext()


def _cholesky(m: np.ndarray) -> tuple:
    """``(M, ln|L|, L)`` for M = L L^T, the symmetrized ``m``, with
    ln|L| = ln|M| / 2 NaN for every matrix whose factorization failed.

    numpy's ``cholesky_lo`` gufunc, without numpy's per-call wrapper, in
    the ``_QUIET`` context; ``m`` is one (n, n) matrix or a (k, n, n)
    stack.  The gufunc returns NaN throughout a matrix that is not
    positive definite.
    """
    m = 0.5 * (m + m.mT)
    chol = _QUIET.context.run(cholesky_lo, m)
    return m, np.log(chol.diagonal(0, -2, -1)).sum(-1), chol


def _failed(half) -> bool:
    """Whether any ln|L| of ``_cholesky`` is NaN.

    No ln|L| is -inf, as a factor's diagonal is positive, so the sum of a
    stack's is NaN exactly when one of them is.  One matrix's float is
    tested as ``x != x``, which costs far less than a numpy reduction on
    a small link.
    """
    return math.isnan(half.sum()) if half.ndim else half != half


def _factor(m: np.ndarray) -> tuple:
    """``(ln|L|, L)`` for M = L L^T, the symmetrized ``m``; ln|M| is twice
    ln|L|, doubled exactly.

    The package's one Cholesky factorization (see ``_cholesky``), of one
    (n, n) matrix or of each matrix of a (k, n, n) stack.  If any of them
    is not positive definite, ``np.linalg.LinAlgError`` is raised, with no
    warning.
    """
    _, half, chol = _cholesky(m)
    if _failed(half):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return half, chol


def pencil(a: np.ndarray, b: np.ndarray) -> tuple:
    """``(lam, V)``: the eigenvalues of the pencil (A, B), ascending, and
    eigenvectors with V^T B V = I, for B positive definite.

    ``a`` and ``b`` are (n, n) or (k, n, n) stacks, solved matrix by
    matrix.  With B = L L^T from ``_factor``, numpy's ``eigh_lo`` gives
    L^{-1} A L^{-T} = W diag(lam) W^T, and V = L^{-T} W.
    """
    li = inv(_factor(b)[1])
    lam, w = eigh_lo(li @ a @ li.mT)
    return lam, li.mT @ w


def wiretap_pencil(hm: np.ndarray, he: np.ndarray, p: float) -> tuple:
    """``pencil`` of (I + p Hm^T Hm, I + p He^T He): ``(lam, V)``, lam
    ascending and V^T (I + p He^T He) V = I."""
    eye = identity(hm.shape[1])
    return pencil(eye + p * hm.T @ hm, eye + p * he.T @ he)


def link_logdet(h: np.ndarray, q: np.ndarray):
    """ln|I + H Q H^T|, from the Cholesky factor alone.

    For one (nt, nt) Q this is the first entry of ``resolvent`` bit for
    bit, and a Q whose factorization fails raises.  A (k, nt, nt) stack of
    Q gives a (k,) array, each entry its own stack of one's: where
    round-off defeats the factorization of a matrix, that matrix's
    log-determinant is an eigenvalue sum instead, each eigenvalue floored
    at the least positive double, and the other entries keep their
    factors' values.
    """
    m, half, _ = _cholesky(identity(len(h)) + h @ q @ h.T)
    logdet = 2.0 * half
    if _failed(half):
        if m.ndim == 2:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        bad = np.isnan(half)
        w = np.maximum(np.linalg.eigvalsh(m[bad]), np.finfo(float).tiny)
        logdet[bad] = np.log(w).sum(-1)
    return logdet


def resolvent(h: np.ndarray, q: np.ndarray) -> tuple:
    """``(ln|M|, Y, Y^T Y)`` for M = I + H Q H^T, from one Cholesky factor L.

    Y = L^{-1} H is the whitened channel, and Y^T Y = H^T M^{-1} H the Gram
    matrix, symmetric by construction.  ``h`` is 2-D and ``q`` one (nt, nt)
    matrix or a (k, nt, nt) stack, which gives stacks of each output, every
    matrix equal bit for bit to its own call; stacks of ``h`` broadcast
    against ``q`` alike.  Every M must be positive definite, as it is for
    every PSD Q; otherwise ``np.linalg.LinAlgError`` is raised, with no
    warning, whichever matrix of a stack failed.  The factor and L^{-1}
    come from numpy's ``cholesky_lo`` and ``inv`` gufuncs, the ones
    ``np.linalg.cholesky`` and ``np.linalg.inv`` call, so the results equal
    that numpy expression bit for bit.  (``dtrtrs`` would be cheaper but
    rounds differently.)
    """
    half, y, gram = _whitened(h, q)
    return 2.0 * half, y, gram


def _whitened(h: np.ndarray, q: np.ndarray) -> tuple:
    """``resolvent`` with ln|L| = ln|M| / 2 in place of ln|M|."""
    half, chol = _factor(identity(h.shape[-2]) + h @ q @ h.mT)
    y = inv(chol) @ h
    return half, y, y.mT @ y


def _check_link(h, q, name: str) -> tuple:
    h = as_matrix(h, f"{name} channel")
    q = as_matrix(q, f"{name} covariance")
    if q.shape[0] != q.shape[1] or q.shape[0] != h.shape[1]:
        raise DimensionError(
            f"{name}: channel {h.shape} and covariance {q.shape} are incompatible"
        )
    return h, q


def gauss_rate(h, q) -> float:
    """Interference-free link rate 0.5 * log2|I + H Q H^T| in bits."""
    h, q = _check_link(h, q, "link")
    # A stack of one, so that a failed factor falls back to eigenvalues.
    return float(0.5 * link_logdet(h, q[None])[0] / LN2)


def link_rate_grad(h: np.ndarray, q: np.ndarray) -> tuple:
    """``(rate, gradient)`` of 0.5 * log2|I + H Q H^T| for a search's inner loop.

    The gradient in Q is H^T (I + H Q H^T)^{-1} H / (2 ln 2).  ``q`` is one
    matrix or a (k, nt, nt) stack, as for ``resolvent``, and ``h`` may be
    a stack of channels that broadcasts against it.  Nothing is
    validated, so reported results must still go through ``gauss_rate``,
    whose value this equals bit for bit.
    """
    # ln|L| is 0.5 * ln|M| bit for bit, as doubling and halving are exact.
    half, _, gram = _whitened(h, q)
    return half / LN2, gram / (2.0 * LN2)


def pair_rate_grad(h1: np.ndarray, h2: np.ndarray):
    """The map from ``q`` to ``(rates, gradients)`` of ``link_rate_grad``
    for two links at ``q``, one matrix or a (k, nt, nt) stack: arrays of
    shapes (2,) + s and (2,) + s + (nt, nt) for ``q`` of shape s + (nt, nt).

    Channels of one shape are stacked once, here, and go through
    ``resolvent``'s gufuncs together, in one call each in place of two;
    the gufuncs work matrix by matrix, so every result is bit for bit its
    own call's.

    ``h1`` and ``h2`` may instead be (m, n, nt) stacks of the links of m
    problems.  The map then takes a (k, nt, nt) stack ``q`` and the
    row-to-problem map ``owner``, and row i of ``q`` meets the links
    ``h1[owner[i]]`` and ``h2[owner[i]]``, again bit for bit as alone; a
    stack of one problem's links broadcasts, with no copy.
    """
    if h1.shape != h2.shape:

        def rate_grads(q, *owner):
            l1, l2 = (h[owner[0]] if owner and len(h) > 1 else h for h in (h1, h2))
            (r1, g1), (r2, g2) = link_rate_grad(l1, q), link_rate_grad(l2, q)
            return np.array((r1, r2)), np.array((g1, g2))

        return rate_grads
    pair = np.array((h1, h2))
    stacked = pair[:, None]

    def rate_grads(q, *owner):
        if owner:
            links = pair[:, owner[0]] if len(h1) > 1 else pair
        else:
            links = stacked if q.ndim > 2 else pair
        return link_rate_grad(links, q)

    return rate_grads


def layered_rate(h, q_signal, q_interference) -> float:
    """Rate of a signal decoded while another layer acts as noise.

    Computed as the log-determinant difference
    0.5 * (log2|I + H (Qi + Qs) H^T| - log2|I + H Qi H^T|), which equals
    the resolvent form with (I + H Qi H^T) inverted but is better
    conditioned.
    """
    h, qs = _check_link(h, q_signal, "signal")
    _, qi = _check_link(h, q_interference, "interference")
    return gauss_rate(h, qs + qi) - gauss_rate(h, qi)


def rate_stack(
    ch: ChannelPair,
    scenario: Scenario,
    q0: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    orders: tuple = (ORDER_12,),
) -> np.ndarray:
    """Unclamped rate triples of k covariance triples, for each encoding order.

    ``q0``, ``q1`` and ``q2`` are (k, nt, nt) stacks of PSD covariances;
    nothing else about them is checked here.  Returns an array of shape
    (len(orders), k, 3) holding (r0, r1, r2) per order and triple.
    Secrecy rates may be negative; solvers ascend these values, and
    ``evaluate_stack`` clamps them for reporting.

    The eight link values 0.5 * log2|I + Hu Q Hu^T|, for each user u and
    Q in {q0 + (q1 + q2), q1 + q2, q1, q2}, come from one batched Cholesky
    factorization per user; ``rate_rule`` turns them into rates.
    """
    if q0.shape[1:] != (ch.nt, ch.nt) or not q0.shape == q1.shape == q2.shape:
        raise DimensionError(
            f"covariance stacks of shapes {q0.shape}, {q1.shape}, {q2.shape} "
            f"do not match nt = {ch.nt}"
        )
    k = q0.shape[0]

    q12 = q1 + q2
    stack = np.concatenate([q0 + q12, q12, q1, q2])
    logdet = tuple(
        (0.5 * link_logdet(h, stack) / LN2).reshape(4, k) for h in (ch.h1, ch.h2)
    )
    return rate_rule(scenario, logdet, orders)


def rate_rule(scenario: Scenario, logdet, orders: tuple = (ORDER_12,)):
    """The scenario rules: unclamped rate triples from per-user link values.

    The one place where the scenario rules are written out: which message
    is confidential, and which layer interferes with which.
    ``logdet[u][j]`` is 0.5 * log2|I + Hu Q Hu^T| for user u (0 or 1) and
    the j-th of q0 + (q1 + q2), q1 + q2, q1, q2; each entry is a float or
    an array, all of one shape s.  Returns an array of shape
    (len(orders),) + s + (3,) holding (r0, r1, r2), s = () for float
    entries.  Entries that no requested order reads may be None:
    order "12" never reads the q2 entries, nor "21" the q1 entries.  Both
    users' q0 + (q1 + q2) entries may be None when q0 = 0; r0 is then 0.

    Order "21" exchanges the roles of the two users in the formulas (h1
    with h2 and q1 with q2) and is rejected for scenario B, whose single
    order is already optimal.  Both orders draw on the same link values;
    for instance user 2's view of the first-encoded covariance enters both
    the first user's secrecy term and the second user's interference term.
    """
    if not orders:
        raise ValueError("at least one encoding order is required")
    for order in orders:
        if order not in (ORDER_12, ORDER_21):
            raise ValueError(f"order must be '12' or '21', got {order!r}")
        if order == ORDER_21 and not scenario.allows_order_swap:
            raise ValueError("scenario B supports only the '12' encoding order")
    # The shared message sees q1 + q2 as interference on both links, so its
    # rate does not depend on the order.
    if logdet[0][0] is None:
        r0 = 0.0
    else:
        r0 = np.minimum(*(ld[0] - ld[1] for ld in logdet))

    rows = []
    for order in orders:
        # first, second: the users (0 or 1) encoded first and second; own:
        # where the first-encoded user's covariance sits in the list above.
        # The scenario's user-1 and user-2 rules apply to the first- and
        # second-encoded message, as "21" is only allowed where they agree.
        first, second = (0, 1) if order == ORDER_12 else (1, 0)
        own = 2 + first
        lf, ls = logdet[first], logdet[second]
        r_first = lf[own]
        if scenario.user1_confidential:
            r_first = r_first - ls[own]
        r_second = ls[1] - ls[own]
        if scenario.user2_confidential:
            r_second = r_second - (lf[1] - lf[own])
        rows.append((r0, r_first, r_second) if first == 0 else (r0, r_second, r_first))
    out = np.empty((len(orders),) + np.shape(r_first) + (3,))
    for n, row in enumerate(rows):
        for m, r in enumerate(row):
            out[n, ..., m] = r
    if not np.all(np.isfinite(out)):
        raise ValueError("rate evaluation produced non-finite values")
    return out


def evaluate_stack(
    ch: ChannelPair,
    scenario: Scenario,
    q0: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    orders: tuple = (ORDER_12,),
) -> np.ndarray:
    """Reported rate triples: ``rate_stack`` with negative rates clamped to zero.

    The stacks must already have passed validation (``CovarianceTriple``
    or ``check_covariance_stacks``).
    """
    out = rate_stack(ch, scenario, q0, q1, q2, orders)
    # Clamp as Python's max(r, 0.0) does, so that -0.0 passes unchanged.
    return np.where(out < 0.0, 0.0, out)


def evaluate_triple(
    ch: ChannelPair,
    scenario: Scenario,
    cov: CovarianceTriple,
    order: str = ORDER_12,
) -> RateTriple:
    """Evaluate the scenario's three rate formulas for a covariance triple.

    The single-triple case of ``evaluate_stack``: ``order`` selects which
    user is encoded first, and negative secrecy rates are clamped to zero
    in the reported triple.
    """
    r0, r1, r2 = evaluate_stack(
        ch, scenario, cov.q0[None], cov.q1[None], cov.q2[None], (order,)
    )[0, 0]
    return RateTriple(float(r0), float(r1), float(r2), order)
