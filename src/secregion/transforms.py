"""Interference-whitening channel transforms.

Each transform factors an interference-plus-noise matrix M = I + H X H^T
as L L^T (Cholesky) and absorbs L^{-1} into the channel, so the downstream
subproblem takes a standard interference-free shape (point-to-point,
wiretap, or multicast).  The defining contract, tested to 1e-12: rates
computed on the transformed channels equal the corresponding
layered-rate expressions on the original channels for every PSD input,
since (L^{-1} H)^T (L^{-1} H) = H^T M^{-1} H.  The factor is the one
``rates.resolvent`` takes for the link rates, so whitening and rate
evaluation round the same way.
"""

from __future__ import annotations

import numpy as np

from .rates import resolvent
from .types import ChannelPair, as_matrix


def _whiten_single(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Y = L^{-1} H for the Cholesky factor L of I + H X H^T."""
    return resolvent(h, x)[1]


def whiten_p2p(h2, q1) -> np.ndarray:
    """Channel for user 2's point-to-point subproblem given interference q1.

    For every PSD q2, the interference-free rate on the returned channel
    equals the layered rate of q2 over q1 on the original channel.
    """
    h2 = as_matrix(h2, "h2")
    q1 = as_matrix(q1, "q1")
    return _whiten_single(h2, q1)


def whiten_wiretap(ch: ChannelPair, q1) -> tuple:
    """Both users' channels whitened by the first layer's interference.

    Returns (h1w, h2w).  For every PSD q2, the secrecy rate of q2 on the
    pair (legitimate h2w, eavesdropper h1w) equals user 2's confidential
    rate on the original channels with interference q1.
    """
    q1 = as_matrix(q1, "q1")
    return _whiten_single(ch.h1, q1), _whiten_single(ch.h2, q1)


def whiten_multicast(ch: ChannelPair, q1, q2) -> tuple:
    """Both users' channels whitened by the combined individual-message layers.

    Returns (g1, g2).  For every PSD q0 and both users, the interference-free
    rate on the whitened channel equals the shared-message component rate on
    the original channels with interference q1 + q2.
    """
    q1 = as_matrix(q1, "q1")
    q2 = as_matrix(q2, "q2")
    qsum = q1 + q2
    return _whiten_single(ch.h1, qsum), _whiten_single(ch.h2, qsum)
