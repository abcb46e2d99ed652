"""Shared value types, validation, and tolerances for the rate-region solvers.

Conventions used throughout the package:

* Channels are real-valued and transposes are plain transposes.
* Rates are in bits per (real) channel use, i.e. half log2-determinants.
* Covariance matrices carry power; the transmit budget is a trace bound.
* Negative computed rates (possible for confidential messages) are clamped
  to zero only at reporting boundaries, never inside solvers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Double-precision eigensolvers drift at roughly 1e-13 per operation;
# the validation margins sit an order of magnitude above observed drift.
# The symmetry and PSD margins are per unit of power: a check under a
# budget p_total > 1 scales them by p_total, since the round-off of
# ``eigvalsh`` grows with the matrix norm (about eps * ||Q||).
SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_REL_SLACK = 1e-8
SIMPLEX_TOL = 1e-12
RATE_FLOOR = -1e-9

ORDER_12 = "12"
ORDER_21 = "21"
ORDER_NA = "na"
ENCODING_ORDERS = (ORDER_12, ORDER_21, ORDER_NA)

SCENARIO_TAGS = ("A", "B", "C")


class DimensionError(ValueError):
    """Matrix arguments with incompatible or non-matrix shapes."""


class ConsistencyError(RuntimeError):
    """An internal cross-check between two computation paths disagreed."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising ``DimensionError`` otherwise."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    # The method form skips numpy's function dispatch, which costs more than
    # the test itself on the small matrices of the WSR inner loop.
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_channel_pair(h1, h2, name1: str, name2: str) -> tuple:
    """Two channels as matrices (see ``as_matrix``) sharing the column count."""
    h1, h2 = as_matrix(h1, name1), as_matrix(h2, name2)
    if h1.shape[1] != h2.shape[1]:
        raise DimensionError(
            f"{name1} and {name2} must share the column count, "
            f"got {h1.shape} and {h2.shape}"
        )
    return h1, h2


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def check_budget(p: float) -> None:
    """Reject a power budget that is negative, NaN or infinite."""
    if not (math.isfinite(p) and p >= 0):
        raise ValueError(f"power budget must be nonnegative and finite, got {p}")


def check_covariance_stacks(stacks: Sequence[np.ndarray], p_total: float) -> None:
    """Validate k covariance triples given as q0, q1, q2 stacks of shape (k, nt, nt).

    Triple i passes when each of its matrices is symmetric within
    ``SYMMETRY_TOL`` with least eigenvalue at least ``-PSD_TOL``, both
    scaled by max(1, ``p_total``), and its trace sum fits ``p_total`` up
    to ``TRACE_REL_SLACK``.  The first failing
    triple raises the ``ValueError`` that ``CovarianceTriple`` gives it; a
    NaN or infinite ``p_total`` is rejected before any triple is checked.
    The stacks must already be finite float arrays of one shape.
    """
    p = float(p_total)
    if not np.isfinite(p):
        raise ValueError(f"p_total must be finite, got {p}")
    scale = max(1.0, p)
    sym_tol, psd_tol = SYMMETRY_TOL * scale, PSD_TOL * scale
    qs = np.stack(stacks)
    qt = qs.swapaxes(-1, -2)
    asym = np.max(np.abs(qs - qt), axis=(-2, -1)) > sym_tol
    indefinite = np.linalg.eigvalsh(0.5 * (qs + qt))[..., 0] < -psd_tol
    traces = np.trace(qs, axis1=-2, axis2=-1)
    total = traces[0] + traces[1] + traces[2]
    over = (p < 0) | (total > p * (1.0 + TRACE_REL_SLACK) + 1e-12)
    bad = asym.any(axis=0) | indefinite.any(axis=0) | over
    if not bad.any():
        return
    i = int(np.argmax(bad))
    for j, name in enumerate(("q0", "q1", "q2")):
        if asym[j, i]:
            raise ValueError(f"{name} is not symmetric within {sym_tol}")
        if indefinite[j, i]:
            raise ValueError(f"{name} fails the PSD check at tolerance {psd_tol}")
    if p < 0:
        raise ValueError("p_total must be nonnegative")
    raise ValueError(f"trace sum {float(total[i])} exceeds budget {p}")


@dataclass(frozen=True)
class ChannelPair:
    """The two real downlink channel matrices defining a problem instance.

    ``h1`` is n1 x nt and ``h2`` is n2 x nt; both share the transmit
    antenna count nt.  Instances are immutable and safe to share across
    parallel workers.
    """

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self):
        h1, h2 = as_channel_pair(self.h1, self.h2, "h1", "h2")
        if min(h1.shape) < 1 or min(h2.shape) < 1:
            raise DimensionError("channel matrices need at least one row and column")
        object.__setattr__(self, "h1", _frozen_copy(h1))
        object.__setattr__(self, "h2", _frozen_copy(h2))

    @property
    def nt(self) -> int:
        return self.h1.shape[1]

    @property
    def n1(self) -> int:
        return self.h1.shape[0]

    @property
    def n2(self) -> int:
        return self.h2.shape[0]

    def swapped(self) -> "ChannelPair":
        """The same instance with the user roles exchanged."""
        return ChannelPair(self.h2, self.h1)


@dataclass(frozen=True)
class Scenario:
    """Security configuration: which user messages are confidential.

    Tag A carries two private messages, B protects user 1 only, C protects
    both users.  ``common_enabled`` switches the shared multicast message
    on or off.
    """

    tag: str
    common_enabled: bool = True

    def __post_init__(self):
        tag = str(self.tag).upper()
        if tag not in SCENARIO_TAGS:
            raise ValueError(f"scenario tag must be one of {SCENARIO_TAGS}, got {self.tag!r}")
        object.__setattr__(self, "tag", tag)

    @property
    def user1_confidential(self) -> bool:
        return self.tag in ("B", "C")

    @property
    def user2_confidential(self) -> bool:
        return self.tag == "C"

    @property
    def allows_order_swap(self) -> bool:
        # For B the single encoding order is already optimal; swapping is an error.
        return self.tag != "B"

    @property
    def orders(self) -> tuple:
        """The encoding orders a region of this scenario is built from."""
        return (ORDER_12, ORDER_21) if self.allows_order_swap else (ORDER_12,)


@dataclass(frozen=True)
class CovarianceTriple:
    """Transmit covariances (q0, q1, q2) under a total trace budget ``p_total``."""

    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    p_total: float

    def __post_init__(self):
        mats = []
        for name in ("q0", "q1", "q2"):
            arr = as_matrix(getattr(self, name), name)
            if arr.shape[0] != arr.shape[1]:
                raise DimensionError(f"{name} must be square, got {arr.shape}")
            mats.append(arr)
        if len({m.shape for m in mats}) != 1:
            raise DimensionError("q0, q1, q2 must share a common shape")
        p = float(self.p_total)
        check_covariance_stacks([m[None] for m in mats], p)
        object.__setattr__(self, "q0", _frozen_copy(mats[0]))
        object.__setattr__(self, "q1", _frozen_copy(mats[1]))
        object.__setattr__(self, "q2", _frozen_copy(mats[2]))
        object.__setattr__(self, "p_total", p)

    @property
    def nt(self) -> int:
        return self.q0.shape[0]

    def trace_total(self) -> float:
        return float(np.trace(self.q0) + np.trace(self.q1) + np.trace(self.q2))


@dataclass(frozen=True)
class PowerSplit:
    """Fractions (alpha0, alpha1, alpha2) partitioning the power budget."""

    alpha0: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        vals = (float(self.alpha0), float(self.alpha1), float(self.alpha2))
        for name, v in zip(("alpha0", "alpha1", "alpha2"), vals):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if abs(sum(vals) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"fractions must sum to 1 within {SIMPLEX_TOL}, got {sum(vals)}")
        object.__setattr__(self, "alpha0", vals[0])
        object.__setattr__(self, "alpha1", vals[1])
        object.__setattr__(self, "alpha2", vals[2])

    def as_tuple(self):
        return (self.alpha0, self.alpha1, self.alpha2)


@dataclass(frozen=True)
class RateTriple:
    """A point (r0, r1, r2) in bits per channel use with encoding-order provenance.

    Values in [-1e-9, 0) are clamped to zero on construction; anything more
    negative is rejected, since reported points must be achievable.
    """

    r0: float
    r1: float
    r2: float
    order: str = ORDER_NA

    def __post_init__(self):
        if self.order not in ENCODING_ORDERS:
            raise ValueError(f"order must be one of {ENCODING_ORDERS}, got {self.order!r}")
        for name in ("r0", "r1", "r2"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} is not finite")
            if v < RATE_FLOOR:
                raise ValueError(f"{name} = {v} is below the clamp floor {RATE_FLOOR}")
            object.__setattr__(self, name, max(v, 0.0))

    def as_array(self) -> np.ndarray:
        return np.array([self.r0, self.r1, self.r2], dtype=float)


def pareto_mask(rows) -> np.ndarray:
    """Mask of the rows of an (n, 3) array that no row strictly dominates.

    Equal rows share one verdict.  The rows are sorted in descending
    lexicographic order, which puts every strict dominator of a row before
    it; the first row of each run of equal rows is then checked against a
    staircase of the (r1, r2) maxima seen so far (Kung, Luccio and
    Preparata, J. ACM 1975), in O(n log n) comparisons.
    """
    rows = np.asarray(rows, dtype=float)
    order = np.lexsort(rows.T[::-1])[::-1]
    ranked = rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    # The staircase: r1 ascending and -r2 ascending, both strictly.  The
    # memoryviews hand out one Python float at a time, so the sweep builds
    # no list of all the rows.
    s1, s2 = [], []
    keep = []
    for r1, t2 in zip(memoryview(ranked[head, 1]), memoryview(-ranked[head, 2])):
        k = bisect.bisect_left(s1, r1)
        keep.append(k == len(s1) or s2[k] > t2)
        if keep[-1]:
            lo, hi = bisect.bisect_left(s2, t2), bisect.bisect_right(s1, r1)
            s1[lo:hi], s2[lo:hi] = [r1], [t2]
    mask = np.empty(len(rows), dtype=bool)
    mask[order] = np.array(keep, dtype=bool)[np.cumsum(head) - 1]
    return mask


@dataclass(frozen=True)
class RateRegion:
    """A Pareto set of rate triples for one scenario and power budget."""

    points: tuple
    scenario: Scenario
    p_total: float

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("a rate region needs at least one point")
        for p in pts:
            if not isinstance(p, RateTriple):
                raise TypeError("region points must be RateTriple instances")
        arr = np.array([p.as_array() for p in pts])
        if not pareto_mask(arr).all():
            raise ValueError("region contains a dominated point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "p_total", float(self.p_total))

    def as_array(self) -> np.ndarray:
        return np.array([p.as_array() for p in self.points])

    def max_rate(self, component: int) -> float:
        return float(self.as_array()[:, component].max())


def pareto_filter(points: Sequence[RateTriple]) -> list:
    """Drop every point strictly dominated by another point in the list.

    Equal points are all kept, and the survivors keep their input order.
    """
    if not points:
        return []
    arr = np.array([p.as_array() for p in points])
    return [p for p, kept in zip(points, pareto_mask(arr)) if kept]
