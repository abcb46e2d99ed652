"""Workload definitions: channel instances and the region jobs run on them.

Every workload is a fixed list of CLI jobs.  Three instances are the
published pairs the test suite uses (ch22, ch22b, ch_row3).  The others
are seeded: a random base pair, drawn once from a fixed base seed, is put
through orthogonal changes of basis drawn from the workload seed, one at
each receiver (U1 H1, U2 H2).  Rates, and the Gram matrices the
transmitter-side searches see, are invariant under these, so the seed
changes every number in the channel files but not the region or the
solver's work.  A seeded transmit-side rotation (U1 H1 V, U2 H2 V) also
leaves the region alone, but it moved rnd23's solve time by 1.8x between
seeds: the Givens-angle search does not cost the same in every basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIXED_INSTANCES = {
    "ch22": (
        [[0.3, 2.5], [2.2, 1.8]],
        [[1.3, 1.2], [1.5, 3.9]],
    ),
    "ch22b": (
        [[0.3861, 0.6355], [0.9995, 0.6259]],
        [[0.4977, 0.9658], [0.9245, 0.6116]],
    ),
    "ch_row3": (
        [[0.1560, -0.6372, -0.4055], [-1.1450, -0.1417, 0.0708]],
        [[-1.5032, 0.5503, -0.0334]],
    ),
}

# name -> (n1, n2, nt, singular values of h1, singular values of h2).
# rnd42 has four receive rows per user, the smallest shape whose links take
# the general log-determinant branches of the rate evaluator.
SEEDED_INSTANCES = {
    "rnd42": (4, 4, 2, (2.0, 0.8), (1.6, 1.0)),
    "rnd23": (2, 2, 3, (1.5, 0.7), (1.3, 0.9)),
}
# Base seed of the seeded pairs.  With it, both rnd42 users have a positive
# secrecy rate and rnd23 has equalized (case-3) multicast cells.
BASE_SEED = 1


@dataclass(frozen=True)
class Job:
    """One `secregion` CLI invocation."""

    instance: str
    scenario: str
    common: bool
    method: str
    power: float
    eps1: float = 0.05
    sigma: float = 0.05
    samples: int = 100000

    @property
    def name(self) -> str:
        return (
            f"{self.method}-{self.instance}-{self.scenario}"
            f"-{'on' if self.common else 'off'}-p{self.power:g}"
        )


def _ps(instance, scenario, power, eps1, common=False):
    return Job(instance, scenario, common, "ps", power, eps1=eps1)


WORKLOADS = {
    # Wiretap searches do the work; no multicast stage runs (common off).
    # ch_row3 C (6.6 s at eps1 0.5) is left out to keep rounds short; its
    # full-power wiretap solves run in no-common's tdma and oma jobs.
    "ps-wiretap": (
        _ps("ch22", "C", 12.0, 0.5),
        _ps("ch22", "B", 12.0, 0.5),
        _ps("ch_row3", "B", 4.0, 0.5),
        _ps("rnd42", "C", 4.0, 0.5),
        _ps("rnd42", "B", 4.0, 0.5),
    ),
    # The max-min multicast search does the work; no wiretap stage runs.
    # ch22b is swept over the powers where it has equalized (case-3) cells,
    # as short jobs rather than one fine grid, so that each job is timed
    # several times in a run.
    "ps-multicast": (
        *(_ps("ch22b", "A", p, 0.5, common=True) for p in (6.0, 8.0, 10.0, 12.0)),
        _ps("rnd23", "A", 10.0, 0.5, common=True),
    ),
    # No power splitting: WSR frontiers and the baselines; the BSMM loop
    # does most of the work.  wsr on ch22 C is left out (about 14 s per job
    # even at sigma 1), and tdma on ch_row3 C, whose two wiretap solves are
    # oma's on ch_row3 C.
    "no-common": (
        Job("ch22", "A", False, "wsr", 12.0, sigma=0.5),
        Job("ch_row3", "A", False, "wsr", 4.0, sigma=0.5),
        Job("ch_row3", "C", False, "wsr", 4.0, sigma=0.5),
        Job("ch22", "A", False, "tdma", 12.0),
        Job("ch22", "C", False, "tdma", 12.0),
        Job("ch_row3", "A", False, "tdma", 4.0),
        Job("ch22", "A", False, "oma", 12.0),
        Job("ch22", "C", False, "oma", 12.0),
        Job("ch_row3", "A", False, "oma", 4.0),
        Job("ch_row3", "C", False, "oma", 4.0),
    ),
    # Random-search oracle clouds, also common off: the rate evaluator does
    # the work.  They have a workload of their own because, beside the wsr
    # jobs, 250-sample clouds gave `evaluate_triple` 0.10 of a round, and
    # 1000-sample ones would leave no-common two rounds a run.
    "oracle": tuple(
        Job(instance, scenario, False, "oracle", power, samples=1000)
        for instance, power in (("ch22", 12.0), ("ch_row3", 4.0))
        for scenario in ("A", "C")
    ),
}


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _with_singular_values(rng, rows: int, cols: int, svals) -> np.ndarray:
    u = _orthogonal(rng, rows)[:, : len(svals)]
    v = _orthogonal(rng, cols)[:, : len(svals)]
    return (u * np.asarray(svals, dtype=float)) @ v.T


def instances(seed: int) -> dict:
    """name -> (h1, h2) float arrays; the seeded pairs depend on ``seed`` only."""
    out = {k: (np.array(a, float), np.array(b, float)) for k, (a, b) in FIXED_INSTANCES.items()}
    for i, (name, (n1, n2, nt, s1, s2)) in enumerate(sorted(SEEDED_INSTANCES.items())):
        base = np.random.default_rng(BASE_SEED)
        h1 = _with_singular_values(base, n1, nt, s1)
        h2 = _with_singular_values(base, n2, nt, s2)
        rng = np.random.default_rng([seed, i])
        out[name] = (_orthogonal(rng, n1) @ h1, _orthogonal(rng, n2) @ h2)
    return out


def write_channel_file(h1: np.ndarray, h2: np.ndarray, path) -> None:
    """The CLI's plain-text channel format, 17 significant digits per entry."""
    lines = [f"{h1.shape[0]} {h2.shape[0]} {h1.shape[1]}"]
    for mat in (h1, h2):
        lines.extend(" ".join(format(x, ".17g") for x in row) for row in mat)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
