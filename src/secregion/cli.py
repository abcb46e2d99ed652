"""Batch front end: channel files in, rate-point CSVs and run metadata out.

The consumers are plotting and diffing pipelines, so output is plain CSV
with 17-significant-digit decimals (exact double round-trip) plus a
human-readable key=value sidecar carrying every parameter, tolerance, the
seed, wall time, and solver flags.  The seed reaches only the ``oracle``
draws; every other method gives the same output for every seed.  A
``ps`` or ``wsr`` job's sidecar gives the stacked search-objective calls
of its searches (``search_batches``) and their rows (``search_rows``).
A ``ps`` job's also gives the wiretap solves that ran the corner-search
rescue (``wiretap_rescues``) and the largest final Frank-Wolfe gap of a
wiretap solve (``wiretap_gap_max``), from its sweep's ``SweepCounts``; a
``wsr`` job's gives the most budget any of its solves left unused
(``wsr_unused_power_max``) and the largest Frank-Wolfe gap of a solve
(``wsr_gap_max``).  One process runs one (scenario, method, power) job;
sweeps over power are shell-level loops.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .baselines import oma_timeshare, random_search_region, tdma_region
from .rotation import GTOL, MAX_ITERS
from .splitting import SweepCounts, hull_pareto, sweep_points
from .types import ChannelPair, ConsistencyError, Scenario
from .wiretap import GAP_TOL
from .wsr import wsr_sweep_points

METHODS = ("ps", "wsr", "tdma", "oma", "oracle")

CSV_HEADER = "r0,r1,r2,order,alpha0,alpha1,alpha2"

# Methods defined only without a common message -> their name in messages.
_COMMON_OFF_ONLY = {"wsr": "weighted-sum-rate method", "oma": "time-share baseline"}


class ChannelParseError(ValueError):
    """A channel file violated the expected layout; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class RunConfig:
    channels: str
    scenario: str
    method: str
    power: float
    out: str
    common: bool = True
    eps1: float = 0.05
    sigma: float = 0.05
    samples: int = 100000
    seed: int = 0


# Field name -> default of the optional ``RunConfig`` fields, which the
# command-line flags share.
_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}


def load_channels(path: str) -> ChannelPair:
    """Parse the plain-text channel format.

    Line 1 holds "n1 n2 nt"; the next n1 lines are the rows of the first
    user's channel and the following n2 lines the second user's, each with
    exactly nt whitespace-separated decimals.  Decimal parsing does not
    depend on the locale.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise ChannelParseError(1, "empty file")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 3:
        raise ChannelParseError(head_no, f"expected 'n1 n2 nt', got {head!r}")
    try:
        n1, n2, nt = (int(tok) for tok in parts)
    except ValueError:
        raise ChannelParseError(head_no, f"non-integer dimension in {head!r}") from None
    if min(n1, n2, nt) < 1:
        raise ChannelParseError(head_no, "dimensions must be positive")
    body = lines[1:]
    if len(body) != n1 + n2:
        raise ChannelParseError(
            body[-1][0] if body else head_no,
            f"expected {n1 + n2} matrix rows, found {len(body)}",
        )

    def parse_row(line_no: int, text: str) -> list:
        toks = text.split()
        if len(toks) != nt:
            raise ChannelParseError(
                line_no, f"expected {nt} entries in this row, got {len(toks)}"
            )
        try:
            row = [float(tok) for tok in toks]
        except ValueError:
            raise ChannelParseError(line_no, f"non-numeric token in {text!r}") from None
        if not all(math.isfinite(x) for x in row):
            raise ChannelParseError(line_no, f"non-finite entry in {text!r}")
        return row

    h1 = [parse_row(no, txt) for no, txt in body[:n1]]
    h2 = [parse_row(no, txt) for no, txt in body[n1:]]
    return ChannelPair(np.array(h1), np.array(h2))


def write_channels(ch: ChannelPair, path: str) -> None:
    """Emit the channel file format with 17 significant digits per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ch.n1} {ch.n2} {ch.nt}\n")
        for mat in (ch.h1, ch.h2):
            for row in mat:
                fh.write(" ".join(format(x, ".17g") for x in row) + "\n")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _csv_rows_ps(ch, scenario, cfg):
    counts = SweepCounts()
    pts = sweep_points(ch, scenario, cfg.power, cfg.eps1, counts)
    # hull_pareto returns only objects of its input, so each kept point is
    # the rates of one solved split.
    split_of = {id(sp.rates): sp.split for sp in pts}
    rows = [
        (t, *map(_fmt, split_of[id(t)].as_tuple()))
        for t in hull_pareto([sp.rates for sp in pts])
    ]
    sidecar = {
        "search_batches": str(counts.search_batches),
        "search_rows": str(counts.search_rows),
        "wiretap_rescues": str(counts.wiretap_rescues),
        "wiretap_gap_max": _fmt(counts.wiretap_gap_max),
    }
    return rows, sum(1 for sp in pts if not sp.converged), sidecar


def _method_param_problem(cfg: RunConfig) -> str | None:
    """Why the job cannot run with these parameters, or None.

    The checks run in a fixed order and the first failing one is reported.
    """
    if cfg.method not in METHODS:
        return f"unknown method {cfg.method!r}"
    if cfg.common and cfg.method in _COMMON_OFF_ONLY:
        return (
            f"the {_COMMON_OFF_ONLY[cfg.method]} is defined only without a "
            "common message; rerun with --common off"
        )
    try:
        Scenario(cfg.scenario)
    except ValueError as exc:
        return str(exc)
    if not 0 <= cfg.power < math.inf:
        return "power must be nonnegative and finite"
    if cfg.seed < 0:
        return f"--seed must be nonnegative, got {cfg.seed}"
    if cfg.method == "ps" and not 0.0 < cfg.eps1 <= 0.5:
        return f"--eps1 must lie in (0, 0.5], got {cfg.eps1}"
    if cfg.method == "wsr" and not 0.0 < cfg.sigma <= 1.0:
        return f"--sigma must lie in (0, 1], got {cfg.sigma}"
    if cfg.method == "wsr" and cfg.power <= 0:
        return "the weighted-sum-rate method needs a positive --power"
    if cfg.method == "oracle" and cfg.samples < 1:
        return f"--samples must be positive, got {cfg.samples}"
    return None


def _solve(ch: ChannelPair, scenario: Scenario, cfg: RunConfig) -> tuple:
    """CSV rows, unconverged-solve count and search sidecar lines of one job."""
    n_unconverged = 0
    counts = {}
    if cfg.method == "ps":
        rows, n_unconverged, counts = _csv_rows_ps(ch, scenario, cfg)
    else:
        if cfg.method == "wsr":
            searches = SweepCounts()
            solved = wsr_sweep_points(ch, scenario, cfg.power, cfg.sigma, searches)
            points = hull_pareto([pt for pt, _ in solved])
            n_unconverged = sum(1 for _, sol in solved if not sol.converged)
            counts = {
                "search_batches": str(searches.search_batches),
                "search_rows": str(searches.search_rows),
                "wsr_unused_power_max": _fmt(max(sol.unused for _, sol in solved)),
                "wsr_gap_max": _fmt(max(sol.gap for _, sol in solved)),
            }
        elif cfg.method == "tdma":
            points = tdma_region(ch, scenario, cfg.power).points
        elif cfg.method == "oma":
            points = oma_timeshare(ch, scenario, cfg.power).points
        else:
            points = random_search_region(
                ch, scenario, cfg.power, cfg.samples, seed=cfg.seed
            ).points
        rows = [(t, "", "", "") for t in points]
    return rows, n_unconverged, counts


def run(cfg: RunConfig) -> int:
    """Execute one job; returns the process exit code."""
    problem = _method_param_problem(cfg)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    scenario = Scenario(cfg.scenario, common_enabled=cfg.common)
    try:
        ch = load_channels(cfg.channels)
    except (OSError, ChannelParseError) as exc:
        print(f"error: cannot read channels: {exc}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        rows, n_unconverged, counts = _solve(ch, scenario, cfg)
    except (ConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical consistency check failed: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start

    meta = {
        "channels": cfg.channels,
        "scenario": scenario.tag,
        "common": "on" if cfg.common else "off",
        "method": cfg.method,
        "power": _fmt(cfg.power),
        "eps1": _fmt(cfg.eps1),
        "sigma": _fmt(cfg.sigma),
        "samples": str(cfg.samples),
        "seed": str(cfg.seed),
        "solver_max_iters": str(MAX_ITERS),
        "solver_gtol": _fmt(GTOL),
        "solver_gap_tol": _fmt(GAP_TOL),
        "n_points": str(len(rows)),
        "n_unconverged_cells": str(n_unconverged),
        **counts,
        "wall_time_s": f"{wall:.3f}",
    }
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for t, a0, a1, a2 in rows:
                fh.write(
                    f"{_fmt(t.r0)},{_fmt(t.r1)},{_fmt(t.r2)},{t.order},{a0},{a1},{a2}\n"
                )
        with open(cfg.out + ".meta", "w", encoding="utf-8") as fh:
            for key, value in meta.items():
                fh.write(f"{key}={value}\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="secregion",
        description=(
            "Compute achievable rate regions for the two-user downlink with "
            "common, private, and confidential messages."
        ),
        epilog=(
            "The tdma baseline uses equal-length slots with the full power "
            "budget available inside each slot (power-limited, not "
            "energy-equalized)."
        ),
    )
    parser.add_argument("--channels", required=True, help="channel file path")
    parser.add_argument("--scenario", required=True, choices=("A", "B", "C"))
    parser.add_argument(
        "--common",
        choices=("on", "off"),
        default="on" if _DEFAULTS["common"] else "off",
        help="whether a common (multicast) message is carried",
    )
    parser.add_argument("--method", required=True, choices=METHODS)
    parser.add_argument("--power", required=True, type=float, help="total power budget")
    parser.add_argument(
        "--eps1", type=float, default=_DEFAULTS["eps1"], help="power-split grid step"
    )
    parser.add_argument(
        "--sigma", type=float, default=_DEFAULTS["sigma"], help="weight sweep step"
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=_DEFAULTS["samples"],
        help="random-search sample count for the oracle method",
    )
    parser.add_argument(
        "--seed", type=int, default=_DEFAULTS["seed"], help="seed of the oracle draws"
    )
    parser.add_argument("--out", required=True, help="output CSV path")
    args = parser.parse_args(argv)
    return run(RunConfig(**{**vars(args), "common": args.common == "on"}))


if __name__ == "__main__":
    sys.exit(main())
