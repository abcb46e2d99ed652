"""Achievable secrecy rate regions for the two-user downlink MIMO channel.

The package computes rate regions for a base station sending any mix of a
common (multicast) message, private (unicast) messages, and confidential
messages to two receivers, using a power-splitting decomposition into
point-to-point, wiretap, and multicast subproblems, plus a weighted-sum-rate
solver for the case without a common message.  Random-search oracles and
orthogonal baselines provide independent validation.
"""

from .baselines import build_rotation, oma_timeshare, random_search_region, tdma_region
from .cli import ChannelParseError, RunConfig, load_channels, run, write_channels
from .multicast import MulticastResult, case_classify, solve_multicast
from .rates import evaluate_triple, gauss_rate, layered_rate
from .splitting import (
    SplitResult,
    hull_pareto,
    solve_split,
    sweep_points,
    sweep_region,
)
from .types import (
    ORDER_12,
    ORDER_21,
    ORDER_NA,
    ChannelPair,
    ConsistencyError,
    CovarianceTriple,
    DimensionError,
    PowerSplit,
    RateRegion,
    RateTriple,
    Scenario,
    pareto_filter,
)
from .waterfill import DegenerateChannelWarning, waterfill
from .wiretap import WiretapResult, secrecy_rate, solve_wiretap
from .wsr import WsrConfig, WsrSolution, wsr_solve, wsr_sweep, wsr_sweep_points

__version__ = "0.1.0"

__all__ = [
    "ChannelPair",
    "ChannelParseError",
    "ConsistencyError",
    "CovarianceTriple",
    "DegenerateChannelWarning",
    "DimensionError",
    "MulticastResult",
    "ORDER_12",
    "ORDER_21",
    "ORDER_NA",
    "PowerSplit",
    "RateRegion",
    "RateTriple",
    "RunConfig",
    "Scenario",
    "SplitResult",
    "WiretapResult",
    "WsrConfig",
    "WsrSolution",
    "build_rotation",
    "case_classify",
    "evaluate_triple",
    "gauss_rate",
    "hull_pareto",
    "layered_rate",
    "load_channels",
    "oma_timeshare",
    "pareto_filter",
    "random_search_region",
    "run",
    "secrecy_rate",
    "solve_multicast",
    "solve_split",
    "solve_wiretap",
    "sweep_points",
    "sweep_region",
    "tdma_region",
    "waterfill",
    "write_channels",
    "wsr_solve",
    "wsr_sweep",
    "wsr_sweep_points",
]
