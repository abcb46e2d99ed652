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
from .rotation import SolverOptions
from .splitting import (
    SplitResult,
    SweepPoint,
    hull_pareto,
    region_contains,
    solve_split,
    sweep_points,
    sweep_region,
)
from .transforms import whiten_multicast, whiten_p2p, whiten_wiretap
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
    project_psd,
    validate_covariance,
)
from .waterfill import DegenerateChannelWarning, water_level, waterfill
from .wiretap import WiretapResult, secrecy_rate, solve_wiretap
from .wsr import (
    BracketError,
    BsmmState,
    WsrConfig,
    WsrSolution,
    block_price,
    bsmm_inner,
    closed_form_block,
    kkt_residual,
    wsr_solve,
    wsr_sweep,
    wsr_sweep_points,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "BsmmState",
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
    "SolverOptions",
    "SplitResult",
    "SweepPoint",
    "WiretapResult",
    "WsrConfig",
    "WsrSolution",
    "block_price",
    "bsmm_inner",
    "build_rotation",
    "case_classify",
    "closed_form_block",
    "evaluate_triple",
    "gauss_rate",
    "hull_pareto",
    "kkt_residual",
    "layered_rate",
    "load_channels",
    "oma_timeshare",
    "pareto_filter",
    "project_psd",
    "random_search_region",
    "region_contains",
    "run",
    "secrecy_rate",
    "solve_multicast",
    "solve_split",
    "solve_wiretap",
    "sweep_points",
    "sweep_region",
    "tdma_region",
    "validate_covariance",
    "water_level",
    "waterfill",
    "whiten_multicast",
    "whiten_p2p",
    "whiten_wiretap",
    "write_channels",
    "wsr_solve",
    "wsr_sweep",
    "wsr_sweep_points",
]
