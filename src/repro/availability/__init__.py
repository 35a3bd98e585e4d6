"""Availability substrate: interruption statistics for non-dedicated hosts.

This package models the volatility of non-dedicated distributed computing
environments (paper Sections I-III): probability distributions for
interruption inter-arrivals and recovery durations, per-host M/G/1
interruption processes, explicit up/down availability traces, synthetic
SETI@home-like trace generation (substituting for the Failure Trace Archive
data of [9]), and the online estimators ADAPT's performance predictor uses.
"""

from repro.availability.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    Lognormal,
)
from repro.availability.estimators import (
    AvailabilityEstimate,
    InterruptionStatsEstimator,
)
from repro.availability.generator import (
    GroupSpec,
    HostAvailability,
    build_group_hosts,
    table2_groups,
)
from repro.availability.process import InterruptionProcess, DowntimeEpisode
from repro.availability.seti import SetiTraceGenerator, SetiModelParams
from repro.availability.trace_io import parse_traces, read_traces, write_traces
from repro.availability.traces import AvailabilityTrace, Interruption, pooled_summary

__all__ = [
    "Distribution",
    "Exponential",
    "Lognormal",
    "Deterministic",
    "InterruptionProcess",
    "DowntimeEpisode",
    "AvailabilityTrace",
    "Interruption",
    "pooled_summary",
    "GroupSpec",
    "HostAvailability",
    "table2_groups",
    "build_group_hosts",
    "SetiTraceGenerator",
    "SetiModelParams",
    "read_traces",
    "write_traces",
    "parse_traces",
    "AvailabilityEstimate",
    "InterruptionStatsEstimator",
]
