"""Explicit availability traces: per-host up/down interval algebra.

A trace is the ground truth the large-scale simulation replays (paper
Section V.C replays SETI@home Failure Trace Archive data). Traces support
point queries (``is_up``), transition lookup, uptime accounting, and pooled
event statistics in the form of the paper's Table 1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.availability.process import DowntimeEpisode, InterruptionProcess, cut_at_horizon
from repro.util.stats import SummaryStats, summarize
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class Interruption:
    """One raw interruption event: arrival time and its own service time.

    This is the event granularity of the Failure Trace Archive, before
    overlapping recoveries are merged into downtime episodes.
    """

    arrival: float
    duration: float

    def __post_init__(self) -> None:
        check_non_negative("arrival", self.arrival)
        check_non_negative("duration", self.duration)


class AvailabilityTrace:
    """Up/down windows for one host over ``[0, horizon)``.

    Down windows are half-open intervals ``[start, end)``, sorted, disjoint
    and clipped to the horizon. The host is up everywhere else.
    """

    def __init__(
        self,
        host_id: str,
        horizon: float,
        down_windows: Sequence[Tuple[float, float]] = (),
    ) -> None:
        self._host_id = str(host_id)
        self._horizon = check_positive("horizon", horizon)
        clipped: List[Tuple[float, float]] = []
        previous_end = 0.0
        for start, end in down_windows:
            if end <= start:
                raise ValueError(f"down window [{start}, {end}) is empty or inverted")
            if start < previous_end:
                raise ValueError("down windows must be sorted and disjoint")
            previous_end = end
            if start >= self._horizon:
                continue
            clipped.append((float(start), float(min(end, self._horizon))))
        self._down = clipped
        self._starts = [w[0] for w in clipped]

    # -- construction --------------------------------------------------------

    @classmethod
    def always_up(cls, host_id: str, horizon: float) -> "AvailabilityTrace":
        """A dedicated host that never goes down."""
        return cls(host_id, horizon, ())

    @classmethod
    def from_episodes(
        cls,
        host_id: str,
        horizon: float,
        episodes: Iterable[DowntimeEpisode],
    ) -> "AvailabilityTrace":
        """Build a trace from downtime episodes (clipping at the horizon)."""
        windows = [(e.start, e.end) for e in episodes]
        return cls(host_id, horizon, windows)

    @classmethod
    def from_process(
        cls,
        host_id: str,
        horizon: float,
        process: InterruptionProcess,
    ) -> "AvailabilityTrace":
        """Sample a process into a concrete trace over ``[0, horizon)``.

        Reads the open stream (:func:`~repro.availability.process.cut_at_horizon`),
        so a busy period still open at the horizon is folded only past it:
        the windows, clipped at the horizon, are those of
        :meth:`~repro.availability.process.InterruptionProcess.episodes`.
        """
        episodes = cut_at_horizon(process.lazy_episodes(horizon), horizon)
        return cls.from_episodes(host_id, horizon, episodes)

    # -- queries --------------------------------------------------------------

    @property
    def host_id(self) -> str:
        return self._host_id

    @property
    def horizon(self) -> float:
        return self._horizon

    @property
    def down_windows(self) -> List[Tuple[float, float]]:
        """Copy of the down windows."""
        return list(self._down)

    def up_windows(self) -> List[Tuple[float, float]]:
        """Complement of the down windows inside [0, horizon)."""
        windows: List[Tuple[float, float]] = []
        cursor = 0.0
        for start, end in self._down:
            if start > cursor:
                windows.append((cursor, start))
            cursor = end
        if cursor < self._horizon:
            windows.append((cursor, self._horizon))
        return windows

    def is_up(self, t: float) -> bool:
        """Whether the host is up at time ``t``."""
        if not 0.0 <= t < self._horizon:
            raise ValueError(f"t={t} outside trace horizon [0, {self._horizon})")
        idx = bisect.bisect_right(self._starts, t) - 1
        if idx < 0:
            return True
        start, end = self._down[idx]
        return not (start <= t < end)

    def next_transition(self, t: float) -> float:
        """Earliest time strictly after ``t`` at which up/down state flips.

        Returns the horizon if the state never flips again.
        """
        if not 0.0 <= t < self._horizon:
            raise ValueError(f"t={t} outside trace horizon [0, {self._horizon})")
        idx = bisect.bisect_right(self._starts, t) - 1
        if idx >= 0:
            start, end = self._down[idx]
            if start <= t < end:
                return end
        nxt = bisect.bisect_right(self._starts, t)
        if nxt < len(self._down):
            return self._down[nxt][0]
        return self._horizon

    def total_downtime(self) -> float:
        """Total seconds down inside the horizon."""
        return sum(end - start for start, end in self._down)

    def uptime_fraction(self) -> float:
        """Fraction of the horizon spent up."""
        return 1.0 - self.total_downtime() / self._horizon

    def interruption_count(self) -> int:
        """Number of down windows (merged episodes)."""
        return len(self._down)

    def mtbi_samples(self) -> List[float]:
        """Observed inter-arrival gaps between successive down-window starts.

        The first gap (time from 0 to the first interruption) is included,
        matching how trace archives report inter-event times.
        """
        gaps: List[float] = []
        previous = 0.0
        for start, _end in self._down:
            gaps.append(start - previous)
            previous = start
        return gaps

    def duration_samples(self) -> List[float]:
        """Observed down-window durations."""
        return [end - start for start, end in self._down]

    def __repr__(self) -> str:
        return (
            f"AvailabilityTrace(host={self._host_id!r}, horizon={self._horizon:g}, "
            f"windows={len(self._down)})"
        )


def pooled_summary(traces: Iterable[AvailabilityTrace]) -> Dict[str, SummaryStats]:
    """Pool interruption statistics over many hosts (the paper's Table 1).

    Returns summaries keyed ``"mtbi"`` and ``"duration"``; raises if the
    pooled trace set contains no interruptions at all.
    """
    mtbi: List[float] = []
    durations: List[float] = []
    for trace in traces:
        mtbi.extend(trace.mtbi_samples())
        durations.extend(trace.duration_samples())
    if not durations:
        raise ValueError("no interruptions in any trace; nothing to summarise")
    return {"mtbi": summarize(mtbi), "duration": summarize(durations)}
