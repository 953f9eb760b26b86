"""Metrics over application runs, checkpoint records and restart records.

These helpers turn the raw per-rank records produced by the runtime into the
aggregate quantities the paper plots: summed checkpoint/restart times
(Figures 6, 11, 12), coordination-only time (Figure 1), per-stage breakdowns
(Figure 9) and the "progress gap" measure used to quantify the blocking
behaviour visible in the Figure 2 trace diagrams.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ckpt.base import STAGES, CheckpointRecord, RestartRecord
from repro.mpi.runtime import ApplicationResult


@dataclass
class CheckpointBreakdown:
    """Average per-process time spent in each checkpoint stage."""

    stages: Dict[str, float] = field(default_factory=dict)
    n_records: int = 0

    @property
    def total(self) -> float:
        """Sum of all stage averages (average per-process checkpoint time)."""
        return sum(self.stages.values())

    def as_row(self) -> List[float]:
        """Stage averages in the paper's plotting order (Figure 9)."""
        return [self.stages.get(name, 0.0) for name in STAGES]


def stage_breakdown(records: Iterable[CheckpointRecord]) -> CheckpointBreakdown:
    """Average per-stage durations over a set of checkpoint records."""
    records = list(records)
    out = CheckpointBreakdown(n_records=len(records))
    if not records:
        return out
    totals: Dict[str, float] = {}
    for rec in records:
        for name, value in rec.stages.items():
            totals[name] = totals.get(name, 0.0) + value
    out.stages = {name: value / len(records) for name, value in totals.items()}
    return out


def aggregate_checkpoint_time(records: Iterable[CheckpointRecord]) -> float:
    """Sum of per-process checkpoint durations (Figure 6a / 11a / 12a)."""
    return sum(rec.duration for rec in records)


def aggregate_coordination_time(records: Iterable[CheckpointRecord]) -> float:
    """Sum of per-process coordination time, i.e. everything except the image dump (Figure 1)."""
    return sum(rec.coordination_time for rec in records)


def aggregate_restart_time(records: Iterable[RestartRecord]) -> float:
    """Sum of per-process restart durations (Figure 6b / 11b / 12b)."""
    return sum(rec.duration for rec in records)


def mean_checkpoint_duration(records: Iterable[CheckpointRecord]) -> float:
    """Average per-process checkpoint duration (Figure 14's per-checkpoint time)."""
    records = list(records)
    if not records:
        return 0.0
    return sum(rec.duration for rec in records) / len(records)


def checkpoint_windows(result: ApplicationResult) -> List[Tuple[float, float]]:
    """System-wide checkpoint windows: per checkpoint id, (earliest start, latest end)."""
    by_id: Dict[int, Tuple[float, float]] = {}
    for rec in result.checkpoint_records:
        lo, hi = by_id.get(rec.ckpt_id, (rec.start, rec.end))
        by_id[rec.ckpt_id] = (min(lo, rec.start), max(hi, rec.end))
    return [by_id[k] for k in sorted(by_id)]


def progress_gap_fraction(
    result: ApplicationResult,
    windows: Optional[Sequence[Tuple[float, float]]] = None,
    bin_s: float = 0.25,
) -> float:
    """Fraction of checkpoint-window time with *no* application message deliveries.

    This quantifies the light-grey "gaps" of the paper's Figure 2: time bins
    inside a checkpoint window during which the application made no visible
    progress (no message transfers anywhere).  A value near 0 means the
    non-blocking checkpoint really was non-blocking; a value near 1 means the
    application was effectively paused for the whole checkpoint.
    """
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    if windows is None:
        windows = checkpoint_windows(result)
    windows = [w for w in windows if w[1] > w[0]]
    if not windows:
        return 0.0
    delivery_times = sorted(t for t, _, _, _ in result.deliveries)
    n_deliveries = len(delivery_times)
    total_bins = 0
    empty_bins = 0
    for lo, hi in windows:
        t = lo
        while t < hi:
            t_next = min(t + bin_s, hi)
            total_bins += 1
            # the bin [t, t_next) holds a delivery iff the first delivery at or
            # after t comes before t_next
            i = bisect_left(delivery_times, t)
            if i == n_deliveries or delivery_times[i] >= t_next:
                empty_bins += 1
            t = t_next
    if total_bins == 0:
        return 0.0
    return empty_bins / total_bins
