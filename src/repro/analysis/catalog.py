"""The scenario metric catalog: each per-run metric the figures read, declared once.

A :class:`Metric` names one quantity, says how to extract it from a live
:class:`~repro.experiments.runner.ScenarioResult`, gives the value a payload
that predates it reads back as, and documents it.  Everything else follows
from :data:`CATALOG`:

* the campaign payload (:func:`repro.campaign.results.metrics_payload`) is
  the version stamp plus :func:`evaluate` over a live result;
* :class:`StoredResult` gets one read-only property per metric;
* ``ScenarioResult`` extends :class:`StoredResult`, its ``metrics`` dict
  being :func:`evaluate` over the live run, so live and stored results read
  every metric through the same accessor.

This module imports neither ``repro.experiments`` nor ``repro.campaign``:
both import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.analysis.metrics import (
    CheckpointBreakdown,
    mean_checkpoint_duration,
    progress_gap_fraction,
)
from repro.obs import phase_times as registry_phase_times

#: default of a metric every payload carries: reading it from one that lacks
#: it raises ``KeyError``
REQUIRED = object()


@dataclass(frozen=True)
class Metric:
    """One catalog entry."""

    name: str
    #: live ``ScenarioResult`` → JSON-safe payload value
    extract: Callable[[Any], object]
    #: value read when a payload lacks the entry (:data:`REQUIRED`: none)
    default: object
    doc: str
    #: conversion applied on every read (copy a container, 0/1 → bool)
    read: Optional[Callable[[object], object]] = None


# ----------------------------------------------------------------- extractors
def _registry_total(name: str) -> Callable[[Any], float]:
    """Total of one registry histogram (0.0 when it never observed)."""
    def extract(r) -> float:
        hist = r.telemetry.metrics.get(name)
        return hist.total if hist is not None else 0.0
    return extract


def _restart(attr: str, none: object) -> Callable[[Any], object]:
    """One post-hoc restart quantity (``none`` when restart was not simulated)."""
    return lambda r: getattr(r.restart, attr) if r.restart is not None else none


def _per_failure(attr: str) -> Callable[[Any], object]:
    """Sum of one field over the live-recovery reports."""
    return lambda r: sum(getattr(rep, attr) for rep in r.app.recovery)


def _per_shrink(attr: str) -> Callable[[Any], object]:
    """Sum of one field over the recovery reports of shrink restarts."""
    return lambda r: sum(getattr(rep, attr) for rep in r.app.recovery
                         if rep.shrink)


def _recovery_stat(key: str) -> Callable[[Any], int]:
    return lambda r: r.app.recovery_stats.get(key, 0)


def _storage_stat(key: str) -> Callable[[Any], object]:
    return lambda r: r.app.storage_stats.get(key, 0)


def _tier_bytes(key: str) -> Callable[[Any], Dict[str, int]]:
    return lambda r: dict(r.app.storage_stats.get(key, {}))


def _availability(r) -> float:
    total = r.app.n_ranks * r.app.makespan
    if total <= 0:
        return 1.0
    unavailable = (sum(rep.total_lost_work_s for rep in r.app.recovery)
                   + sum(rep.recovery_rank_seconds for rep in r.app.recovery))
    return max(0.0, 1.0 - unavailable / total)


def _outages_survived(r) -> int:
    return len({rep.failure_time for rep in r.app.recovery
                if rep.cause == "switch-outage" and not rep.unsurvivable
                and rep.ranks})


def _ranks_after_restart(r) -> Optional[int]:
    ranks = None
    for rep in r.app.recovery:
        if rep.shrink:
            ranks = rep.ranks_after
    return ranks


def _sampler_summary(r) -> Dict[str, float]:
    sampler = r.telemetry.sampler
    if sampler is None or sampler.end_time is None:
        return {}
    return sampler.summary()


# -------------------------------------------------------------------- catalog
CATALOG = (
    # -- the paper's figures
    Metric("makespan", lambda r: r.app.makespan, REQUIRED,
           "End-to-end execution time of the application (including checkpoints)."),
    Metric("aggregate_checkpoint_time", _registry_total("phase.checkpoint.duration"),
           REQUIRED, "Sum of per-process checkpoint durations."),
    Metric("aggregate_coordination_time",
           _registry_total("phase.checkpoint.coordination_time"), REQUIRED,
           "Sum of per-process coordination time (checkpoint minus image dump)."),
    Metric("aggregate_restart_time", _restart("aggregate_restart_time", 0.0), REQUIRED,
           "Sum of per-process restart durations (0 if restart was not simulated)."),
    Metric("resend_bytes", _restart("total_replay_bytes", 0), REQUIRED,
           "Total bytes replayed during restart."),
    Metric("resend_operations", _restart("total_resend_operations", 0), REQUIRED,
           "Total resend operations during restart."),
    Metric("checkpoints_completed", lambda r: r.app.checkpoints_completed, REQUIRED,
           "Number of checkpoint waves completed."),
    Metric("mean_checkpoint_duration",
           lambda r: mean_checkpoint_duration(r.app.checkpoint_records), REQUIRED,
           "Average per-process checkpoint duration."),
    Metric("gap_fraction", lambda r: progress_gap_fraction(r.app), REQUIRED,
           "Fraction of checkpoint-window time with no application progress."),
    Metric("n_groups",
           lambda r: len(r.groupset.all_groups()) if r.groupset is not None else None,
           None, "Number of groups the protocol used (None for VCL)."),
    Metric("rank0_checkpoint_end_times",
           lambda r: sorted(rec.end for rec in r.app.checkpoint_records if rec.rank == 0),
           [], "Completion times of rank 0's checkpoints (drives work-loss models).",
           read=list),
    # -- measured failure injection (v3; zero for failure-free runs)
    Metric("failures_injected", lambda r: len(r.app.recovery), 0,
           "Number of failures that actually killed a rank mid-run."),
    Metric("rollback_ranks_total",
           lambda r: sum(len(rep.rollback_ranks) for rep in r.app.recovery), 0,
           "Total rank rollbacks across all injected failures."),
    Metric("measured_lost_work_s", _per_failure("total_lost_work_s"), 0.0,
           "Measured work discarded by rollbacks (sums over ranks and failures)."),
    Metric("measured_recovery_time_s",
           lambda r: max((rep.max_recovery_time_s for rep in r.app.recovery), default=0.0),
           0.0, "Slowest failure-to-resumption time over all injected failures."),
    Metric("replayed_bytes", _per_failure("replayed_bytes"), 0,
           "Bytes resent from sender logs during live recoveries."),
    Metric("replayed_messages", _per_failure("replayed_messages"), 0,
           "Log entries resent during live recoveries."),
    Metric("skipped_bytes",
           lambda r: sum(ctx.stats.skipped_bytes for ctx in r.app.contexts), 0,
           "Re-executed send bytes suppressed by skip accounting."),
    # -- recovery orchestration (v4)
    Metric("recovery_rank_seconds", _per_failure("recovery_rank_seconds"), 0.0,
           "Rank-seconds spent recovering (Σ per-rank failure→resumption time)."),
    Metric("availability", _availability, 1.0,
           "Fraction of total rank-time spent making forward progress: "
           "1 − (lost work + recovery rank-seconds) / (n_ranks × makespan)."),
    Metric("spare_migrations", _recovery_stat("spare_migrations"), 0,
           "Victim ranks relaunched on spare nodes."),
    Metric("inplace_reboots", _per_failure("inplace_reboots"), 0,
           "Victim ranks that waited out a dead node's reboot in place."),
    Metric("aborted_recoveries", _recovery_stat("aborted_recoveries"), 0,
           "Recovery attempts superseded by a failure landing mid-recovery."),
    Metric("max_concurrent_recoveries", _recovery_stat("max_concurrent_recoveries"), 0,
           "Peak number of simultaneously in-flight group recoveries."),
    # -- storage hierarchy (v5; zero/empty for single-tier runs)
    Metric("survived", lambda r: int(r.app.aborted is None), True,
           "False when the run was declared unsurvivable (required image lost).",
           read=bool),
    Metric("tier_bytes_written", _tier_bytes("tier_bytes_written"), {},
           "Checkpoint bytes written per storage level (L1/L2/L3).", read=dict),
    Metric("tier_bytes_read", _tier_bytes("tier_bytes_read"), {},
           "Checkpoint bytes read back per storage level (L1/L2/L3).", read=dict),
    Metric("partner_copies", _storage_stat("partner_copies_completed"), 0,
           "Completed L2 partner replications."),
    Metric("partner_copies_lost", _storage_stat("partner_copies_lost"), 0,
           "Partner replications that died with an endpoint mid-copy."),
    Metric("replication_stalls", _storage_stat("replication_stalls"), 0,
           "Checkpoints that waited on the bounded L2 in-flight buffer."),
    Metric("outages_survived", _outages_survived, 0,
           "Correlated switch outages this run recovered from end to end."),
    Metric("spare_refills", _recovery_stat("spare_refills"), 0,
           "Rebooted victim nodes that rejoined the spare pool."),
    Metric("skipped_in_recovery",
           lambda r: getattr(r.coordinator_report, "skipped_in_recovery", 0), 0,
           "Per-group checkpoint ticks skipped because the group was recovering."),
    # -- telemetry (v6)
    Metric("phase_times", lambda r: registry_phase_times(r.telemetry), {},
           "Phase-attributed time breakdown harvested from the metrics registry: "
           '``{"checkpoint"|"restart"|"recovery": {"records"/"reports": n, '
           '"stages": {stage: total_seconds}}}``.', read=dict),
    Metric("registry_metrics", lambda r: r.telemetry.metrics.as_flat_dict(), {},
           "Flat ``{name: value}`` snapshot of the run's metrics registry.", read=dict),
    # -- elastic restart (v7; zero/None without shrink restarts)
    Metric("ranks_after_restart", _ranks_after_restart, None,
           "Ranks actively computing after the last shrink (None = never shrank)."),
    Metric("units_migrated", _per_shrink("units_migrated"), 0,
           "Work units reassigned away from dead ranks across all shrinks."),
    Metric("repartition_bytes_shipped", _per_shrink("repartition_bytes_shipped"), 0,
           "Checkpoint-image bytes shipped dead rank → adopter across all shrinks."),
    Metric("shrink_restarts", _recovery_stat("shrink_restarts"), 0,
           "Spare-exhausted failures resolved by repartitioning onto survivors."),
    # -- continuous-telemetry series summaries (v8; empty unless sampled)
    Metric("sampler_summary", _sampler_summary, {},
           "Compact time-series summaries (empty unless the run was sampled).",
           read=dict),
)

#: scalar views of ``sampler_summary`` (0.0 when the run was not sampled)
SAMPLER_VIEWS = {
    "nic_util_peak": "Peak fraction of NICs with an in-flight transfer in any bin.",
    "nic_util_mean": "Mean over bins of the busy-NIC fraction.",
    "inbox_depth_max": "Deepest sampled inbox across all ranks and bins.",
    "log_bytes_peak": "Peak total sender-log retained bytes across bins.",
}


def evaluate(result) -> Dict[str, object]:
    """Every catalog metric of a live ``ScenarioResult``, in catalog order."""
    return {metric.name: metric.extract(result) for metric in CATALOG}


class StoredResult:
    """Metrics of one finished scenario, read from its payload dict.

    Every :data:`CATALOG` metric is a read-only property of the same name
    (generated below); the live ``ScenarioResult`` extends this class, so
    figure code works identically on live and on stored results.
    """

    def __init__(self, config, metrics: Dict[str, object]) -> None:
        self.config = config
        self.metrics = metrics

    @property
    def sim_version(self) -> Optional[str]:
        """Simulator fingerprint the payload was produced with."""
        return self.metrics.get("sim_version")

    def breakdown(self) -> CheckpointBreakdown:
        """Average per-stage checkpoint breakdown (Figure 9), from ``phase_times``.

        The registry's stage totals were accumulated over the same records in
        the same order as ``stage_breakdown``, so the means are bit-identical.
        """
        checkpoint = self.phase_times.get("checkpoint") or {}
        n = checkpoint.get("records", 0)
        if not n:
            return CheckpointBreakdown(n_records=n)
        return CheckpointBreakdown(
            stages={name: total / n
                    for name, total in (checkpoint.get("stages") or {}).items()},
            n_records=n,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (f"<StoredResult {cfg.workload}/{cfg.method}/n={cfg.n_ranks}/"
                f"seed={cfg.seed} makespan={self.makespan:.3f}>")


def _accessor(metric: Metric) -> property:
    name, default, read = metric.name, metric.default, metric.read

    def get(self):
        if default is REQUIRED:
            value = self.metrics[name]
        else:
            value = self.metrics.get(name, default)
        return value if read is None else read(value)

    return property(get, doc=metric.doc)


def _sampler_view(key: str, doc: str) -> property:
    return property(lambda self: self.sampler_summary.get(key, 0.0), doc=doc)


for _metric in CATALOG:
    setattr(StoredResult, _metric.name, _accessor(_metric))
for _key, _doc in SAMPLER_VIEWS.items():
    setattr(StoredResult, _key, _sampler_view(_key, _doc))
del _metric, _key, _doc
