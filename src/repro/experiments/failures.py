"""Failure-injection extension experiments (beyond the paper's figures).

The paper motivates group-based checkpointing with reduced work loss: because
checkpoints are cheaper, they can be taken more often, so a failure destroys
less work, and only the failed process's group has to roll back.  Two
:class:`~repro.experiments.declaration.Experiment` declarations and one
analytic table quantify that argument on HPL, with rank 0's node failing at
60 % of a run's failure-free execution:

* :data:`WORK_LOSS` — the (GP, NORM) grid, a no-checkpoint row plus one row
  per checkpoint interval; its tables give the expected lost work per
  failure (the time since rank 0's last completed checkpoint),
* :func:`failure_rate_table` — the ``failure_rate`` axis over
  :data:`WORK_LOSS`'s results: per failure rate and method, the interval
  with the lowest checkpoint overhead plus expected rework.  The rate scales
  the expected number of failures, not the run, so nothing is simulated,
* :data:`MEASURED_WORK_LOSS` — the measured counterpart: every failure-free
  (NORM, GP, GP1) × interval cell plus a copy in which rank 0's node is
  actually killed.  Only the victim's group rolls back and out-of-group
  ranks replay their sender logs, live, so lost work, recovery time and
  replay volume are observed, and each killed run is set against the
  analytic prediction on its failure-free cell.

Both grids run through the default campaign (``Experiment.run``): cached,
parallel with ``REPRO_CAMPAIGN_WORKERS``, and resumable like every figure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import Series, Table, series_table
from repro.campaign.executor import get_default_campaign
from repro.ckpt.scheduler import periodic
from repro.cluster.failure import expected_lost_work
from repro.experiments.config import ExperimentProfile, FULL, FailureSpec, ScenarioConfig
from repro.experiments.declaration import Experiment
from repro.experiments.runner import build_family

#: a failure strikes at this fraction of the run's failure-free makespan
FAILURE_FRACTION = 0.6
_PERCENT = int(FAILURE_FRACTION * 100)

WORK_LOSS_METHODS: Tuple[str, ...] = ("GP", "NORM")
MEASURED_METHODS: Tuple[str, ...] = ("NORM", "GP", "GP1")
DEFAULT_INTERVALS: Tuple[float, ...] = (60.0, 120.0, 180.0)


def _config(profile: ExperimentProfile, n_ranks: Optional[int], method: str,
            schedule) -> ScenarioConfig:
    """A failure-free HPL row, at the profile's largest HPL scale by default."""
    return ScenarioConfig(
        workload="hpl",
        n_ranks=n_ranks if n_ranks is not None else profile.hpl_scales[-1],
        method=method,
        schedule=schedule,
        workload_options=dict(profile.hpl_options),
        max_group_size=8,
        do_restart=False,
        seed=11,
    )


def work_loss_configs(profile: ExperimentProfile = FULL, n_ranks: Optional[int] = None,
                      intervals: Sequence[float] = DEFAULT_INTERVALS) -> List[ScenarioConfig]:
    """Per method, a no-checkpoint row, then one row per checkpoint interval."""
    schedules = [None] + [periodic(interval) for interval in intervals]
    return [_config(profile, n_ranks, method, schedule)
            for method in WORK_LOSS_METHODS for schedule in schedules]


def measured_work_loss_configs(profile: ExperimentProfile = FULL,
                               n_ranks: Optional[int] = None,
                               intervals: Sequence[float] = DEFAULT_INTERVALS,
                               ) -> List[ScenarioConfig]:
    """Every failure-free (method × interval) cell, then one killed copy of each.

    The copy's :class:`~repro.experiments.config.FailureSpec` kills rank 0's
    node at 60 % of the cell's failure-free makespan, so building these rows
    first runs the failure-free cells as probes through the default campaign.
    """
    cells = [_config(profile, n_ranks, method, periodic(interval))
             for method in MEASURED_METHODS for interval in intervals]
    probes = get_default_campaign().run(cells)
    return cells + [
        dataclasses.replace(cell, failure=FailureSpec(at_s=probe.makespan * FAILURE_FRACTION))
        for cell, probe in zip(cells, probes)]


def predicted_rollback_scope(config: ScenarioConfig) -> int:
    """How many processes the method's checkpoint groups roll back with the victim."""
    family = build_family(config.method, config.n_ranks, config.workload,
                          config.workload_options, config.max_group_size)
    return len(family.participants_for(config.failure.victim_rank,
                                       tuple(range(config.n_ranks))))


# ------------------------------------------------------------------------------ tables
def _cells(results) -> Dict[Tuple[str, Optional[float]], object]:
    """Failure-free results by (method, interval); a no-checkpoint row's interval is None."""
    return {(r.config.method, r.config.schedule.interval_s if r.config.schedule else None): r
            for r in results if r.config.failure is None}


def _intervals(cells) -> List[float]:
    return sorted({interval for _, interval in cells if interval is not None})


def _expected_loss(result) -> float:
    """Work lost by a failure at 60 % of this failure-free run, seen from rank 0."""
    return expected_lost_work(result.config.schedule.interval_s,
                              result.makespan * FAILURE_FRACTION,
                              result.rank0_checkpoint_end_times)


def work_loss_tables(results) -> Dict[str, object]:
    """Expected lost work per failure: one series per method over the interval."""
    cells = _cells(results)
    intervals = _intervals(cells)
    series = [Series(name=f"{method} expected loss (s)") for method in WORK_LOSS_METHODS]
    for method, line in zip(WORK_LOSS_METHODS, series):
        for interval in intervals:
            line.append(interval, _expected_loss(cells[(method, interval)]))
    table = series_table(
        f"Expected lost work after a failure at {_PERCENT}% of execution "
        f"(HPL, {results[0].config.n_ranks} processes)",
        series, x_label="interval (s)")
    return {"series": series, "table": table, "results": results}


def failure_rate_table(results, failure_rates: Sequence[float]) -> Dict[str, object]:
    """The ``failure_rate`` axis over :data:`WORK_LOSS`'s results, computed analytically.

    For every per-node failure rate (failures per node-second) and method,
    each interval costs its measured checkpoint overhead (its makespan minus
    the method's no-checkpoint makespan) plus the expected number of failures
    during the run times the expected loss per failure; the table reports the
    cheapest interval.  An interval whose run completed no checkpoint is not
    a checkpointing configuration, so it is no candidate; if no interval of
    a method is one, a :class:`ValueError` names the fix.
    """
    if not failure_rates:
        raise ValueError("failure_rates must not be empty")
    if any(rate <= 0 for rate in failure_rates):
        raise ValueError("failure rates must be positive")
    cells = _cells(results)
    intervals = _intervals(cells)
    n = results[0].config.n_ranks
    table = Table(
        title=f"Failure-rate sweep (HPL, {n} processes; failure at "
              f"{_PERCENT}% of execution)",
        columns=["rate (/node/s)", "method", "best interval (s)",
                 "ckpt overhead (s)", "E[failures]", "E[loss] (s)", "E[total] (s)"],
    )
    series = [Series(name=f"{method} expected total cost (s)") for method in WORK_LOSS_METHODS]
    for rate in failure_rates:
        for method, line in zip(WORK_LOSS_METHODS, series):
            baseline = cells[(method, None)].makespan
            candidates = []
            for interval in intervals:
                result = cells[(method, interval)]
                if result.checkpoints_completed == 0:
                    continue
                overhead = result.makespan - baseline
                failures = rate * n * result.makespan
                loss = _expected_loss(result)
                candidates.append((overhead + failures * loss, interval, overhead, failures, loss))
            if not candidates:
                makespans = [cells[(method, interval)].makespan for interval in intervals]
                raise ValueError(
                    f"no candidate interval completed a checkpoint for method {method!r} "
                    f"(intervals {tuple(intervals)} vs makespans ~{min(makespans):.1f}s); "
                    f"choose intervals shorter than the execution time"
                )
            total, interval, overhead, failures, loss = min(candidates, key=lambda c: c[0])
            line.append(rate, total)
            table.add_row(rate, method, interval, overhead, failures, loss, total)
    return {"series": series, "table": table}


def measured_work_loss_tables(results) -> Dict[str, object]:
    """Each killed run against its failure-free cell: measured vs analytic loss.

    The analytic total is the per-process loss on the failure-free cell times
    :func:`predicted_rollback_scope`.
    """
    cells = _cells(results)
    intervals = _intervals(cells)
    killed = {(r.config.method, r.config.schedule.interval_s): r
              for r in results if r.config.failure is not None}
    table = Table(
        title=(f"Measured vs analytic work loss (HPL, {results[0].config.n_ranks} processes; "
               f"kill at {_PERCENT}% of execution)"),
        columns=["method", "interval (s)", "rolled back", "measured loss (s)",
                 "analytic loss (s)", "recovery (s)", "replayed (MB)"],
    )
    measured_series = [Series(name=f"{method} measured loss (s)") for method in MEASURED_METHODS]
    analytic_series = [Series(name=f"{method} analytic loss (s)") for method in MEASURED_METHODS]
    for method, measured, analytic in zip(MEASURED_METHODS, measured_series, analytic_series):
        for interval in intervals:
            run = killed[(method, interval)]
            analytic_total = (_expected_loss(cells[(method, interval)])
                              * predicted_rollback_scope(run.config))
            measured.append(interval, run.measured_lost_work_s)
            analytic.append(interval, analytic_total)
            table.add_row(method, interval, run.rollback_ranks_total,
                          round(run.measured_lost_work_s, 2), round(analytic_total, 2),
                          round(run.measured_recovery_time_s, 3),
                          round(run.replayed_bytes / 1e6, 3))
    return {"measured_series": measured_series, "analytic_series": analytic_series,
            "table": table, "results": results}


#: expected lost work per (method, interval); its ``results`` feed
#: :func:`failure_rate_table`
WORK_LOSS = Experiment(work_loss_configs, work_loss_tables)
#: live kills per (method, interval), against the analytic model
MEASURED_WORK_LOSS = Experiment(measured_work_loss_configs, measured_work_loss_tables)
