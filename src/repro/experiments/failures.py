"""Failure-injection extension experiments (beyond the paper's figures).

The paper motivates group-based checkpointing with reduced work loss: because
checkpoints are cheaper, they can be taken more often, so a failure destroys
less work, and only the affected group has to roll back.  These experiments
quantify that argument with the failure models from
:mod:`repro.cluster.failure`:

* :func:`expected_work_loss_experiment` — expected lost work per failure as a
  function of checkpoint interval and grouping method (analytic post-hoc
  model on a failure-free run),
* :func:`measured_work_loss_experiment` — the *measured* counterpart: a rank
  is actually killed mid-run (:class:`~repro.cluster.failure.FailureInjector`)
  and the group rollback + log replay executes live, so lost work, recovery
  time and replay volume are observed rather than modelled,
* :func:`failure_rate_sweep` — the ``failure_rate`` axis: best interval and
  total fault-tolerance cost per grouping method across per-node failure
  rates,
* :func:`rollback_scope_experiment` — how many processes must roll back when
  one node fails, under each grouping method.

The simulated scenarios behind :func:`expected_work_loss_experiment` and
:func:`failure_rate_sweep` are expressed as a declarative
:class:`~repro.campaign.grid.ParameterGrid` (method × schedule) and executed
through the process-wide default campaign, so repeated sweeps are served from
the store, run in parallel with ``REPRO_CAMPAIGN_WORKERS``, and resume after
interruption like every figure sweep.  The failure-rate axis itself is
analytic (the rate scales the expected number of failures, not the simulated
run), so one simulated grid serves every rate point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.advisor import expected_overhead_fraction, suggest_checkpoint_interval
from repro.analysis.reporting import Series, Table, series_table
from repro.cluster.failure import ExponentialFailureModel, expected_lost_work
from repro.core.groups import GroupSet
from repro.experiments.config import ExperimentProfile, FULL, FailureSpec, ScenarioConfig
from repro.experiments.runner import obtain_groups
from repro.ckpt.scheduler import periodic
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class WorkLossPoint:
    """Expected lost work for one (method, interval) combination."""

    method: str
    interval_s: float
    checkpoints_completed: int
    expected_loss_s: float
    execution_time_s: float


def work_loss_grid(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
    intervals: Tuple[float, ...] = (60.0, 120.0, 180.0),
    methods: Tuple[str, ...] = ("GP", "NORM"),
    include_baseline: bool = False,
):
    """The (method × checkpoint-schedule) grid behind the failure experiments.

    ``include_baseline`` adds a no-checkpoint scenario per method, used by
    :func:`failure_rate_sweep` to separate checkpoint overhead from the
    application's own runtime.
    """
    from repro.campaign.grid import ParameterGrid

    n = n_ranks if n_ranks is not None else profile.hpl_scales[-1]
    schedules: List[object] = [periodic(interval) for interval in intervals]
    if include_baseline:
        schedules.insert(0, None)
    return ParameterGrid(
        axes={"method": tuple(methods), "schedule": tuple(schedules)},
        base=dict(
            workload="hpl",
            n_ranks=n,
            workload_options=dict(profile.hpl_options),
            max_group_size=8,
            do_restart=False,
            seed=11,
        ),
    )


def _run_grid(grid) -> Dict[Tuple[str, Optional[object]], object]:
    """Execute a failure grid through the default campaign, keyed by (method, schedule)."""
    from repro.campaign.executor import get_default_campaign

    results = get_default_campaign().run(grid.expand())
    return {(r.config.method, r.config.schedule): r for r in results}


def expected_work_loss_experiment(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
    intervals: Tuple[float, ...] = (60.0, 120.0, 180.0),
    failure_fraction: float = 0.6,
) -> Dict[str, object]:
    """Expected lost work when a failure strikes, per grouping method and interval.

    A failure is assumed to strike at ``failure_fraction`` of the (method's
    own) execution; the lost work is the time since the last *completed*
    checkpoint wave of the failed process's group.  Scenarios run through the
    default campaign (cached, parallel, resumable).
    """
    if not 0.0 < failure_fraction < 1.0:
        raise ValueError("failure_fraction must be in (0, 1)")
    n = n_ranks if n_ranks is not None else profile.hpl_scales[-1]
    grid = work_loss_grid(profile, n, intervals)
    by_point = _run_grid(grid)
    points: List[WorkLossPoint] = []
    series: Dict[str, Series] = {}
    schedules = {interval: periodic(interval) for interval in intervals}
    for method in ("GP", "NORM"):
        series[method] = Series(name=f"{method} expected loss (s)")
        for interval in intervals:
            result = by_point[(method, schedules[interval])]
            failure_time = result.makespan * failure_fraction
            # completed checkpoint times of the group containing rank 0
            loss = expected_lost_work(
                interval, failure_time, result.rank0_checkpoint_end_times
            )
            points.append(
                WorkLossPoint(
                    method=method,
                    interval_s=interval,
                    checkpoints_completed=result.checkpoints_completed,
                    expected_loss_s=loss,
                    execution_time_s=result.makespan,
                )
            )
            series[method].append(interval, loss)
    table = series_table(
        f"Expected lost work after a failure at {int(failure_fraction * 100)}% of execution "
        f"(HPL, {n} processes)",
        list(series.values()),
        x_label="interval (s)",
    )
    return {"points": points, "series": list(series.values()), "table": table}


@dataclass(frozen=True)
class MeasuredWorkLossPoint:
    """Measured vs analytic work loss for one (method, interval) combination."""

    method: str
    interval_s: float
    failure_time_s: float
    #: ranks that actually rolled back in the measured run
    rollback_ranks: int
    #: rollback scope the grouping predicts (the analytic model's multiplier)
    predicted_scope: int
    measured_lost_work_s: float
    measured_recovery_time_s: float
    replayed_bytes: int
    replayed_messages: int
    skipped_bytes: int
    #: per-process analytic loss (time since rank 0's last completed ckpt)
    analytic_loss_per_rank_s: float
    #: analytic total = per-rank loss × predicted rollback scope
    analytic_total_loss_s: float
    makespan_s: float
    failure_free_makespan_s: float


def _victim_scope(method: str, n_ranks: int, profile: ExperimentProfile,
                  victim_rank: int = 0, max_group_size: int = 8) -> int:
    """How many processes the grouping method predicts will roll back."""
    if method == "NORM" or method == "VCL":
        return n_ranks
    if method == "GP1":
        return 1
    if method == "GP4":
        return len(GroupSet.contiguous(n_ranks, 4).members(victim_rank))
    groups = obtain_groups("hpl", n_ranks, dict(profile.hpl_options),
                           max_group_size=max_group_size)
    return len(groups.members(victim_rank))


def measured_work_loss_grid(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
    intervals: Tuple[float, ...] = (60.0, 120.0, 180.0),
    methods: Tuple[str, ...] = ("NORM", "GP", "GP1"),
    failure_fraction: float = 0.6,
    detection_delay_s: float = 0.25,
) -> Tuple[List[ScenarioConfig], Dict[Tuple[str, float], object]]:
    """The measured-failure scenario set (one live kill per grid cell).

    Phase 1 runs the failure-free (method × interval) grid through the
    default campaign to learn each cell's makespan; phase 2 builds one
    scenario per cell with a :class:`~repro.experiments.config.FailureSpec`
    that kills rank 0's node at ``failure_fraction`` of that makespan.
    Returns the measured configs plus the failure-free results keyed by
    ``(method, interval)`` (the analytic baseline the comparison needs).
    """
    if not 0.0 < failure_fraction < 1.0:
        raise ValueError("failure_fraction must be in (0, 1)")
    n = n_ranks if n_ranks is not None else profile.hpl_scales[-1]
    base_grid = work_loss_grid(profile, n, intervals, methods)
    by_point = _run_grid(base_grid)
    schedules = {interval: periodic(interval) for interval in intervals}
    configs: List[ScenarioConfig] = []
    baselines: Dict[Tuple[str, float], object] = {}
    for method in methods:
        for interval in intervals:
            baseline = by_point[(method, schedules[interval])]
            baselines[(method, interval)] = baseline
            failure = FailureSpec(
                at_s=baseline.makespan * failure_fraction,
                victim_rank=0,
                detection_delay_s=detection_delay_s,
            )
            configs.append(ScenarioConfig(
                workload="hpl",
                n_ranks=n,
                method=method,
                schedule=schedules[interval],
                workload_options=dict(profile.hpl_options),
                max_group_size=8,
                do_restart=False,
                seed=11,
                failure=failure,
            ))
    return configs, baselines


def measured_work_loss_experiment(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
    intervals: Tuple[float, ...] = (60.0, 120.0, 180.0),
    methods: Tuple[str, ...] = ("NORM", "GP", "GP1"),
    failure_fraction: float = 0.6,
    detection_delay_s: float = 0.25,
) -> Dict[str, object]:
    """Kill a rank mid-run and *measure* the group rollback, per method/interval.

    The measured counterpart of :func:`expected_work_loss_experiment`: the
    same campaign grid, but each cell's run suffers a live node failure at
    ``failure_fraction`` of its failure-free makespan.  Only the victim's
    group rolls back (to its last coordinated checkpoint); out-of-group
    ranks replay their sender logs over the simulated network and keep
    executing.  Reported per cell: measured total lost work, recovery time,
    replay volume, and the analytic prediction (per-rank loss since the last
    completed checkpoint × predicted rollback scope) on the same grid.
    """
    from repro.campaign.executor import get_default_campaign

    n = n_ranks if n_ranks is not None else profile.hpl_scales[-1]
    configs, baselines = measured_work_loss_grid(
        profile, n, intervals, methods, failure_fraction, detection_delay_s)
    results = get_default_campaign().run(configs)
    by_cell = {(r.config.method, r.config.schedule.interval_s): r for r in results}

    points: List[MeasuredWorkLossPoint] = []
    measured_series: Dict[str, Series] = {}
    analytic_series: Dict[str, Series] = {}
    table = Table(
        title=(f"Measured vs analytic work loss (HPL, {n} processes; kill at "
               f"{int(failure_fraction * 100)}% of execution)"),
        columns=["method", "interval (s)", "rolled back", "measured loss (s)",
                 "analytic loss (s)", "recovery (s)", "replayed (MB)"],
    )
    for method in methods:
        measured_series[method] = Series(name=f"{method} measured loss (s)")
        analytic_series[method] = Series(name=f"{method} analytic loss (s)")
        for interval in intervals:
            result = by_cell[(method, interval)]
            baseline = baselines[(method, interval)]
            failure_time = baseline.makespan * failure_fraction
            per_rank = expected_lost_work(
                interval, failure_time, baseline.rank0_checkpoint_end_times)
            scope = _victim_scope(method, n, profile)
            analytic_total = per_rank * scope
            point = MeasuredWorkLossPoint(
                method=method,
                interval_s=interval,
                failure_time_s=failure_time,
                rollback_ranks=result.rollback_ranks_total,
                predicted_scope=scope,
                measured_lost_work_s=result.measured_lost_work_s,
                measured_recovery_time_s=result.measured_recovery_time_s,
                replayed_bytes=result.replayed_bytes,
                replayed_messages=result.replayed_messages,
                skipped_bytes=result.skipped_bytes,
                analytic_loss_per_rank_s=per_rank,
                analytic_total_loss_s=analytic_total,
                makespan_s=result.makespan,
                failure_free_makespan_s=baseline.makespan,
            )
            points.append(point)
            measured_series[method].append(interval, point.measured_lost_work_s)
            analytic_series[method].append(interval, analytic_total)
            table.add_row(method, interval, point.rollback_ranks,
                          round(point.measured_lost_work_s, 2),
                          round(analytic_total, 2),
                          round(point.measured_recovery_time_s, 3),
                          round(point.replayed_bytes / 1e6, 3))
    return {
        "points": points,
        "measured_series": list(measured_series.values()),
        "analytic_series": list(analytic_series.values()),
        "table": table,
    }


@dataclass(frozen=True)
class FailureRatePoint:
    """Best checkpointing configuration for one (failure_rate, method) pair."""

    failure_rate_per_node_s: float
    method: str
    best_interval_s: float
    checkpoint_overhead_s: float
    expected_failures: float
    expected_loss_s: float
    expected_total_cost_s: float


def failure_rate_sweep(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
    failure_rates: Sequence[float] = (1e-7, 1e-6, 1e-5, 1e-4),
    intervals: Tuple[float, ...] = (60.0, 120.0, 180.0),
    methods: Tuple[str, ...] = ("GP", "NORM"),
    failure_fraction: float = 0.6,
) -> Dict[str, object]:
    """The ``failure_rate`` axis: cheapest fault-tolerance setup per rate.

    For every per-node failure rate (failures per node-second), every grouping
    method and every candidate interval, combines

    * the *measured* checkpoint overhead (makespan with checkpoints minus the
      method's own no-checkpoint makespan, from the simulated grid), and
    * the *expected* rework (expected number of failures during the run times
      the measured lost work per failure, using rank 0's completed checkpoint
      times)

    and reports the interval minimising the total per (rate, method).  Only
    the (method × schedule) grid is simulated — the rate axis is analytic, so
    the same campaign rows serve every rate point.

    An interval whose run completed *zero* checkpoints (longer than the
    execution itself) is not a checkpointing configuration at all — such
    candidates are excluded from the per-rate minimisation rather than being
    reported as a "best interval" with vacuously zero overhead.  If every
    candidate interval is too long, a :class:`ValueError` names the fix.
    """
    if not failure_rates:
        raise ValueError("failure_rates must not be empty")
    if any(rate <= 0 for rate in failure_rates):
        raise ValueError("failure rates must be positive")
    n = n_ranks if n_ranks is not None else profile.hpl_scales[-1]
    grid = work_loss_grid(profile, n, intervals, methods, include_baseline=True)
    by_point = _run_grid(grid)
    schedules = {interval: periodic(interval) for interval in intervals}

    table = Table(
        title=f"Failure-rate sweep (HPL, {n} processes; failure at "
              f"{int(failure_fraction * 100)}% of execution)",
        columns=["rate (/node/s)", "method", "best interval (s)",
                 "ckpt overhead (s)", "E[failures]", "E[loss] (s)", "E[total] (s)"],
    )
    points: List[FailureRatePoint] = []
    series = {m: Series(name=f"{m} expected total cost (s)") for m in methods}
    for rate in failure_rates:
        for method in methods:
            baseline = by_point[(method, None)].makespan
            best: Optional[FailureRatePoint] = None
            for interval in intervals:
                result = by_point[(method, schedules[interval])]
                if result.checkpoints_completed == 0:
                    # the run never checkpointed: not a candidate configuration
                    continue
                overhead = result.makespan - baseline
                loss = expected_lost_work(
                    interval,
                    result.makespan * failure_fraction,
                    result.rank0_checkpoint_end_times,
                )
                expected_failures = rate * n * result.makespan
                total = overhead + expected_failures * loss
                point = FailureRatePoint(
                    failure_rate_per_node_s=rate,
                    method=method,
                    best_interval_s=interval,
                    checkpoint_overhead_s=overhead,
                    expected_failures=expected_failures,
                    expected_loss_s=loss,
                    expected_total_cost_s=total,
                )
                if best is None or point.expected_total_cost_s < best.expected_total_cost_s:
                    best = point
            if best is None:
                makespans = [by_point[(method, schedules[i])].makespan for i in intervals]
                raise ValueError(
                    f"no candidate interval completed a checkpoint for method {method!r} "
                    f"(intervals {tuple(intervals)} vs makespans ~{min(makespans):.1f}s); "
                    f"choose intervals shorter than the execution time"
                )
            points.append(best)
            series[best.method].append(rate, best.expected_total_cost_s)
            table.add_row(rate, best.method, best.best_interval_s,
                          best.checkpoint_overhead_s, best.expected_failures,
                          best.expected_loss_s, best.expected_total_cost_s)
    return {"points": points, "series": list(series.values()), "table": table, "grid": grid}


def rollback_scope_experiment(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
) -> Dict[str, object]:
    """How many processes roll back when a single node fails, per grouping method.

    Under a global coordinated checkpoint every process restarts; under the
    group-based scheme only the failed process's group does (plus log replay
    from out-of-group peers, which do *not* roll back).
    """
    n = n_ranks if n_ranks is not None else profile.hpl_scales[-1]
    groups = obtain_groups("hpl", n, dict(profile.hpl_options), max_group_size=8)
    schemes = {
        "NORM": GroupSet.single(n),
        "GP": groups,
        "GP4": GroupSet.contiguous(n, 4),
        "GP1": GroupSet.singletons(n),
    }
    table = Table(
        title=f"Rollback scope after one node failure ({n} processes)",
        columns=["method", "processes rolled back", "fraction of system"],
    )
    out: Dict[str, int] = {}
    for name, groupset in schemes.items():
        scope = len(groupset.members(0))
        out[name] = scope
        table.add_row(name, scope, scope / n)
    return {"scope": out, "table": table}


def mtbf_overhead_experiment(
    checkpoint_costs: Dict[str, float],
    mtbf_per_node_s: float = 2_000_000.0,
    n_nodes: int = 128,
    restart_costs: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """End-to-end fault-tolerance overhead per method at the optimal interval.

    Combines measured per-checkpoint costs with a node-failure model to show
    the practical consequence of cheaper checkpoints: a shorter optimal
    interval and lower total overhead.
    """
    model = ExponentialFailureModel(mtbf_per_node_s, rng=RandomStreams(3))
    mtbf = model.system_mtbf(n_nodes)
    restart_costs = restart_costs or {}
    table = Table(
        title=f"Fault-tolerance overhead at system MTBF {mtbf / 3600.0:.1f} h ({n_nodes} nodes)",
        columns=["method", "ckpt cost (s)", "optimal interval (s)", "overhead fraction"],
    )
    out = {}
    for method, cost in checkpoint_costs.items():
        suggestion = suggest_checkpoint_interval(cost, mtbf)
        overhead = expected_overhead_fraction(
            suggestion.interval_s, cost, mtbf, restart_costs.get(method, 0.0)
        )
        out[method] = {"interval_s": suggestion.interval_s, "overhead": overhead}
        table.add_row(method, cost, suggestion.interval_s, overhead)
    return {"results": out, "table": table, "system_mtbf_s": mtbf}
