"""Long-horizon availability experiments (the recovery-orchestration payoff).

The paper *argues* that group-based rollback keeps the machine available as
failures become frequent — only the affected group stalls, so GP should
degrade gracefully where NORM (everyone rolls back every time) collapses —
but never measures it.  These experiments do: each cell of a
(method × per-node MTBF × spare count) grid runs the application under a
seeded :class:`~repro.cluster.failure.PoissonFailureModel` for *many*
failures per run, with the :class:`~repro.recovery.manager.RecoveryManager`
scheduling concurrent group recoveries and a
:class:`~repro.recovery.spare.SparePool` placing relaunches.  Measured per
cell (mean ± spread over the seed axis, via
:func:`repro.campaign.export.average_over_seeds`):

* **makespan** — wall time to finish the same work despite the failures,
* **availability** — fraction of rank-time making forward progress
  (1 − (lost work + recovery time) / (ranks × makespan)),
* **per-failure recovery cost** — the calibration fed back into
  :func:`repro.analysis.advisor.suggest_checkpoint_interval` in place of its
  analytic guesses (:func:`calibrated_interval_table`).

:data:`AVAILABILITY` declares the grid once: ``AVAILABILITY.run(**grid)``
runs it through the default campaign (cached, resumable), and
``AVAILABILITY.from_store(store)`` rebuilds the same table from the stored
rows stamped ``availability``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import dataclasses

from repro.analysis.advisor import measured_costs, suggest_checkpoint_interval
from repro.analysis.reporting import Table
from repro.campaign.executor import get_default_campaign
from repro.campaign.export import average_over_seeds
from repro.campaign.store import config_to_dict
from repro.ckpt.scheduler import periodic
from repro.cluster.topology import GIDEON_300
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.declaration import StoredExperiment


#: workload knobs the availability defaults are calibrated for: enough
#: compute per iteration that lost work (not checkpoint I/O) dominates, and
#: small images so every method completes checkpoints regularly at the
#: default 2 s interval.  With these, the measured makespan ordering
#: NORM >= GP >= GP1 holds across the default failure-rate sweep.
#: (compute_seconds was re-calibrated 0.2 → 0.3 when the coordinator became
#: recovery-aware: healthy groups now keep checkpointing while another group
#: recovers, which at QUICK scale adds checkpoint I/O comparable to an
#: iteration's compute — more compute per iteration keeps lost work, the
#: quantity grouping actually protects, the dominant term.)
DEFAULT_WORKLOAD_OPTIONS = {
    "iterations": 30,
    "compute_seconds": 0.3,
    "memory_bytes": 8 * 1024 * 1024,
    "message_bytes": 32768,
}


@dataclass(frozen=True)
class AvailabilityCell:
    """Aggregated measurements of one (method, mtbf, spares) grid cell."""

    method: str
    mtbf_per_node_s: float
    n_spares: int
    n_seeds: int
    makespan_s: float
    makespan_std_s: float
    availability: float
    availability_std: float
    failures: float
    lost_work_s: float
    #: rank-seconds of recovery per failure episode (group size × wall clock;
    #: the advisor's per-failure *wall-clock* calibration divides by the
    #: rolled-back rank count instead — see advisor.measured_costs)
    recovery_cost_per_failure_s: float
    spare_migrations: float
    inplace_reboots: float
    aborted_recoveries: float
    max_concurrent_recoveries: float
    #: rebooted victim nodes that re-registered as spares (pool refill)
    spare_refills: float = 0.0


def availability_configs(
    workload: str = "halo2d",
    n_ranks: int = 16,
    methods: Sequence[str] = ("NORM", "GP", "GP1"),
    mtbf_per_node_s: Sequence[float] = (240.0, 100.0, 50.0),
    spare_counts: Sequence[int] = (0, 2),
    seeds: Sequence[int] = (0, 1),
    interval_s: float = 2.0,
    detection_delay_s: float = 0.25,
    reboot_delay_s: float = 5.0,
    max_failures: int = 6,
    max_group_size: Optional[int] = 8,
    workload_options: Optional[Dict[str, object]] = None,
    serialize_recoveries: bool = False,
) -> List[ScenarioConfig]:
    """The concrete scenario set behind one availability grid.

    One config per (method × mtbf × spares × seed); the failure stream's
    seed follows the scenario seed so the seed axis varies both the OS
    jitter and the failure times.

    The cluster is sized to the job — ``n_ranks + max(spare_counts)`` nodes —
    for two reasons: a Poisson victim then almost always hits a node that
    actually hosts a rank (on the 128-node default most events would strike
    empty nodes and be ignored), and every spare count sees the *identical*
    failure stream (node count feeds the arrival rate and victim draw), so
    spares-on vs spares-off compares the same disaster scenario.
    """
    if not methods or not mtbf_per_node_s or not spare_counts or not seeds:
        raise ValueError("methods, mtbf_per_node_s, spare_counts and seeds "
                         "must all be non-empty")
    if any(m <= 0 for m in mtbf_per_node_s):
        raise ValueError("mtbf_per_node_s values must be positive")
    if workload_options is None and workload == "halo2d":
        workload_options = dict(DEFAULT_WORKLOAD_OPTIONS)
    cluster = dataclasses.replace(
        GIDEON_300, n_nodes=n_ranks + max(spare_counts),
        name="availability")
    configs: List[ScenarioConfig] = []
    for method in methods:
        for mtbf in mtbf_per_node_s:
            for spares in spare_counts:
                for seed in seeds:
                    configs.append(ScenarioConfig(
                        workload=workload,
                        n_ranks=n_ranks,
                        method=method,
                        schedule=periodic(interval_s),
                        cluster=cluster,
                        seed=seed,
                        workload_options=dict(workload_options or {}),
                        max_group_size=max_group_size,
                        do_restart=False,
                        failure=FailureSpec(
                            mtbf_per_node_s=mtbf,
                            max_failures=max_failures,
                            detection_delay_s=detection_delay_s,
                            seed=seed,
                            n_spares=spares,
                            reboot_delay_s=reboot_delay_s,
                            serialize_recoveries=serialize_recoveries,
                        ),
                    ))
    return configs


def _differing_fields(a: ScenarioConfig, b: ScenarioConfig) -> List[str]:
    """Dotted config fields two seed-averaged cells disagree on."""
    def flat(value, prefix=""):
        if isinstance(value, dict):
            return {name: item for key, sub in value.items()
                    for name, item in flat(sub, f"{prefix}{key}.").items()}
        return {prefix[:-1]: value}

    fa, fb = flat(config_to_dict(a)), flat(config_to_dict(b))
    return sorted(name for name in fa.keys() | fb.keys()
                  if fa.get(name) != fb.get(name)
                  and name not in ("seed", "failure.seed"))


def availability_summary(results) -> Dict[str, object]:
    """Seed-average availability results into per-cell measurements and a table.

    A pure aggregation over live or stored payloads — the observatory serves
    it from a campaign store without touching the simulator.  Rows follow
    the first-seen order of method, spare count and MTBF, which over one
    grid's results is the grid's own order.  Cells missing from the store (a
    partially-drained grid) are skipped.  Two different cells landing on one
    (method, MTBF, spares) row — say a store holding two grids that differ
    only in ``max_failures`` — raise :class:`ValueError` naming the fields
    they differ in.
    """
    averaged = average_over_seeds(results)
    by_row = {}
    for result in averaged:
        cfg = result.config
        row = (cfg.method, cfg.failure.mtbf_per_node_s, cfg.failure.n_spares)
        if row in by_row:
            fields = _differing_fields(by_row[row].config, cfg)
            raise ValueError(
                f"two availability cells share the row (method {row[0]}, node "
                f"MTBF {row[1]:g}s, {row[2]} spares) but differ in "
                f"{', '.join(fields)}")
        by_row[row] = result

    if averaged:
        first = averaged[0]
        cfg = first.config
        interval_s = cfg.schedule.interval_s if cfg.schedule else 0.0
        context = (f"{cfg.workload}, {cfg.n_ranks} ranks, "
                   f"ckpt every {interval_s:g}s, "
                   f"≤{cfg.failure.max_failures} failures/run, "
                   f"{first.metrics.get('n_seeds', 1)} seeds")
    else:
        context = "no stored results"
    cells: List[AvailabilityCell] = []
    table = Table(
        title=f"Availability under sustained failures ({context})",
        columns=["method", "node MTBF (s)", "spares", "makespan (s)", "± (s)",
                 "availability", "failures", "loss (s)", "recovery rank-s/fail",
                 "migrated", "rebooted", "refilled", "aborted", "peak conc."],
    )
    for method in dict.fromkeys(m for m, _, _ in by_row):
        for spares in dict.fromkeys(s for _, _, s in by_row):
            for mtbf in dict.fromkeys(t for _, t, _ in by_row):
                result = by_row.get((method, mtbf, spares))
                if result is None:
                    continue
                m = result.metrics
                failures = result.failures_injected
                recovery_per_failure = (
                    result.recovery_rank_seconds / failures if failures else 0.0)
                cell = AvailabilityCell(
                    method=method,
                    mtbf_per_node_s=mtbf,
                    n_spares=spares,
                    n_seeds=m.get("n_seeds", 1),
                    makespan_s=result.makespan,
                    makespan_std_s=m.get("makespan_std", 0.0),
                    availability=result.availability,
                    availability_std=m.get("availability_std", 0.0),
                    failures=failures,
                    lost_work_s=result.measured_lost_work_s,
                    recovery_cost_per_failure_s=recovery_per_failure,
                    spare_migrations=result.spare_migrations,
                    inplace_reboots=result.inplace_reboots,
                    aborted_recoveries=result.aborted_recoveries,
                    max_concurrent_recoveries=result.max_concurrent_recoveries,
                    spare_refills=result.spare_refills,
                )
                cells.append(cell)
                table.add_row(
                    method, mtbf, spares,
                    round(cell.makespan_s, 2), round(cell.makespan_std_s, 2),
                    round(cell.availability, 4), round(cell.failures, 1),
                    round(cell.lost_work_s, 2),
                    round(cell.recovery_cost_per_failure_s, 3),
                    round(cell.spare_migrations, 1), round(cell.inplace_reboots, 1),
                    round(cell.spare_refills, 1),
                    round(cell.aborted_recoveries, 1),
                    round(cell.max_concurrent_recoveries, 1))
    return {"cells": cells, "table": table, "results": averaged}


#: the availability grid: ``cells`` (one :class:`AvailabilityCell` per grid
#: point, seed-averaged), the ``table`` served as ``/api/tables/availability``
#: and the seed-averaged ``results``
AVAILABILITY = StoredExperiment(availability_configs, availability_summary,
                                stamp="availability", served={"availability": "table"})


def calibrated_interval_table(
    results,
    mtbf_s: float,
    analytic_checkpoint_costs: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Advisor suggestions: analytic guesses vs measured-calibrated, per method.

    ``results`` are (seed-averaged) availability results; for every method
    the cell with the most injected failures calibrates
    :func:`~repro.analysis.advisor.measured_costs`.  The analytic column uses
    ``analytic_checkpoint_costs`` (falling back to the measured checkpoint
    cost) and no recovery cost — exactly what the advisor did before
    measured recovery existed — so the table shows what the measurements
    change.
    """
    if mtbf_s <= 0:
        raise ValueError("mtbf_s must be positive")
    best = {}
    for result in results:
        if result.failures_injected < 1:
            continue
        method = result.config.method
        if (method not in best
                or result.failures_injected > best[method].failures_injected):
            best[method] = result
    if not best:
        raise ValueError("no availability result injected any failure; "
                         "cannot calibrate the advisor")
    table = Table(
        title=f"Checkpoint-interval suggestions at system MTBF {mtbf_s:.0f}s",
        columns=["method", "ckpt cost (s)", "recovery/failure (s)",
                 "analytic interval (s)", "calibrated interval (s)", "shift"],
    )
    suggestions = {}
    for method in sorted(best):
        costs = measured_costs(best[method])
        analytic_cost = (analytic_checkpoint_costs or {}).get(
            method, costs.checkpoint_cost_s)
        analytic = suggest_checkpoint_interval(analytic_cost, mtbf_s)
        calibrated = suggest_checkpoint_interval(
            analytic_cost, mtbf_s, measured=costs)
        suggestions[method] = {"analytic": analytic, "calibrated": calibrated,
                               "costs": costs}
        shift = calibrated.interval_s / analytic.interval_s - 1.0
        table.add_row(method, round(costs.checkpoint_cost_s, 3),
                      round(costs.recovery_cost_s, 3),
                      round(analytic.interval_s, 1),
                      round(calibrated.interval_s, 1),
                      f"{shift:+.1%}")
    return {"suggestions": suggestions, "table": table}


def concurrency_ablation(
    workload: str = "halo2d",
    n_ranks: int = 16,
    method: str = "GP4",
    mtbf_per_node_s: float = 50.0,
    n_spares: int = 0,
    seeds: Sequence[int] = (0, 1),
    interval_s: float = 2.0,
    max_failures: int = 6,
    reboot_delay_s: float = 5.0,
) -> Dict[str, object]:
    """Concurrent vs serialised recovery scheduling on the same failure stream.

    Runs one availability cell twice — once with the manager free to overlap
    channel-independent group recoveries, once with every failure waiting the
    previous recovery out (``serialize_recoveries=True``, the pre-manager
    behaviour) — and reports both makespans.  Concurrency can only help:
    the serialised schedule is one of the schedules the manager may pick.
    Its rows carry their own stamp, ``availability-ablation``: both cells sit
    on one availability row, so the availability table must not see them.
    """
    configs = [
        dataclasses.replace(config, cluster=dataclasses.replace(
            config.cluster, name="availability-ablation"))
        for serialize in (False, True)
        for config in availability_configs(
            workload=workload, n_ranks=n_ranks, methods=(method,),
            mtbf_per_node_s=(mtbf_per_node_s,), spare_counts=(n_spares,),
            seeds=seeds, interval_s=interval_s, max_failures=max_failures,
            reboot_delay_s=reboot_delay_s, serialize_recoveries=serialize)]
    out = dict(zip(("concurrent", "serialized"),
                   average_over_seeds(get_default_campaign().run(configs))))
    table = Table(
        title=f"Concurrent vs serialised recovery ({workload}, {n_ranks} ranks, "
              f"{method}, node MTBF {mtbf_per_node_s:g}s)",
        columns=["scheduling", "makespan (s)", "availability",
                 "peak concurrent", "failures"],
    )
    for label, result in out.items():
        table.add_row(label, round(result.makespan, 2),
                      round(result.availability, 4),
                      round(result.max_concurrent_recoveries, 1),
                      round(result.failures_injected, 1))
    return {"results": out, "table": table}
