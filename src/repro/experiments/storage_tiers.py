"""Storage-tier experiments: overhead vs restart cost vs survivability.

The multi-level checkpoint-storage hierarchy trades steady-state overhead for
correlated-failure survival:

* **L1** (local disk) is nearly free but dies with the node,
* **L1+L2** adds an async cross-switch partner replica — steady-state cost is
  the bounded-buffer back-pressure plus disk/network contention, and a whole
  dead node (or rack) stops mattering,
* **L1+L2+L3** adds the remote file system — the most expensive writes, and
  nothing short of losing the servers themselves can strand the job.

These sweeps measure all three corners on one campaign grid
(method × tier policy × failure model): the failure-free cells give the
steady-state overhead ordering (L1 ≤ L1+L2 ≤ L1+L2+L3 in makespan), the
node-crash and switch-outage cells give measured restart cost per tier, and
the *survivability matrix* reports which (policy, failure) combinations
recover at all — unsurvivable cells (a switch outage with same-switch or no
partner replicas) are reported as such, not crashed: the run is declared
failed the moment no surviving copy of a required image exists, and its
payload records ``survived = 0``.

:data:`STORAGE_TIERS` declares the grid once: ``STORAGE_TIERS.run(**grid)``
runs it through the default campaign, and ``STORAGE_TIERS.from_store(store)``
rebuilds the same tables from the stored rows stamped ``storage-tiers``.

:func:`tier_cost_calibration` closes the loop back to the advisor: it
extracts measured per-tier checkpoint costs from the sweep and feeds
:func:`repro.analysis.advisor.suggest_multilevel_intervals`, yielding the
FTI-style "every k-th checkpoint to L2/L3" promotion counters a
:class:`~repro.storage.policy.StoragePolicy` consumes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.advisor import suggest_multilevel_intervals
from repro.analysis.reporting import Table
from repro.ckpt.scheduler import CheckpointSchedule
from repro.cluster.topology import GIDEON_300
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.declaration import StoredExperiment
from repro.storage.policy import (
    PARTNER_SAME_SWITCH,
    StoragePolicy,
    full_hierarchy,
    local_only,
    partner_replicated,
)


#: workload knobs the tier sweeps are calibrated for: compute-dominated
#: iterations, and images small enough (4 MB) that an async partner copy
#: drains over the contended Fast-Ethernet NIC well within one checkpoint
#: interval — replication back-pressure is measurable without drowning the
#: application
DEFAULT_WORKLOAD_OPTIONS = {
    "iterations": 30,
    "compute_seconds": 0.3,
    "memory_bytes": 4 * 1024 * 1024,
    "message_bytes": 32768,
}

#: the tier policies the default sweep compares (None = legacy single-tier)
TIER_POLICIES: Dict[str, Optional[StoragePolicy]] = {
    "L1": local_only(),
    "L1+L2": partner_replicated(),
    "L1+L2same": partner_replicated(placement=PARTNER_SAME_SWITCH),
    "L1+L2+L3": full_hierarchy(),
}

#: the failure scenarios the default sweep crosses the policies with
FAILURE_KINDS: Tuple[str, ...] = ("none", "node-crash", "switch-outage")


def policy_label(config: ScenarioConfig) -> str:
    """Human-readable tier-policy label of one scenario config."""
    policy = config.cluster.storage_policy
    if policy is None:
        return f"legacy-{config.cluster.checkpoint_storage}"
    for name, preset in TIER_POLICIES.items():
        if preset == policy:
            return name
    return policy.describe()


def failure_label(config: ScenarioConfig) -> str:
    """Which failure scenario a config runs under."""
    fs = config.failure
    if fs is None:
        return "none"
    if fs.switch_outage_at_s is not None:
        return "switch-outage"
    if fs.at_s is not None:
        return "node-crash"
    return "poisson"


def _failure_spec(kind: str, at_s: float, seed: int, n_spares: int,
                  reboot_delay_s: float) -> Optional[FailureSpec]:
    if kind == "none":
        return None
    if kind == "node-crash":
        return FailureSpec(at_s=at_s, victim_rank=0, seed=seed,
                           n_spares=n_spares, reboot_delay_s=reboot_delay_s)
    if kind == "switch-outage":
        return FailureSpec(switch_outage_at_s=at_s, outage_switch=0, seed=seed,
                           n_spares=n_spares, reboot_delay_s=reboot_delay_s)
    raise ValueError(f"unknown failure kind {kind!r}; "
                     f"expected one of {FAILURE_KINDS}")


def storage_tier_configs(
    workload: str = "halo2d",
    n_ranks: int = 16,
    methods: Sequence[str] = ("NORM", "GP", "GP1"),
    policies: Sequence[str] = ("L1", "L1+L2", "L1+L2+L3"),
    failures: Sequence[str] = FAILURE_KINDS,
    seeds: Sequence[int] = (0,),
    checkpoint_times: Sequence[float] = (2.0, 5.0, 8.0),
    failure_at_s: float = 12.0,
    nodes_per_switch: int = 4,
    n_spares: int = 2,
    reboot_delay_s: float = 5.0,
    max_group_size: Optional[int] = 8,
    workload_options: Optional[Dict[str, object]] = None,
) -> List[ScenarioConfig]:
    """The scenario set behind one storage-tier grid.

    The cluster is sized to the job (``n_ranks + n_spares`` nodes) with a
    small edge-switch radix so several switches exist even at QUICK scale —
    cross-switch partner placement and the whole-switch outage need at least
    two racks to mean anything.  Every cell sees the identical outage
    (switch 0 at ``failure_at_s``), so survivability differences are purely
    the storage policy's doing.

    Checkpoints use *explicit* request times (the Figure 13/14 fairness
    setup): explicit times are deferred — never dropped — under coordinator
    back-pressure, so every cell completes the same number of checkpoints
    and the makespans compare per-checkpoint cost, not checkpoint count.
    An unbounded periodic schedule would feed back (an expensive tier makes
    the run longer, which schedules *more* checkpoints, which makes it
    longer still) and drown the ordering in count differences.
    """
    if not methods or not policies or not failures or not seeds:
        raise ValueError("methods, policies, failures and seeds must be non-empty")
    if workload_options is None and workload == "halo2d":
        workload_options = dict(DEFAULT_WORKLOAD_OPTIONS)
    schedule = CheckpointSchedule(times=tuple(checkpoint_times))
    configs: List[ScenarioConfig] = []
    for policy_name in policies:
        try:
            policy = TIER_POLICIES[policy_name]
        except KeyError as exc:
            raise ValueError(f"unknown policy {policy_name!r}; expected one of "
                             f"{sorted(TIER_POLICIES)}") from exc
        cluster = dataclasses.replace(
            GIDEON_300, n_nodes=n_ranks + n_spares,
            nodes_per_switch=nodes_per_switch,
            storage_policy=policy, name="storage-tiers")
        for method in methods:
            for kind in failures:
                for seed in seeds:
                    configs.append(ScenarioConfig(
                        workload=workload,
                        n_ranks=n_ranks,
                        method=method,
                        schedule=schedule,
                        cluster=cluster,
                        seed=seed,
                        workload_options=dict(workload_options or {}),
                        max_group_size=max_group_size,
                        do_restart=False,
                        failure=_failure_spec(kind, failure_at_s, seed,
                                              n_spares, reboot_delay_s),
                    ))
    return configs


def _by_cell(results) -> Dict[Tuple[str, str, str, int], object]:
    return {(r.config.method, policy_label(r.config), failure_label(r.config),
             r.config.seed): r for r in results}


def overhead_table(results) -> Table:
    """Steady-state overhead per (method, policy) from failure-free cells.

    A pure aggregation over (live or stored) results — nothing is
    re-simulated, so the observatory can serve it straight from a campaign
    store.  Rows follow the first-seen order of method and policy, which
    over one grid's results is the grid's own order; each method's baseline
    is its first policy.
    """
    results = list(results)
    by_cell = _by_cell(results)
    methods = dict.fromkeys(r.config.method for r in results)
    policies = dict.fromkeys(policy_label(r.config) for r in results)

    if results:
        first = results[0].config
        schedule = first.schedule
        n_checkpoints = len(schedule.times) if schedule is not None else 0
        context = (f"{first.workload}, {first.n_ranks} ranks, "
                   f"{n_checkpoints} equal-count checkpoints, failure-free")
    else:
        context = "no stored results"
    overhead = Table(
        title=f"Steady-state storage-tier overhead ({context})",
        columns=["method", "policy", "makespan (s)", "overhead vs L1",
                 "ckpt phase (s)", "L1 MB", "L2 MB", "L3 MB",
                 "partner copies", "stalls"],
    )
    mb = 1024.0 * 1024.0

    def _ckpt_phase_seconds(result) -> float:
        # phase-attributed checkpoint time from the metrics registry
        # (payload v6 "phase_times") — the telemetry layer's one source of
        # truth, not re-derived from ApplicationResult fields
        checkpoint = (result.phase_times or {}).get("checkpoint") or {}
        return sum((checkpoint.get("stages") or {}).values())

    for method in methods:
        baseline = None
        for policy in policies:
            cell = [r for (m, p, f, _s), r in sorted(by_cell.items())
                    if m == method and p == policy and f == "none"]
            if not cell:
                continue
            makespan = sum(r.makespan for r in cell) / len(cell)
            if baseline is None:
                baseline = makespan
            written = {lvl: sum(r.tier_bytes_written.get(lvl, 0) for r in cell)
                       for lvl in ("L1", "L2", "L3")}
            overhead.add_row(
                method, policy, round(makespan, 3),
                f"{makespan / baseline - 1.0:+.2%}",
                round(sum(_ckpt_phase_seconds(r) for r in cell) / len(cell), 3),
                round(written["L1"] / mb, 1), round(written["L2"] / mb, 1),
                round(written["L3"] / mb, 1),
                sum(r.partner_copies for r in cell),
                sum(r.replication_stalls for r in cell))
    return overhead


def survivability_matrix(results) -> Table:
    """(policy × failure kind) → survived / UNSURVIVABLE, with restart cost."""
    cells: Dict[Tuple[str, str], List] = {}
    for result in results:
        key = (policy_label(result.config), failure_label(result.config))
        cells.setdefault(key, []).append(result)
    policies = sorted({p for p, _ in cells})
    kinds = [k for k in ("none", "node-crash", "switch-outage", "poisson")
             if any(key[1] == k for key in cells)]
    table = Table(
        title="Survivability matrix (per tier policy × failure scenario)",
        columns=["policy"] + list(kinds),
    )
    for policy in policies:
        row: List[object] = [policy]
        for kind in kinds:
            members = cells.get((policy, kind))
            if not members:
                row.append("-")
                continue
            survived = sum(1 for m in members if m.survived)
            if survived < len(members):
                row.append(f"UNSURVIVABLE ({survived}/{len(members)})")
            elif kind == "none":
                row.append("ok")
            else:
                recovery = max(m.measured_recovery_time_s for m in members)
                row.append(f"recovers ({recovery:.2f}s max)")
        table.add_row(*row)
    return table


def storage_tier_tables(results) -> Dict[str, object]:
    """One grid's ``overhead`` table and ``survivability`` matrix.

    Also returns the ``results`` and ``by_cell``, keyed (method, policy,
    failure kind, seed), for programmatic access.
    """
    return {
        "results": results,
        "by_cell": _by_cell(results),
        "overhead": overhead_table(results),
        "survivability": survivability_matrix(results),
    }


#: the storage-tier grid, served as ``/api/tables/{overhead,survivability}``
STORAGE_TIERS = StoredExperiment(
    storage_tier_configs, storage_tier_tables, stamp="storage-tiers",
    served={"overhead": "overhead", "survivability": "survivability"})


def tier_cost_calibration(
    results,
    crash_mtbf_s: float,
    node_loss_mtbf_s: float,
    outage_mtbf_s: float,
    method: str = "GP",
) -> Dict[str, object]:
    """Measured per-tier costs → multi-level interval/promotion suggestion.

    The incremental cost of each level is read off the failure-free sweep
    cells: L1's cost is the L1-only mean checkpoint duration; L2's is the
    L1+L2 mean minus L1's (the back-pressure and contention the partner
    copies add per checkpoint); L3's the L1+L2+L3 mean minus L1+L2's.  Those
    feed :func:`~repro.analysis.advisor.suggest_multilevel_intervals` against
    the caller's per-failure-class MTBFs, yielding per-tier intervals and the
    ``l2_every`` / ``l3_every`` promotion counters.
    """
    samples: Dict[str, List[float]] = {}
    for result in results:
        cfg = result.config
        if cfg.method != method or failure_label(cfg) != "none":
            continue
        samples.setdefault(policy_label(cfg), []).append(
            result.mean_checkpoint_duration)
    means = {policy: sum(values) / len(values)
             for policy, values in samples.items()}
    required = ("L1", "L1+L2", "L1+L2+L3")
    missing = [p for p in required if p not in means]
    if missing:
        raise ValueError(f"calibration needs failure-free cells for {required}; "
                         f"missing {missing} (method {method!r})")
    floor = 1e-4
    costs = {
        "L1": max(means["L1"], floor),
        "L2": max(means["L1+L2"] - means["L1"], floor),
        "L3": max(means["L1+L2+L3"] - means["L1+L2"], floor),
    }
    suggestion = suggest_multilevel_intervals(
        costs,
        {"L1": crash_mtbf_s, "L2": node_loss_mtbf_s, "L3": outage_mtbf_s},
    )
    table = Table(
        title=f"Multi-level interval suggestion ({method}, measured tier costs)",
        columns=["level", "cost/ckpt (s)", "MTBF (s)", "interval (s)",
                 "promote every"],
    )
    for level in ("L1", "L2", "L3"):
        table.add_row(level, round(costs[level], 4),
                      round(suggestion.mtbf_s[level], 1),
                      round(suggestion.intervals_s[level], 1),
                      f"{suggestion.multipliers[level]}-th ckpt"
                      if level != "L1" else "every ckpt")
    return {"suggestion": suggestion, "costs": costs, "table": table}
