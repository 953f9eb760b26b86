"""The benchmark's two workloads, their inputs, digests and invariants.

Each workload is one closed-loop repetition driven through the simulator's
public entry points: ``experiments.runner.run_scenario`` for the Figure 10
scenario, a fresh in-memory ``campaign.Campaign`` (``run_one``) for the
recovery scenario, so that the campaign store and payload path are timed
too.  Simulated outputs are deterministic, so every repetition must
reproduce the same ``sim_digest``; host time is what the benchmark measures.

``--seed`` picks the inputs: each workload takes its simulation seed from a
pool of seeds checked beforehand to meet the workload's invariants at a cost
close to the default (seed 0 of the benchmark is the default scenario).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

#: counters summed over every scenario a repetition ran
COUNT_FIELDS = (
    "events_processed", "events_elided", "heap_pushes", "store_wakeups",
    "messages", "checkpoints", "partner_copies", "tier_bytes_written",
    "tier_bytes_read", "failures", "spare_migrations", "shrink_restarts",
    "aborted_recoveries", "replayed_bytes",
)

#: per-scenario fields whose drift the digest must expose
DIGEST_FIELDS = (
    "makespan", "checkpoints", "events", "messages", "failures",
    "shrink_restarts", "ranks_after_restart", "replayed_bytes",
)


@dataclasses.dataclass
class Outcome:
    """What one repetition produced: its digest, layer counts and checks."""

    #: one digest row per scenario, in a stable order
    rows: List[Dict[str, object]]
    #: COUNT_FIELDS summed over the rows
    counts: Dict[str, int]
    rows_done: int = 1
    rows_failed: int = 0
    survived: bool = True

    @property
    def events(self) -> int:
        """Model-equivalent simulated events (invariant across fast paths)."""
        return self.counts["events_processed"] + self.counts["events_elided"]

    def digest(self) -> Dict[str, object]:
        """Printable ``sim_digest``: field totals plus a hash of every row."""
        out: Dict[str, object] = {"scenarios": len(self.rows)}
        for name in DIGEST_FIELDS:
            values = [row[name] for row in self.rows]
            if name == "ranks_after_restart":
                out[name] = [v for v in values if v is not None]
            else:
                out[name] = sum(values)
        canonical = json.dumps(self.rows, sort_keys=True).encode()
        out["sha256"] = hashlib.sha256(canonical).hexdigest()[:16]
        return out


def _scenario_row(key: str, result, flat: Dict[str, object]) -> Tuple[Dict[str, object], Dict[str, int]]:
    """Digest row and counts of one finished scenario.

    ``result`` is a live ``ScenarioResult`` or a ``StoredResult`` (they
    expose the same metric names); ``flat`` is its harvested metrics
    registry as a flat ``{name: value}`` dict.
    """
    counts = {
        "events_processed": int(flat.get("sim.events.processed", 0)),
        "events_elided": int(flat.get("sim.events.events_elided", 0)),
        "heap_pushes": int(flat.get("sim.events.heap_pushes", 0)),
        "store_wakeups": int(flat.get("sim.events.store_wakeups", 0)),
        "messages": int(flat.get("mpi.messages.sent", 0)),
        "checkpoints": result.checkpoints_completed,
        "partner_copies": result.partner_copies,
        "tier_bytes_written": sum(result.tier_bytes_written.values()),
        "tier_bytes_read": sum(result.tier_bytes_read.values()),
        "failures": result.failures_injected,
        "spare_migrations": result.spare_migrations,
        "shrink_restarts": result.shrink_restarts,
        "aborted_recoveries": result.aborted_recoveries,
        "replayed_bytes": result.replayed_bytes,
    }
    row = {
        "key": key,
        "makespan": result.makespan,
        "checkpoints": counts["checkpoints"],
        "events": counts["events_processed"] + counts["events_elided"],
        "messages": counts["messages"],
        "failures": counts["failures"],
        "shrink_restarts": counts["shrink_restarts"],
        "ranks_after_restart": result.ranks_after_restart,
        "replayed_bytes": counts["replayed_bytes"],
    }
    return row, counts


def _outcome(scenarios: Sequence[Tuple[str, object, Dict[str, object]]],
             rows_failed: int = 0) -> Outcome:
    rows = []
    totals = dict.fromkeys(COUNT_FIELDS, 0)
    survived = True
    for key, result, flat in scenarios:
        row, counts = _scenario_row(key, result, flat)
        rows.append(row)
        for name, value in counts.items():
            totals[name] += value
        survived = survived and result.survived
    return Outcome(rows=rows, counts=totals, rows_done=len(rows),
                   rows_failed=rows_failed, survived=survived)


class Workload:
    """One benchmark workload: a scenario whose simulation seed comes from the
    benchmark seed; one repetition per ``run``, with a fresh trace/formation cache."""

    name = ""
    #: simulation seeds checked to meet the invariants; index 0 is the default
    SEED_POOL: Tuple[int, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sim_seed = self.SEED_POOL[seed % len(self.SEED_POOL)]
        self.config = self.build_config(self.sim_seed)

    def build_config(self, sim_seed: int):
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name}: scenario seed {self.sim_seed}"

    def run(self) -> Outcome:
        from repro.experiments.runner import clear_caches, run_scenario

        clear_caches()
        result = run_scenario(self.config)
        return _outcome([("scenario", result, result.telemetry.metrics.as_flat_dict())])

    def violations(self, outcome: Outcome) -> List[str]:
        """Invariants this workload's repetitions must meet (empty = ok)."""
        raise NotImplementedError


class Fig10NormHpl128(Workload):
    """Scaled-down Figure 10 critical path: NORM coordination at 128 ranks."""

    name = "fig10-norm-hpl128"
    SEED_POOL = (7, 0, 1, 2, 3, 4, 6, 8)
    CHECKPOINTS = 4

    def build_config(self, sim_seed: int):
        from repro.ckpt.scheduler import periodic
        from repro.experiments.config import ScenarioConfig

        return ScenarioConfig(
            workload="hpl", n_ranks=128, method="NORM", schedule=periodic(60.0),
            workload_options={"problem_size": 30000}, max_group_size=8,
            do_restart=False, seed=sim_seed)

    def violations(self, outcome: Outcome) -> List[str]:
        got = outcome.counts["checkpoints"]
        if got != self.CHECKPOINTS:
            return [f"expected {self.CHECKPOINTS} checkpoints, got {got}"]
        return []


class RecoverElasticHalo64(Workload):
    """Live failures with spares, elastic shrink and a three-level storage hierarchy,
    run as a one-row campaign: store add/claim/mark_done and the stored payload
    are part of every repetition."""

    name = "recover-elastic-halo64"
    SEED_POOL = (3, 22, 15, 23)

    def run(self) -> Outcome:
        from repro.campaign import Campaign
        from repro.experiments.runner import clear_caches

        clear_caches()
        campaign = Campaign(n_workers=1)
        try:
            stored = campaign.run_one(self.config)
            rows = campaign.store.rows(status="done")
            failed = campaign.counts()["failed"]
        finally:
            campaign.store.close()
        return _outcome([(row.key, stored, stored.registry_metrics) for row in rows],
                        rows_failed=failed)

    def build_config(self, sim_seed: int):
        from repro.ckpt.scheduler import periodic
        from repro.cluster.topology import GIDEON_300
        from repro.experiments.config import FailureSpec, ScenarioConfig
        from repro.storage import full_hierarchy

        cluster = dataclasses.replace(GIDEON_300, n_nodes=66, nodes_per_switch=8,
                                      storage_policy=full_hierarchy())
        return ScenarioConfig(
            workload="halo2d", n_ranks=64, method="GP", schedule=periodic(2.0),
            cluster=cluster, max_group_size=8, do_restart=False, seed=sim_seed,
            workload_options={"iterations": 120, "compute_seconds": 0.3,
                              "memory_bytes": 4 * 1024 * 1024,
                              "message_bytes": 32 * 1024},
            failure=FailureSpec(mtbf_per_node_s=256, max_failures=8, seed=3,
                                n_spares=2, reboot_delay_s=5, elastic=True))

    def violations(self, outcome: Outcome) -> List[str]:
        out = []
        if outcome.rows_done != 1 or outcome.rows_failed:
            out.append(f"expected 1 row done and 0 failed, got {outcome.rows_done} "
                       f"done and {outcome.rows_failed} failed")
        if not outcome.survived:
            out.append("run declared unsurvivable")
        if outcome.counts["spare_migrations"] < 1:
            out.append("no spare migration")
        if outcome.counts["shrink_restarts"] < 1:
            out.append("no shrink restart")
        return out


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Fig10NormHpl128, RecoverElasticHalo64)
}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs made from ``seed``."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}") from None
    return cls(seed)


def drift(reference: Optional[Outcome], outcome: Outcome) -> List[str]:
    """Differences of ``outcome`` from the first repetition's digest and counts."""
    if reference is None:
        return []
    out = []
    if reference.rows != outcome.rows:
        out.append(f"sim_digest drift: {reference.digest()} -> {outcome.digest()}")
    if reference.counts != outcome.counts:
        out.append("layer counts drift")
    return out
