"""Elastic-restart experiments: work conservation + shrink-restart sweep.

Elastic restart decouples a job's *domain* (its fixed set of work units) from
the rank count executing it: a :class:`~repro.workloads.domain.Partition`
assigns units to ranks, and the per-rank scripts are derived views that merge
co-located units deadlock-free.  Two measurements close the loop:

* **Work conservation** — the same domain partitioned onto fewer or more
  ranks (shrink *and* expand) must carry exactly the same total compute
  seconds, point-to-point message bytes and resident memory.  The
  conservation table measures this from the derived per-rank scripts
  themselves (not the domain arithmetic), so any merge bug — a dropped
  self-send, a duplicated step, a mis-remapped peer — shows up as a broken
  invariant.

* **Shrink restart** — a campaign grid (method × workload) where the node
  hosting rank 1 dies mid-run with *zero* spares: the recovery manager cannot
  replace the victim, so it repartitions the dead rank's units onto the
  survivors, ships the newest surviving checkpoint images to the adopters,
  and relaunches the job one rank smaller.  The repartition table reports the
  measured shrink per cell: ranks before → after, units migrated, image bytes
  shipped, and end-to-end survival.

Both run at QUICK-ish scale.  :data:`ELASTIC_SHRINK` declares the shrink
grid once: ``ELASTIC_SHRINK.run(**grid)`` runs it through the campaign engine,
so re-runs are served from the store, and ``ELASTIC_SHRINK.from_store(store)``
rebuilds the repartition table from the stored rows stamped
``elastic-shrink``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import Table
from repro.ckpt.scheduler import periodic
from repro.cluster.topology import GIDEON_300
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.declaration import StoredExperiment
from repro.experiments.runner import build_workload
from repro.mpi.ops import Compute, Isend, Send, SendRecv
from repro.workloads.domain import Partition


#: workload knobs the elastic sweeps are calibrated for: long enough that a
#: few checkpoint waves complete before the kill, images small enough (4 MB)
#: that shipping one to an adopter is visible but not dominant
DEFAULT_WORKLOAD_OPTIONS: Dict[str, Dict[str, object]] = {
    "halo2d": {"iterations": 60, "memory_bytes": 4 * 1024 * 1024},
    "ring": {"iterations": 60, "memory_bytes": 4 * 1024 * 1024},
}


def measured_totals(workload, n_ranks: int) -> Tuple[float, int, int]:
    """(compute seconds, p2p message bytes, memory bytes) summed over the
    derived per-rank scripts of ``workload`` under its current partition."""
    compute = 0.0
    message = 0
    for rank in range(n_ranks):
        for op in workload.program(rank):
            if isinstance(op, Compute):
                compute += op.seconds
            elif isinstance(op, (Send, Isend)):
                message += op.nbytes
            elif isinstance(op, SendRecv):
                message += op.send_nbytes
    memory = sum(workload.memory_bytes(rank) for rank in range(n_ranks))
    return compute, message, memory


def work_conservation_table(
    workloads: Sequence[str] = ("halo2d", "hpl"),
    n_units: int = 8,
    rank_counts: Sequence[int] = (4, 6, 8, 12),
    workload_options: Optional[Dict[str, Dict[str, object]]] = None,
) -> Table:
    """Equal-total-work invariant across rank counts (shrink and expand).

    One domain of ``n_units`` units per workload, block-partitioned onto each
    rank count; every row must show the identical totals.  The ``conserved``
    column compares against the identity partition's measured totals
    (compute to 1e-9 relative — summation order differs — bytes exactly).
    """
    if n_units not in rank_counts:
        rank_counts = tuple(rank_counts) + (n_units,)
    options = dict(DEFAULT_WORKLOAD_OPTIONS)
    options.update(workload_options or {})
    table = Table(
        title=(f"Work conservation under repartition ({n_units} units; "
               "totals measured from the derived per-rank scripts)"),
        columns=["workload", "ranks", "compute (s)", "message MB",
                 "memory MB", "conserved"],
    )
    mb = 1024.0 * 1024.0
    for name in workloads:
        workload = build_workload(name, n_units, dict(options.get(name, {})))
        reference = None
        for n_ranks in sorted(rank_counts):
            workload.set_partition(Partition.block(n_units, n_ranks))
            compute, message, memory = measured_totals(workload, n_ranks)
            if reference is None:
                reference = (compute, message, memory)
            conserved = (math.isclose(compute, reference[0], rel_tol=1e-9)
                         and message == reference[1]
                         and memory == reference[2])
            table.add_row(name, n_ranks, round(compute, 4),
                          round(message / mb, 2), round(memory / mb, 1),
                          "ok" if conserved else "BROKEN")
    return table


def elastic_shrink_configs(
    workloads: Sequence[str] = ("halo2d", "hpl"),
    methods: Sequence[str] = ("NORM", "GP4"),
    n_ranks: int = 8,
    seeds: Sequence[int] = (7,),
    checkpoint_interval_s: float = 0.4,
    failure_at_s: float = 1.7,
    workload_options: Optional[Dict[str, Dict[str, object]]] = None,
) -> List[ScenarioConfig]:
    """The scenario set behind one shrink-restart grid.

    Every cell kills the node hosting rank 1 with zero spares and
    ``elastic=True``, on a cluster writing checkpoints to remote storage —
    the one tier a dead node cannot take with it, so the victim's newest
    image is always shippable to its adopter.  (Node-local storage would
    force every shrink back to step 0; the from-scratch path is covered by
    the unit tests.)
    """
    if not workloads or not methods or not seeds:
        raise ValueError("workloads, methods and seeds must be non-empty")
    options = dict(DEFAULT_WORKLOAD_OPTIONS)
    options.update(workload_options or {})
    cluster = dataclasses.replace(
        GIDEON_300, n_nodes=max(GIDEON_300.n_nodes, n_ranks),
        checkpoint_storage="remote", name="elastic-shrink")
    configs: List[ScenarioConfig] = []
    for name in workloads:
        for method in methods:
            for seed in seeds:
                configs.append(ScenarioConfig(
                    workload=name,
                    n_ranks=n_ranks,
                    method=method,
                    schedule=periodic(checkpoint_interval_s),
                    cluster=cluster,
                    seed=seed,
                    workload_options=dict(options.get(name, {})),
                    do_restart=False,
                    failure=FailureSpec(at_s=failure_at_s, victim_rank=1,
                                        seed=seed, elastic=True),
                ))
    return configs


def repartition_table(results) -> Table:
    """Measured shrink per cell: ranks before → after, migration, shipping."""
    table = Table(
        title="Elastic shrink restart (zero spares, kill of rank 1's node)",
        columns=["workload", "method", "seed", "survived", "shrinks",
                 "ranks", "units moved", "shipped MB", "makespan (s)"],
    )
    mb = 1024.0 * 1024.0
    for result in sorted(results, key=lambda r: (r.config.workload,
                                                 r.config.method,
                                                 r.config.seed)):
        cfg = result.config
        after = result.ranks_after_restart
        table.add_row(
            cfg.workload, cfg.method, cfg.seed,
            "yes" if result.survived else "NO",
            result.shrink_restarts,
            f"{cfg.n_ranks}→{after}" if after is not None else str(cfg.n_ranks),
            result.units_migrated,
            round(result.repartition_bytes_shipped / mb, 1),
            round(result.makespan, 3))
    return table


def elastic_tables(results) -> Dict[str, object]:
    """One shrink grid's ``repartition`` table and its ``results``."""
    return {"results": results, "repartition": repartition_table(results)}


#: the shrink-restart grid, served as ``/api/tables/elastic``.  (The
#: conservation table is simulation-free but not store-derived, so it is
#: not part of the declaration.)
ELASTIC_SHRINK = StoredExperiment(elastic_shrink_configs, elastic_tables,
                                  stamp="elastic-shrink", served={"elastic": "repartition"})
