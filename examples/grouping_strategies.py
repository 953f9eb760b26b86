#!/usr/bin/env python
"""Compare grouping strategies on a communication-non-stop workload (NPB CG).

The paper's Section 5 compares four grouping methods — GP (trace-assisted),
GP1 (one process per group), GP4 (ad-hoc blocks) and NORM (one global group).
This example runs all four on an NPB-CG-like workload, prints the checkpoint
and restart costs, and shows how the trace-assisted grouping keeps most
traffic inside groups (so little has to be logged or replayed).

Run:  python examples/grouping_strategies.py
"""

from repro.analysis.reporting import Table, format_table
from repro.ckpt import one_shot
from repro.ckpt.presets import gp1_family, gp4_family, gp_family, norm_family
from repro.cluster import GIDEON_300, Cluster
from repro.core import CheckpointCoordinator, form_groups, simulate_restart
from repro.core.formation import grouping_quality
from repro.mpi import MpiRuntime, script_trace
from repro.sim import RandomStreams, Simulator
from repro.workloads import CgWorkload
from repro.workloads.npb_cg import CgParameters

N_RANKS = 32
CG = CgParameters(na=60000, max_steps=10)
CHECKPOINT_AT = 4.0


def run_with(family, workload, seed=2):
    spec = GIDEON_300.with_nodes(N_RANKS)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, N_RANKS, protocol_family=family,
                         rng=RandomStreams(seed))
    runtime.set_memory(workload.memory_map())
    CheckpointCoordinator(runtime, family, one_shot(CHECKPOINT_AT)).start()
    runtime.launch(workload.program_factory())
    result = runtime.run_to_completion()
    restart = simulate_restart(result, spec) if result.snapshots() else None
    return result, restart


def main() -> None:
    workload = CgWorkload(N_RANKS, CG)
    print(f"Workload: {workload.describe()}\n")

    trace = script_trace(workload.program, N_RANKS)
    formation = form_groups(trace, n_ranks=N_RANKS)
    print(f"Trace-assisted formation: {formation.describe()}")

    families = {
        "GP": gp_family(formation.groupset),
        "GP1": gp1_family(N_RANKS),
        "GP4": gp4_family(N_RANKS),
        "NORM": norm_family(N_RANKS),
    }

    table = Table(
        title=f"Grouping strategies on NPB CG ({N_RANKS} processes, one checkpoint)",
        columns=["method", "groups", "intra-group traffic", "exec time (s)",
                 "agg ckpt (s)", "agg restart (s)", "resent KB"],
    )
    for name, family in families.items():
        groupset = family.groups
        quality = grouping_quality(groupset, trace)
        result, restart = run_with(family, workload)
        table.add_row(
            name,
            len(groupset.all_groups()),
            f"{quality['intra_fraction']:.0%}",
            result.makespan,
            result.aggregate_checkpoint_time(),
            restart.aggregate_restart_time if restart else 0.0,
            (restart.total_replay_bytes / 1024) if restart else 0.0,
        )
    print()
    print(format_table(table))
    print("\nReading the table: GP keeps checkpoints nearly as cheap as GP1 while")
    print("keeping restarts (and the data that must be replayed) close to NORM —")
    print("the combination the paper argues makes group-based checkpointing scale.")


if __name__ == "__main__":
    main()
