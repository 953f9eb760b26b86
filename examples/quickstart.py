#!/usr/bin/env python
"""Quickstart: checkpoint a small HPL-like run with the group-based protocol.

This walks the full workflow of the paper's Figure 4 on a 32-process job:

1. trace the application's sends (read off its deterministic op scripts),
2. analyse the trace with Algorithm 2 to obtain a group definition,
3. run the application again with group-based checkpointing (one checkpoint),
4. compare against the global coordinated checkpoint (NORM), and
5. simulate a restart from the checkpoint.

Run:  python examples/quickstart.py
"""

from repro.sim import Simulator, RandomStreams
from repro.cluster import Cluster, GIDEON_300
from repro.mpi import MpiRuntime, script_trace
from repro.ckpt import one_shot
from repro.ckpt.presets import gp_family, norm_family
from repro.core import CheckpointCoordinator, form_groups, simulate_restart
from repro.workloads import HplWorkload
from repro.workloads.hpl import HplParameters

N_RANKS = 32
HPL = HplParameters(problem_size=8000, block_size=200, grid_rows=8, max_steps=16)
CHECKPOINT_AT = 5.0  # seconds into the run


def run_once(family, workload, schedule=None, seed=1):
    """Run the workload under one protocol family and return the result."""
    spec = GIDEON_300.with_nodes(N_RANKS)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, N_RANKS, protocol_family=family,
                         rng=RandomStreams(seed))
    runtime.set_memory(workload.memory_map())
    if schedule is not None:
        CheckpointCoordinator(runtime, family, schedule).start()
    runtime.launch(workload.program_factory())
    return runtime.run_to_completion(), spec


def main() -> None:
    workload = HplWorkload(N_RANKS, HPL)
    print(f"Workload: {workload.describe()}")

    # 1. trace ----------------------------------------------------------------
    trace = script_trace(workload.program, N_RANKS)
    print(f"Trace run finished: {len(trace)} send records")

    # 2. group formation (Algorithm 2) ---------------------------------------
    formation = form_groups(trace, max_group_size=8, n_ranks=N_RANKS)
    print(f"Group formation: {formation.describe()}")
    for i, group in enumerate(formation.groupset.groups, start=1):
        print(f"  group {i}: {list(group)}")

    # 3. checkpointed run with the group-based protocol ------------------------
    gp = gp_family(formation.groupset)
    gp_result, spec = run_once(gp, workload, one_shot(CHECKPOINT_AT))
    print(f"\nGP   execution time: {gp_result.makespan:8.2f} s, "
          f"aggregate checkpoint time: {gp_result.aggregate_checkpoint_time():8.2f} s")

    # 4. baseline: global coordinated checkpoint (the original LAM/MPI way) ----
    norm_result, _ = run_once(norm_family(N_RANKS), workload, one_shot(CHECKPOINT_AT))
    print(f"NORM execution time: {norm_result.makespan:8.2f} s, "
          f"aggregate checkpoint time: {norm_result.aggregate_checkpoint_time():8.2f} s")
    saving = 1 - gp_result.aggregate_checkpoint_time() / norm_result.aggregate_checkpoint_time()
    print(f"Group-based checkpointing reduced checkpoint overhead by {saving:.0%}")

    # 5. restart from the checkpoint -------------------------------------------
    restart = simulate_restart(gp_result, spec)
    print(f"\nRestart: aggregate time {restart.aggregate_restart_time:.2f} s, "
          f"replayed {restart.total_replay_bytes / 1024:.1f} KB over "
          f"{restart.total_resend_operations} resend operations")


if __name__ == "__main__":
    main()
