"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures and quantify the contribution of
individual mechanisms of the group-based protocol:

* **group size sweep** — how the maximum group size ``G`` trades coordination
  cost against logging volume (the paper's Section 3.2 discussion of faster
  networks allowing larger groups),
* **piggybacked garbage collection** — how much log memory the RR piggyback
  mechanism reclaims,
* **network speed** — how the GP-vs-NORM gap changes on a faster interconnect.
"""

import pytest

from repro.analysis.reporting import Series, Table, format_table
from repro.ckpt import one_shot
from repro.ckpt.base import ProtocolConfig
from repro.ckpt.presets import gp_family, norm_family
from repro.cluster.network import GIGABIT_ETHERNET
from repro.cluster.topology import GIDEON_300, Cluster
from repro.core import CheckpointCoordinator, form_groups
from repro.core.groups import GroupSet
from repro.experiments.config import QUICK
from repro.experiments.runner import obtain_trace
from repro.mpi.runtime import MpiRuntime
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.hpl import HplParameters, HplWorkload

N_RANKS = 32
HPL_OPTS = dict(QUICK.hpl_options)


def _run(family, cluster_spec, ckpt_at=2.0, seed=5):
    workload = HplWorkload(N_RANKS, HplParameters(**HPL_OPTS))
    sim = Simulator()
    cluster = Cluster(sim, cluster_spec)
    runtime = MpiRuntime(sim, cluster, N_RANKS, protocol_family=family, rng=RandomStreams(seed))
    runtime.set_memory(workload.memory_map())
    CheckpointCoordinator(runtime, family, one_shot(ckpt_at)).start()
    runtime.launch(workload.program_factory())
    result = runtime.run_to_completion(limit_s=1e7)
    return result, runtime


@pytest.mark.benchmark(group="ablation-group-size")
def test_ablation_group_size_sweep(benchmark):
    """Sweep the maximum group size G: larger groups coordinate more but log less."""

    def experiment():
        trace = obtain_trace("hpl", N_RANKS, HPL_OPTS)
        table = Table(
            title=f"Ablation: group size sweep (HPL, {N_RANKS} processes)",
            columns=["G", "groups", "aggregate ckpt time (s)", "logged MB"],
        )
        spec = GIDEON_300.with_nodes(N_RANKS)
        for g in (1, 2, 4, 8, 16, N_RANKS):
            if g == 1:
                groupset = GroupSet.singletons(N_RANKS)
            elif g == N_RANKS:
                groupset = GroupSet.single(N_RANKS)
            else:
                groupset = form_groups(trace, max_group_size=g, n_ranks=N_RANKS).groupset
            family = gp_family(groupset, name=f"G={g}")
            result, runtime = _run(family, spec)
            logged = sum(ctx.protocol.log.total_logged_bytes for ctx in runtime.contexts)
            table.add_row(g, len(groupset.all_groups()),
                          result.aggregate_checkpoint_time(), logged / 1e6)
        return {"table": table}

    result = benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(format_table(result["table"]))
    rows = result["table"].rows
    logged = result["table"].column("logged MB")
    # logging volume must decrease monotonically as groups grow
    assert all(a >= b - 1e-9 for a, b in zip(logged, logged[1:]))


@pytest.mark.benchmark(group="ablation-gc")
def test_ablation_piggyback_garbage_collection(benchmark):
    """The RR piggyback keeps sender logs bounded across repeated checkpoints.

    Uses a 2-D halo exchange rather than HPL: GC needs *bidirectional*
    cross-group channels (the piggybacked RR travels on the reverse
    direction of the logged traffic), and HPL's increasing-ring broadcasts
    use every row channel in one direction only.
    """

    def experiment():
        from repro.ckpt import periodic
        from repro.workloads.synthetic import Halo2DWorkload, SyntheticParameters

        n = 36
        halo_opts = dict(iterations=30, message_bytes=256 * 1024,
                         compute_seconds=0.05, memory_bytes=32 * 1024 * 1024)
        spec = GIDEON_300.with_nodes(n)
        workload = Halo2DWorkload(n, SyntheticParameters(**halo_opts))
        trace = obtain_trace("halo2d", n, halo_opts)
        groupset = form_groups(trace, max_group_size=6, n_ranks=n).groupset
        family = gp_family(groupset)
        sim = Simulator()
        cluster = Cluster(sim, spec)
        runtime = MpiRuntime(sim, cluster, n, protocol_family=family,
                             rng=RandomStreams(5))
        runtime.set_memory(workload.memory_map())
        # max_checkpoints bounds the wave count: the 1.5 s interval sits below
        # the wave duration, so every tick would otherwise be eligible.
        CheckpointCoordinator(runtime, family, periodic(1.5, max_checkpoints=6)).start()
        runtime.launch(workload.program_factory())
        runtime.run_to_completion(limit_s=1e7)
        total_logged = sum(ctx.protocol.log.total_logged_bytes for ctx in runtime.contexts)
        gc_bytes = sum(ctx.protocol.log.gc_bytes for ctx in runtime.contexts)
        retained = sum(ctx.protocol.log.retained_bytes for ctx in runtime.contexts)
        table = Table(title="Ablation: piggybacked log garbage collection (halo2d, 36 ranks)",
                      columns=["logged MB", "GC'd MB", "retained MB"])
        table.add_row(total_logged / 1e6, gc_bytes / 1e6, retained / 1e6)
        return {"table": table, "gc_bytes": gc_bytes, "total": total_logged,
                "retained": retained}

    result = benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(format_table(result["table"]))
    assert result["gc_bytes"] > 0
    assert result["retained"] + result["gc_bytes"] == result["total"]


@pytest.mark.benchmark(group="ablation-network")
def test_ablation_faster_network_narrows_the_gap(benchmark):
    """On a faster interconnect global coordination hurts less, so the GP advantage shrinks
    (the paper's argument for choosing larger groups on high-speed networks)."""

    def experiment():
        from dataclasses import replace

        table = Table(title="Ablation: interconnect speed vs GP advantage",
                      columns=["network", "GP agg ckpt (s)", "NORM agg ckpt (s)", "NORM/GP"])
        ratios = []
        for net in (GIDEON_300.network, GIGABIT_ETHERNET):
            spec = replace(GIDEON_300.with_nodes(N_RANKS), network=net)
            trace = obtain_trace("hpl", N_RANKS, HPL_OPTS)
            groupset = form_groups(trace, max_group_size=8, n_ranks=N_RANKS).groupset
            gp_result, _ = _run(gp_family(groupset), spec)
            norm_result, _ = _run(norm_family(N_RANKS), spec)
            ratio = norm_result.aggregate_checkpoint_time() / max(
                gp_result.aggregate_checkpoint_time(), 1e-9)
            ratios.append(ratio)
            table.add_row(net.name, gp_result.aggregate_checkpoint_time(),
                          norm_result.aggregate_checkpoint_time(), ratio)
        return {"table": table, "ratios": ratios}

    result = benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(format_table(result["table"]))
    # GP must win on both networks
    assert all(r > 1.0 for r in result["ratios"])
