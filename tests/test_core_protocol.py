"""Integration-level tests of Algorithm 1 (group protocol), the coordinator,
the Chandy–Lamport baseline, and the restart orchestration."""

import pytest

from repro.ckpt import one_shot, periodic
from repro.ckpt.base import ProtocolConfig, STAGE_CHECKPOINT, STAGE_COORDINATION
from repro.ckpt.chandy_lamport import VclConfig
from repro.ckpt.presets import (
    gp1_family,
    gp4_family,
    gp_family,
    norm_family,
    vcl_family,
)
from repro.cluster.topology import GIDEON_300, Cluster
from repro.core.coordinator import CheckpointCoordinator
from repro.core.groups import GroupSet
from repro.core.restart import replay_volumes, simulate_restart, skip_volumes
from repro.mpi.runtime import MpiRuntime
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.synthetic import Halo2DWorkload, RingWorkload, SyntheticParameters


QUIET_CONFIG = ProtocolConfig(
    channel_stall_probability=0.0,
    unexpected_delay_probability=0.0,
)


def run_workload(n_ranks, family, workload, schedule=None, seed=1, propagation=0.012):
    spec = GIDEON_300.with_nodes(n_ranks)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, n_ranks, protocol_family=family, rng=RandomStreams(seed))
    runtime.set_memory(workload.memory_map())
    coordinator = None
    if schedule is not None:
        coordinator = CheckpointCoordinator(runtime, family, schedule,
                                            propagation_delay_s=propagation)
        coordinator.start()
    runtime.launch(workload.program_factory())
    result = runtime.run_to_completion(limit_s=1e6)
    return result, runtime, coordinator, spec


def ring_workload(n, iterations=16, message_bytes=128 * 1024):
    return RingWorkload(n, SyntheticParameters(iterations=iterations,
                                               message_bytes=message_bytes,
                                               compute_seconds=0.05,
                                               memory_bytes=24 * 1024 * 1024))


# ----------------------------------------------------------------------- basic protocol
def test_every_rank_checkpoints_once_under_norm():
    n = 6
    result, *_ = run_workload(n, norm_family(n, QUIET_CONFIG), ring_workload(n), one_shot(0.3))
    records = result.checkpoint_records
    assert len(records) == n
    assert {r.rank for r in records} == set(range(n))
    assert all(r.group_size == n for r in records)
    assert all(set(r.stages) == {"lock_mpi", "coordination", "checkpoint", "finalize"}
               for r in records)


def test_gp1_has_no_coordination_peers_and_logs_everything():
    n = 4
    family = gp1_family(n, QUIET_CONFIG)
    result, runtime, _, _ = run_workload(n, family, ring_workload(n), one_shot(0.3))
    assert all(r.group_size == 1 for r in result.checkpoint_records)
    for ctx in runtime.contexts:
        # every application message is inter-group under GP1, hence logged
        assert ctx.protocol.log.total_logged_messages == ctx.stats.messages_sent


def test_norm_never_logs_messages():
    n = 4
    family = norm_family(n, QUIET_CONFIG)
    _, runtime, _, _ = run_workload(n, family, ring_workload(n), one_shot(0.3))
    for ctx in runtime.contexts:
        assert ctx.protocol.log.total_logged_messages == 0
        assert ctx.protocol.logged_bytes_total == 0


def test_group_protocol_logs_only_inter_group_messages():
    n = 8
    groups = GroupSet.contiguous(n, 2)  # ring neighbours 3-4 and 7-0 cross groups
    family = gp_family(groups, QUIET_CONFIG)
    _, runtime, _, _ = run_workload(n, family, ring_workload(n), one_shot(0.3))
    for ctx in runtime.contexts:
        proto = ctx.protocol
        ring_right = (ctx.rank + 1) % n
        if groups.same_group(ctx.rank, ring_right):
            assert proto.log.bytes_for(ring_right) == 0
        else:
            assert proto.log.total_logged_messages > 0


def test_checkpoint_record_stage_sum_matches_duration():
    n = 4
    result, *_ = run_workload(n, norm_family(n, QUIET_CONFIG), ring_workload(n), one_shot(0.3))
    for rec in result.checkpoint_records:
        assert sum(rec.stages.values()) == pytest.approx(rec.duration, rel=1e-6)
        assert rec.stage(STAGE_CHECKPOINT) > 0


def test_intra_group_channels_are_drained_at_checkpoint():
    """Coordinated members have no in-transit intra-group data at their snapshots."""
    n = 6
    family = norm_family(n, QUIET_CONFIG)
    result, runtime, _, _ = run_workload(n, family, ring_workload(n), one_shot(0.4))
    snapshots = result.snapshots()
    assert len(snapshots) == n
    for q, snap_q in snapshots.items():
        for p, sent in snap_q.ss.items():
            received = snapshots[p].rr.get(q, 0)
            assert received >= sent, f"in-transit data {q}->{p} at a coordinated checkpoint"


def test_piggyback_garbage_collection_happens_with_multiple_checkpoints():
    # halo2d exchanges messages in both directions on every channel, so the
    # piggybacked RR values are non-trivial and sender logs can actually be
    # trimmed (a unidirectional ring never sends an RR back to its sender).
    n = 4
    family = gp1_family(n, QUIET_CONFIG)
    workload = Halo2DWorkload(n, SyntheticParameters(
        iterations=40, message_bytes=128 * 1024, compute_seconds=0.05,
        memory_bytes=24 * 1024 * 1024))
    _, runtime, _, _ = run_workload(n, family, workload, periodic(0.8))
    gc_events = sum(ctx.protocol.gc_invocations for ctx in runtime.contexts)
    piggybacks = sum(ctx.protocol.piggybacks_sent for ctx in runtime.contexts)
    assert piggybacks > 0
    assert gc_events > 0
    # GC must actually have discarded something somewhere
    assert sum(ctx.protocol.log.gc_bytes for ctx in runtime.contexts) > 0


def test_coordinator_defers_explicit_times_instead_of_dropping_them():
    # Forced-equal-count schedules (Figure 13/14 fairness) rely on every
    # explicitly listed request landing even when waves overlap the times.
    n = 4
    family = norm_family(n, QUIET_CONFIG)
    from repro.ckpt.scheduler import CheckpointSchedule
    schedule = CheckpointSchedule(times=(0.3, 0.4, 0.5))
    result, _, coordinator, _ = run_workload(n, family, ring_workload(n, iterations=20),
                                             schedule)
    assert result.checkpoints_completed == 3
    assert coordinator.report.deferred_waves >= 2
    assert coordinator.report.skipped_waves == 0


def test_coordinator_back_pressure_bounds_oversubscribed_schedules():
    # An interval far below the wave duration must not starve the application:
    # the coordinator skips ticks while a wave is in flight, the run stays
    # finite, and the skips are reported.
    n = 4
    family = norm_family(n, QUIET_CONFIG)
    result, _, coordinator, _ = run_workload(n, family, ring_workload(n, iterations=20),
                                             periodic(0.2))
    assert result.makespan < 200.0
    assert coordinator.report.skipped_waves > 0
    assert result.checkpoints_completed == coordinator.report.checkpoints_requested
    assert result.checkpoints_completed >= 2


def test_periodic_checkpoints_produce_multiple_waves():
    n = 4
    family = norm_family(n, QUIET_CONFIG)
    result, _, coordinator, _ = run_workload(n, family, ring_workload(n, iterations=30),
                                             periodic(0.7))
    assert coordinator.report.checkpoints_requested >= 2
    assert result.checkpoints_completed == coordinator.report.checkpoints_requested


def test_coordinator_skips_waves_after_completion():
    n = 2
    family = norm_family(n, QUIET_CONFIG)
    workload = ring_workload(n, iterations=2)
    result, _, coordinator, _ = run_workload(n, family, workload, one_shot(1e5))
    assert result.checkpoints_completed == 0


def test_coordinator_target_groups_filter():
    n = 4
    groups = GroupSet.contiguous(n, 2)
    family = gp_family(groups, QUIET_CONFIG)
    spec = GIDEON_300.with_nodes(n)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, n, protocol_family=family, rng=RandomStreams(1))
    workload = ring_workload(n)
    runtime.set_memory(workload.memory_map())
    coordinator = CheckpointCoordinator(runtime, family, one_shot(0.3), target_groups=[0])
    coordinator.start()
    runtime.launch(workload.program_factory())
    result = runtime.run_to_completion(limit_s=1e6)
    ranks_checkpointed = {r.rank for r in result.checkpoint_records}
    assert ranks_checkpointed == {0, 1}  # only group 0


def test_checkpoint_while_blocked_in_receive_does_not_deadlock():
    """Rank 1 blocks waiting for rank 0's message; a checkpoint request arrives meanwhile."""
    n = 2
    family = norm_family(n, QUIET_CONFIG)

    from repro.mpi.ops import Compute, Recv, Send

    class Blocking:
        def memory_map(self):
            return [8 * 1024 * 1024] * n

        def program_factory(self):
            def factory(rank):
                if rank == 0:
                    return [Compute(seconds=2.0, jitter=False), Send(dst=1, nbytes=1000)]
                return [Recv(src=0)]
            return factory

    result, *_ = run_workload(n, family, Blocking(), one_shot(0.5))
    assert result.checkpoints_completed == 1
    assert result.makespan > 2.0


def test_bookmark_sends_take_the_event_free_tx_hold(monkeypatch):
    """A rank's bookmarks leave one overhead apart; each must pipeline onto
    the analytic TX hold instead of starting a callback chain."""
    from repro.cluster.network import FAST_PATH_ENV
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import run_scenario

    # a fast-path count guard: pinned on, whatever the suite's default model
    monkeypatch.setenv(FAST_PATH_ENV, "1")
    n = 32

    def tx_holds(schedule):
        result = run_scenario(ScenarioConfig(
            workload="halo2d", n_ranks=n, method="NORM", schedule=schedule,
            seed=0, workload_options={"iterations": 10}, do_restart=False))
        return result.checkpoints_completed, result.app.contexts[0].sim.stats.fastpath_tx

    ckpts, with_ckpt = tx_holds(one_shot(0.5))
    assert ckpts == 1
    _, without = tx_holds(None)
    # one bookmark per ordered pair; the barrier tokens add a few more
    assert with_ckpt - without >= 0.9 * n * (n - 1)


# ----------------------------------------------------------------------------------- VCL
def test_vcl_checkpoints_all_ranks_globally():
    n = 5
    family = vcl_family(QUIET_CONFIG, VclConfig(marker_stall_probability=0.0))
    result, runtime, _, _ = run_workload(n, family, ring_workload(n), one_shot(0.3))
    records = result.checkpoint_records
    assert len(records) == n
    assert all(r.group_size == n for r in records)
    # VCL adds no sender-side logging overhead
    assert all(ctx.protocol.logged_bytes_total == 0 for ctx in runtime.contexts)


def test_vcl_coordination_grows_with_scale():
    cfg = VclConfig(marker_stall_probability=0.0)
    coord_times = {}
    for n in (4, 8):
        family = vcl_family(QUIET_CONFIG, cfg)
        result, *_ = run_workload(n, family, ring_workload(n), one_shot(0.3))
        coord_times[n] = sum(r.stage(STAGE_COORDINATION) for r in result.checkpoint_records) / n
    assert coord_times[8] > coord_times[4]


def test_vcl_config_validation():
    with pytest.raises(ValueError):
        VclConfig(per_channel_marker_s=-1)
    with pytest.raises(ValueError):
        VclConfig(marker_stall_probability=2.0)


# -------------------------------------------------------------------------------- restart
def test_restart_requires_at_least_one_checkpoint():
    n = 2
    family = norm_family(n, QUIET_CONFIG)
    result, _, _, spec = run_workload(n, family, ring_workload(n, iterations=2), None)
    with pytest.raises(ValueError):
        simulate_restart(result, spec)


def test_norm_restart_has_no_replay():
    n = 6
    family = norm_family(n, QUIET_CONFIG)
    result, _, _, spec = run_workload(n, family, ring_workload(n), one_shot(0.4))
    restart = simulate_restart(result, spec)
    assert len(restart.records) == n
    assert restart.total_replay_bytes == 0
    assert restart.total_resend_operations == 0
    assert all(rec.duration > 0 for rec in restart.records)
    assert all(rec.stages["image"] > 0 for rec in restart.records)


def test_gp1_restart_replays_at_least_as_much_as_grouped():
    """Uncoordinated checkpoints can never need *less* replay than grouped ones."""
    n = 8
    workload = ring_workload(n, iterations=40, message_bytes=512 * 1024)
    grouped, _, _, spec = run_workload(
        n, gp_family(GroupSet.contiguous(n, 2), QUIET_CONFIG), workload, one_shot(1.0),
        propagation=0.05)
    singles, _, _, _ = run_workload(
        n, gp1_family(n, QUIET_CONFIG), workload, one_shot(1.0), propagation=0.05)
    replay_grouped = simulate_restart(grouped, spec).total_replay_bytes
    replay_singles = simulate_restart(singles, spec).total_replay_bytes
    assert replay_singles >= replay_grouped


def test_replay_volumes_consistent_with_snapshots():
    n = 8
    family = gp1_family(n, QUIET_CONFIG)
    result, _, _, spec = run_workload(n, family, ring_workload(n, iterations=40),
                                      one_shot(1.0), propagation=0.05)
    snapshots = result.snapshots()
    for channel in replay_volumes(result):
        sent = snapshots[channel.src].ss.get(channel.dst, 0)
        received = snapshots[channel.dst].rr.get(channel.src, 0)
        assert channel.nbytes >= sent - received
        assert channel.n_messages >= 1


def test_skip_volumes_nonnegative_and_only_inter_group():
    n = 8
    family = gp1_family(n, QUIET_CONFIG)
    result, _, _, _ = run_workload(n, family, ring_workload(n, iterations=40),
                                   one_shot(1.0), propagation=0.05)
    for (q, p), nbytes in skip_volumes(result).items():
        assert nbytes > 0
        assert q != p


def test_restart_records_have_all_stages():
    n = 4
    family = gp1_family(n, QUIET_CONFIG)
    result, _, _, spec = run_workload(n, family, ring_workload(n), one_shot(0.5))
    restart = simulate_restart(result, spec)
    for rec in restart.records:
        assert set(rec.stages) == {"image", "rebuild", "exchange", "replay", "barrier"}


def test_group_members_finish_restart_together():
    n = 6
    groups = GroupSet.contiguous(n, 2)
    family = gp_family(groups, QUIET_CONFIG)
    result, _, _, spec = run_workload(n, family, ring_workload(n), one_shot(0.5))
    restart = simulate_restart(result, spec)
    by_rank = {rec.rank: rec.end for rec in restart.records}
    for group in groups.groups:
        ends = {by_rank[r] for r in group}
        assert max(ends) - min(ends) < 1e-9


def test_queue_dispatch_policy_never_loses_a_wave():
    # Figure 10-style fidelity: under the "queue" policy every requested
    # periodic tick is eventually issued, where "drop" discards colliders.
    def run(policy):
        n = 16
        sim = Simulator()
        cluster = Cluster(sim, GIDEON_300.with_nodes(n))
        family = norm_family(n)
        runtime = MpiRuntime(sim, cluster, n, protocol_family=family,
                             rng=RandomStreams(5))
        workload = Halo2DWorkload(n, SyntheticParameters())
        runtime.set_memory(workload.memory_map())
        coordinator = CheckpointCoordinator(
            runtime, family, periodic(0.2, max_checkpoints=4),
            dispatch_policy=policy)
        coordinator.start()
        runtime.launch(workload.program_factory())
        runtime.run_to_completion(limit_s=1e5)
        return coordinator.report

    queued = run("queue")
    dropped = run("drop")
    assert queued.checkpoints_requested == 4
    assert queued.queued_waves > 0
    assert dropped.checkpoints_requested < queued.checkpoints_requested
    assert dropped.skipped_waves > 0
    # fidelity accounting never loses a tick silently
    assert (dropped.checkpoints_requested + dropped.skipped_waves
            >= queued.checkpoints_requested)


def test_dispatch_policy_is_validated():
    n = 4
    sim = Simulator()
    cluster = Cluster(sim, GIDEON_300.with_nodes(n))
    family = norm_family(n)
    runtime = MpiRuntime(sim, cluster, n, protocol_family=family)
    with pytest.raises(ValueError, match="dispatch_policy"):
        CheckpointCoordinator(runtime, family, periodic(1.0),
                              dispatch_policy="bogus")
