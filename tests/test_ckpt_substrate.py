"""Tests for the checkpoint substrates: config, records, BLCR, sender log, schedules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt.base import (
    STAGE_CHECKPOINT,
    STAGES,
    CheckpointRecord,
    CheckpointRequest,
    ProtocolConfig,
    RestartRecord,
)
from repro.ckpt.blcr import BlcrModel
from repro.ckpt.logstore import LogEntry, SenderLog
from repro.ckpt.scheduler import (
    CheckpointSchedule,
    no_checkpoints,
    one_shot,
    periodic,
    schedule_from_intervals,
)
from repro.cluster.storage import LocalDiskArray
from repro.sim.engine import Simulator


# ------------------------------------------------------------------------------- config
def test_protocol_config_defaults_valid():
    cfg = ProtocolConfig()
    assert cfg.lock_mpi_s >= 0
    assert 0 <= cfg.channel_stall_probability <= 1


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(lock_mpi_s=-1)
    with pytest.raises(ValueError):
        ProtocolConfig(channel_stall_probability=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(log_copy_bandwidth=0)


def test_protocol_config_with_overrides():
    cfg = ProtocolConfig().with_overrides(lock_mpi_s=0.5)
    assert cfg.lock_mpi_s == 0.5
    assert cfg.finalize_s == ProtocolConfig().finalize_s


# ------------------------------------------------------------------------------ records
def test_checkpoint_request_validation():
    with pytest.raises(ValueError):
        CheckpointRequest(ckpt_id=-1, group_id=0, participants=(0,), issued_at=0.0)
    with pytest.raises(ValueError):
        CheckpointRequest(ckpt_id=0, group_id=0, participants=(), issued_at=0.0)
    with pytest.raises(ValueError):
        CheckpointRequest(ckpt_id=0, group_id=0, participants=(0,), issued_at=0.0, stagger_s=-1)


def test_checkpoint_record_durations_and_stage_access():
    rec = CheckpointRecord(
        rank=0, ckpt_id=0, group_id=0, start=10.0, end=16.0,
        stages={STAGE_CHECKPOINT: 2.0, "coordination": 3.0},
    )
    assert rec.duration == pytest.approx(6.0)
    assert rec.coordination_time == pytest.approx(4.0)
    assert rec.stage("coordination") == 3.0
    assert rec.stage("unknown") == 0.0


def test_checkpoint_record_end_before_start_rejected():
    with pytest.raises(ValueError):
        CheckpointRecord(rank=0, ckpt_id=0, group_id=0, start=5.0, end=4.0)


def test_restart_record_duration():
    rec = RestartRecord(rank=0, start=1.0, end=4.0)
    assert rec.duration == 3.0
    with pytest.raises(ValueError):
        RestartRecord(rank=0, start=4.0, end=1.0)


def test_stage_names_order_matches_paper():
    assert STAGES == ("lock_mpi", "coordination", "checkpoint", "finalize")


# --------------------------------------------------------------------------------- BLCR
def test_blcr_image_size_adds_runtime_overhead():
    blcr = BlcrModel(runtime_overhead_bytes=10)
    assert blcr.image_bytes(90) == 100
    with pytest.raises(ValueError):
        blcr.image_bytes(-1)


def test_blcr_validation():
    with pytest.raises(ValueError):
        BlcrModel(runtime_overhead_bytes=-1)
    with pytest.raises(ValueError):
        BlcrModel(dump_fork_s=-1)


def test_blcr_dump_and_restore_take_io_time():
    sim = Simulator()
    disks = LocalDiskArray(sim, 1)
    blcr = BlcrModel(runtime_overhead_bytes=0, dump_fork_s=0.1, restore_exec_s=0.2)
    app_bytes = 35_000_000  # exactly one second of write at 35 MB/s

    def proc():
        dump_time = yield from blcr.dump(sim, disks, 0, app_bytes)
        restore_time = yield from blcr.restore(sim, disks, 0, app_bytes)
        return dump_time, restore_time

    dump_time, restore_time = sim.run_until_complete(sim.process(proc()))
    assert dump_time > 1.0
    assert restore_time > 0.2
    assert disks.written_bytes == app_bytes
    assert disks.read_bytes == app_bytes


# --------------------------------------------------------------------------- sender log
def test_log_entry_validation():
    with pytest.raises(ValueError):
        LogEntry(dst=-1, nbytes=1, end_offset=1, timestamp=0.0)
    with pytest.raises(ValueError):
        LogEntry(dst=0, nbytes=10, end_offset=5, timestamp=0.0)


def test_sender_log_append_and_totals():
    log = SenderLog(0)
    log.append(1, 100, 100, 0.0)
    log.append(1, 50, 150, 1.0)
    log.append(2, 10, 10, 2.0)
    assert log.retained_bytes == 160
    assert log.bytes_for(1) == 150
    assert log.messages_for(1) == 2
    assert sorted(log.destinations()) == [1, 2]
    assert len(log) == 3
    assert log.total_logged_messages == 3


def test_sender_log_flush_tracks_unflushed_tail():
    log = SenderLog(0)
    log.append(1, 100, 100, 0.0)
    assert log.unflushed_bytes == 100
    assert log.mark_flushed() == 100
    assert log.unflushed_bytes == 0
    log.append(1, 30, 130, 1.0)
    assert log.unflushed_bytes == 30


def test_sender_log_garbage_collect_by_offset():
    log = SenderLog(0)
    log.append(1, 100, 100, 0.0)
    log.append(1, 100, 200, 1.0)
    log.append(1, 100, 300, 2.0)
    discarded = log.garbage_collect(1, acknowledged_offset=200)
    assert discarded == 200
    assert log.bytes_for(1) == 100
    assert log.gc_bytes == 200
    # a second GC with the same offset discards nothing
    assert log.garbage_collect(1, 200) == 0
    with pytest.raises(ValueError):
        log.garbage_collect(1, -5)


def test_sender_log_replay_plan_selects_unreceived_suffix():
    log = SenderLog(0)
    for i in range(4):
        log.append(1, 100, (i + 1) * 100, float(i))
    plan = log.replay_plan(1, receiver_rr=250)
    assert [e.end_offset for e in plan] == [300, 400]
    assert log.replay_plan(1, receiver_rr=400) == []
    with pytest.raises(ValueError):
        log.replay_plan(1, -1)


def test_sender_log_clear():
    log = SenderLog(0)
    log.append(1, 100, 100, 0.0)
    log.clear()
    assert log.retained_bytes == 0
    assert log.unflushed_bytes == 0


@given(sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_sender_log_gc_plus_retained_equals_total(sizes):
    """Invariant: bytes discarded by GC plus bytes retained equals bytes logged."""
    log = SenderLog(0)
    offset = 0
    for i, size in enumerate(sizes):
        offset += size
        log.append(1, size, offset, float(i))
    ack = offset // 2
    log.garbage_collect(1, ack)
    assert log.gc_bytes + log.retained_bytes == sum(sizes)
    # retained entries are exactly those ending beyond the acknowledged offset
    assert all(e.end_offset > ack for e in log.entries_for(1))


# -------------------------------------------------------------------------------- schedules
def test_one_shot_schedule():
    sched = one_shot(60.0)
    assert sched.request_times(100.0) == [60.0]
    assert sched.request_times(30.0) == []
    with pytest.raises(ValueError):
        one_shot(-1.0)


def test_periodic_schedule_request_times():
    sched = periodic(30.0)
    assert sched.request_times(100.0) == [30.0, 60.0, 90.0]
    assert periodic(30.0, first_at=10.0).request_times(50.0) == [10.0, 40.0]
    assert periodic(30.0, max_checkpoints=2).request_times(1000.0) == [30.0, 60.0]


def test_periodic_schedule_iterator_is_lazy_and_unbounded():
    it = periodic(10.0).iterate()
    assert [next(it) for _ in range(4)] == [10.0, 20.0, 30.0, 40.0]


def test_no_checkpoints_schedule_empty():
    assert no_checkpoints().request_times(1000.0) == []
    assert list(no_checkpoints().iterate()) == []


def test_schedule_validation():
    with pytest.raises(ValueError):
        CheckpointSchedule(times=(-1.0,))
    with pytest.raises(ValueError):
        CheckpointSchedule(interval_s=0.0)
    with pytest.raises(ValueError):
        periodic(10.0).request_times(-5.0)


def test_schedule_from_intervals_maps_zero_to_none():
    schedules = schedule_from_intervals([0.0, 60.0])
    assert not schedules[0].is_periodic and schedules[0].request_times(1e4) == []
    assert schedules[1].is_periodic
    with pytest.raises(ValueError):
        schedule_from_intervals([-1.0])


def test_explicit_times_combined_with_periodic():
    sched = CheckpointSchedule(times=(5.0,), interval_s=50.0)
    assert sched.request_times(120.0) == [5.0, 50.0, 100.0]


def test_log_entries_preserve_message_tags():
    log = SenderLog(0)
    log.append(dst=1, nbytes=10, end_offset=10, timestamp=0.0, tag=7)
    log.append(dst=1, nbytes=10, end_offset=20, timestamp=1.0)
    tags = [e.tag for e in log.entries_for(1)]
    assert tags == [7, 0]


def test_log_rollback_to_checkpoint_offsets():
    log = SenderLog(0)
    for i in range(1, 5):
        log.append(dst=1, nbytes=10, end_offset=10 * i, timestamp=float(i), tag=i)
    log.append(dst=2, nbytes=5, end_offset=5, timestamp=0.5)
    log.mark_flushed()
    log.append(dst=1, nbytes=10, end_offset=50, timestamp=9.0)

    # checkpoint had seen 20 bytes to rank 1 and nothing to rank 2
    discarded = log.rollback_to({1: 20})
    assert discarded == 10 * 3 + 5  # entries 30..50 to rank 1, all of rank 2
    assert [e.end_offset for e in log.entries_for(1)] == [10, 20]
    assert log.entries_for(2) == []
    assert log.unflushed_bytes == 0
    # re-execution re-appends the discarded range at the same offsets
    log.append(dst=1, nbytes=10, end_offset=30, timestamp=10.0, tag=3)
    assert log.replay_plan(1, receiver_rr=10) == log.entries_for(1)[1:]
