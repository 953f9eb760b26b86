"""Tests for the MPI-like layer: messages, ops, traces, collectives, runtime."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import GIDEON_300, Cluster
from repro.mpi import collectives as coll
from repro.mpi.messages import ChannelAccount, Message, MessageKind, in_transit_bytes
from repro.mpi.ops import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Recv,
    Reduce,
    Send,
    SendRecv,
)
from repro.mpi.runtime import MpiRuntime
from repro.mpi.trace import TraceLog, TraceRecord, unordered_pair
from repro.mpi.tracer import Tracer
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams


# ------------------------------------------------------------------ messages & accounts
def test_message_validation():
    with pytest.raises(ValueError):
        Message(src=-1, dst=0, nbytes=10)
    with pytest.raises(ValueError):
        Message(src=0, dst=0, nbytes=-1)


def test_message_sequence_numbers_increase():
    a = Message(src=0, dst=1, nbytes=1)
    b = Message(src=0, dst=1, nbytes=1)
    assert b.seq > a.seq


def test_channel_account_tracks_sent_and_received():
    acc = ChannelAccount(0)
    acc.record_send(1, 100)
    acc.record_send(1, 50)
    acc.record_receive(2, 30)
    assert acc.sent_to(1) == 150
    assert acc.messages_sent_to(1) == 2
    assert acc.received_from(2) == 30
    assert acc.total_sent == 150
    assert acc.total_received == 30
    assert acc.peers() == {1, 2}


def test_channel_account_snapshots_are_copies():
    acc = ChannelAccount(0)
    acc.record_send(1, 100)
    snap = acc.snapshot_sent()
    acc.record_send(1, 100)
    assert snap[1] == 100
    assert acc.sent_to(1) == 200


def test_channel_account_validation():
    acc = ChannelAccount(0)
    with pytest.raises(ValueError):
        acc.record_send(-1, 10)
    with pytest.raises(ValueError):
        acc.record_receive(1, -10)


def test_in_transit_bytes_helper():
    assert in_transit_bytes({1: 500}, {0: 200}, sender=0, receiver=1) == 300
    assert in_transit_bytes({1: 100}, {0: 200}, sender=0, receiver=1) == 0


# ---------------------------------------------------------------------------------- ops
def test_op_validation():
    with pytest.raises(ValueError):
        Compute(seconds=-1)
    with pytest.raises(ValueError):
        Send(dst=-1, nbytes=0)
    with pytest.raises(ValueError):
        Recv(src=-2)
    with pytest.raises(ValueError):
        SendRecv(dst=0, send_nbytes=-1)
    with pytest.raises(ValueError):
        Bcast(root=-1, nbytes=0)


def test_barrier_over_helper_sorts():
    b = Barrier.over([3, 1, 2])
    assert b.participants == (1, 2, 3)


# -------------------------------------------------------------------------------- traces
def test_trace_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(src=0, dst=1, nbytes=-1)
    with pytest.raises(ValueError):
        TraceRecord(src=0, dst=1, nbytes=1, timestamp=-1)


def test_unordered_pair_canonical():
    assert unordered_pair(5, 2) == (2, 5) == unordered_pair(2, 5)


def test_trace_pair_totals_merge_directions():
    log = TraceLog([
        TraceRecord(0, 1, 100),
        TraceRecord(1, 0, 50),
        TraceRecord(0, 2, 10),
    ])
    totals = log.pair_totals()
    assert totals[(0, 1)] == (2, 150)
    assert totals[(0, 2)] == (1, 10)
    assert log.total_bytes == 160
    assert log.bytes_between(1, 0) == 150


def test_trace_communication_matrix():
    log = TraceLog([TraceRecord(0, 1, 100), TraceRecord(0, 1, 50), TraceRecord(2, 0, 7)])
    mat = log.communication_matrix()
    assert mat.shape == (3, 3)
    assert mat[0, 1] == 150
    assert mat[2, 0] == 7
    counts = log.message_count_matrix()
    assert counts[0, 1] == 2


def test_trace_round_trip_serialisation(tmp_path):
    log = TraceLog([TraceRecord(0, 1, 100, 1.5, 3), TraceRecord(1, 2, 7, 2.0, 0)], n_ranks=4)
    path = tmp_path / "trace.txt"
    log.save(path)
    loaded = TraceLog.load(path)
    assert len(loaded) == 2
    assert loaded.n_ranks == 4
    assert loaded.records[0] == log.records[0]


def test_trace_loads_rejects_malformed_line():
    with pytest.raises(ValueError):
        TraceLog.loads("0 1 100\n")


def test_tracer_records_only_app_messages():
    tracer = Tracer()
    app = Message(src=0, dst=1, nbytes=10)
    ctrl = Message(src=0, dst=1, nbytes=10, kind=MessageKind.CONTROL)
    tracer.on_send(app, 1.0)
    tracer.on_send(ctrl, 1.0)
    assert len(tracer.log) == 1


def test_tracer_max_records_cap():
    tracer = Tracer(max_records=2)
    for _ in range(5):
        tracer.on_send(Message(src=0, dst=1, nbytes=1), 0.0)
    assert len(tracer.log) == 2
    assert tracer.dropped_records == 3


def test_tracer_disable_enable_reset():
    tracer = Tracer()
    tracer.disable()
    tracer.on_send(Message(src=0, dst=1, nbytes=1), 0.0)
    assert len(tracer.log) == 0
    tracer.enable()
    tracer.on_send(Message(src=0, dst=1, nbytes=1), 0.0)
    assert len(tracer.log) == 1
    tracer.reset()
    assert len(tracer.log) == 0


# ---------------------------------------------------------------------------- collectives
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 16])
def test_bcast_schedule_is_consistent(n):
    """Every non-root receives exactly once; sends match receives globally."""
    participants = list(range(n))
    sends, recvs = [], []
    for rank in participants:
        for action, peer, size in coll.bcast_schedule(rank, 0, participants, 100):
            (sends if action == "send" else recvs).append((rank, peer))
    # every non-root rank receives exactly once
    receivers = [r for r, _ in recvs]
    assert sorted(receivers) == [r for r in participants if r != 0]
    # each send has a matching receive
    assert sorted((dst, src) for src, dst in sends) == sorted(recvs)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_reduce_schedule_mirrors_bcast(n):
    participants = list(range(n))
    sends = []
    for rank in participants:
        for action, peer, _ in coll.reduce_schedule(rank, 0, participants, 10):
            if action == "send":
                sends.append((rank, peer))
    # every non-root sends exactly once in a reduction tree
    assert sorted(s for s, _ in sends) == [r for r in participants if r != 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
def test_allreduce_schedule_sends_match_recvs(n):
    participants = list(range(n))
    sends, recvs = [], []
    for rank in participants:
        for action, peer, _ in coll.allreduce_schedule(rank, participants, 8):
            (sends if action == "send" else recvs).append((rank, peer))
    assert sorted((dst, src) for src, dst in sends) == sorted(recvs)


def test_allreduce_single_rank_empty():
    assert coll.allreduce_schedule(0, [0], 8) == []


def test_allgather_ring_length():
    steps = coll.allgather_schedule(2, [0, 1, 2, 3], 100)
    assert coll.schedule_message_count(steps) == 3
    assert coll.schedule_byte_count(steps) == 300


def test_schedule_rejects_unknown_rank():
    with pytest.raises(ValueError):
        coll.bcast_schedule(9, 0, [0, 1, 2], 10)
    with pytest.raises(ValueError):
        coll.bcast_schedule(0, 9, [0, 1, 2], 10)


def test_schedule_rejects_duplicates_and_negative_sizes():
    with pytest.raises(ValueError):
        coll.barrier_schedule(0, [0, 0, 1])
    with pytest.raises(ValueError):
        coll.allgather_schedule(0, [0, 1], -1)


# -------------------------------------------------------------------------------- runtime
def make_runtime(n_ranks=4, tracer=None):
    sim = Simulator()
    cluster = Cluster(sim, GIDEON_300.with_nodes(n_ranks))
    runtime = MpiRuntime(sim, cluster, n_ranks, rng=RandomStreams(0), tracer=tracer)
    return sim, runtime


def test_runtime_requires_positive_ranks():
    sim = Simulator()
    cluster = Cluster(sim, GIDEON_300.with_nodes(2))
    with pytest.raises(ValueError):
        MpiRuntime(sim, cluster, 0)


def test_runtime_set_memory_variants():
    _, rt = make_runtime(3)
    rt.set_memory(100)
    assert [c.memory_bytes for c in rt.contexts] == [100, 100, 100]
    rt.set_memory([1, 2, 3])
    assert [c.memory_bytes for c in rt.contexts] == [1, 2, 3]
    rt.set_memory({1: 99})
    assert rt.ctx(1).memory_bytes == 99
    with pytest.raises(ValueError):
        rt.set_memory([1, 2])


def test_runtime_send_recv_roundtrip_updates_accounting():
    sim, rt = make_runtime(2)

    def prog(rank):
        if rank == 0:
            return [Send(dst=1, nbytes=1000, tag=5)]
        return [Recv(src=0, tag=5)]

    rt.launch(prog)
    result = rt.run_to_completion()
    assert result.makespan > 0
    assert rt.ctx(0).account.sent_to(1) == 1000
    assert rt.ctx(1).account.received_from(0) == 1000
    assert rt.ctx(1).stats.messages_received == 1
    assert len(result.deliveries) == 1


def test_runtime_sendrecv_pairwise_exchange():
    sim, rt = make_runtime(2)

    def prog(rank):
        other = 1 - rank
        return [SendRecv(dst=other, send_nbytes=500, src=other, tag=1)]

    rt.launch(prog)
    rt.run_to_completion()
    assert rt.ctx(0).account.received_from(1) == 500
    assert rt.ctx(1).account.received_from(0) == 500


def test_runtime_collective_ops_complete():
    sim, rt = make_runtime(5)

    def prog(rank):
        return [
            Bcast(root=0, nbytes=1000),
            Allreduce(nbytes=8),
            Reduce(root=2, nbytes=64),
            Barrier(),
        ]

    rt.launch(prog)
    result = rt.run_to_completion(limit_s=1000)
    assert result.makespan > 0
    # every rank executed all four operations
    assert all(ctx.stats.ops_executed == 4 for ctx in rt.contexts)


def test_runtime_compute_uses_node_speed_and_jitter_stream():
    sim, rt = make_runtime(1)

    def prog(rank):
        return [Compute(seconds=2.0, jitter=False)]

    rt.launch(prog)
    result = rt.run_to_completion()
    assert result.makespan == pytest.approx(2.0)


def test_runtime_tracer_sees_collective_point_to_point_messages():
    tracer = Tracer()
    sim, rt = make_runtime(4, tracer=tracer)

    def prog(rank):
        return [Bcast(root=0, nbytes=100)]

    rt.launch(prog)
    rt.run_to_completion()
    assert len(tracer.log) == 3  # binomial tree over 4 ranks = 3 sends


def test_runtime_launch_twice_rejected():
    sim, rt = make_runtime(2)
    rt.launch(lambda rank: [Compute(seconds=0.0)])
    with pytest.raises(RuntimeError):
        rt.launch(lambda rank: [Compute(seconds=0.0)])


def test_runtime_run_before_launch_rejected():
    sim, rt = make_runtime(2)
    with pytest.raises(RuntimeError):
        rt.run_to_completion()


def test_runtime_unsupported_op_type_fails():
    sim, rt = make_runtime(1)

    class Bogus:
        pass

    rt.launch(lambda rank: [Bogus()])
    with pytest.raises(TypeError):
        rt.run_to_completion()


def test_runtime_rank_out_of_range():
    sim, rt = make_runtime(2)
    with pytest.raises(ValueError):
        rt.ctx(5)


def test_runtime_result_reports_finish_times_and_running_ranks():
    sim, rt = make_runtime(2)

    def prog(rank):
        return [Compute(seconds=1.0 + rank, jitter=False)]

    rt.launch(prog)
    assert set(rt.running_ranks()) == {0, 1}
    result = rt.run_to_completion()
    assert rt.running_ranks() == ()
    finish = result.per_rank_finish_times()
    assert finish[1] > finish[0]


@given(nbytes=st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=20, deadline=None)
def test_runtime_send_conserves_bytes(nbytes):
    sim, rt = make_runtime(2)

    def prog(rank):
        if rank == 0:
            return [Send(dst=1, nbytes=nbytes)]
        return [Recv(src=0)]

    rt.launch(prog)
    rt.run_to_completion()
    assert rt.ctx(0).account.sent_to(1) == rt.ctx(1).account.received_from(0) == nbytes


def test_control_fanout_and_gather_resume_each_rank_once():
    sim, rt = make_runtime(3)
    resumed = []

    def sender(rank):
        yield rt.control_fanout(rt.ctx(rank), [0], tag=9, payload_of=lambda peer: rank)
        resumed.append((rank, sim.now))

    def receiver():
        got = []
        yield rt.control_gather(rt.ctx(0), 2, tag=9, on_message=lambda m: got.append(m.payload))
        resumed.append((0, sim.now))
        return got

    gather = sim.process(receiver())
    for rank in (1, 2):
        sim.process(sender(rank))
    sim.run()
    assert sorted(gather.value) == [1, 2]
    overhead = rt.cluster.network.spec.per_message_overhead_s
    assert [r for r, _ in resumed] == [1, 2, 0]
    assert resumed[0][1] == resumed[1][1] == overhead


def test_control_gather_names_what_a_wedged_rank_waits_for():
    sim, rt = make_runtime(3)
    ctx = rt.ctx(0)

    def receiver():
        # rank 1 announces 500 B that never arrive; rank 2 never sends
        yield rt.control_gather(ctx, 2, tag=7, on_message=ctx.wait_for_bookmark)

    def announcer():
        yield rt.control_fanout(rt.ctx(1), [0], tag=7, payload_of=lambda peer: 500)

    proc = sim.process(receiver())
    sim.process(announcer())
    sim.run()
    assert proc.is_alive
    waiting = proc.waiting_on
    assert callable(waiting._name)  # resolved only when printed
    assert "rank 0 gathering control tag 7: 1/2 received" in repr(waiting)
    assert "draining rank 1: 0 of 500 B arrived" in repr(waiting)


def test_deadlock_report_names_each_blocked_rank_and_its_receive():
    sim, rt = make_runtime(3)

    def prog(rank):
        if rank == 0:
            return [Compute(seconds=0.5, jitter=False), Recv(src=1, tag=5)]
        return [Compute(seconds=0.1, jitter=False)]

    rt.launch(prog)
    with pytest.raises(SimulationError) as err:
        rt.run_to_completion()
    text = str(err.value)
    # the kernel's own message comes first, then one line per blocked rank
    assert text.startswith("deadlock: event")
    assert "1 of 3 ranks unfinished" in text
    assert "rank 0: 2 ops executed" in text
    assert "posted receive (app, src=1, tag=5)" in text


def test_time_limit_report_names_the_ranks_still_running():
    sim, rt = make_runtime(2)
    rt.launch(lambda rank: [Compute(seconds=10.0, jitter=False)])
    with pytest.raises(RuntimeError) as err:
        rt.run_to_completion(limit_s=1.0)
    text = str(err.value)
    assert text.startswith("application did not finish within 1.0 simulated seconds")
    assert "2 of 2 ranks unfinished" in text
    assert "rank 0: 1 ops executed, waiting on <Timeout" in text
