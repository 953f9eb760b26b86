"""Indexed inbox matching, the control mailbox and the lazy-piggyback path.

The PR 7 kernel tier replaced the seed's predicate-scan ``Store`` inbox with
per-``(kind, src, tag)`` buckets (:class:`repro.mpi.runtime.Inbox`), which
now drop a bucket as soon as it drains; control messages bypass the buckets
through a per-``(kind, tag)`` mailbox.  These tests pin the semantics both
must preserve bit-for-bit:

* FIFO order within one ``(src, tag)`` channel,
* wildcard (``ANY_SOURCE``/``ANY_TAG``) receives returning the
  *earliest-delivered* match across buckets, interleaved with
  specific-source receives,
* ``capture_resume``'s inbox capture enumerating buffered messages in
  delivery order (what the seed's insertion-ordered list scan produced),
  including the mid-receive limbo message, and surviving a rollback restore,
* every get, put and wake-up agreeing with the seed ``Store`` on random
  interleavings, with no drained bucket left behind,
* the control mailbox handing messages over in delivery order, through the
  immediate queue, to at most one posted consumer per ``(kind, tag)``, and a
  NORM run sending every bookmark and barrier token through it,
* no piggyback dict allocated on the no-metadata send path.
"""

import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt.scheduler import CheckpointSchedule
from repro.cluster.topology import GIDEON_300, Cluster
from repro.experiments.config import QUICK, ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.mpi.messages import Message, MessageKind, fast_message
from repro.mpi.ops import Recv, Send
from repro.mpi.runtime import Inbox, MpiRuntime
from repro.sim.engine import Simulator
from repro.sim.primitives import Store
from repro.sim.rng import RandomStreams


def make_runtime(n_ranks=2):
    sim = Simulator()
    cluster = Cluster(sim, GIDEON_300.with_nodes(n_ranks))
    runtime = MpiRuntime(sim, cluster, n_ranks, rng=RandomStreams(0))
    return sim, runtime


def app_msg(src, dst, nbytes=64, tag=0):
    return fast_message(src, dst, nbytes, tag, MessageKind.APP, None, None, 0.0)


def drain(ev):
    """Value of an already-matched get event (fired through the immediate queue)."""
    assert ev._triggered, "get event should have matched a buffered message"
    return ev._value


# -- FIFO per channel ---------------------------------------------------------

def test_inbox_fifo_order_per_channel():
    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    first = app_msg(1, 0, nbytes=10, tag=7)
    second = app_msg(1, 0, nbytes=20, tag=7)
    third = app_msg(1, 0, nbytes=30, tag=7)
    for m in (first, second, third):
        inbox.put(m)
    assert len(inbox) == 3
    got = [drain(inbox.get(MessageKind.APP, 1, 7)) for _ in range(3)]
    assert got == [first, second, third]
    assert len(inbox) == 0


def test_inbox_channels_are_independent():
    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    a = app_msg(1, 0, tag=1)
    b = app_msg(2, 0, tag=1)
    c = app_msg(1, 0, tag=2)
    for m in (a, b, c):
        inbox.put(m)
    # specific receives hit their own bucket regardless of delivery order
    assert drain(inbox.get(MessageKind.APP, 1, 2)) is c
    assert drain(inbox.get(MessageKind.APP, 2, 1)) is b
    assert drain(inbox.get(MessageKind.APP, 1, 1)) is a


def test_inbox_kind_separation():
    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    ctrl = fast_message(1, 0, 64, 5, MessageKind.CONTROL, None, None, 0.0)
    app = app_msg(1, 0, tag=5)
    inbox.put(ctrl)
    inbox.put(app)
    assert drain(inbox.get(MessageKind.APP, 1, 5)) is app
    assert drain(inbox.get(MessageKind.CONTROL, 1, 5)) is ctrl


# -- wildcard interleaving ----------------------------------------------------

def test_wildcard_takes_earliest_delivered_across_buckets():
    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    a1 = app_msg(1, 0, tag=1)
    b1 = app_msg(2, 0, tag=2)
    a2 = app_msg(1, 0, tag=1)
    for m in (a1, b1, a2):
        inbox.put(m)
    # ANY_SOURCE/ANY_TAG: earliest delivery wins, exactly like the list scan
    assert drain(inbox.get(MessageKind.APP, None, None)) is a1
    # a specific receive still sees its channel FIFO (a2, not b1)
    assert drain(inbox.get(MessageKind.APP, 1, 1)) is a2
    assert drain(inbox.get(MessageKind.APP, None, None)) is b1


def test_wildcard_partial_patterns():
    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    m_src1_tag9 = app_msg(1, 0, tag=9)
    m_src2_tag9 = app_msg(2, 0, tag=9)
    m_src1_tag3 = app_msg(1, 0, tag=3)
    for m in (m_src1_tag9, m_src2_tag9, m_src1_tag3):
        inbox.put(m)
    # ANY_SOURCE with a fixed tag
    assert drain(inbox.get(MessageKind.APP, None, 9)) is m_src1_tag9
    # fixed source with ANY_TAG: src-1 FIFO is tag9 first, then tag3
    assert drain(inbox.get(MessageKind.APP, 1, None)) is m_src1_tag3
    assert drain(inbox.get(MessageKind.APP, None, None)) is m_src2_tag9


def test_blocked_getters_wake_in_registration_order():
    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    specific = inbox.get(MessageKind.APP, 2, 4)     # registered first
    wildcard = inbox.get(MessageKind.APP, None, None)
    other = app_msg(1, 0, tag=4)
    inbox.put(other)   # does not match the specific getter
    assert not specific._triggered
    assert wildcard._triggered and wildcard._value is other
    match = app_msg(2, 0, tag=4)
    inbox.put(match)
    assert specific._triggered and specific._value is match
    assert len(inbox) == 0


def test_runtime_any_source_receive_end_to_end():
    sim, rt = make_runtime(3)

    def prog(rank):
        if rank == 0:
            return [Recv(src=None, tag=1), Recv(src=None, tag=1)]
        return [Send(dst=0, nbytes=100 * rank, tag=1)]

    rt.launch(prog)
    rt.run_to_completion()
    assert rt.ctx(0).account.received_from(1) == 100
    assert rt.ctx(0).account.received_from(2) == 200


# -- capture/restore under rollback ------------------------------------------

def test_capture_resume_inbox_in_delivery_order_with_limbo_message():
    sim, rt = make_runtime(2)
    rt.attach_failure_source()
    ctx = rt.ctx(1)
    # delivery order across three buckets, plus a control message that the
    # capture must exclude
    m1 = app_msg(0, 1, nbytes=10, tag=1)
    m2 = app_msg(0, 1, nbytes=20, tag=2)
    ctrl = fast_message(0, 1, 64, 3, MessageKind.CONTROL, None, None, 0.0)
    m3 = app_msg(0, 1, nbytes=30, tag=1)
    for m in (m1, m2, ctrl, m3):
        ctx.inbox.put(m)
    # mid-receive: a blocked get has already matched m1 (the limbo message)
    # when the checkpoint captures the rank
    pending = ctx.inbox.get(MessageKind.APP, 0, 1)
    assert pending._triggered and pending._value is m1
    ctx.pending_get = pending
    resume = rt.capture_resume(ctx)
    # the seed list scan produced: limbo first, then buffered app messages in
    # insertion (delivery) order
    assert resume.inbox == [m1, m2, m3]
    # rollback: a fresh inbox restored from the capture replays the same order
    ctx.reset_for_rollback()
    ctx.inbox.restore(resume.inbox)
    assert ctx.inbox.items_in_order() == [m1, m2, m3]
    assert drain(ctx.inbox.get(MessageKind.APP, None, None)) is m1


def test_restore_then_new_deliveries_keep_global_order():
    sim, rt = make_runtime(2)
    rt.attach_failure_source()
    ctx = rt.ctx(1)
    old = app_msg(0, 1, tag=1)
    ctx.inbox.restore([old])
    fresh = app_msg(0, 1, tag=2)
    ctx.inbox.put(fresh)
    assert ctx.inbox.items_in_order() == [old, fresh]
    assert drain(ctx.inbox.get(MessageKind.APP, None, None)) is old


# -- differential check against the seed Store --------------------------------

KINDS = (MessageKind.APP, MessageKind.CONTROL)
SRCS = (0, 1, 2)
TAGS = (0, 1)

PUTS = st.tuples(st.just("put"), st.sampled_from(KINDS), st.sampled_from(SRCS),
                 st.sampled_from(TAGS))
#: exact, ANY_SOURCE, ANY_TAG, any-kind and full-wildcard patterns; a get
#: that finds no buffered match blocks until a later put
GETS = st.tuples(st.just("get"), st.sampled_from(KINDS + (None,)),
                 st.sampled_from(SRCS + (None,)), st.sampled_from(TAGS + (None,)))


def _pattern(kind, src, tag):
    """The seed runtime's matcher closure for one receive."""
    return lambda m: ((kind is None or m.kind is kind)
                      and (src is None or m.src == src)
                      and (tag is None or m.tag == tag))


def assert_buckets_consistent(inbox):
    """No drained bucket; the length counts exactly the buffered messages."""
    assert all(inbox._buckets.values())
    assert len(inbox) == sum(map(len, inbox._buckets.values()))


@given(ops=st.lists(st.one_of(PUTS, GETS), max_size=60))
@settings(max_examples=300, deadline=None)
def test_inbox_matches_seed_store_on_random_interleavings(ops):
    inbox_sim, store_sim = Simulator(), Simulator()
    inbox, store = Inbox(inbox_sim, rank=0), Store(store_sim)
    inbox_woken, store_woken = [], []
    for step, (op, kind, src, tag) in enumerate(ops):
        if op == "put":
            msg = fast_message(src, 0, 1, tag, kind, None, None, 0.0)
            inbox.put(msg)
            store.put(msg)
        else:
            for ev, woken in ((inbox.get(kind, src, tag), inbox_woken),
                              (store.get(_pattern(kind, src, tag)), store_woken)):
                ev.callbacks.append(lambda ev, step=step, woken=woken:
                                    woken.append((step, ev.value.seq)))
        inbox_sim.run()
        store_sim.run()
        # same message for every get, woken in the same order
        assert inbox_woken == store_woken
        assert len(inbox) == len(store)
        assert [m.seq for m in inbox.items_in_order()] == [m.seq for m in store.items]
        assert len(inbox._waiters) == len(store._getters)
        assert_buckets_consistent(inbox)


def control_msg(src, dst=0, tag=5, kind=MessageKind.CONTROL):
    return fast_message(src, dst, 64, tag, kind, None, None, 0.0)


def test_control_mailbox_hands_over_in_delivery_order():
    sim, rt = make_runtime(4)
    inbox = rt.ctx(0).inbox
    for src in (3, 1, 2):
        rt._finish_delivery(control_msg(src))
    assert len(inbox) == 3  # buffered control messages count in the depth
    got = []
    for _ in range(3):
        inbox.take_control(MessageKind.CONTROL, 5, lambda msg: got.append(msg.src))
        sim.run()
    assert got == [3, 1, 2]
    assert sim.stats.store_wakeups == 3
    assert len(inbox) == 0 and not inbox._mail and not inbox._posted
    # no bucket, no receive, no scan: the mailbox is not the tag matcher
    assert not inbox._buckets
    assert sim.stats.inbox_wildcard_gets == 0
    assert sim.stats.inbox_buckets_scanned == 0
    assert sim.stats.inbox_peak_buckets == 0


def test_app_wildcard_receives_count_the_buckets_they_scan():
    sim = Simulator()
    inbox = Inbox(sim, rank=0)
    for src in (3, 1, 2):
        inbox.put(app_msg(src, 0, tag=5))
    inbox.put(app_msg(1, 0, tag=6))
    assert sim.stats.inbox_peak_buckets == 4
    # ANY_SOURCE scans the live buckets and takes the earliest delivered
    assert drain(inbox.get(MessageKind.APP, None, 5)).src == 3
    assert sim.stats.inbox_buckets_scanned == 4
    # ANY_TAG scans the three buckets left
    assert drain(inbox.get(MessageKind.APP, 1, None)).tag == 5
    assert sim.stats.inbox_buckets_scanned == 7
    assert sim.stats.inbox_wildcard_gets == 2


def test_control_mailbox_posted_consumer_takes_the_next_arrival():
    sim, rt = make_runtime(3)
    inbox = rt.ctx(0).inbox
    order = []
    inbox.take_control(MessageKind.MARKER, 9, lambda msg: order.append(("marker", msg.src)))
    assert (MessageKind.MARKER, 9) in inbox._posted
    # another kind or tag is buffered, not handed over
    rt._finish_delivery(control_msg(2, tag=9))
    rt._finish_delivery(control_msg(1, tag=8, kind=MessageKind.MARKER))
    assert not sim._immediate and len(inbox) == 2
    # the hand-off runs after the immediate callbacks already queued
    sim.call_soon(order.append, "queued first")
    rt._finish_delivery(control_msg(1, tag=9, kind=MessageKind.MARKER))
    assert not inbox._posted and len(inbox) == 2
    sim.run()
    assert order == ["queued first", ("marker", 1)]
    assert sim.stats.store_wakeups == 1


def test_control_mailbox_take_of_a_buffered_message_queues_behind_earlier_callbacks():
    sim, rt = make_runtime(2)
    inbox = rt.ctx(0).inbox
    rt._finish_delivery(control_msg(1))
    order = []
    sim.call_soon(order.append, "queued first")
    inbox.take_control(MessageKind.CONTROL, 5, lambda msg: order.append(msg.src))
    assert len(inbox) == 0
    sim.run()
    assert order == ["queued first", 1]


def test_control_mailbox_refuses_a_second_consumer():
    sim, rt = make_runtime(2)
    inbox = rt.ctx(0).inbox
    inbox.take_control(MessageKind.CONTROL, 5, lambda msg: None)
    with pytest.raises(RuntimeError, match="already posted"):
        inbox.take_control(MessageKind.CONTROL, 5, lambda msg: None)
    # another tag or kind is a separate mailbox
    inbox.take_control(MessageKind.CONTROL, 6, lambda msg: None)
    inbox.take_control(MessageKind.MARKER, 5, lambda msg: None)


def test_control_message_to_a_rolled_back_rank_is_dropped_before_the_mailbox():
    sim, rt = make_runtime(2)
    rt.attach_failure_source()
    got = []
    rt.ctx(0).inbox.take_control(MessageKind.CONTROL, 5, got.append)
    stale = control_msg(1)
    stale.dst_epoch = rt.ctx(0).rollback_epoch - 1
    rt._finish_delivery(stale)
    sim.run()
    assert got == [] and rt.dropped_messages == 1
    assert (MessageKind.CONTROL, 5) in rt.ctx(0).inbox._posted


def test_message_kind_hash_is_identity_and_pickles_to_the_member():
    assert MessageKind.__hash__ is object.__hash__
    for kind in MessageKind:
        assert hash(kind) == object.__hash__(kind)
        assert pickle.loads(pickle.dumps(kind)) is kind


# -- NORM coordination goes through the mailbox --------------------------------

def test_norm_coordination_uses_the_mailbox_and_leaves_inboxes_empty():
    """NORM's bookmarks and barrier tokens go through the control mailbox:
    a control message that falls back to ``Inbox.get`` fails the wildcard
    count, and one left behind fails the empty-inbox checks."""
    config = ScenarioConfig("hpl", 32, "NORM", CheckpointSchedule(times=(0.75, 2.0)),
                            workload_options=dict(QUICK.hpl_options),
                            max_group_size=8, do_restart=False, seed=7)
    result = run_scenario(config)
    assert result.checkpoints_completed >= 2
    for ctx in result.app.contexts:
        assert len(ctx.inbox) == 0
        assert not ctx.inbox._buckets
        assert not ctx.inbox._mail and not ctx.inbox._posted
    stats = result.app.contexts[0].sim.stats
    assert stats.inbox_wildcard_gets == 0
    assert stats.inbox_buckets_scanned == 0
    flat = result.telemetry.metrics.as_flat_dict()
    assert flat["sim.events.inbox_wildcard_gets"] == 0
    assert flat["sim.events.inbox_buckets_scanned"] == 0
    assert flat["sim.events.inbox_peak_buckets"] == stats.inbox_peak_buckets


# -- lazy piggyback -----------------------------------------------------------

def test_no_piggyback_path_allocates_no_dict():
    """Without protocol metadata a message must carry ``piggyback=None``."""
    msg = fast_message(0, 1, 128, 0, MessageKind.APP, None, None, 0.0)
    assert msg.piggyback is None
    assert Message(src=0, dst=1, nbytes=128).piggyback is None


class _SpyInbox(Inbox):
    __slots__ = ("captured",)

    def __init__(self, sim, rank):
        super().__init__(sim, rank)
        self.captured = []

    def put(self, msg):
        self.captured.append(msg)
        Inbox.put(self, msg)


def test_runtime_send_without_protocol_delivers_none_piggyback():
    sim, rt = make_runtime(2)

    def prog(rank):
        if rank == 0:
            return [Send(dst=1, nbytes=256, tag=1)]
        return [Recv(src=0, tag=1)]

    spy = _SpyInbox(sim, 1)
    rt.ctx(1).inbox = spy
    rt.launch(prog)
    rt.run_to_completion()
    assert len(spy.captured) == 1
    assert spy.captured[0].piggyback is None


def test_message_seq_numbers_shared_counter():
    a = fast_message(0, 1, 1, 0, MessageKind.APP, None, None, 0.0)
    b = Message(src=0, dst=1, nbytes=1)
    assert b.seq > a.seq


def test_message_slots_reject_stray_attributes():
    msg = app_msg(0, 1)
    with pytest.raises(AttributeError):
        msg.not_a_field = 1
