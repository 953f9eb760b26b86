"""Unit tests for the kernel fast-path machinery.

Covers the immediate-resume queue (:meth:`Simulator.call_soon`, process
bootstrap without boot events), lazy event names, ``SimStats`` counters,
``fire_at`` absolute scheduling, ``Resource.acquire_nowait`` holds, lazy TX
holds on the network, the network's delivery and blocking sender legs on
both network models, and the signal-free receive gating of the runtime.
"""

import pytest

from repro.cluster.network import FAST_ETHERNET, Network
from repro.cluster.topology import Cluster, GIDEON_300
from repro.mpi.runtime import MpiRuntime
from repro.sim.engine import Interrupt, SimStats, Simulator
from repro.sim.primitives import Event, Resource, ResourceHold, Store
from repro.sim.rng import RandomStreams


# ------------------------------------------------------------- immediate queue
def test_call_soon_runs_before_next_calendar_event():
    sim = Simulator()
    order = []
    ev = sim.timeout(1.0, value="calendar")
    ev.callbacks.append(lambda e: order.append("calendar"))
    sim.call_soon(lambda _arg: order.append("soon"))
    sim.run()
    assert order == ["soon", "calendar"]


def test_call_soon_is_fifo_and_reentrant():
    sim = Simulator()
    order = []
    sim.call_soon(lambda _a: (order.append(1), sim.call_soon(lambda _b: order.append(3))))
    sim.call_soon(lambda _a: order.append(2))
    sim.run()
    assert order == [1, 2, 3]


def test_process_bootstrap_allocates_no_calendar_event():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    # two calendar events: the timeout and the process-completion event —
    # no boot event ever reaches the heap
    assert sim.processed_events == 2
    assert sim.stats.immediate_boots == 1


def test_immediate_resume_on_already_fired_event_counts():
    sim = Simulator()
    early = sim.timeout(0.5, value="x")

    def proc():
        yield sim.timeout(1.0)
        value = yield early  # processed long ago -> immediate resume
        return value

    assert sim.run_until_complete(sim.process(proc())) == "x"
    assert sim.stats.immediate_resumes == 1


def test_peek_reports_now_when_immediates_pending():
    sim = Simulator()
    sim.now = 3.0
    sim.call_soon(lambda _a: None)
    assert sim.peek() == 3.0
    sim.run()
    assert sim.peek() == float("inf")


def test_run_until_event_completes_and_respects_limit():
    sim = Simulator()
    ev = sim.timeout(5.0)
    assert sim.run_until_event(ev, limit=10.0) is True
    assert ev.processed and sim.now == 5.0

    sim2 = Simulator()
    ev2 = sim2.timeout(5.0)
    assert sim2.run_until_event(ev2, limit=1.0) is False
    assert not ev2.processed


def test_run_until_event_detects_deadlock():
    sim = Simulator()
    from repro.sim.engine import SimulationError

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(sim.event())


# ----------------------------------------------------------------- lazy names
def test_event_name_accepts_callable():
    sim = Simulator()
    calls = []

    def make_name():
        calls.append(1)
        return "lazy!"

    ev = Event(sim, name=make_name)
    assert not calls  # nothing resolved at construction
    assert ev.name == "lazy!"
    assert calls == [1]
    assert "lazy!" in repr(ev)


def test_event_without_name_has_empty_label():
    sim = Simulator()
    ev = Event(sim)
    assert ev.name == ""
    assert repr(ev).startswith("<Event")


def test_resource_request_name_is_lazy():
    sim = Simulator()
    res = Resource(sim, name="nic")
    req = res.request()
    assert req.name == "req:nic"


# -------------------------------------------------------------------- SimStats
def test_stats_counters_track_created_events():
    sim = Simulator()
    sim.timeout(1.0)
    sim.all_of([sim.timeout(2.0)])
    sim.run()
    stats = sim.stats.as_dict()
    assert stats["timeouts"] == 2
    assert stats["conditions"] == 1
    assert stats["heap_pushes"] >= 3
    assert set(SimStats.__slots__) == set(stats)


def test_fire_at_schedules_at_absolute_time():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    ev = sim.fire_at(2.5, value="abs")
    sim.run()
    assert ev.processed and ev.value == "abs"
    assert sim.now == 2.5


def test_fire_at_rejects_past_times():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.fire_at(0.5)


# ------------------------------------------------------------ acquire_nowait
def test_acquire_nowait_grants_free_slot_without_event():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    hold = res.acquire_nowait()
    assert isinstance(hold, ResourceHold)
    assert res.count == 1
    assert sim.processed_events == 0 and not sim._heap
    res.release(hold)
    assert res.count == 0


def test_acquire_nowait_refuses_busy_or_queued_resource():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    sim.run()
    assert first.processed
    assert res.acquire_nowait() is None  # busy
    queued = res.request()
    res.release(first)
    sim.run()
    assert queued.processed
    assert res.acquire_nowait() is None  # still held by the queued grant


def test_nowait_hold_queues_later_requests_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    hold = res.acquire_nowait()
    waiting = res.request()
    sim.run()
    assert not waiting.processed
    res.release(hold)
    sim.run()
    assert waiting.processed


# ------------------------------------------------------------ store wake-ups
def test_store_getter_wakes_through_immediate_queue():
    sim = Simulator()
    store = Store(sim)
    got = store.get()
    store.put("x")
    assert got.triggered and not got.processed
    sim.run()  # drains immediates even with an empty calendar
    assert got.processed and got.value == "x"
    assert sim.stats.store_wakeups == 1
    assert sim.processed_events == 0  # no calendar event was used


# ----------------------------------------------------------- network tx holds
def test_background_hold_is_event_free_and_expires_lazily():
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=True)
    assert net.send_background(0, 1000)
    assert not sim._heap  # zero events scheduled
    # the hold takes no resource grant: the in-flight count alone guards it
    assert net._tx[0].count == 0 and net._tx_inflight[0] == 1
    # a closed-form reservation while the hold is live: refused
    assert net.try_reserve_tx(0, 1000) is None
    # after the hold's end time has passed, the next check expires it
    sim.now = 1.0
    assert net.send_background(0, 1000)
    assert net._tx_inflight[0] == 1


def test_live_tx_hold_materialises_for_coroutine_contender():
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=True)
    assert net.send_background(0, 115_000)  # holds TX NIC for overhead + 10ms
    hold_end = (0.0 + FAST_ETHERNET.per_message_overhead_s) + 115_000 / 11.5e6
    done = []

    def contender():
        yield from net.tx(0, 115_000)
        done.append(sim.now)

    sim.process(contender())
    sim.run()
    # the contender queued until exactly the hold's end, then transferred
    expected = (hold_end + 115_000 / 11.5e6)
    assert done[0] == pytest.approx(expected, rel=1e-12)


def test_back_to_back_holds_pipeline_without_events():
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=True)
    assert net.send_background(0, 64)
    # one overhead later the first hold ends before a send started now
    # reaches the NIC: it retires and the second send takes the hold too
    sim.now = FAST_ETHERNET.per_message_overhead_s
    assert net.send_background(0, 64)
    assert not sim._heap
    assert sim.stats.fastpath_tx == 2
    assert sim.stats.events_elided == 8


def test_hold_ending_after_the_next_nic_arrival_still_refuses():
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=True)
    assert net.send_background(0, 115_000)
    sim.now = FAST_ETHERNET.per_message_overhead_s
    assert net.try_reserve_tx(0, 64) is None
    assert not net.send_background(0, 64)  # a callback chain instead


def _pipelined_sends_then_contender(fast_path):
    """Two 64 B background sends one overhead apart, then a coroutine transfer.

    The contender starts after both sends and reaches the NIC while the
    second one holds it.  Returns its finish time and the event counts.
    """
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=fast_path)
    overhead = FAST_ETHERNET.per_message_overhead_s
    ser = 64 / FAST_ETHERNET.bandwidth_bytes_per_s
    finished = []

    def sender():
        for _ in range(2):
            yield sim.timeout(overhead)
            net.send_background(0, 64)

    def contender():
        yield sim.timeout(2 * overhead + ser / 2)
        yield from net.tx(0, 115_000)
        finished.append(sim.now)

    sim.process(sender())
    sim.process(contender())
    sim.run()
    return finished[0], sim.processed_events, sim.stats.events_elided, sim.stats.fastpath_tx


def test_pipelined_holds_queue_a_contender_like_the_coroutine_model():
    fast_done, fast_events, fast_elided, fast_holds = _pipelined_sends_then_contender(True)
    slow_done, slow_events, slow_elided, _ = _pipelined_sends_then_contender(False)
    assert fast_holds == 2
    overhead = FAST_ETHERNET.per_message_overhead_s
    second_hold_end = (2 * overhead + overhead) + 64 / 11.5e6
    assert fast_done == slow_done == second_hold_end + 115_000 / 11.5e6
    assert slow_elided == 0
    assert slow_events == fast_events + fast_elided


def test_fabric_disables_tx_fast_path():
    from dataclasses import replace

    sim = Simulator()
    spec = replace(FAST_ETHERNET, switch_capacity=2)
    net = Network(sim, spec, 2, fast_path=True)
    assert net.try_reserve_tx(0, 1000) is None
    assert not net.send_background(0, 1000)


# --------------------------------------------------------- network message legs
def _deliveries(fast_path):
    """A local delivery, then two remote ones into the same RX NIC at once.

    The first remote delivery finds the RX NIC free, the second finds it
    busy and queues behind the first.  Returns each completion instant, the
    processed calendar events and the simulator's counters.
    """
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 3, fast_path=fast_path)
    arrived = {}

    def record(label):
        arrived[label] = sim.now

    net.deliver(0, 0, 64, record, "local")
    net.deliver(0, 1, 115_000, record, "free")
    net.deliver(2, 1, 64, record, "busy")
    sim.run()
    assert net._rx_inflight == [0, 0, 0]
    return arrived, sim.processed_events, sim.stats


def test_deliver_completes_at_the_same_instant_on_both_models():
    fast, fast_events, fast_stats = _deliveries(True)
    slow, slow_events, slow_stats = _deliveries(False)
    bandwidth = FAST_ETHERNET.bandwidth_bytes_per_s
    assert fast == slow
    assert fast["local"] == 0.0
    assert fast["free"] == FAST_ETHERNET.latency_s + 115_000 / bandwidth
    assert fast["busy"] == fast["free"] + 64 / bandwidth
    assert slow_stats.events_elided == 0
    assert slow_events == fast_events + fast_stats.events_elided
    assert fast_stats.fastpath_local == 1
    assert fast_stats.fastpath_rx == 1


def _rx_reservation_then_contender(fast_path, contender):
    """A 115 kB delivery into node 1, then a contender for its RX NIC.

    The first delivery finds the RX NIC free (the closed-form reservation
    on the fast model).  The contender — a 64 B delivery (``"chain"``) or a
    blocking 64 B transfer (``"coroutine"``) from node 2 — reaches the RX NIC
    while the reservation holds it, so it must queue until the reservation
    ends.  Returns each finish instant, the event counts and the network.
    """
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 3, fast_path=fast_path)
    finished = {}

    def record(label):
        finished[label] = sim.now

    net.deliver(0, 1, 115_000, record, "reserved")

    def start_contender():
        yield sim.timeout(FAST_ETHERNET.latency_s / 2)
        if contender == "chain":
            net.deliver(2, 1, 64, record, contender)
        else:
            yield from net.transfer(2, 1, 64)
            record(contender)

    sim.process(start_contender())
    sim.run()
    return finished, sim.processed_events, sim.stats, net


@pytest.mark.parametrize("contender", ["chain", "coroutine"])
def test_live_rx_reservation_materialises_for_a_contender(contender):
    fast, fast_events, fast_stats, fast_net = _rx_reservation_then_contender(True, contender)
    slow, slow_events, slow_stats, slow_net = _rx_reservation_then_contender(False, contender)
    bandwidth = FAST_ETHERNET.bandwidth_bytes_per_s
    reserved_end = FAST_ETHERNET.latency_s + 115_000 / bandwidth
    assert fast == slow
    assert fast["reserved"] == reserved_end
    # the contender queued until exactly the reservation's end
    assert fast[contender] == reserved_end + 64 / bandwidth
    assert fast_stats.fastpath_rx == 1
    assert slow_stats.events_elided == 0
    assert slow_events == fast_events + fast_stats.events_elided
    for net in (fast_net, slow_net):
        for nic in net._tx + net._rx:
            assert nic.count == 0 and nic.queue_length == 0
        assert net._tx_inflight == net._rx_inflight == [0, 0, 0]
        assert net._rx_hold == [None, None, None]


def test_uncontended_background_send_and_delivery_take_no_resource_grant(monkeypatch):
    """The analytic TX hold and RX reservation decide the NIC from the
    in-flight counts alone: no ``Resource`` call, and both NICs idle after."""
    calls = []
    for name in ("request", "acquire_nowait", "release"):
        original = getattr(Resource, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Resource, name, spy)
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=True)
    arrived = []
    assert net.send_background(0, 64)
    net.deliver(0, 1, 64, arrived.append, "bookmark")
    assert net._tx_inflight == [1, 0] and net._rx_inflight == [0, 1]
    sim.run()
    assert arrived == ["bookmark"]
    assert sim.now == FAST_ETHERNET.latency_s + 64 / FAST_ETHERNET.bandwidth_bytes_per_s
    assert calls == []
    assert sim.processed_events == 1 and sim.stats.events_elided == 7
    assert net._rx_inflight == [0, 0] and net._rx_hold == [None, None]


def _kill_sender_in_tx(fast_path, queued):
    """Kill a sender blocked in ``Network.tx``, then start a contender.

    The victim sends 115 kB from node 0.  Alone, it holds the free TX NIC
    (the reserved branch on the fast model); with ``queued`` a first sender
    holds the NIC and the victim waits for it.  The kill comes half-way
    through a serialisation; the contender starts right after it.  Returns
    the contender's finish instant, the event counts and the NICs.
    """
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=fast_path)
    overhead = FAST_ETHERNET.per_message_overhead_s
    finished = {}

    def sender(nbytes):
        try:
            yield from net.tx(0, nbytes)
        except Interrupt:
            return
        finished[nbytes] = sim.now

    if queued:
        sim.process(sender(115_000))
    victim = sim.process(sender(115_000))

    def killer():
        yield sim.timeout(overhead + 115_000 / FAST_ETHERNET.bandwidth_bytes_per_s / 2)
        victim.interrupt("node-failure")
        sim.process(sender(64))

    sim.process(killer())
    sim.run()
    return finished[64], sim.processed_events, sim.stats, net


@pytest.mark.parametrize("queued", [False, True], ids=["reserved", "queued"])
def test_sender_killed_in_tx_frees_the_nic_on_both_models(queued):
    fast_done, fast_events, fast_stats, fast_net = _kill_sender_in_tx(True, queued)
    slow_done, slow_events, slow_stats, slow_net = _kill_sender_in_tx(False, queued)
    for net in (fast_net, slow_net):
        for nic in net._tx + net._rx:
            assert nic.count == 0 and nic.queue_length == 0
        assert net._tx_inflight == [0, 0]
    assert fast_done == slow_done
    # the reserved branch: victim and contender; queued: the first sender only
    assert fast_stats.fastpath_tx == (1 if queued else 2)
    assert slow_events == fast_events + fast_stats.events_elided


# ----------------------------------------------------- runtime signal gating
def test_runtime_without_coordinator_skips_signal_conditions():
    sim = Simulator()
    cluster = Cluster(sim, GIDEON_300.with_nodes(4))
    runtime = MpiRuntime(sim, cluster, 2, rng=RandomStreams(0))
    assert runtime.checkpoints_enabled is False

    from repro.mpi.ops import Recv, Send

    def program(rank):
        if rank == 0:
            return [Send(dst=1, nbytes=1000)]
        return [Recv(src=0)]

    runtime.launch(program)
    runtime.run_to_completion(limit_s=10.0)
    # the blocked receive waited on the bare inbox event — the only condition
    # is run_to_completion's own AllOf over the rank processes
    assert sim.stats.conditions == 1


def test_attach_checkpoint_source_flags_runtime():
    sim = Simulator()
    cluster = Cluster(sim, GIDEON_300.with_nodes(4))
    runtime = MpiRuntime(sim, cluster, 2, rng=RandomStreams(0))
    runtime.attach_checkpoint_source()
    assert runtime.checkpoints_enabled is True
