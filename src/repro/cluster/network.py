"""Switched-network model with per-NIC serialisation.

The Gideon 300 cluster uses switched Fast Ethernet.  For the protocol
measurements the relevant effects are:

* a fixed per-message latency (software stack + switch),
* a bandwidth-proportional transfer time,
* serialisation at each node's NIC: a node sending (or receiving) several
  messages at once shares its link, which is what makes "clearing in-transit
  messages" and "replaying logs to many peers" expensive at scale.

A message runs as a sender leg and a receiver leg, and each leg picks its
own representation (closed-form reservation, analytic hold, callback chain
or coroutine), so the fast path's proof and its event accounting live in
this module only:

* :meth:`Network.tx` — the blocking sender leg (per-message overhead + TX
  NIC serialisation), a generator the sender yields from;
* :meth:`Network.send_background` — the same leg for a non-blocking send,
  which occupies the NIC but not the sender;
* :meth:`Network.deliver` — the receiver leg (latency + RX NIC
  serialisation, nothing for a same-node message), which calls
  ``on_complete(arg)`` at the delivery instant.

:meth:`Network.transfer` is :meth:`~Network.tx` followed by a blocking
receiver leg, and :meth:`Network.transfer_time` a closed-form estimate for
analytic helper code.

Closed-form fast path
---------------------
When a NIC is *provably* uncontended, the multi-yield coroutine model is
equivalent to a single timeout: overhead + serialisation on the sender side,
latency + serialisation on the receiver side.  The proof needs more than
"the NIC resource is idle": a transfer that has been *initiated* but has not
yet reached the NIC (it is still in its overhead or latency phase) would
contend later.  The ``_tx_inflight`` / ``_rx_inflight`` counters track
initiated-but-unfinished legs per NIC — every representation counts itself
— and the fast path requires that no *other* leg be in flight.

The closed form then holds the NIC analytically.  The blocking legs
(:meth:`try_reserve_tx`, :meth:`try_reserve_rx`) take a real grant via
:meth:`~repro.sim.primitives.Resource.acquire_nowait`, because their
``finally`` releases it.  The background TX hold of :meth:`send_background`
and the closed-form delivery of :meth:`deliver` take none: a zero in-flight
count already proves the NIC idle, so they only count themselves in flight.
Their grant is materialised when a chain or coroutine leg is about to
acquire that NIC (:meth:`_materialize_tx_hold`, :meth:`_materialize_rx_hold`),
so the contender queues exactly where it would have queued against the
coroutine model, and an uncontended bookmark never calls the
:class:`~repro.sim.primitives.Resource` at all.  Because
per-message latency and overhead are network constants, any transfer
initiated *after* a fast reservation reaches the NIC no earlier than the
reservation's own NIC phase, so the early hold can never steal the NIC from
a transfer that would have won it under the coroutine model (and the fabric
must be absent — with a capacity-limited switch the whole-window hold could
over-serialise it, so a configured ``switch_capacity`` always takes the
coroutine model).

The same argument lets analytic TX holds pipeline.  A transfer started now
reaches the NIC at ``now + overhead``.  When the NIC's only in-flight
transfer is an earlier analytic hold that ends no later than that instant,
every transfer started now or later reaches the NIC after the hold is over,
and the counter says nothing started earlier is still on its way; so the
hold is retired on the spot (keeping its elided events) and the new transfer
takes the fast path too.  Back-to-back small sends one overhead apart — a
NORM rank's bookmark fan-out, a halo exchange's isends — therefore each take
an event-free hold instead of a callback chain.  The RX leg never reads the
TX NIC (delivery starts at the same instant as the sender leg), so only the
TX queue's representation changes.

One tie escapes the argument, on both fast TX paths alike: a transfer
started in the *same callback* as a background send, after it, reaches the
NIC at the same instant.  The coroutine model grants it the NIC first (the
spawned sender process only boots after its spawner's step, so its overhead
timeout lands later on the calendar); the analytic hold and ``_TxChain``
grant the background send first.  No parity scenario contains that tie.

Event accounting
----------------
Each fast representation adds to ``sim.stats.events_elided`` the calendar
events the coroutine model processes and it does not, so that
``slow.processed_events == fast.processed_events + fast.stats.events_elided``:

====================================================  ======
fast representation                                   elided
====================================================  ======
analytic TX hold (``send_background``)                    +4
closed-form delivery (``deliver``)                        +3
closed-form blocking leg (``tx``, ``transfer``'s RX)      +2
callback chain, local delivery or NIC grant skip          +1
materialised TX hold (a coroutine contends)               -1
====================================================  ======

Blocking legs stay generators with ``try/finally`` on both models: a sender
killed mid-send frees or cancels its NIC claim at the kill instant, where a
callback chain would hold the NIC to the end of serialisation.

Setting the environment variable ``REPRO_SIM_FASTPATH=0`` (or constructing
``Network(..., fast_path=False)``) forces the full coroutine model; the
determinism-parity tests run both and assert bit-identical results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.primitives import Event, Resource, ResourceHold

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import NodeTopology
    from repro.sim.engine import Simulator

#: environment switch forcing the full coroutine model (determinism parity)
FAST_PATH_ENV = "REPRO_SIM_FASTPATH"


def fast_path_default() -> bool:
    """Whether new networks use the closed-form fast path (env-controlled)."""
    return os.environ.get(FAST_PATH_ENV, "1") != "0"


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of the interconnect.

    Parameters
    ----------
    latency_s:
        One-way latency per message (seconds).
    bandwidth_bytes_per_s:
        Point-to-point bandwidth of a single NIC/link.
    per_message_overhead_s:
        Fixed CPU cost charged to the sender for every message (protocol
        stack, memory copies).  This is where message-logging overhead adds
        its extra copy cost.
    switch_capacity:
        Number of simultaneous transfers the switch fabric supports before
        backpressure; ``None`` means non-blocking fabric (only NICs contend).
    name:
        Human-readable label.
    """

    latency_s: float = 100e-6
    bandwidth_bytes_per_s: float = 11.5e6
    per_message_overhead_s: float = 15e-6
    switch_capacity: Optional[int] = None
    name: str = "network"

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if self.per_message_overhead_s < 0:
            raise ValueError("per_message_overhead_s must be non-negative")
        if self.switch_capacity is not None and self.switch_capacity < 1:
            raise ValueError("switch_capacity must be >= 1 or None")

    def serialization_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` through one link."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / self.bandwidth_bytes_per_s


#: 100 Mbit/s Fast Ethernet as used by the Gideon 300 cluster in the paper.
FAST_ETHERNET = NetworkSpec(
    latency_s=120e-6,
    bandwidth_bytes_per_s=11.5e6,
    per_message_overhead_s=20e-6,
    name="fast-ethernet",
)

#: Gigabit Ethernet — used for the "faster network, larger groups" discussion.
GIGABIT_ETHERNET = NetworkSpec(
    latency_s=45e-6,
    bandwidth_bytes_per_s=112e6,
    per_message_overhead_s=10e-6,
    name="gigabit-ethernet",
)

#: Single-data-rate InfiniBand, a stand-in for "high speed networks".
INFINIBAND_SDR = NetworkSpec(
    latency_s=5e-6,
    bandwidth_bytes_per_s=900e6,
    per_message_overhead_s=2e-6,
    name="infiniband-sdr",
)


class _TxChain:
    """Callback-chain state machine for a background sender-side transfer.

    Mirrors :meth:`Network._tx_body` event for event (overhead timeout, NIC
    grant, optional fabric grant, serialisation timeout, releases in the same
    order) but without a :class:`~repro.sim.engine.SimProcess`: no generator
    frames, no bootstrap, and no process-completion calendar event.
    """

    __slots__ = ("net", "src", "ser", "req", "fb")

    def __init__(self, net: "Network", src_node: int, nbytes: int) -> None:
        self.net = net
        self.src = src_node
        self.ser = net.spec.serialization_time(nbytes)
        self.req = None
        self.fb = None
        overhead = net.sim.timeout(net.spec.per_message_overhead_s)
        overhead.callbacks.append(self._on_overhead)

    def _on_overhead(self, _ev: Event) -> None:
        net = self.net
        net._materialize_tx_hold(self.src)
        if net._fabric is None:
            req = net._tx[self.src].acquire_nowait()
            if req is not None:
                # NIC free right now: the delay-zero grant event of the
                # coroutine model is provably immediate — skip it.
                self.req = req
                net.sim.stats.events_elided += 1
                done = net.sim.timeout(self.ser)
                done.callbacks.append(self._on_done)
                return
        self.req = net._tx[self.src].request()
        self.req.callbacks.append(self._on_grant)

    def _on_grant(self, _ev: Event) -> None:
        net = self.net
        if net._fabric is not None:
            self.fb = net._fabric.request()
            self.fb.callbacks.append(self._on_fabric)
        else:
            done = net.sim.timeout(self.ser)
            done.callbacks.append(self._on_done)

    def _on_fabric(self, _ev: Event) -> None:
        done = self.net.sim.timeout(self.ser)
        done.callbacks.append(self._on_done)

    def _on_done(self, _ev: Event) -> None:
        net = self.net
        if self.fb is not None:
            net._fabric.release(self.fb)
        net._tx[self.src].release(self.req)
        net._tx_inflight[self.src] -= 1


class _RxChain:
    """Callback-chain state machine for a background receiver-side transfer.

    Mirrors :meth:`Network._rx_body` (latency timeout, RX NIC grant,
    serialisation timeout, release) without a process; invokes
    ``on_complete(arg)`` at the exact delivery-completion instant.
    """

    __slots__ = ("net", "dst", "ser", "req", "on_complete", "arg")

    def __init__(self, net: "Network", dst_node: int, nbytes: int,
                 on_complete, arg) -> None:
        self.net = net
        self.dst = dst_node
        self.ser = net.spec.serialization_time(nbytes)
        self.req = None
        self.on_complete = on_complete
        self.arg = arg
        latency = net.sim.timeout(net.spec.latency_s)
        latency.callbacks.append(self._on_arrival)

    def _on_arrival(self, _ev: Event) -> None:
        net = self.net
        net._materialize_rx_hold(self.dst)
        req = net._rx[self.dst].acquire_nowait()
        if req is not None:
            # NIC free at arrival: skip the delay-zero grant event.
            self.req = req
            net.sim.stats.events_elided += 1
            done = net.sim.timeout(self.ser)
            done.callbacks.append(self._on_done)
            return
        self.req = net._rx[self.dst].request()
        self.req.callbacks.append(self._on_grant)

    def _on_grant(self, _ev: Event) -> None:
        done = self.net.sim.timeout(self.ser)
        done.callbacks.append(self._on_done)

    def _on_done(self, _ev: Event) -> None:
        net = self.net
        net._rx[self.dst].release(self.req)
        net._rx_inflight[self.dst] -= 1
        self.on_complete(self.arg)


class _ReservedRx(Event):
    """A closed-form delivery: one calendar entry at its computed end time.

    Holds the idle RX NIC analytically (counted in ``_rx_inflight``, parked
    in ``_rx_hold``) until a contender materialises its grant.  When it
    fires it leaves the in-flight count, releases a materialised grant
    (granting the queued contender in this same callback) and calls
    ``on_complete(arg)``.
    """

    __slots__ = ("net", "dst", "grant", "on_complete", "arg")

    def __init__(self, net: "Network", dst_node: int, end: float,
                 on_complete: Callable[[Any], None], arg: Any) -> None:
        # Event.__init__ and Simulator.fire_at, written out for the hot path
        sim = self.sim = net.sim
        self._name = self._value = self.grant = None
        self.callbacks = [self._done]
        self._ok = self._triggered = True
        self._processed = self.defused = False
        self.net, self.dst, self.on_complete, self.arg = net, dst_node, on_complete, arg
        counter = sim._counter = sim._counter + 1
        _heappush(sim._heap, (end, counter, self))
        sim.stats.heap_pushes += 1

    def _done(self, _ev: Event) -> None:
        net = self.net
        dst = self.dst
        net._rx_inflight[dst] -= 1
        if self.grant is None:
            net._rx_hold[dst] = None
        else:
            net._rx[dst].release(self.grant)
        self.on_complete(self.arg)


def _complete(on_complete, arg) -> Generator[Event, None, None]:
    """Coroutine-model body of a same-node delivery: complete at once."""
    on_complete(arg)
    return
    yield  # pragma: no cover - makes this a generator


class Network:
    """A switched network connecting the nodes of a :class:`~repro.cluster.topology.Cluster`.

    Each node gets an independent transmit NIC resource and receive NIC
    resource; a message holds the sender's TX NIC for its serialisation time
    and the receiver's RX NIC for its serialisation time, separated by the
    propagation latency.
    """

    def __init__(self, sim: "Simulator", spec: NetworkSpec, n_nodes: int,
                 fast_path: Optional[bool] = None,
                 topology: Optional["NodeTopology"] = None) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.sim = sim
        self.spec = spec
        self.n_nodes = n_nodes
        #: physical switch layout (informational: drives *placement* choices
        #: like restart-on-spare, not link timing — see NodeTopology)
        self.topology = topology
        #: closed-form fast path enabled (see module docstring)
        self.fast_path = fast_path_default() if fast_path is None else fast_path
        # hot-path constants hoisted out of the (frozen) spec
        self._overhead_s = spec.per_message_overhead_s
        self._latency_s = spec.latency_s
        self._bandwidth = spec.bandwidth_bytes_per_s
        self._tx: List[Resource] = [
            Resource(sim, capacity=1, name=f"tx:{i}") for i in range(n_nodes)
        ]
        self._rx: List[Resource] = [
            Resource(sim, capacity=1, name=f"rx:{i}") for i in range(n_nodes)
        ]
        #: transfers initiated but not yet finished, per NIC (includes the
        #: overhead/latency phase during which the NIC resource looks idle)
        self._tx_inflight: List[int] = [0] * n_nodes
        self._rx_inflight: List[int] = [0] * n_nodes
        #: per NIC, the end time of a grant-free analytic TX hold and the
        #: pending grant-free closed-form delivery, or None (module docstring)
        self._tx_hold: List[Optional[float]] = [None] * n_nodes
        self._rx_hold: List[Optional[_ReservedRx]] = [None] * n_nodes
        self._fabric: Optional[Resource] = None
        if spec.switch_capacity is not None:
            self._fabric = Resource(sim, capacity=spec.switch_capacity, name="fabric")
        # accounting
        self.total_bytes = 0
        self.total_messages = 0

    # -- closed-form estimate -------------------------------------------
    def transfer_time(self, nbytes: int) -> float:
        """Uncontended end-to-end time for a message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return (
            self.spec.per_message_overhead_s
            + self.spec.latency_s
            + self.spec.serialization_time(nbytes)
        )

    # -- closed-form fast path -------------------------------------------
    def try_reserve_tx(self, src_node: int, nbytes: int) -> Optional[Tuple[Event, ResourceHold]]:
        """Closed-form sender path when the TX NIC is provably uncontended.

        Returns ``(done, reservation)`` — ``done`` is one calendar event
        firing at the exact instant the coroutine model would finish
        (``(now + overhead) + serialisation``, preserving the coroutine's
        floating-point association); the caller waits on it and then calls
        :meth:`finish_tx` — or ``None`` when the coroutine model is required.
        Performs the same byte/message accounting as :meth:`tx`.
        """
        self._expire_tx_hold(src_node)
        if (not self.fast_path or self._fabric is not None
                or self._tx_inflight[src_node]):
            return None
        req = self._tx[src_node].acquire_nowait()
        if req is None:
            return None
        self._tx_inflight[src_node] += 1
        self.total_bytes += nbytes
        self.total_messages += 1
        sim = self.sim
        sim.stats.fastpath_tx += 1
        end = (sim.now + self._overhead_s) + nbytes / self._bandwidth
        return sim.fire_at(end), req

    def finish_tx(self, src_node: int, reservation: ResourceHold) -> None:
        """Release a :meth:`try_reserve_tx` reservation (at its computed end time)."""
        self._tx_inflight[src_node] -= 1
        self._tx[src_node].release(reservation)

    def _expire_tx_hold(self, src_node: int) -> None:
        """Retire an analytic TX hold no transfer started now can contend with.

        That is a hold whose end time has passed, or — while it is the NIC's
        only transfer in flight — one ending no later than ``now + overhead``,
        the instant a transfer started now reaches the NIC (see the module
        docstring).
        """
        until = self._tx_hold[src_node]
        if until is None:
            return
        now = self.sim.now
        if until <= now or (self._tx_inflight[src_node] == 1
                            and until <= now + self._overhead_s):
            self._tx_hold[src_node] = None
            self._tx_inflight[src_node] -= 1

    def _materialize_tx_hold(self, src_node: int) -> None:
        """Turn a live analytic TX hold into a real grant and release event.

        Called when a coroutine transfer is about to request the NIC: the
        hold takes the grant now, so the contender queues until exactly the
        hold's end, and its release is scheduled there (one event — the
        release the coroutine model performs in its serialisation timeout).
        """
        until = self._tx_hold[src_node]
        if until is None:
            return
        self._tx_hold[src_node] = None
        if until <= self.sim.now:
            self._tx_inflight[src_node] -= 1
            return
        req = self._tx[src_node].acquire_nowait()
        self.sim.stats.events_elided -= 1
        done = self.sim.fire_at(until)
        done.callbacks.append(lambda _ev: self.finish_tx(src_node, req))

    def try_reserve_rx(self, dst_node: int, nbytes: int) -> Optional[Tuple[Event, ResourceHold]]:
        """Closed-form receiver path when the RX NIC is provably uncontended.

        Returns ``(done, reservation)`` — ``done`` fires at the exact instant
        the coroutine model would complete the latency + RX-serialisation
        path; the caller calls :meth:`finish_rx` from it.  ``None`` under
        (potential) contention.
        """
        if not self.fast_path or self._rx_inflight[dst_node]:
            return None
        req = self._rx[dst_node].acquire_nowait()
        if req is None:
            return None
        self._rx_inflight[dst_node] += 1
        sim = self.sim
        sim.stats.fastpath_rx += 1
        end = (sim.now + self._latency_s) + nbytes / self._bandwidth
        return sim.fire_at(end), req

    def finish_rx(self, dst_node: int, reservation: ResourceHold) -> None:
        """Release a :meth:`try_reserve_rx` reservation (at its computed end time)."""
        self._rx_inflight[dst_node] -= 1
        self._rx[dst_node].release(reservation)

    def _materialize_rx_hold(self, dst_node: int) -> None:
        """Give a pending closed-form delivery the RX NIC's grant, as if it
        had taken it when it started (a leg is about to acquire the NIC)."""
        reservation = self._rx_hold[dst_node]
        if reservation is not None:
            self._rx_hold[dst_node] = None
            reservation.grant = self._rx[dst_node].acquire_nowait()

    # -- message legs ------------------------------------------------------
    def tx(self, src_node: int, nbytes: int) -> Generator[Event, None, float]:
        """Blocking sender leg: per-message overhead + TX NIC serialisation.

        The part of a send the *sender* is occupied for; returns the elapsed
        sender time.  Takes the closed-form reservation of
        :meth:`try_reserve_tx` when the NIC is provably uncontended, else the
        coroutine model.  Either way an interrupted sender (a rank killed
        mid-send, an aborted recovery's image fetch) frees or cancels its
        NIC claim at the interrupt instant.
        """
        self._check_node(src_node)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        start = sim.now
        fast = self.try_reserve_tx(src_node, nbytes)
        if fast is None:
            self._tx_inflight[src_node] += 1
            yield from self._tx_body(src_node, nbytes)
        else:
            done, reservation = fast
            sim.stats.events_elided += 2
            try:
                yield done
            finally:
                self.finish_tx(src_node, reservation)
        return sim.now - start

    def send_background(self, src_node: int, nbytes: int) -> bool:
        """Non-blocking sender leg: the TX NIC is busy, the sender is not.

        With no other leg in flight on the NIC (after retiring an expired
        hold), it takes an event-free analytic hold until ``(now + overhead)
        + serialisation``, retired lazily by the next fast-path check or
        materialised when a coroutine contends: zero calendar events instead
        of the spawned sender's four.  Otherwise it runs the coroutine
        model's events as a :class:`_TxChain`; with the fast path off it
        spawns the sender coroutine.  Returns True when it took the hold.
        """
        sim = self.sim
        if not self.fast_path:
            self._tx_inflight[src_node] += 1
            sim.process(self._tx_body(src_node, nbytes), name="tx")
            return False
        self._expire_tx_hold(src_node)
        self._tx_inflight[src_node] += 1
        self.total_bytes += nbytes
        self.total_messages += 1
        stats = sim.stats
        if self._fabric is None and self._tx_inflight[src_node] == 1:
            stats.fastpath_tx += 1
            stats.events_elided += 4
            self._tx_hold[src_node] = (sim.now + self._overhead_s) + nbytes / self._bandwidth
            return True
        stats.events_elided += 1
        _TxChain(self, src_node, nbytes)
        return False

    def deliver(self, src_node: int, dst_node: int, nbytes: int,
                on_complete: Callable[[Any], None], arg: Any) -> None:
        """Receiver leg of a message: calls ``on_complete(arg)`` on arrival.

        A same-node message completes at once (through the immediate queue);
        a remote one pays latency + RX NIC serialisation, as one grant-free
        :class:`_ReservedRx` calendar entry when no other leg is in flight on
        the RX NIC, else as an :class:`_RxChain` (eliding only the
        process-completion event).  With the fast path off each delivery is
        a spawned coroutine.
        """
        sim = self.sim
        if src_node == dst_node:
            if self.fast_path:
                stats = sim.stats
                stats.fastpath_local += 1
                stats.events_elided += 1
                sim.call_soon(on_complete, arg)
            else:
                sim.process(_complete(on_complete, arg), name="deliver")
            return
        if not self.fast_path:
            # Counted at spawn, not when the body first runs: the leg is in
            # flight from this instant, like every other representation's.
            self._rx_inflight[dst_node] += 1
            sim.process(self._deliver_body(dst_node, nbytes, on_complete, arg),
                        name="deliver")
            return
        if not self._rx_inflight[dst_node]:
            # No leg in flight: the RX NIC is idle (every leg counts itself).
            self._rx_inflight[dst_node] += 1
            stats = sim.stats
            stats.fastpath_rx += 1
            stats.events_elided += 3
            self._rx_hold[dst_node] = _ReservedRx(
                self, dst_node, (sim.now + self._latency_s) + nbytes / self._bandwidth,
                on_complete, arg)
        else:
            self._rx_inflight[dst_node] += 1
            sim.stats.events_elided += 1
            _RxChain(self, dst_node, nbytes, on_complete, arg)

    def transfer(
        self, src_node: int, dst_node: int, nbytes: int
    ) -> Generator[Event, None, float]:
        """Simulate moving ``nbytes`` from ``src_node`` to ``dst_node``.

        Yields simulation events; returns the completion time.  Local (same
        node) transfers only pay the per-message overhead.  Otherwise the
        sender leg :meth:`tx` runs first, then a blocking receiver leg, which
        takes the closed-form reservation when the RX NIC is provably
        uncontended at the moment it starts (the halves are collapsed
        independently because the receiver NIC can only be judged then).
        """
        self._check_node(src_node)
        self._check_node(dst_node)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")

        if src_node == dst_node:
            self.total_bytes += nbytes
            self.total_messages += 1
            yield self.sim.timeout(self.spec.per_message_overhead_s)
            return self.sim.now

        yield from self.tx(src_node, nbytes)
        fast = self.try_reserve_rx(dst_node, nbytes)
        if fast is None:
            self._rx_inflight[dst_node] += 1
            yield from self._rx_body(dst_node, nbytes)
        else:
            done, reservation = fast
            self.sim.stats.events_elided += 2
            try:
                yield done
            finally:
                self.finish_rx(dst_node, reservation)
        return self.sim.now

    # -- coroutine model ---------------------------------------------------
    def _tx_body(self, src_node: int, nbytes: int) -> Generator[Event, None, None]:
        """Coroutine sender leg, already counted in ``_tx_inflight``.

        Every wait sits inside ``try/finally``, so an interrupted sender
        cancels its queued request or frees its NIC instead of leaking a
        slot forever.
        """
        sim = self.sim
        nic = self._tx[src_node]
        fabric = self._fabric
        req = None
        self.total_bytes += nbytes
        self.total_messages += 1
        try:
            yield sim.timeout(self.spec.per_message_overhead_s)
            ser = self.spec.serialization_time(nbytes)
            self._materialize_tx_hold(src_node)
            if self.fast_path and fabric is None:
                req = nic.acquire_nowait()
            if req is None:
                req = nic.request()
                yield req
            else:
                # NIC free right now: the delay-zero grant is provably
                # immediate — hold the slot and skip the grant event.
                sim.stats.events_elided += 1
            if fabric is None:
                yield sim.timeout(ser)
            else:
                fb_req = fabric.request()
                try:
                    yield fb_req
                    yield sim.timeout(ser)
                finally:
                    fabric.release(fb_req)
        finally:
            if req is not None:
                nic.release(req)
            self._tx_inflight[src_node] -= 1

    def _rx_body(self, dst_node: int, nbytes: int) -> Generator[Event, None, None]:
        """Coroutine receiver leg, already counted in ``_rx_inflight``."""
        sim = self.sim
        nic = self._rx[dst_node]
        req = None
        try:
            yield sim.timeout(self.spec.latency_s)
            if self.fast_path:
                self._materialize_rx_hold(dst_node)
                req = nic.acquire_nowait()
            if req is None:
                req = nic.request()
                yield req
            else:
                # NIC free at arrival: skip the delay-zero grant event.
                sim.stats.events_elided += 1
            yield sim.timeout(self.spec.serialization_time(nbytes))
        finally:
            if req is not None:
                nic.release(req)
            self._rx_inflight[dst_node] -= 1

    def _deliver_body(self, dst_node: int, nbytes: int, on_complete: Callable[[Any], None],
                      arg: Any) -> Generator[Event, None, None]:
        """Coroutine model of :meth:`deliver`'s remote leg."""
        yield from self._rx_body(dst_node, nbytes)
        on_complete(arg)

    # -- introspection -----------------------------------------------------
    def same_switch(self, a: int, b: int) -> bool:
        """Whether two nodes share an edge switch (True without a topology).

        A cluster without an attached :class:`NodeTopology` behaves as one
        flat switch — every pair is local, which is also the conservative
        answer for spare-placement preferences.
        """
        self._check_node(a)
        self._check_node(b)
        if self.topology is None:
            return True
        return self.topology.same_switch(a, b)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network {self.spec.name} nodes={self.n_nodes} msgs={self.total_messages}>"
