"""The MPI-like runtime: rank contexts, messaging, and script execution.

One :class:`RankContext` per MPI process holds the inbox, the S/R channel
accounting, pending checkpoint requests and per-rank statistics.  The
:class:`MpiRuntime` moves messages between contexts through the cluster's
network model, interprets application operation scripts, and gives checkpoint
protocols the services they need (control messages, drain waits, storage
access).

Checkpoint signals are honoured at operation boundaries and while a rank is
blocked in a receive, mirroring where a system-level checkpointing layer
(LAM/MPI's CR SSI modules + BLCR signal handler) interrupts a real MPI
process.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple, Union

from repro.ckpt.base import ResumePoint
from repro.cluster.topology import Cluster
from repro.mpi.collectives import COLLECTIVE_TAG_BASE, COLLECTIVES, schedule_for
from repro.mpi.messages import ChannelAccount, Message, MessageKind, fast_message
from repro.mpi.ops import (
    Compute,
    Isend,
    Marker,
    Op,
    Recv,
    Send,
    SendRecv,
    Wait,
)
from repro.mpi.tracer import Tracer
from repro.sim.engine import Interrupt, SimProcess, SimulationError, Simulator
from repro.sim.primitives import Event, Timeout, _fire_event_now
from repro.sim.rng import RandomStreams

# Tags from COLLECTIVE_TAG_BASE up are internal traffic (collectives, then
# control messages from here); applications use tags below it.
CONTROL_TAG_BASE = 2_000_000

#: payload size of a protocol control message (bookmark, barrier token)
CONTROL_MESSAGE_BYTES = 64

#: hot-path alias — one global load instead of an enum attribute chain
_APP = MessageKind.APP


class Inbox:
    """Indexed per-rank message buffer: tag-matched ``get`` plus a control mailbox.

    Replaces the predicate-scan :class:`~repro.sim.primitives.Store` on the
    runtime's hottest path.  Application messages sit in ``_buckets``, which
    maps the exact ``(kind, src, tag)`` channel to a deque in delivery order
    and drops a key once it drains: an exact receive is one dictionary lookup
    and a deque pop, and a wildcard receive scans the live buckets.

    Control and marker messages never enter the buckets: each is consumed by
    the one ``control_gather`` of its ``(kind, tag)``.  Per ``(kind, tag)``
    the mailbox holds the buffered messages in delivery order (``_mail``) and
    at most one posted consumer (``_posted``); ``MpiRuntime._finish_delivery``
    hands an arriving message over or buffers it, and :meth:`take_control`
    takes or posts.  A hand-off is one append to the immediate queue, the
    slot ``Store._dispatch`` wakes a getter in, and counts as a store wake-up.

    Semantics are bit-identical to the seed list-scan store:

    * **FIFO per channel** — each bucket is a deque in delivery order.
    * **Global delivery order for wildcards** — every buffered message
      carries a per-inbox arrival stamp; a wildcard receive takes the
      *earliest-delivered* match, exactly what the first-match list scan
      returned.
    * **Waiter order** — blocked getters are woken in registration order
      through the simulator's immediate queue, exactly like
      ``Store._dispatch`` (``stats.store_wakeups`` counts the same events).
    * **Capture in delivery order** — :meth:`items_in_order` enumerates the
      buckets merged by arrival stamp, so ``capture_resume``'s inbox capture
      lists messages exactly as the seed's insertion-ordered ``items`` did.

    ``len(inbox)`` counts buffered messages of both kinds.  ``SimStats``
    counts the wildcard receives, the buckets their scan visits and the
    most live buckets one inbox held; exact receives pay for none of them.
    """

    __slots__ = ("sim", "rank", "_buckets", "_waiters", "_arrival", "_n_items",
                 "_mail", "_posted")

    def __init__(self, sim: Simulator, rank: int) -> None:
        self.sim = sim
        self.rank = rank
        #: (kind, src, tag) -> non-empty deque of messages in delivery order
        self._buckets: Dict[Tuple[Any, int, int], deque] = {}
        #: blocked getters in registration order: (event, kind, src, tag)
        self._waiters: List[Tuple[Event, Any, Optional[int], Optional[int]]] = []
        self._arrival = 0
        self._n_items = 0
        #: (kind, tag) -> non-empty deque of control messages in delivery order
        self._mail: Dict[Tuple[Any, int], deque] = {}
        #: (kind, tag) -> the consumer waiting for its next control message
        self._posted: Dict[Tuple[Any, int], Callable[[Message], None]] = {}

    def __len__(self) -> int:
        return self._n_items

    # -- put ---------------------------------------------------------------
    def put(self, msg: Message) -> None:
        """Deposit ``msg``; wake the first matching blocked getter, if any."""
        arrival = self._arrival = self._arrival + 1
        msg._arrival = arrival
        kind, src, tag = msg.kind, msg.src, msg.tag
        if self._waiters:
            remaining: List[Tuple[Event, Any, Optional[int], Optional[int]]] = []
            waiters = self._waiters
            taken = False
            for entry in waiters:
                ev = entry[0]
                if ev._triggered:
                    continue
                if (not taken
                        and (entry[1] is None or kind is entry[1])
                        and (entry[2] is None or src == entry[2])
                        and (entry[3] is None or tag == entry[3])):
                    taken = True
                    self._fire(ev, msg)
                else:
                    remaining.append(entry)
            self._waiters = remaining
            if taken:
                return
        buckets = self._buckets
        key = (kind, src, tag)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = deque()
            stats = self.sim.stats
            if len(buckets) > stats.inbox_peak_buckets:
                stats.inbox_peak_buckets = len(buckets)
        bucket.append(msg)
        self._n_items += 1

    # -- get ---------------------------------------------------------------
    def get(
        self,
        kind: Optional[MessageKind],
        src: Optional[int],
        tag: Optional[int],
    ) -> Event:
        """Event firing with the next message matching ``(kind, src, tag)``.

        ``None`` acts as a wildcard for any of the three fields (MPI's
        ``ANY_SOURCE``/``ANY_TAG``).
        """
        ev = Event(self.sim)
        if kind is not None and src is not None and tag is not None:
            if self._n_items:
                key = (kind, src, tag)
                bucket = self._buckets.get(key)
                if bucket is not None:
                    self._fire(ev, self._take(key, bucket))
                    return ev
        else:
            self.sim.stats.inbox_wildcard_gets += 1
            if self._n_items:
                msg = self._pop_wildcard(kind, src, tag)
                if msg is not None:
                    self._fire(ev, msg)
                    return ev
        self._waiters.append((ev, kind, src, tag))
        return ev

    def _take(self, key: Tuple[Any, int, int], bucket: deque) -> Message:
        """Remove the head of the live ``bucket`` at ``key``."""
        msg = bucket.popleft()
        if not bucket:
            del self._buckets[key]
        self._n_items -= 1
        return msg

    def _pop_wildcard(
        self,
        kind: Optional[MessageKind],
        src: Optional[int],
        tag: Optional[int],
    ) -> Optional[Message]:
        """Earliest-delivered buffered message matching a wildcard pattern."""
        buckets = self._buckets
        self.sim.stats.inbox_buckets_scanned += len(buckets)
        best_key = None
        best_arrival = -1
        for key, bucket in buckets.items():
            if ((kind is None or key[0] is kind)
                    and (src is None or key[1] == src)
                    and (tag is None or key[2] == tag)):
                arrival = bucket[0]._arrival
                if best_key is None or arrival < best_arrival:
                    best_key = key
                    best_arrival = arrival
        if best_key is None:
            return None
        return self._take(best_key, buckets[best_key])

    def _fire(self, ev: Event, msg: Message) -> None:
        # Exactly Store._dispatch's wake path: trigger in place and deliver
        # through the immediate queue (same time, after the current callback).
        ev._triggered = True
        ev._ok = True
        ev._value = msg
        sim = self.sim
        sim.stats.store_wakeups += 1
        sim._immediate.append((_fire_event_now, ev))

    # -- control mailbox ---------------------------------------------------
    def take_control(self, kind: MessageKind, tag: int,
                     consumer: Callable[[Message], None]) -> None:
        """Hand ``consumer`` the oldest buffered ``(kind, tag)`` control message
        through the immediate queue, or post it (one per key) for the next."""
        key = (kind, tag)
        mail = self._mail
        if key in mail:
            queue = mail[key]
            msg = queue.popleft()
            if not queue:
                del mail[key]
            self._n_items -= 1
            sim = self.sim
            sim.stats.store_wakeups += 1
            sim._immediate.append((consumer, msg))
        elif key in self._posted:
            raise RuntimeError(f"rank {self.rank}: a consumer of {kind.value} tag {tag} "
                               "is already posted")
        else:
            self._posted[key] = consumer

    # -- capture / restore (live failure injection) ------------------------
    def items_in_order(self) -> List[Message]:
        """All buffered messages in delivery order (rollback inbox capture)."""
        out: List[Message] = []
        for bucket in self._buckets.values():
            out.extend(bucket)
        out.sort(key=lambda m: m._arrival)
        return out

    def restore(self, messages: Iterable[Message]) -> None:
        """Re-deposit a captured inbox (checkpoint image) in its saved order."""
        for msg in messages:
            self.put(msg)


@dataclass
class RankStats:
    """Per-rank accounting filled in while the script executes."""

    compute_time: float = 0.0
    send_time: float = 0.0
    recv_wait_time: float = 0.0
    checkpoint_time: float = 0.0
    ops_executed: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    started_at: float = 0.0
    finished_at: Optional[float] = None
    checkpoints: List[Any] = field(default_factory=list)
    progress_marks: List[Tuple[float, str]] = field(default_factory=list)
    #: live-failure accounting: rollbacks suffered, and re-executed sends
    #: suppressed because the receiver already held the data (skip accounting)
    rollbacks: int = 0
    skipped_sends: int = 0
    skipped_bytes: int = 0

    @property
    def elapsed(self) -> Optional[float]:
        """Wall time of this rank's script (None while still running)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class RankContext:
    """Everything the runtime and the protocols know about one rank.

    ``__slots__``-packed: thousand-rank simulations allocate one of these per
    rank and the hot paths read its attributes constantly, so the instance
    dict is dropped (attribute loads become fixed-offset slot reads and the
    per-rank footprint shrinks).
    """

    __slots__ = (
        "sim", "rank", "node_id", "memory_bytes", "inbox", "account", "stats",
        "finished", "protocol", "pending_requests", "jitter_key",
        "_signal_event", "_arrival_watchers", "in_checkpoint",
        "rollback_epoch", "in_recovery", "failed", "halted_at", "op_cursor",
        "_op_sent", "_op_sent_msgs", "_op_consumed", "pending_get",
    )

    def __init__(self, sim: Simulator, rank: int, node_id: int, memory_bytes: int) -> None:
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if memory_bytes < 0:
            raise ValueError("memory_bytes must be non-negative")
        self.sim = sim
        self.rank = rank
        self.node_id = node_id
        #: resident set of the application on this rank (drives image size)
        self.memory_bytes = memory_bytes
        self.inbox = Inbox(sim, rank)
        self.account = ChannelAccount(rank)
        self.stats = RankStats()
        self.finished = False
        #: set by the protocol family when the runtime is constructed
        self.protocol: Any = None
        self.pending_requests: List[Any] = []
        #: cached RNG stream key for compute jitter (hot: one per Compute op)
        self.jitter_key = f"jitter:rank{rank}"
        self._signal_event = Event(sim, name="signal")
        self._arrival_watchers: List[Tuple[int, int, Event]] = []
        #: True while this rank is inside a checkpoint procedure
        self.in_checkpoint = False
        # -- live failure-injection state (inert unless an injector attaches) --
        #: incremented on every kill/rollback; messages stamped with an older
        #: epoch were carried by a connection the restart has since reset
        self.rollback_epoch = 0
        #: True between the kill instant and the completion of recovery
        self.in_recovery = False
        #: True from the kill instant until the process is re-created
        self.failed = False
        #: instant this rank's script stopped executing (kill or rollback);
        #: None while the script runs.  Bounds the measured lost work when a
        #: second failure re-rolls a group that never resumed in between.
        self.halted_at: Optional[float] = None
        #: index of the operation currently executing (the resume position of
        #: a checkpoint taken inside or at the boundary of that operation)
        self.op_cursor = 0
        #: per-channel sends of the *currently executing* operation — what a
        #: mid-operation checkpoint must subtract to get pre-op send counters
        self._op_sent: Dict[int, int] = {}
        self._op_sent_msgs: Dict[int, int] = {}
        #: application messages consumed by the currently executing operation
        #: (re-consumed after a rollback restarts the operation)
        self._op_consumed: List[Any] = []
        #: the get-event of a blocked application receive (failure runs only).
        #: A message can be *matched* into it while the rank handles a
        #: checkpoint mid-receive — neither in the inbox nor consumed — and
        #: the resume capture must not lose it.
        self.pending_get: Optional[Event] = None

    def reset_for_rollback(self) -> None:
        """Discard volatile runtime state when this rank is rolled back.

        The inbox is replaced wholesale: items received after the checkpoint
        are gone with the dead process, and get-events of the interrupted
        script must never consume messages destined for the restarted one.
        """
        self.rollback_epoch += 1
        self.inbox = Inbox(self.sim, self.rank)
        self._arrival_watchers = []
        self._signal_event = Event(self.sim, name="signal")
        self.pending_requests = []
        self.in_checkpoint = False
        self.in_recovery = True
        self.finished = False
        self._op_sent.clear()
        self._op_sent_msgs.clear()
        del self._op_consumed[:]
        self.pending_get = None

    # -- checkpoint signalling ------------------------------------------------
    @property
    def signal_event(self) -> Event:
        """Event that fires when a checkpoint request is delivered."""
        return self._signal_event

    def deliver_request(self, request: Any) -> None:
        """Deliver a checkpoint request (called by the coordinator).

        The request only becomes *visible* to the rank at
        ``request.issued_at + request.stagger_s`` — until then the rank keeps
        executing application operations, which models mpirun propagating the
        request to the processes one by one.
        """
        self.pending_requests.append(request)
        if not self._signal_event.triggered:
            self._signal_event.succeed(request)

    @staticmethod
    def _visible_at(request: Any) -> float:
        return request.issued_at + getattr(request, "stagger_s", 0.0)

    def has_pending_request(self) -> bool:
        """True if at least one checkpoint request has been delivered (visible or not)."""
        return bool(self.pending_requests)

    def has_visible_request(self, now: float) -> bool:
        """True if a delivered request has become visible to this rank."""
        if not self.pending_requests:
            return False
        return any(now >= self._visible_at(r) - 1e-12 for r in self.pending_requests)

    def next_visible_at(self) -> float:
        """Earliest visibility time among pending requests (inf if none pending)."""
        if not self.pending_requests:
            return float("inf")
        return min(self._visible_at(r) for r in self.pending_requests)

    def pop_visible_request(self, now: float) -> Any:
        """Take the oldest visible request and re-arm the signal event if drained."""
        for i, request in enumerate(self.pending_requests):
            if now >= self._visible_at(request) - 1e-12:
                self.pending_requests.pop(i)
                break
        else:
            raise RuntimeError(f"rank {self.rank}: no visible checkpoint request to pop")
        if not self.pending_requests:
            self._signal_event = Event(self.sim, name="signal")
        return request

    # -- arrival watching (drain support) ---------------------------------------
    def wait_for_bookmark(self, msg: Message) -> Event:
        """Event firing once R from ``msg``'s sender reaches the S its bookmark
        announces.  If the bytes are in, it is a zero-delay ``Timeout``: the
        ``(now, counter)`` entry a fresh event's ``succeed()`` would push."""
        src = msg.src
        threshold = msg.payload or 0
        received = self.account._received.get(src, 0)  # R_src, read inline: hot path
        if received >= threshold:
            return Timeout(self.sim, 0.0, received, "drain")
        ev = Event(self.sim, name="drain")
        self._arrival_watchers.append((src, threshold, ev))
        return ev

    def _notify_arrival(self, src: int) -> None:
        if not self._arrival_watchers:
            return
        received = self.account.received_from(src)
        still_waiting: List[Tuple[int, int, Event]] = []
        for watch_src, threshold, ev in self._arrival_watchers:
            if watch_src == src and received >= threshold and not ev.triggered:
                ev.succeed(received)
            elif not ev.triggered:
                still_waiting.append((watch_src, threshold, ev))
        self._arrival_watchers = still_waiting

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankContext rank={self.rank} node={self.node_id}>"


@dataclass
class ApplicationResult:
    """Outcome of one simulated application run."""

    n_ranks: int
    protocol_name: str
    makespan: float
    contexts: List[RankContext]
    deliveries: List[Tuple[float, int, int, int]]
    trace: Optional[Any] = None
    #: live-failure recovery reports (empty for failure-free runs)
    recovery: List[Any] = field(default_factory=list)
    #: recovery-manager scheduling counters (empty for failure-free runs):
    #: aborted/serialized/concurrent recovery counts, spare-pool usage
    recovery_stats: Dict[str, int] = field(default_factory=dict)
    #: non-None when the run was aborted as unsurvivable (no remaining copy
    #: of a required checkpoint image); the makespan is the abort instant
    aborted: Optional[str] = None
    #: storage-hierarchy counters: per-tier bytes, partner-copy totals
    storage_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def checkpoint_records(self) -> List[Any]:
        """All per-rank checkpoint records, across ranks and checkpoints."""
        out: List[Any] = []
        for ctx in self.contexts:
            out.extend(ctx.stats.checkpoints)
        return out

    @property
    def checkpoints_completed(self) -> int:
        """Number of distinct checkpoint ids completed by every participating rank."""
        ids: Dict[int, int] = {}
        for rec in self.checkpoint_records:
            ids[rec.ckpt_id] = ids.get(rec.ckpt_id, 0) + 1
        return len(ids)

    def aggregate_checkpoint_time(self) -> float:
        """Sum of checkpoint durations over all ranks (the paper's Figure 6a metric)."""
        return sum(rec.duration for rec in self.checkpoint_records)

    def per_rank_finish_times(self) -> List[float]:
        """Finish time of each rank's script."""
        return [
            ctx.stats.finished_at if ctx.stats.finished_at is not None else float("nan")
            for ctx in self.contexts
        ]

    def snapshots(self) -> Dict[int, Any]:
        """Latest checkpoint snapshot per rank (ranks without one are omitted)."""
        out: Dict[int, Any] = {}
        for ctx in self.contexts:
            if ctx.protocol is None:
                continue
            snap = ctx.protocol.latest_snapshot()
            if snap is not None:
                out[ctx.rank] = snap
        return out


def _fire_inline(ev: Event) -> None:
    """Trigger ``ev`` and run its callbacks now, inside the current callback.

    A control chain's ``done`` event fires this way so that the rank it
    serves resumes in the very calendar callback where the loop the chain
    replaces would have carried on, not one immediate-queue hop later.
    """
    ev._triggered = True
    _fire_event_now(ev)


class _ControlFanout:
    """Callback chain sending one control message to each peer in turn.

    Replays, event for event, a loop of blocking control sends: per peer it
    builds the message (epoch stamps, payload read) at the instant the loop
    would, pushes the same per-message overhead ``Timeout`` and, when that
    fires, starts the TX and delivery legs — without resuming the sender's
    generator once per message.  ``done`` fires inline in the callback that
    starts the last message.  Once the sender stops waiting on ``done`` (a
    kill or rollback interrupted it), the chain ends; the pending timeout
    then fires with no effect, as the loop's would.
    """

    __slots__ = ("runtime", "ctx", "peers", "n_peers", "tag", "kind", "size",
                 "payload_of", "sent", "msg", "dst_node", "done")

    def __init__(self, runtime: "MpiRuntime", ctx: RankContext, peers: Sequence[int],
                 tag: int, kind: MessageKind, size: int,
                 payload_of: Optional[Callable[[int], Any]]) -> None:
        for dst in peers:
            if not 0 <= dst < runtime.n_ranks:
                raise ValueError(f"destination rank {dst} out of range")
        self.runtime = runtime
        self.ctx = ctx
        self.peers = peers
        self.n_peers = len(peers)
        self.tag = tag
        self.kind = kind
        self.size = size
        self.payload_of = payload_of
        self.sent = 0
        self.done = Event(runtime.sim)
        self._build()

    def _build(self) -> None:
        runtime = self.runtime
        dst = self.peers[self.sent]
        payload = self.payload_of(dst) if self.payload_of is not None else None
        sim = runtime.sim
        msg = self.msg = fast_message(self.ctx.rank, dst, self.size, self.tag, self.kind,
                                      None, payload, sim.now)
        dst_ctx = runtime.contexts[dst]
        if runtime.failures_enabled:
            msg.src_epoch = self.ctx.rollback_epoch
            msg.dst_epoch = dst_ctx.rollback_epoch
        self.dst_node = dst_ctx.node_id
        Timeout(sim, runtime.cluster.network._overhead_s).callbacks.append(self._on_overhead)

    def _on_overhead(self, _ev: Event) -> None:
        if not self.done.callbacks:
            return
        runtime = self.runtime
        net = runtime.cluster.network
        src_node = self.ctx.node_id
        if src_node != self.dst_node:
            net.send_background(src_node, self.size)
        net.deliver(src_node, self.dst_node, self.size, runtime._finish_delivery, self.msg)
        self.sent += 1
        if self.sent < self.n_peers:
            self._build()
        else:
            _fire_inline(self.done)


class _ControlGather:
    """Callback chain receiving ``count`` control messages from any source.

    Replays, event for event, a loop of ``ANY_SOURCE`` control receives: it
    takes each message from the inbox's control mailbox at the instant the
    loop's receive would have matched it, and after each message calls
    ``on_message(msg)``, which may return one event to wait on (the bookmark
    drain) before the next receive.  ``done`` fires inline in the callback
    where the loop would have moved on.  Once the receiver stops waiting on
    ``done`` the chain ends: a message already handed over or a pending
    drain then fires with no effect, as the loop's would.

    ``done``'s lazy name reports the gather's progress and any pending
    drain, so a wedged rank's ``SimProcess.waiting_on`` says what it waits
    for; it is resolved only in ``repr``.
    """

    __slots__ = ("ctx", "count", "tag", "kind", "on_message", "got", "wait", "done")

    def __init__(self, ctx: RankContext, count: int, tag: int, kind: MessageKind,
                 on_message: Optional[Callable[[Message], Optional[Event]]]) -> None:
        self.ctx = ctx
        self.count = count
        self.tag = tag
        self.kind = kind
        self.on_message = on_message
        self.got = 0
        self.wait: Optional[Event] = None
        self.done = Event(ctx.sim, self._describe)
        ctx.inbox.take_control(kind, tag, self._on_message)

    def _on_message(self, msg: Message) -> None:
        if not self.done.callbacks:
            return
        self.got += 1
        if self.on_message is not None:
            wait = self.on_message(msg)
            if wait is not None:
                self.wait = wait
                wait.callbacks.append(self._on_ready)
                return
        if self.got < self.count:
            self.ctx.inbox.take_control(self.kind, self.tag, self._on_message)
        else:
            _fire_inline(self.done)

    def _on_ready(self, _ev: Event) -> None:
        if not self.done.callbacks:
            return
        self.wait = None
        if self.got < self.count:
            self.ctx.inbox.take_control(self.kind, self.tag, self._on_message)
        else:
            _fire_inline(self.done)

    def _describe(self) -> str:
        ctx = self.ctx
        text = (f"rank {ctx.rank} gathering {self.kind.value} tag {self.tag}: "
                f"{self.got}/{self.count} received")
        wait = self.wait
        if wait is not None and not wait._processed:
            for src, threshold, watched in ctx._arrival_watchers:
                if watched is wait:
                    return (f"{text}; draining rank {src}: "
                            f"{ctx.account.received_from(src)} of {threshold} B arrived")
            return f"{text}; waiting on {wait!r}"
        return text


ProgramFactory = Callable[[int], Iterable[Op]]


class MpiRuntime:
    """Executes per-rank operation scripts over the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        n_ranks: int,
        protocol_family: Optional[Any] = None,
        rng: Optional[RandomStreams] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.sim = sim
        self.cluster = cluster
        self.n_ranks = n_ranks
        self.rng = rng if rng is not None else RandomStreams(0)
        self.tracer = tracer
        self.protocol_family = protocol_family

        placement = cluster.place_ranks(n_ranks)
        self.contexts: List[RankContext] = []
        for rank in range(n_ranks):
            ctx = RankContext(sim, rank, placement[rank], memory_bytes=0)
            self.contexts.append(ctx)
        if protocol_family is not None:
            for ctx in self.contexts:
                ctx.protocol = protocol_family.create(ctx, self)

        #: ``(time, src, dst, nbytes)`` of every delivered application
        #: message (the Figure 2 trace diagrams and the gap fraction)
        self.deliveries: List[Tuple[float, int, int, int]] = []
        self._rank_processes: List[SimProcess] = []
        #: True once a checkpoint-request source (a coordinator) is attached;
        #: until then blocked receives need no signal wake-up condition.
        self.checkpoints_enabled = False
        #: True once a failure injector is attached; gates all rollback
        #: bookkeeping (epoch stamps, resume capture, duplicate skipping) so
        #: failure-free runs execute the exact pre-existing fast path.
        self.failures_enabled = False
        self._program_factory: Optional[ProgramFactory] = None
        #: the live :class:`~repro.workloads.base.Workload` when the driver
        #: attaches one; enables per-unit domain progress capture in resume
        #: points / checkpoint images and elastic (repartitioning) restart
        self.workload: Optional[Any] = None
        #: recovery orchestrations currently in flight (driven alongside the
        #: rank processes by :meth:`run_to_completion`)
        self._recovery_inflight: List[SimProcess] = []
        #: completed :class:`~repro.core.restart.RecoveryReport` objects
        self.recovery_reports: List[Any] = []
        #: the :class:`~repro.recovery.manager.RecoveryManager` owning the
        #: failure lifecycle (set by the manager itself on construction)
        self.recovery_manager: Optional[Any] = None
        #: messages dropped because an endpoint was rolled back in flight
        self.dropped_messages = 0
        #: reason string once the run has been declared unsurvivable
        self.aborted: Optional[str] = None
        #: telemetry handle (``repro.obs.Telemetry``) once attached; the
        #: ``telemetry_tracing`` boolean gates span emission the same way
        #: ``failures_enabled`` gates rollback bookkeeping
        self.telemetry: Optional[Any] = None
        self.telemetry_tracing = False
        #: passive time-series sampler (``repro.obs.StateSampler``) once a
        #: sampling telemetry is attached; phase-transition sites notify it
        #: so checkpoint/recovery/finished occupancy integrates exactly
        self.sampler: Optional[Any] = None

    def attach_checkpoint_source(self) -> None:
        """Declare that checkpoint requests may be delivered to the ranks.

        Called by :class:`~repro.core.coordinator.CheckpointCoordinator` on
        construction (i.e. before the application runs).  Blocked receives
        only allocate their "message or checkpoint signal" wake condition
        when a source exists — a run without one can never observe a signal,
        so waiting on the bare inbox event is provably equivalent.
        """
        self.checkpoints_enabled = True

    def attach_failure_source(self) -> None:
        """Declare that ranks may be killed and rolled back mid-run.

        Called by :class:`~repro.cluster.failure.FailureInjector` before the
        application launches.  Turns on the failure bookkeeping: operation
        cursors and per-op channel tracking (resume points), message epoch /
        offset stamps (connection-reset drops and duplicate skipping), and
        snapshot history retention in the protocols.  Without an injector all
        of it is skipped, keeping failure-free runs bit-identical to the
        golden parity metrics.
        """
        self.failures_enabled = True

    def attach_telemetry(self, telemetry: Any) -> None:
        """Attach a :class:`repro.obs.Telemetry` handle to this run.

        Follows the ``attach_failure_source`` pattern: telemetry is off by
        default, the simulator hot loops never consult it, and only the
        non-hot sites (per-checkpoint spans, kill/rollback abort sweeps)
        check ``telemetry_tracing`` — a disabled run pays nothing.  The
        handle is mirrored onto ``sim.telemetry`` so subsystems holding only
        the simulator (the storage hierarchy) share the same tracer, and all
        span timestamps come from ``sim.now`` without scheduling anything, so
        traced runs stay bit-identical to untraced ones.
        """
        self.telemetry = telemetry
        self.telemetry_tracing = telemetry is not None and telemetry.tracing
        if telemetry is not None:
            telemetry.bind_simulator(self.sim)
        sampler = getattr(telemetry, "sampler", None)
        self.sampler = sampler
        if sampler is not None:
            sampler.bind_runtime(self)
            self.sim._sampler = sampler

    # ------------------------------------------------------------------ basics
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def ctx(self, rank: int) -> RankContext:
        """Context of ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        return self.contexts[rank]

    def running_ranks(self) -> Tuple[int, ...]:
        """Ranks whose scripts have not finished yet."""
        return tuple(ctx.rank for ctx in self.contexts if not ctx.finished)

    def set_memory(self, memory_per_rank: Union[int, Sequence[int], Dict[int, int]]) -> None:
        """Set the application resident set per rank (drives checkpoint image size)."""
        if isinstance(memory_per_rank, int):
            for ctx in self.contexts:
                ctx.memory_bytes = memory_per_rank
        elif isinstance(memory_per_rank, dict):
            for rank, nbytes in memory_per_rank.items():
                self.ctx(rank).memory_bytes = int(nbytes)
        else:
            values = list(memory_per_rank)
            if len(values) != self.n_ranks:
                raise ValueError("memory_per_rank sequence must have one entry per rank")
            for ctx, nbytes in zip(self.contexts, values):
                ctx.memory_bytes = int(nbytes)

    # ------------------------------------------------------------- messaging
    def _make_message(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: int,
        kind: MessageKind,
        piggyback: Optional[Dict[str, Any]] = None,
        payload: Any = None,
    ) -> Message:
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"destination rank {dst} out of range")
        # Lazy piggyback: messages without protocol metadata carry None and
        # never allocate the dict (the overwhelmingly common case).
        msg = fast_message(
            src, dst, nbytes, tag, kind,
            dict(piggyback) if piggyback else None,
            payload, self.sim.now,
        )
        if self.failures_enabled:
            msg.src_epoch = self.contexts[src].rollback_epoch
            msg.dst_epoch = self.contexts[dst].rollback_epoch
        return msg

    def _finish_delivery(self, msg: Message) -> None:
        """Terminal stage of a delivery: accounting, protocol hook, inbox.

        A control message goes to the inbox's control mailbox instead.
        """
        now = self.sim.now
        dst_ctx = self.contexts[msg.dst]
        if self.failures_enabled and (
            msg.dst_epoch != dst_ctx.rollback_epoch
            or msg.src_epoch != self.contexts[msg.src].rollback_epoch
        ):
            # An endpoint was killed/rolled back while this message was in
            # flight: the connection it travelled on has been reset.  Data the
            # receiver genuinely lacks is re-sent by re-execution or replayed
            # from the sender's log, never from the wire.
            self.dropped_messages += 1
            return
        msg.arrived_at = now
        if msg.kind is not _APP:
            # The control mailbox: hand the message to the consumer posted
            # for its (kind, tag), or buffer it until one is posted.
            inbox = dst_ctx.inbox
            key = (msg.kind, msg.tag)
            posted = inbox._posted
            if key in posted:
                consumer = posted[key]
                del posted[key]
                self.sim.stats.store_wakeups += 1
                self.sim._immediate.append((consumer, msg))
                return
            mail = inbox._mail
            if key in mail:
                mail[key].append(msg)
            else:
                mail[key] = deque((msg,))
            inbox._n_items += 1
            return
        dst_ctx.account.add_received(msg.src, msg.nbytes)
        stats = dst_ctx.stats
        stats.messages_received += 1
        stats.bytes_received += msg.nbytes
        if dst_ctx.protocol is not None:
            dst_ctx.protocol.on_arrival(msg)
        self.deliveries.append((now, msg.src, msg.dst, msg.nbytes))
        if dst_ctx._arrival_watchers:
            dst_ctx._notify_arrival(msg.src)
        dst_ctx.inbox.put(msg)

    def app_send(
        self,
        ctx: RankContext,
        dst: int,
        nbytes: int,
        tag: int = 0,
        blocking: bool = True,
    ) -> Generator[Event, None, Message]:
        """Send an application message; the sender is busy for its local share."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        start = sim.now
        extra_delay = 0.0
        piggyback: Optional[Dict[str, Any]] = None
        if ctx.protocol is not None:
            extra_delay, piggyback = ctx.protocol.on_send(dst, nbytes, tag)
        if self.tracer is not None:
            extra_delay += self.tracer.on_send(
                Message(src=ctx.rank, dst=dst, nbytes=nbytes, tag=tag), sim.now
            )
        # _make_message inlined: one send per simulated message makes the
        # call overhead (and the enum attribute chain) measurable.
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"destination rank {dst} out of range")
        msg = fast_message(
            ctx.rank, dst, nbytes, tag, _APP,
            dict(piggyback) if piggyback else None, None, sim.now,
        )
        skip = False
        if self.failures_enabled:
            msg.src_epoch = ctx.rollback_epoch
            msg.dst_epoch = self.contexts[dst].rollback_epoch
            end_offset = ctx.account.sent_to(dst) + nbytes
            msg_index = ctx.account.messages_sent_to(dst) + 1
            msg.end_offset = end_offset
            msg.msg_index = msg_index
            ctx._op_sent[dst] = ctx._op_sent.get(dst, 0) + nbytes
            ctx._op_sent_msgs[dst] = ctx._op_sent_msgs.get(dst, 0) + 1
            if ctx.rollback_epoch > 0:
                # Skip accounting (Algorithm 1, restart part): a re-executed
                # send whose channel position the receiver already covers is
                # a duplicate — the data survived at the receiver, so only
                # the local library cost is paid and nothing hits the wire.
                dst_account = self.contexts[dst].account
                received = dst_account.received_from(ctx.rank)
                if end_offset < received or (
                    end_offset == received
                    and msg_index <= dst_account.messages_received_from(ctx.rank)
                ):
                    skip = True
        ctx.account.add_sent(dst, nbytes)
        stats = ctx.stats
        stats.messages_sent += 1
        stats.bytes_sent += nbytes
        wire_bytes = nbytes + (16 if piggyback else 0)

        if extra_delay > 0:
            yield Timeout(sim, extra_delay)

        net = self.cluster.network
        if skip:
            stats.skipped_sends += 1
            stats.skipped_bytes += nbytes
            yield Timeout(sim, net._overhead_s)
            stats.send_time += sim.now - start
            return msg
        src_node = ctx.node_id
        dst_node = self.contexts[dst].node_id
        if blocking and src_node != dst_node:
            # Sender occupied for the TX-side cost of the transfer.
            yield from net.tx(src_node, wire_bytes)
        else:
            yield Timeout(sim, net._overhead_s)
            if src_node != dst_node:
                net.send_background(src_node, wire_bytes)
        net.deliver(src_node, dst_node, wire_bytes, self._finish_delivery, msg)
        stats.send_time += sim.now - start
        return msg

    def control_fanout(
        self,
        ctx: RankContext,
        peers: Sequence[int],
        tag: int,
        payload_of: Optional[Callable[[int], Any]] = None,
        kind: MessageKind = MessageKind.CONTROL,
    ) -> Event:
        """Send one protocol control message to each of ``peers``, in order.

        Control messages are not logged, traced or S/R-counted.  The sender
        is busy for one per-message overhead per peer; the message to peer
        ``p`` carries ``payload_of(p)``, read when its overhead starts.
        Returns the event the sender yields once for the whole fan-out (see
        :class:`_ControlFanout`); ``peers`` must not be empty.
        """
        return _ControlFanout(self, ctx, peers, tag, kind,
                              CONTROL_MESSAGE_BYTES, payload_of).done

    def app_recv(
        self,
        ctx: RankContext,
        src: Optional[int] = None,
        tag: Optional[int] = None,
        interruptible: bool = True,
    ) -> Generator[Event, None, Message]:
        """Blocking receive of an application message.

        While blocked, pending checkpoint requests are honoured (the protocol
        runs and the receive then continues), unless ``interruptible`` is
        False (used internally by protocols that must not re-enter).
        """
        start = self.sim.now
        if not self.checkpoints_enabled:
            # No checkpoint source attached: signals cannot occur, so the
            # interruptible machinery (and its per-wait AnyOf condition) is
            # vacuous and the receive waits on the bare inbox event.
            interruptible = False
        get_ev = ctx.inbox.get(_APP, src, tag)
        if self.failures_enabled:
            ctx.pending_get = get_ev
        while True:
            if interruptible and not ctx.in_checkpoint and ctx.has_visible_request(self.sim.now):
                yield from self.handle_pending_checkpoints(ctx)
                continue
            if get_ev._processed:
                msg: Message = get_ev._value
                break
            if interruptible and not ctx.in_checkpoint:
                if get_ev._triggered:
                    # A message already matched; no condition event is needed
                    # to wait for its (same-time) arrival on the calendar.
                    yield get_ev
                elif ctx.has_pending_request():
                    # A request was delivered but is not visible yet; wake up
                    # either when the message arrives or when it becomes visible.
                    wait = max(ctx.next_visible_at() - self.sim.now, 0.0)
                    yield self.sim.any_of([get_ev, self.sim.timeout(wait)])
                else:
                    yield self.sim.any_of([get_ev, ctx.signal_event])
                if get_ev._processed:
                    msg = get_ev._value
                    break
                # otherwise a checkpoint signal arrived or became visible; loop handles it
            else:
                yield get_ev
                msg = get_ev._value
                break
        if self.failures_enabled:
            ctx.pending_get = None
            ctx._op_consumed.append(msg)
        ctx.stats.recv_wait_time += self.sim.now - start
        return msg

    def control_gather(
        self,
        ctx: RankContext,
        count: int,
        tag: int,
        on_message: Optional[Callable[[Message], Optional[Event]]] = None,
        kind: MessageKind = MessageKind.CONTROL,
    ) -> Event:
        """Receive ``count`` control messages with ``tag`` from any source.

        After each message, ``on_message(msg)`` may return an event to wait
        on before the next receive.  Returns the event the receiver yields
        once for the whole gather (see :class:`_ControlGather`); ``count``
        must be positive.
        """
        return _ControlGather(ctx, count, tag, kind, on_message).done

    # ----------------------------------------------------- storage for protocols
    def storage_write(self, ctx: RankContext, nbytes: int) -> Generator[Event, None, float]:
        """Write ``nbytes`` to checkpoint storage for this rank's node (log flushes).

        Goes through the storage hierarchy's tier-agnostic path, which
        delegates verbatim to the configured base storage system.
        """
        result = yield from self.cluster.hierarchy.write(ctx.node_id, nbytes)
        return result

    def checkpoint_image_write(
        self, ctx: RankContext, ckpt_id: int, nbytes: int
    ) -> Generator[Event, None, Tuple[str, ...]]:
        """Persist one checkpoint image through the storage hierarchy.

        Under the default single-tier configuration this is exactly the old
        ``storage_write`` (bit-identical timing); with a
        :class:`~repro.storage.policy.StoragePolicy` configured it fans the
        image out across the scheduled levels (synchronous L1/L3, async L2
        partner replica).  Returns the levels the image landed on, which the
        protocol records in the snapshot metadata.
        """
        domain_state = self.domain_progress(ctx) if self.workload is not None else None
        levels = yield from self.cluster.hierarchy.write_image(
            ctx.rank, ctx.node_id, ckpt_id, nbytes,
            domain_state=domain_state or None)
        return levels

    # --------------------------------------------------------------- checkpoints
    def handle_pending_checkpoints(self, ctx: RankContext) -> Generator[Event, None, None]:
        """Run the protocol's checkpoint procedure for every *visible* pending request."""
        while ctx.has_visible_request(self.sim.now):
            request = ctx.pop_visible_request(self.sim.now)
            if ctx.protocol is None:
                continue
            ctx.in_checkpoint = True
            start = self.sim.now
            if self.sampler is not None:
                self.sampler.note_phase(ctx.rank, "checkpoint", start)
            span = None
            if self.telemetry_tracing:
                # Live span: opened here, closed on completion below.  If the
                # rank is killed or rolled back mid-checkpoint the interrupt
                # propagates out of this generator and kill_rank/rollback_rank
                # sweep the open span closed with ``aborted=True``.
                span = self.telemetry.tracer.begin(
                    "checkpoint", track=f"rank{ctx.rank}", category="ckpt",
                    ckpt_id=request.ckpt_id, group_id=request.group_id)
            try:
                record = yield from ctx.protocol.checkpoint(request)
            finally:
                ctx.in_checkpoint = False
                if self.sampler is not None:
                    self.sampler.end_phase(ctx.rank, "checkpoint", self.sim.now)
            ctx.stats.checkpoint_time += self.sim.now - start
            if record is not None:
                ctx.stats.checkpoints.append(record)
            if span is not None:
                tracer = self.telemetry.tracer
                tracer.end(span)
                if record is not None:
                    # retro stage children: the measured stages are contiguous
                    # from the record's start, in protocol order
                    cursor = record.start
                    for name, value in record.stages.items():
                        tracer.add(name, start=cursor, end=cursor + value,
                                   track=span.track, category="ckpt.stage",
                                   parent=span)
                        cursor += value

    # ----------------------------------------------------- live failure injection
    def capture_resume(self, ctx: RankContext) -> Optional[ResumePoint]:
        """The re-execution position of ``ctx`` for a checkpoint taken *now*.

        Returns None unless a failure injector is attached.  Send counters
        are the checkpoint-time values minus the currently executing
        operation's own sends (a rollback restarts that operation from its
        beginning); receive counters stay delivery-based, and the restored
        inbox holds every delivered-but-unconsumed application message plus
        the ones the partial operation already consumed (see
        :class:`~repro.ckpt.base.ResumePoint`).
        """
        if not self.failures_enabled:
            return None
        account = ctx.account
        ss = account.snapshot_sent()
        ss_msgs = account.messages_sent_by_destination()
        for dst, nbytes in ctx._op_sent.items():
            ss[dst] -= nbytes
        for dst, count in ctx._op_sent_msgs.items():
            ss_msgs[dst] -= count
        inbox = list(ctx._op_consumed)
        pending = ctx.pending_get
        if pending is not None and pending._triggered:
            # A message already matched into the blocked receive's get-event:
            # it left the inbox but the script has not consumed it yet (it is
            # handling this very checkpoint).  It is library-delivered data
            # and belongs in the image.
            limbo = pending._value
            if limbo is not None and limbo.kind is MessageKind.APP:
                inbox.append(limbo)
        inbox.extend(m for m in ctx.inbox.items_in_order()
                     if m.kind is MessageKind.APP)
        return ResumePoint(op_index=ctx.op_cursor, ss=ss,
                           rr=account.snapshot_received(),
                           ss_msgs=ss_msgs,
                           rr_msgs=account.messages_received_by_source(),
                           inbox=inbox,
                           domain_state=self.domain_progress(ctx))

    def domain_progress(self, ctx: RankContext) -> Dict[int, int]:
        """Per-unit completed-step counts of ``ctx`` at its current cursor.

        Empty when no workload is attached (legacy drivers) — checkpoints
        then carry no domain payload and elastic restart is unavailable.
        """
        wl = self.workload
        if wl is None or not hasattr(wl, "domain_progress"):
            return {}
        return wl.domain_progress(ctx.rank, ctx.op_cursor)

    def kill_rank(self, rank: int, cause: Any = "node-failure") -> None:
        """Kill ``rank``'s process at the current instant (node death).

        The script is interrupted wherever it is (mid-compute, blocked in a
        receive, inside a checkpoint), and the rank's rollback epoch is
        bumped so every message still in flight to or from it is dropped at
        delivery — the TCP connections of a dead process do not survive it.
        Recovery (rollback + replay + relaunch) is orchestrated separately by
        :class:`~repro.core.restart.LiveRecovery`.
        """
        ctx = self.contexts[rank]
        ctx.failed = True
        ctx.rollback_epoch += 1
        if ctx.halted_at is None:
            ctx.halted_at = self.sim.now
        proc = self._rank_processes[rank]
        if proc.is_alive:
            proc.interrupt(cause)
        if self.telemetry_tracing:
            self.telemetry.tracer.abort_open(f"rank{rank}", abort_cause=str(cause))
        if self.sampler is not None:
            self.sampler.note_phase(rank, "recovery", self.sim.now)

    def rollback_rank(self, rank: int, snapshot: Optional[Any]) -> int:
        """Roll ``rank`` back to ``snapshot`` (None = process start).

        Interrupts the script if it is still running (group members of a
        victim roll back too, even though their own node is healthy), resets
        the volatile runtime state, restores the channel accounting to the
        snapshot's resume point and lets the protocol restore its own state.
        Returns the operation index to relaunch from.
        """
        ctx = self.contexts[rank]
        proc = self._rank_processes[rank]
        if proc.is_alive:
            proc.interrupt("group-rollback")
        if self.telemetry_tracing:
            self.telemetry.tracer.abort_open(f"rank{rank}", abort_cause="group-rollback")
        if ctx.halted_at is None:
            ctx.halted_at = self.sim.now
        if self.sampler is not None:
            self.sampler.note_phase(rank, "recovery", self.sim.now)
        ctx.reset_for_rollback()
        resume = snapshot.resume if snapshot is not None else ResumePoint(op_index=0)
        ctx.account.restore(resume.ss, resume.rr, resume.ss_msgs, resume.rr_msgs)
        # Messages that had been drained into the MPI library by checkpoint
        # time are part of the restored image; the re-executed script will
        # consume them again.
        ctx.inbox.restore(resume.inbox)
        if ctx.protocol is not None:
            ctx.protocol.rollback_to(snapshot)
        ctx.stats.rollbacks += 1
        return resume.op_index

    def relaunch_rank(self, rank: int, op_index: int,
                      program: Optional[Iterable[Any]] = None) -> SimProcess:
        """Re-create ``rank``'s process, resuming its script at ``op_index``.

        The operations before ``op_index`` are *not* re-executed — their
        effects live in the restored checkpoint image — so the fresh program
        iterator is simply advanced past them.  An explicit ``program``
        replaces the launch-time script entirely (elastic restart relaunches
        survivors with a *repartitioned* script); ``op_index`` then indexes
        into the new script.
        """
        if program is None and self._program_factory is None:
            raise RuntimeError("launch() must run before a rank can be relaunched")
        ctx = self.contexts[rank]
        if program is None:
            program = iter(self._program_factory(rank))
        else:
            program = iter(program)
        if op_index > 0:
            program = itertools.islice(program, op_index, None)
        proc = self.sim.process(
            self._run_rank(ctx, program, start_index=op_index, fresh=False),
            name=f"rank:{rank}",
        )
        self._rank_processes[rank] = proc
        ctx.in_recovery = False
        ctx.failed = False
        ctx.halted_at = None
        if self.sampler is not None:
            self.sampler.note_phase(rank, None, self.sim.now)
        return proc

    def abort_application(self, reason: str) -> None:
        """Terminate the whole run: an unsurvivable failure was detected.

        Every surviving checkpoint copy of some required image is gone (a
        correlated outage took the node *and* its partner, with no remote
        copy), so the job cannot be restored — the dispatcher declares it
        failed.  All rank scripts and in-flight recoveries are interrupted,
        every context is marked finished at the current instant (the abort
        time becomes the makespan), and the reason is recorded on the
        runtime so results report the run as not survived instead of
        deadlocking or crashing.
        """
        if self.aborted is not None:
            return
        self.aborted = reason
        if self.telemetry_tracing:
            tracer = self.telemetry.tracer
            for rank in range(self.n_ranks):
                tracer.abort_open(f"rank{rank}", abort_cause="job-aborted")
        current = self.sim.active_process
        for proc in self._rank_processes:
            if proc.is_alive and proc is not current:
                proc.interrupt("job-aborted")
        for proc in list(self._recovery_inflight):
            if proc.is_alive and proc is not current:
                proc.interrupt("job-aborted")
        now = self.sim.now
        for ctx in self.contexts:
            if not ctx.finished:
                ctx.finished = True
            if ctx.stats.finished_at is None:
                ctx.stats.finished_at = now
            if self.sampler is not None:
                self.sampler.note_phase(ctx.rank, "finished", now)

    def migrate_rank(self, rank: int, new_node: int) -> int:
        """Re-place a halted rank onto ``new_node`` (restart on a spare).

        Only valid while the rank's process is down (killed or rolled back):
        a live script cannot change nodes.  All subsequent traffic — image
        restore, log replay, application messages — flows over the new
        node's NIC because every delivery resolves ``ctx.node_id`` at issue
        time; messages still in flight toward the old node die by the usual
        rollback-epoch connection reset.  Returns the old node id.
        """
        ctx = self.contexts[rank]
        if self._rank_processes and self._rank_processes[rank].is_alive:
            raise RuntimeError(f"rank {rank} is live; only a halted rank can migrate")
        old_node = self.cluster.migrate_rank(rank, new_node)
        ctx.node_id = new_node
        return old_node

    def replay_channel(
        self, src: int, dst: int, entries: Sequence[Any], read_log_from_storage: bool
    ) -> Generator[Event, None, Tuple[int, int]]:
        """Resend logged messages on one channel during live recovery.

        Entries are replayed in order over the simulated network (contending
        with live traffic on both NICs) and delivered through the normal
        terminal delivery stage, so the restarted receiver's tag-matched
        receives consume them exactly like the original messages.  When the
        *sender* was itself rolled back, its in-memory log is gone and the
        flushed log is first fetched from checkpoint storage.  Returns
        ``(bytes, messages)`` replayed.
        """
        src_ctx = self.contexts[src]
        dst_ctx = self.contexts[dst]
        src_node, dst_node = src_ctx.node_id, dst_ctx.node_id
        net = self.cluster.network
        total = sum(e.nbytes for e in entries)
        if read_log_from_storage and total > 0:
            yield from self.cluster.hierarchy.read(src_node, total)
        replayed = 0
        for entry in entries:
            if src_node == dst_node:
                yield Timeout(self.sim, net.spec.per_message_overhead_s)
            else:
                yield from net.transfer(src_node, dst_node, entry.nbytes)
            msg = self._make_message(src, dst, entry.nbytes, entry.tag, MessageKind.APP)
            msg.end_offset = entry.end_offset
            self._finish_delivery(msg)
            replayed += 1
        return total, replayed

    # ------------------------------------------------------------------ execution
    def _run_schedule(
        self, ctx: RankContext, steps: Sequence[Tuple[str, int, int]], tag: int
    ) -> Generator[Event, None, None]:
        for action, peer, nbytes in steps:
            if not ctx.in_checkpoint and ctx.has_visible_request(self.sim.now):
                yield from self.handle_pending_checkpoints(ctx)
            if action == "send":
                yield from self.app_send(ctx, peer, nbytes, tag=tag)
            elif action == "recv":
                yield from self.app_recv(ctx, src=peer, tag=tag)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown schedule action {action!r}")

    def _op_isend(self, ctx: RankContext, op: Isend) -> Generator[Event, None, None]:
        yield from self.app_send(ctx, op.dst, op.nbytes, tag=op.tag, blocking=False)

    def _op_wait(self, ctx: RankContext, op: Wait) -> Generator[Event, None, None]:
        if op.seconds > 0:
            yield self.sim.timeout(op.seconds)

    def _op_collective(self, ctx: RankContext, op: Op) -> Generator[Event, None, None]:
        steps = schedule_for(op, ctx.rank, self.n_ranks)
        yield from self._run_schedule(ctx, steps, COLLECTIVE_TAG_BASE + op.tag)

    #: exact-type dispatch for the operation kinds :meth:`_run_rank` does
    #: not interpret inline
    _OP_DISPATCH = {
        Isend: _op_isend,
        Wait: _op_wait,
        **dict.fromkeys(COLLECTIVES, _op_collective),
    }

    def _run_rank(self, ctx: RankContext, program: Iterable[Op],
                  start_index: int = 0, fresh: bool = True) -> Generator[Event, None, None]:
        sim = self.sim
        if fresh:
            ctx.stats.started_at = sim.now
        dispatch = self._OP_DISPATCH
        stats = ctx.stats
        failures = self.failures_enabled
        app_send = self.app_send
        app_recv = self.app_recv
        nodes = self.cluster.nodes
        rng = self.rng
        op_index = start_index
        try:
            for op in program:
                if failures:
                    # Resume-point bookkeeping: remember which operation is
                    # executing and wipe the previous operation's traffic.
                    ctx.op_cursor = op_index
                    op_index += 1
                    if ctx._op_sent:
                        ctx._op_sent.clear()
                        ctx._op_sent_msgs.clear()
                    if ctx._op_consumed:
                        del ctx._op_consumed[:]
                if ctx.pending_requests and ctx.has_visible_request(sim.now):
                    yield from self.handle_pending_checkpoints(ctx)
                # The five hottest operation kinds are interpreted inline — every
                # generator frame removed here is removed from every resume of
                # this rank (CPython walks the yield-from chain per send()).
                # Everything else goes through the dispatch table.
                cls = op.__class__
                stats.ops_executed += 1
                if cls is SendRecv:
                    yield from app_send(ctx, op.dst, op.send_nbytes, tag=op.tag, blocking=False)
                    if op.src is not None:
                        yield from app_recv(ctx, src=op.src, tag=op.tag)
                elif cls is Compute:
                    node = nodes[ctx.node_id]
                    duration = node.compute_time(op.seconds)
                    if op.jitter and node.spec.os_jitter_sigma > 0:
                        duration = rng.lognormal_jitter(
                            ctx.jitter_key, duration, node.spec.os_jitter_sigma
                        )
                    stats.compute_time += duration
                    if duration > 0:
                        yield Timeout(sim, duration)
                elif cls is Send:
                    yield from app_send(ctx, op.dst, op.nbytes, tag=op.tag, blocking=True)
                elif cls is Recv:
                    yield from app_recv(ctx, src=op.src, tag=op.tag)
                elif cls is Marker:
                    stats.progress_marks.append((sim.now, op.label))
                else:
                    handler = dispatch.get(cls)
                    if handler is None:
                        raise TypeError(f"unsupported operation type {cls.__name__}")
                    yield from handler(self, ctx, op)
            if failures:
                ctx.op_cursor = op_index
                if ctx._op_sent:
                    ctx._op_sent.clear()
                    ctx._op_sent_msgs.clear()
                if ctx._op_consumed:
                    del ctx._op_consumed[:]
            # Handle any request that was delivered but not yet handled, so group
            # barriers never wait on a rank that has already exited.  Requests that
            # are not yet visible are waited out first.
            while ctx.has_pending_request():
                if not ctx.has_visible_request(self.sim.now):
                    yield self.sim.timeout(max(ctx.next_visible_at() - self.sim.now, 0.0))
                yield from self.handle_pending_checkpoints(ctx)
        except Interrupt:
            # Killed by the failure injector (or rolled back with its group).
            # The process ends quietly; LiveRecovery re-creates it from the
            # rollback target's resume point.
            return
        ctx.finished = True
        ctx.stats.finished_at = self.sim.now
        if self.sampler is not None:
            self.sampler.note_phase(ctx.rank, "finished", self.sim.now)

    def launch(self, program_factory: ProgramFactory) -> List[SimProcess]:
        """Start one simulation process per rank executing its script."""
        if self._rank_processes:
            raise RuntimeError("launch() may only be called once per runtime")
        self._program_factory = program_factory
        for ctx in self.contexts:
            program = program_factory(ctx.rank)
            proc = self.sim.process(self._run_rank(ctx, iter(program)), name=f"rank:{ctx.rank}")
            self._rank_processes.append(proc)
        return self._rank_processes

    def _run_until(self, done: Event, limit_s: Optional[float]) -> None:
        """Run until ``done``; a deadlock or the limit ends with a wait-for report."""
        try:
            finished = self.sim.run_until_event(done, limit=limit_s)
        except SimulationError as exc:
            raise SimulationError(f"{exc}\n{self._hang_report()}") from exc
        if not finished:
            raise RuntimeError(f"application did not finish within {limit_s} simulated "
                               f"seconds\n{self._hang_report()}")

    def _hang_report(self) -> str:
        """Per unfinished rank (the first 8): operations executed, the event
        its process waits on (a gather names its progress and pending drain)
        and the ``(kind, src, tag)`` of every posted receive."""
        blocked = [ctx for ctx in self.contexts if not ctx.finished]
        lines = [f"{len(blocked)} of {self.n_ranks} ranks unfinished:"]
        for ctx in blocked[:8]:
            receives = "".join(f"; posted receive ({getattr(kind, 'value', kind)}, "
                               f"src={src}, tag={tag})"
                               for _, kind, src, tag in ctx.inbox._waiters)
            lines.append(f"  rank {ctx.rank}: {ctx.stats.ops_executed} ops executed, waiting "
                         f"on {self._rank_processes[ctx.rank].waiting_on!r}{receives}")
        return "\n".join(lines)

    def run_to_completion(self, limit_s: Optional[float] = None) -> ApplicationResult:
        """Run the simulation until every rank's script has finished.

        With a failure injector attached, rank processes may be killed and
        re-created mid-run, so the wait set is rebuilt whenever it drains:
        in-flight recovery orchestrations are waited on alongside the rank
        processes until every context reports its script finished.  A
        deadlock or the limit ends with :meth:`_hang_report` appended
        to the error.
        """
        if not self._rank_processes:
            raise RuntimeError("launch() must be called before run_to_completion()")
        if not self.failures_enabled:
            self._run_until(self.sim.all_of(self._rank_processes), limit_s)
        else:
            while not all(ctx.finished for ctx in self.contexts):
                waits = [p for p in self._rank_processes if not p._processed]
                waits += [p for p in self._recovery_inflight if not p._processed]
                if not waits:
                    unfinished = [c.rank for c in self.contexts if not c.finished]
                    raise RuntimeError(
                        f"ranks {unfinished[:8]} neither finished nor recovering "
                        "(a failure was injected but recovery never relaunched them)")
                self._run_until(self.sim.all_of(waits), limit_s)
        makespan = max(
            ctx.stats.finished_at for ctx in self.contexts if ctx.stats.finished_at is not None
        )
        return ApplicationResult(
            n_ranks=self.n_ranks,
            protocol_name=self.protocol_family.name if self.protocol_family else "none",
            makespan=makespan,
            contexts=self.contexts,
            deliveries=self.deliveries,
            trace=self.tracer.log if self.tracer is not None else None,
            recovery=self.recovery_reports,
            recovery_stats=(self.recovery_manager.stats()
                            if self.recovery_manager is not None else {}),
            aborted=self.aborted,
            storage_stats=self.cluster.hierarchy.stats(),
        )
