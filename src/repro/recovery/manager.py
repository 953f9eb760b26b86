"""Recovery orchestration: the failure lifecycle owner.

PR 3's injector handled one failure at a time: kill, wait the recovery out,
take the next event.  That serialisation hides the paper's central claim —
*independent groups recover independently* — and cannot express the two
situations long-horizon runs hit constantly:

* two failures striking **disjoint** checkpoint groups should recover
  **concurrently** (the rest of the machine keeps computing either way), and
* a failure landing **during** an in-flight recovery of the same group must
  abort that recovery and restart it from the new rollback target.

:class:`RecoveryManager` owns this lifecycle.  Failure events are *submitted*
(never awaited) by the :class:`~repro.cluster.failure.FailureInjector`; the
manager kills the victims (never a retired rank — see
:func:`~repro.core.restart.retired_ranks`), computes the rollback scope, and
decides:

``merge``
    The scope overlaps an in-flight (or queued) recovery: that recovery is
    aborted — its restart/replay coroutines are interrupted, in-flight
    replayed messages die by rollback-epoch mismatch — and one merged
    recovery restarts the union scope from its (possibly older) common
    checkpoint.  Channel accounting stays exact because every rollback
    restores the counters wholesale from the target's resume point.

``serialize``
    The scope is disjoint but *channel-coupled* to an active recovery (some
    rank in one scope has exchanged data with a rank in the other — their
    sender logs / skip accounting interlock).  The failure queues and starts
    the moment the conflicting recovery drains.

``concurrent``
    Disjoint and channel-independent: a second
    :class:`~repro.core.restart.LiveRecovery` runs alongside the first, and
    the measured recovery windows overlap.

Victims are placed through an optional :class:`~repro.recovery.spare.
SparePool` (topology-aware, degrading to in-place reboot on exhaustion).  In
elastic mode a failure the pool cannot cover *shrinks* the job instead.  A
shrink resets every rank not yet retired, so its scope is all of them: it
queues until no other recovery is active, and any later failure merges into
it (the merged attempt shrinks again — the reset already happened).  Queued
failures drop the victims a shrink retired meanwhile, and vanish when none
are left.  Every recovery is one :class:`~repro.core.restart.LiveRecovery`;
only its plan (group rollback or shrink) differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.core.restart import LiveRecovery, retired_ranks, rollback_scope
from repro.sim.primitives import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.failure import FailureEvent
    from repro.mpi.runtime import MpiRuntime
    from repro.recovery.spare import SparePool
    from repro.sim.engine import SimProcess


@dataclass
class _Pending:
    """A failure awaiting its recovery (about to start, or queued)."""

    event: "FailureEvent"
    victims: Set[int]
    attempts: int = 0
    #: time of the earliest failure this entry covers (queue waits and
    #: superseded attempts count toward the measured recovery time)
    origin_time: float = 0.0
    #: a superseded shrink already reset its ranks: only another shrink
    #: covers them all, whatever the spare pool holds now
    reset: bool = False
    #: decided by :meth:`RecoveryManager._plan` just before admission/start
    shrink: bool = False
    #: ranks the recovery rolls back (every rank not yet retired for a shrink)
    scope: Set[int] = field(default_factory=set)

    def merge(self, other: "_Pending", superseded: bool) -> None:
        """Absorb ``other`` (an aborted attempt or a queued failure)."""
        self.victims |= other.victims
        self.attempts += other.attempts + int(superseded)
        self.origin_time = min(self.origin_time, other.origin_time)
        self.reset = self.reset or other.reset or (superseded and other.shrink)


@dataclass
class _Active:
    """One in-flight recovery."""

    pending: _Pending
    recovery: "LiveRecovery"
    proc: "SimProcess"


class RecoveryManager:
    """Admits failures, schedules (possibly concurrent) recoveries.

    Parameters
    ----------
    runtime:
        The MPI runtime whose ranks fail and recover.
    spare_pool:
        Optional replacement-node pool; None restarts every victim in place.
    detection_delay_s / barrier_cost_s:
        Forwarded to each :class:`LiveRecovery`.
    reboot_delay_s:
        Reboot time a crashed node needs before an *in-place* restart can
        read its image (spare placements skip it; 0 keeps the pre-spare
        behaviour of instantly restartable nodes).
    elastic:
        With ``elastic=True`` (needs ``runtime.workload``), a failure whose
        victims cannot all be replaced from the spare pool runs a *shrink*
        recovery: the job shrinks onto the survivors (dead ranks' work units
        redistributed, their images shipped to the adopters) instead of
        waiting out an in-place node reboot.
    """

    def __init__(
        self,
        runtime: "MpiRuntime",
        spare_pool: Optional["SparePool"] = None,
        detection_delay_s: float = 0.25,
        barrier_cost_s: float = 0.02,
        reboot_delay_s: float = 0.0,
        elastic: bool = False,
    ) -> None:
        if detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        if reboot_delay_s < 0:
            raise ValueError("reboot_delay_s must be non-negative")
        if elastic and runtime.workload is None:
            raise ValueError("elastic mode needs runtime.workload")
        self.runtime = runtime
        self.spare_pool = spare_pool
        self.detection_delay_s = detection_delay_s
        self.barrier_cost_s = barrier_cost_s
        self.reboot_delay_s = reboot_delay_s
        self.elastic = elastic
        self.active: List[_Active] = []
        self.queue: List[_Pending] = []
        self._drain_waiters: List[Event] = []
        # -- statistics ------------------------------------------------------
        self.failures_handled = 0
        self.aborted_recoveries = 0
        self.serialized_conflicts = 0
        self.max_concurrent_recoveries = 0
        self.shrink_restarts = 0
        runtime.attach_failure_source()
        runtime.recovery_manager = self

    # -- failure admission ---------------------------------------------------
    def submit(self, event: "FailureEvent", victims: List[int]) -> None:
        """Handle one node failure: kill the victims, schedule recovery.

        Returns immediately — recovery runs as its own simulation process
        (or queues behind a conflicting one).  Callers that want the PR 3
        serialised behaviour wait on :meth:`drained` instead.
        """
        runtime = self.runtime
        if runtime.aborted is not None:
            return  # the job was already declared unsurvivable
        self.failures_handled += 1
        if runtime.telemetry is not None:
            # live series (harvest adds the end-of-run stats() snapshot under
            # a different prefix, so this never double-counts)
            runtime.telemetry.metrics.counter("recovery.failures.submitted").inc()
        self.node_failed(event.node, disk_lost=event.destroys_disk)
        retired = retired_ranks(runtime)
        victims = [rank for rank in victims if rank not in retired]
        for rank in victims:
            runtime.kill_rank(rank, cause=event)
        if victims:
            self._admit(_Pending(event, set(victims), origin_time=event.time))

    def node_failed(self, node: int, disk_lost: bool = False) -> None:
        """Record a node death (also for nodes hosting no ranks).

        The injector reports *every* failure event here, including ones it
        otherwise ignores because no live rank runs on the node: an idle
        spare that dies must leave the pool instead of being handed out as
        a healthy replacement later.  ``disk_lost`` (destructive correlated
        events) additionally invalidates every checkpoint-image copy the
        storage hierarchy held on that node.
        """
        self.runtime.cluster.nodes[node].mark_failed()
        self.runtime.cluster.hierarchy.node_failed(node, disk_lost=disk_lost)
        if self.spare_pool is not None:
            self.spare_pool.node_failed(node)

    def _release_unused_spares(self, active: "_Active") -> None:
        """Return spares an aborted attempt reserved but never migrated onto."""
        if self.spare_pool is None:
            return
        for rank, node in active.recovery.placements.items():
            if self.runtime.ctx(rank).node_id != node:
                self.spare_pool.release(node, rank)

    def _admit(self, pending: _Pending) -> None:
        scope = rollback_scope(self.runtime, sorted(pending.victims))
        # A failure inside a recovering (or queued) scope supersedes that
        # attempt: abort it and recover the union from the new target.
        for act in [a for a in self.active if a.pending.scope & scope]:
            act.proc.interrupt("recovery-superseded")
            self._release_unused_spares(act)
            self.active.remove(act)
            pending.merge(act.pending, superseded=True)
            self.aborted_recoveries += 1
        for queued in [p for p in self.queue if p.scope & scope]:
            self.queue.remove(queued)
            pending.merge(queued, superseded=False)
        self._plan(pending)
        if self._blocked(pending, self.queue):
            self.serialized_conflicts += 1
            self.queue.append(pending)
            return
        self._start(pending)

    def _plan(self, pending: _Pending) -> None:
        """Drop retired victims, then decide shrink vs rollback and the scope.

        A recovery shrinks (elastic mode) when the spare pool cannot replace
        every victim on a dead node, or when it supersedes a shrink that
        already reset the job.
        """
        runtime = self.runtime
        pending.victims -= retired_ranks(runtime)
        dead = sum(1 for rank in pending.victims
                   if runtime.cluster.nodes[runtime.ctx(rank).node_id].failed)
        spares = self.spare_pool.remaining if self.spare_pool is not None else 0
        pending.shrink = self.elastic and (pending.reset or dead > spares)
        pending.scope = rollback_scope(runtime, sorted(pending.victims),
                                       pending.shrink)

    def _blocked(self, pending: _Pending, ahead: List[_Pending]) -> bool:
        """Whether ``pending`` must queue behind active or ``ahead`` recoveries.

        A shrink resets every rank, so it never runs alongside another
        recovery.  Disjoint scopes with shared channels must not interleave
        either: their sender logs / skip accounting interlock.
        """
        if pending.shrink and self.active:
            return True
        return (any(self._channel_coupled(a.pending.scope, pending.scope)
                    for a in self.active)
                or any(self._channel_coupled(p.scope, pending.scope)
                       for p in ahead))

    def _channel_coupled(self, scope_a: Set[int], scope_b: Set[int]) -> bool:
        """Whether any rank of one scope has a channel into the other.

        Channel accounting is the coupling that matters: replay plans and
        duplicate-send skipping read the *peer's* counters, so two recoveries
        sharing a channel endpoint would race on them.  Scope-disjoint,
        channel-disjoint recoveries touch disjoint accounting state and are
        provably independent.
        """
        runtime = self.runtime
        small, large = sorted((scope_a, scope_b), key=len)
        for rank in small:
            if not runtime.ctx(rank).account.peers().isdisjoint(large):
                return True
        return False

    # -- recovery lifecycle ----------------------------------------------------
    def _start(self, pending: _Pending) -> None:
        runtime = self.runtime
        placements: Dict[int, int] = {}
        dead_nodes: Set[int] = set()
        for rank in sorted(pending.victims):
            ctx = runtime.ctx(rank)
            if not runtime.cluster.nodes[ctx.node_id].failed:
                continue  # healthy node (rank merged in from a group rollback)
            spare = (self.spare_pool.acquire(ctx.node_id, rank)
                     if self.spare_pool is not None and not pending.shrink
                     else None)
            if spare is not None:
                placements[rank] = spare
            else:
                dead_nodes.add(ctx.node_id)
        if pending.shrink:
            # Spares exhausted: shrink the job onto the survivors instead of
            # waiting out a node reboot.  Its scope spans every rank not yet
            # retired — a global reset means any later failure supersedes it.
            self.shrink_restarts += 1
        recovery = LiveRecovery(
            runtime, sorted(pending.victims),
            detection_delay_s=self.detection_delay_s,
            barrier_cost_s=self.barrier_cost_s,
            node=pending.event.node,
            placements=placements,
            dead_nodes=dead_nodes,
            reboot_delay_s=self.reboot_delay_s,
            superseded_attempts=pending.attempts,
            origin_time=pending.origin_time,
            cause=pending.event.cause,
            spare_pool=self.spare_pool,
            shrink=pending.shrink,
        )
        proc = runtime.sim.process(recovery.run(), name="live-recovery")
        runtime._recovery_inflight.append(proc)
        active = _Active(pending, recovery, proc)
        self.active.append(active)
        self.max_concurrent_recoveries = max(
            self.max_concurrent_recoveries, len(self.active))
        if runtime.telemetry is not None:
            runtime.telemetry.metrics.gauge("recovery.inflight.peak").max(
                len(self.active))
        proc.callbacks.append(_OnDone(self, active))

    def _on_done(self, active: _Active) -> None:
        proc = active.proc
        if proc in self.runtime._recovery_inflight:
            self.runtime._recovery_inflight.remove(proc)
        if active in self.active:
            self.active.remove(active)
        report = proc._value if proc._triggered and proc._ok else None
        if report is not None and not report.unsurvivable:
            # Spare-pool refill: every dead node whose ranks migrated away
            # now sits empty — it reboots in the background and rejoins the
            # pool, so long failure horizons don't exhaust spares permanently.
            for _rank, old_node, _new_node in report.placements:
                self._schedule_refill(old_node)
        self._drain_queue()
        if not self.active and not self.queue and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed(None)

    def _schedule_refill(self, node: int) -> None:
        """Reboot an abandoned dead node and return it to the spare pool."""
        if self.spare_pool is None:
            return
        runtime = self.runtime
        node_obj = runtime.cluster.nodes[node]
        if not node_obj.failed or node_obj.ranks:
            return
        deaths = node_obj.death_count

        def reboot() -> "object":
            if self.reboot_delay_s > 0:
                yield runtime.sim.timeout(self.reboot_delay_s)
            fresh = runtime.cluster.nodes[node]
            if fresh.death_count != deaths or not fresh.failed or fresh.ranks:
                return  # it died again mid-reboot, or was reused meanwhile
            fresh.mark_rebooted()
            self.spare_pool.refill(node)

        runtime.sim.process(reboot(), name="reboot-refill")

    def _drain_queue(self) -> None:
        """Start every queued recovery whose conflicts have cleared (FIFO)."""
        if self.runtime.aborted is not None:
            self.queue = []
            return
        remaining: List[_Pending] = []
        for pending in self.queue:
            self._plan(pending)
            if not pending.victims:
                continue  # a shrink meanwhile retired every victim
            if self._blocked(pending, remaining):
                remaining.append(pending)
            else:
                self._start(pending)
        self.queue = remaining

    # -- introspection ---------------------------------------------------------
    def drained(self) -> Event:
        """Event firing once no recovery is active or queued.

        Already-drained managers return an immediately-succeeded event, so
        ``yield manager.drained()`` serialises failure handling exactly like
        the PR 3 injector did.
        """
        ev = Event(self.runtime.sim, name="recoveries-drained")
        if not self.active and not self.queue:
            ev.succeed(None)
        else:
            self._drain_waiters.append(ev)
        return ev

    def stats(self) -> Dict[str, int]:
        """Counters describing how failures were scheduled (for payloads)."""
        out = {
            "failures_handled": self.failures_handled,
            "aborted_recoveries": self.aborted_recoveries,
            "serialized_conflicts": self.serialized_conflicts,
            "max_concurrent_recoveries": self.max_concurrent_recoveries,
            "shrink_restarts": self.shrink_restarts,
        }
        pool = self.spare_pool
        out["spare_migrations"] = len(pool.placements) if pool is not None else 0
        out["spare_exhausted_requests"] = (
            pool.exhausted_requests if pool is not None else 0)
        out["spare_same_switch"] = (
            sum(1 for p in pool.placements if p.same_switch)
            if pool is not None else 0)
        out["spare_refills"] = pool.refilled if pool is not None else 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RecoveryManager active={len(self.active)} "
                f"queued={len(self.queue)} handled={self.failures_handled}>")


class _OnDone:
    """Completion callback of one recovery process (picklable-free closure)."""

    __slots__ = ("manager", "active")

    def __init__(self, manager: RecoveryManager, active: _Active) -> None:
        self.manager = manager
        self.active = active

    def __call__(self, _ev: Event) -> None:
        self.manager._on_done(self.active)
