"""Restart orchestration — Algorithm 1, restart part.

The paper measures restart time per process "from the recreation of the
process to its return to normal execution".  Under the group-based scheme a
restarting process must:

1. load its checkpoint image (BLCR restore),
2. rebuild the MPI library's internal structures,
3. for every out-of-group process, exchange the recorded ``R``/``S`` volumes
   to decide what to *replay* (messages the peer logged that this process had
   not yet received at its checkpoint) and what to *skip* (messages this
   process had already delivered to the peer before the peer's checkpoint),
4. replay the required logged messages over the network, and
5. wait until all group members finish preparing the restart.

Because checkpoints within a group are coordinated, intra-group channels never
need replay; under NORM nothing needs replay at all; under GP1 every channel
may need replay — which is exactly the ordering of Figures 6b, 7 and 8.

Two orchestrators share that stage structure:

* :func:`simulate_restart` — the *post-hoc* whole-application restart used by
  the paper's Figures 6b/7/8 (a fresh simulator, every rank restarts from its
  latest checkpoint), and
* :class:`LiveRecovery` — the *in-flight* recovery run inside the original
  simulation when a failure injector kills a rank mid-run: only the victim's
  group rolls back (to the newest checkpoint every member completed), peers
  replay their logged messages over the live network while out-of-group ranks
  keep executing, and the rolled-back scripts re-execute from their resume
  points.  This is the measured counterpart of the analytic
  ``expected_lost_work`` model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.ckpt.base import CheckpointSnapshot, ProtocolConfig, RestartRecord
from repro.ckpt.blcr import BlcrModel
from repro.cluster.topology import Cluster, ClusterSpec
from repro.mpi.runtime import ApplicationResult
from repro.sim.engine import Interrupt, Simulator
from repro.sim.primitives import Event
from repro.workloads.domain import RepartitionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.runtime import MpiRuntime
    from repro.workloads.base import Workload


@dataclass(frozen=True)
class ReplayChannel:
    """One inter-group channel that needs log replay during restart."""

    src: int
    dst: int
    nbytes: int
    n_messages: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError("ranks must be non-negative")
        if self.nbytes < 0 or self.n_messages < 0:
            raise ValueError("volumes must be non-negative")


@dataclass
class RestartResult:
    """Outcome of a simulated whole-application restart."""

    records: List[RestartRecord] = field(default_factory=list)
    channels: List[ReplayChannel] = field(default_factory=list)

    @property
    def aggregate_restart_time(self) -> float:
        """Sum of per-process restart times (Figure 6b / 11b / 12b metric)."""
        return sum(rec.duration for rec in self.records)

    @property
    def total_replay_bytes(self) -> int:
        """Total data volume resent during the restart (Figure 7 metric)."""
        return sum(ch.nbytes for ch in self.channels)

    @property
    def total_resend_operations(self) -> int:
        """Total number of resend operations performed (Figure 8 metric)."""
        return sum(ch.n_messages for ch in self.channels)


def replay_volumes(result: ApplicationResult) -> List[ReplayChannel]:
    """Compute, per directed inter-group channel, the volume to replay.

    For sender ``q`` and receiver ``p`` in different groups the replayed bytes
    are the part of ``q``'s log that ``p`` had not yet received at its own
    checkpoint and that ``q`` had already sent (hence logged) by *its*
    checkpoint: ``max(0, SS_q[p] − RR_p[q])``, realised from the retained log
    entries when the sender's log is available.
    """
    snapshots = result.snapshots()
    channels: List[ReplayChannel] = []
    for q, snap_q in snapshots.items():
        ctx_q = result.contexts[q]
        log = getattr(ctx_q.protocol, "log", None)
        for p, sent_at_ckpt in snap_q.ss.items():
            if p == q or p in snap_q.group_members:
                continue
            snap_p = snapshots.get(p)
            received_at_ckpt = snap_p.rr.get(q, 0) if snap_p is not None else 0
            volume = max(0, sent_at_ckpt - received_at_ckpt)
            if volume <= 0:
                continue
            if log is not None:
                entries = [
                    e
                    for e in log.entries_for(p)
                    if received_at_ckpt < e.end_offset <= sent_at_ckpt
                ]
                nbytes = sum(e.nbytes for e in entries)
                n_messages = len(entries)
                # The log may retain *more* than strictly required if garbage
                # collection lagged; the replay only covers the required range.
                if nbytes < volume:
                    nbytes = volume
                    n_messages = max(n_messages, 1)
            else:
                avg = snap_q.logged_bytes.get(p, 0) / max(1, snap_q.logged_messages.get(p, 0))
                n_messages = max(1, math.ceil(volume / max(avg, 1.0)))
                nbytes = volume
            channels.append(ReplayChannel(src=q, dst=p, nbytes=nbytes, n_messages=n_messages))
    return channels


def skip_volumes(result: ApplicationResult) -> Dict[Tuple[int, int], int]:
    """Bytes that restarting senders must *skip* resending on each channel.

    ``p`` had received ``RR_p[q]`` bytes from ``q`` before ``p``'s checkpoint;
    if ``q`` rolls back to a point where it had sent only ``SS_q[p]`` of them,
    the re-executed sends up to ``RR_p[q]`` would be duplicates and are
    suppressed.  The skip volume is ``max(0, RR_p[q] − SS_q[p])`` — non-zero
    when the receiver checkpointed *after* the sender.
    """
    snapshots = result.snapshots()
    out: Dict[Tuple[int, int], int] = {}
    for q, snap_q in snapshots.items():
        for p, sent_at_ckpt in snap_q.ss.items():
            if p == q or p in snap_q.group_members:
                continue
            snap_p = snapshots.get(p)
            if snap_p is None:
                continue
            received_at_ckpt = snap_p.rr.get(q, 0)
            skip = max(0, received_at_ckpt - sent_at_ckpt)
            if skip > 0:
                out[(q, p)] = skip
    return out


def simulate_restart(
    result: ApplicationResult,
    cluster_spec: ClusterSpec,
    blcr: Optional[BlcrModel] = None,
    config: Optional[ProtocolConfig] = None,
    barrier_cost_s: float = 0.02,
) -> RestartResult:
    """Simulate restarting the whole application from its latest checkpoints.

    A fresh simulator and cluster (same spec as the original run) are used, so
    restart I/O and replay traffic see the same storage and network contention
    the original system would.
    """
    if barrier_cost_s < 0:
        raise ValueError("barrier_cost_s must be non-negative")
    blcr = blcr if blcr is not None else BlcrModel()
    config = config if config is not None else ProtocolConfig()
    n_ranks = result.n_ranks
    snapshots = result.snapshots()
    if not snapshots:
        raise ValueError("no checkpoints were taken; nothing to restart from")

    sim = Simulator()
    cluster = Cluster(sim, cluster_spec)
    placement = cluster.place_ranks(n_ranks)
    network = cluster.network
    # All restart I/O goes through the storage hierarchy's tier API; for
    # single-tier specs it delegates verbatim to the configured storage.
    storage = cluster.hierarchy

    channels = replay_volumes(result)
    incoming: Dict[int, List[ReplayChannel]] = {}
    outgoing: Dict[int, List[ReplayChannel]] = {}
    for ch in channels:
        incoming.setdefault(ch.dst, []).append(ch)
        outgoing.setdefault(ch.src, []).append(ch)

    prepared_time: Dict[int, float] = {}
    prepared_event: Dict[int, Event] = {r: Event(sim, name=f"prepared:{r}") for r in range(n_ranks)}
    incoming_remaining: Dict[int, int] = {r: len(incoming.get(r, [])) for r in range(n_ranks)}
    incoming_done: Dict[int, Event] = {r: Event(sim, name=f"replayed:{r}") for r in range(n_ranks)}
    for r in range(n_ranks):
        if incoming_remaining[r] == 0:
            incoming_done[r].succeed(0)
    stage_times: Dict[int, Dict[str, float]] = {r: {} for r in range(n_ranks)}
    replay_received: Dict[int, int] = {r: 0 for r in range(n_ranks)}
    replay_sent: Dict[int, int] = {r: 0 for r in range(n_ranks)}
    resend_ops: Dict[int, int] = {r: 0 for r in range(n_ranks)}
    skip_by_sender: Dict[int, int] = {}
    for (q, _p), nbytes in skip_volumes(result).items():
        skip_by_sender[q] = skip_by_sender.get(q, 0) + nbytes

    def rank_restart(rank: int):
        node = placement[rank]
        snap = snapshots.get(rank)
        ctx = result.contexts[rank]
        image_bytes = snap.image_bytes if snap is not None else blcr.image_bytes(ctx.memory_bytes)

        # 1. restore the process image
        t0 = sim.now
        yield from storage.read(node, image_bytes)
        yield sim.timeout(blcr.restore_exec_s)
        stage_times[rank]["image"] = sim.now - t0

        # 2. rebuild MPI internal structures
        t0 = sim.now
        yield sim.timeout(config.restart_rebuild_s)
        stage_times[rank]["rebuild"] = sim.now - t0

        # 3. exchange R/S volumes with out-of-group peers (one round trip each)
        t0 = sim.now
        out_peers: set[int] = set()
        if snap is not None:
            out_peers = {
                p
                for p in (set(snap.ss) | set(snap.rr))
                if p != rank and p not in snap.group_members
            }
        rtt = 2 * (network.spec.latency_s + network.spec.per_message_overhead_s)
        if out_peers:
            yield sim.timeout(len(out_peers) * rtt)
        stage_times[rank]["exchange"] = sim.now - t0

        # 4. replay logged messages this rank owes to out-of-group peers
        t0 = sim.now
        for ch in outgoing.get(rank, []):
            # the flushed log is read back from checkpoint storage, then resent
            yield from storage.read(node, ch.nbytes)
            yield from network.transfer(node, placement[ch.dst], ch.nbytes)
            replay_sent[rank] += ch.nbytes
            resend_ops[rank] += ch.n_messages
            replay_received[ch.dst] += ch.nbytes
            incoming_remaining[ch.dst] -= 1
            if incoming_remaining[ch.dst] == 0 and not incoming_done[ch.dst].triggered:
                incoming_done[ch.dst].succeed(sim.now)
        # ... and wait for every replay destined to this rank
        yield incoming_done[rank]
        stage_times[rank]["replay"] = sim.now - t0

        prepared_time[rank] = sim.now
        prepared_event[rank].succeed(sim.now)

    for rank in range(n_ranks):
        sim.process(rank_restart(rank), name=f"restart:{rank}")
    sim.run()

    if len(prepared_time) != n_ranks:
        missing = sorted(set(range(n_ranks)) - set(prepared_time))
        raise RuntimeError(f"restart deadlocked; ranks never prepared: {missing[:8]}")

    # 5. wait until all group members finish preparing (computed post-hoc)
    out = RestartResult(channels=channels)
    for rank in range(n_ranks):
        snap = snapshots.get(rank)
        members = snap.group_members if snap is not None else (rank,)
        group_ready = max(prepared_time.get(m, prepared_time[rank]) for m in members)
        end = group_ready + barrier_cost_s
        stage_times[rank]["barrier"] = end - prepared_time[rank]
        image_bytes = snap.image_bytes if snap is not None else 0
        out.records.append(
            RestartRecord(
                rank=rank,
                start=0.0,
                end=end,
                image_bytes=image_bytes,
                replay_bytes_sent=replay_sent[rank],
                replay_bytes_received=replay_received[rank],
                resend_operations=resend_ops[rank],
                skip_bytes=skip_by_sender.get(rank, 0),
                stages=stage_times[rank],
            )
        )
    return out


# --------------------------------------------------------------------- live recovery
@dataclass
class RankRecovery:
    """Measured outcome of one rank's in-flight rollback and restart."""

    rank: int
    #: work discarded by the rollback: time from the restored checkpoint's
    #: completion (or process start) to the instant the script last executed
    lost_work_s: float
    #: simulation time at which the re-created script resumed execution
    resumed_at: float
    #: failure instant → resumption (detection, restore, replay, barrier)
    recovery_time_s: float
    resume_op_index: int
    image_bytes: int
    #: node the rank resumed on (== its original node unless migrated)
    restart_node: int = -1
    #: node the rank ran on before a spare-pool migration (None = in place)
    migrated_from: Optional[int] = None


@dataclass
class RecoveryReport:
    """Everything measured about one injected failure's recovery."""

    failure_time: float
    node: int
    victims: Tuple[int, ...]
    rollback_ranks: Tuple[int, ...]
    #: checkpoint id the group rolled back to (None = restart from scratch)
    target_ckpt_id: Optional[int]
    detected_at: float = 0.0
    completed_at: float = 0.0
    ranks: List[RankRecovery] = field(default_factory=list)
    #: channels actually replayed, with measured bytes/messages
    channels: List[ReplayChannel] = field(default_factory=list)
    #: (rank, from_node, to_node) spare-pool migrations performed
    placements: List[Tuple[int, int, int]] = field(default_factory=list)
    #: victim ranks that restarted in place on a rebooted dead node
    inplace_reboots: int = 0
    #: migrations that landed on the victim's own edge switch
    same_switch_placements: int = 0
    #: earlier recovery attempts of this scope aborted by a failure landing
    #: mid-recovery (this report covers the attempt that converged)
    superseded_attempts: int = 0
    #: failure cause ("crash" node death, "switch-outage" correlated event)
    cause: str = "crash"
    #: True when no surviving storage tier held a required image — the run
    #: was declared failed instead of restored
    unsurvivable: bool = False
    #: storage level each rank's image was actually restored from
    #: (rank → "L1"/"L2"/"L3"; empty for from-scratch restarts)
    restore_tiers: Dict[int, str] = field(default_factory=dict)
    #: True when this recovery shrank the job onto the survivors (elastic
    #: restart) instead of restoring the original rank count
    shrink: bool = False
    #: ranks actively computing after this recovery (None = unchanged)
    ranks_after: Optional[int] = None
    #: work units that changed owner under the shrink's repartition
    units_migrated: int = 0
    #: checkpoint-image bytes shipped dead rank → adopter over the network
    repartition_bytes_shipped: int = 0

    @property
    def replayed_bytes(self) -> int:
        """Total bytes resent from sender logs during this recovery."""
        return sum(ch.nbytes for ch in self.channels)

    @property
    def replayed_messages(self) -> int:
        """Total log entries resent during this recovery."""
        return sum(ch.n_messages for ch in self.channels)

    @property
    def total_lost_work_s(self) -> float:
        """Sum of per-rank discarded work (the measured Figure-10 quantity)."""
        return sum(r.lost_work_s for r in self.ranks)

    @property
    def max_recovery_time_s(self) -> float:
        """Slowest rank's failure-to-resumption time."""
        return max((r.recovery_time_s for r in self.ranks), default=0.0)

    @property
    def recovery_rank_seconds(self) -> float:
        """Sum of per-rank failure-to-resumption times (unavailability cost)."""
        return sum(r.recovery_time_s for r in self.ranks)


def rollback_scope(runtime: "MpiRuntime", victims: Sequence[int]) -> Set[int]:
    """Ranks that must roll back when ``victims`` die: their whole groups.

    Group membership is the protocol's static definition (finished ranks
    included — a finished group member whose peer rolls back must re-execute
    its tail so re-generated intra-group traffic lines up).
    """
    out: Set[int] = set()
    for victim in victims:
        proto = runtime.ctx(victim).protocol
        members = getattr(proto, "group_members", None)
        if members is None:
            # VCL (and any global protocol): every rank coordinates together.
            members = range(runtime.n_ranks)
        out.update(members)
        out.add(victim)
    return out


def common_checkpoint_ids(runtime: "MpiRuntime", members: Sequence[int]) -> List[int]:
    """Checkpoint ids *every* member holds a snapshot for, newest first.

    Empty means at least one member never checkpointed — the group can only
    restart from scratch.
    """
    common: Optional[Set[int]] = None
    for rank in members:
        proto = runtime.ctx(rank).protocol
        ids = {snap.ckpt_id for snap in proto.snapshot_history()} if proto else set()
        common = ids if common is None else (common & ids)
        if not common:
            return []
    return sorted(common or (), reverse=True)


class LiveRecovery:
    """In-flight group rollback + replay after an injected failure.

    Runs *inside* the application's simulation (unlike
    :func:`simulate_restart`): the victim's group rolls back to its newest
    common checkpoint, restores channel accounting and sender logs from the
    snapshots' resume points, replays logged inter-group messages over the
    live (contended) network, and re-creates the rank scripts at their resume
    operation indices while out-of-group ranks keep executing.  Produces a
    :class:`RecoveryReport` appended to ``runtime.recovery_reports``.
    """

    def __init__(
        self,
        runtime: "MpiRuntime",
        victims: Sequence[int],
        detection_delay_s: float = 0.25,
        barrier_cost_s: float = 0.02,
        blcr: Optional[BlcrModel] = None,
        config: Optional[ProtocolConfig] = None,
        node: int = -1,
        placements: Optional[Dict[int, int]] = None,
        dead_nodes: Sequence[int] = (),
        reboot_delay_s: float = 0.0,
        superseded_attempts: int = 0,
        origin_time: Optional[float] = None,
        cause: str = "crash",
        spare_pool: Optional[Any] = None,
    ) -> None:
        if detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        if barrier_cost_s < 0:
            raise ValueError("barrier_cost_s must be non-negative")
        if reboot_delay_s < 0:
            raise ValueError("reboot_delay_s must be non-negative")
        self.runtime = runtime
        self.victims = tuple(sorted(victims))
        if not self.victims:
            raise ValueError("victims must not be empty")
        self.detection_delay_s = detection_delay_s
        self.barrier_cost_s = barrier_cost_s
        family = runtime.protocol_family
        self.blcr = blcr if blcr is not None else getattr(family, "blcr", None) or BlcrModel()
        self.config = config if config is not None else getattr(family, "config", None) or ProtocolConfig()
        self.node = node
        #: rank → replacement node decided by the spare pool (empty = in place)
        self.placements: Dict[int, int] = dict(placements or {})
        #: crashed nodes: a rank restarting in place on one must wait out the
        #: node reboot before its image can be restored (tier selection may
        #: add to this set when it cancels a spare placement)
        self.dead_nodes = set(dead_nodes)
        self.reboot_delay_s = reboot_delay_s
        self.superseded_attempts = superseded_attempts
        self.cause = cause
        #: pool to hand a reserved spare back to when tier selection cancels
        #: a placement (the only surviving image copy is on the dead node)
        self.spare_pool = spare_pool
        #: time of the earliest failure this recovery covers.  A merged or
        #: queued recovery starts later than the failure that triggered it;
        #: the *measured* recovery time must span from the original failure
        #: (the group was already dead/recovering in between), not from this
        #: attempt's start.  None = this attempt starts at the failure.
        self.origin_time = origin_time
        #: processes spawned by :meth:`run` (restart + replay coroutines);
        #: an abort interrupts them alongside the orchestration itself
        self._children: List["Event"] = []
        #: telemetry capture (populated only when the runtime traces): the
        #: in-progress report plus per-rank restart windows and stage marks,
        #: so the span tree can be emitted from the *report* itself — the
        #: exported trace matches the RecoveryReport by construction
        self._report: Optional[RecoveryReport] = None
        self._rank_windows: Dict[int, Tuple[float, float]] = {}
        self._stage_marks: Dict[int, List[Tuple[str, float, float]]] = {}
        self._trace_emitted = False

    # -- orchestration --------------------------------------------------------
    def abort(self) -> None:
        """Cancel this in-flight recovery (a newer failure superseded it).

        Interrupts the restart/replay coroutines it spawned; the orchestration
        process itself is interrupted by the caller (the recovery manager).
        In-flight replayed messages die by rollback-epoch mismatch once the
        superseding recovery re-rolls the group, so channel accounting stays
        exact.
        """
        for child in self._children:
            if child.is_alive:
                child.interrupt("recovery-superseded")
        del self._children[:]

    def run(self) -> Generator[Event, None, Optional[RecoveryReport]]:
        """The recovery coroutine (registered as a process by the manager).

        Returns the completed :class:`RecoveryReport`, or None when the
        recovery was aborted mid-flight by a superseding failure (the
        manager restarts the affected scope from its new rollback target).
        """
        try:
            report = yield from self._run_body()
        except Interrupt:
            self.abort()
            # a superseding failure cut this attempt short: close its trace
            # as an aborted recovery span so the timeline shows the attempt
            self._emit_trace(aborted=True)
            return None
        self._emit_trace()
        return report

    def _emit_trace(self, aborted: bool = False) -> None:
        """Retro-emit this recovery's span tree from its report (once).

        The root ``recovery`` span carries the report's measured window
        (failure → resumption) and rollback ranks as attributes; children are
        the detection delay, one ``rank_restart`` span per recovered rank
        (with reboot/image_restore/rebuild/exchange/replay stage sub-spans
        timed live), and the resume barrier.  Because everything is derived
        from the :class:`RecoveryReport` and timestamps captured alongside
        it, the exported tree cannot disagree with the report.
        """
        runtime = self.runtime
        report = self._report
        if not runtime.telemetry_tracing or report is None or self._trace_emitted:
            return
        self._trace_emitted = True
        tracer = runtime.telemetry.tracer
        now = runtime.sim.now
        end = report.completed_at if report.completed_at is not None else now
        root = tracer.add(
            "recovery", start=report.failure_time, end=end,
            track="recovery", category="recovery",
            aborted=aborted or report.unsurvivable,
            node=report.node, cause=report.cause,
            victims=list(report.victims),
            rollback_ranks=list(report.rollback_ranks),
            target_ckpt_id=report.target_ckpt_id,
            unsurvivable=report.unsurvivable,
        )
        if report.detected_at is not None:
            tracer.add("detection", start=report.failure_time,
                       end=report.detected_at, track="recovery",
                       category="recovery", parent=root)
        for rr in report.ranks:
            window = self._rank_windows.get(rr.rank)
            if window is None:
                continue
            rspan = tracer.add(
                "rank_restart", start=window[0], end=window[1],
                track="recovery", category="recovery", parent=root,
                rank=rr.rank, restart_node=rr.restart_node,
                migrated_from=rr.migrated_from, image_bytes=rr.image_bytes)
            for name, t0, t1 in self._stage_marks.get(rr.rank, ()):
                tracer.add(name, start=t0, end=t1, track="recovery",
                           category="recovery.stage", parent=rspan)
        if report.ranks and report.completed_at is not None:
            windows = [self._rank_windows[rr.rank] for rr in report.ranks
                       if rr.rank in self._rank_windows]
            if windows:
                tracer.add("barrier", start=max(w[1] for w in windows),
                           end=report.completed_at, track="recovery",
                           category="recovery", parent=root)

    def _run_body(self) -> Generator[Event, None, RecoveryReport]:
        runtime = self.runtime
        sim = runtime.sim
        #: this attempt's start (bounds lost-work horizons: work executed up
        #: to the instant each rank actually halted, never past this attempt)
        t_attempt = sim.now
        #: the original failure instant — recovery time is measured from here,
        #: so superseded attempts and queue waits count as recovery time
        t_fail = self.origin_time if self.origin_time is not None else t_attempt
        report = RecoveryReport(
            failure_time=t_fail, node=self.node, victims=self.victims,
            rollback_ranks=(), target_ckpt_id=None,
            superseded_attempts=self.superseded_attempts,
            cause=self.cause,
        )
        self._report = report
        tracing = runtime.telemetry_tracing

        # mpirun notices the dead node only after the detection delay; the
        # victim's processes stopped at t_fail, everyone else keeps running.
        if self.detection_delay_s > 0:
            yield sim.timeout(self.detection_delay_s)
        report.detected_at = sim.now

        rollback = sorted(rollback_scope(runtime, self.victims))
        report.rollback_ranks = tuple(rollback)

        # Where each rank will restart, and which dead nodes come back in
        # place — the storage-tier selection needs both.
        hierarchy = runtime.cluster.hierarchy
        final_node: Dict[int, int] = {
            rank: self.placements.get(rank, runtime.ctx(rank).node_id)
            for rank in rollback
        }
        assume_rebooted = set(self.dead_nodes)

        # Partition the rollback set into its checkpoint groups and pick each
        # group's recovery line (they are usually one and the same group).
        # With a storage hierarchy configured, the recovery line is the newest
        # common checkpoint whose every image still has a *surviving* copy on
        # some tier; losing the newest one degrades to an older checkpoint,
        # and losing them all makes the failure unsurvivable.  Legacy mode
        # keeps the pre-hierarchy rule (newest common checkpoint, dead nodes'
        # disks assumed readable) bit-for-bit.
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for rank in rollback:
            proto = runtime.ctx(rank).protocol
            members = tuple(sorted(getattr(proto, "group_members", None)
                                   or range(runtime.n_ranks)))
            groups.setdefault(members, []).append(rank)
        target_by_rank: Dict[int, Optional[CheckpointSnapshot]] = {}
        target_ids: List[int] = []
        scope_set = set(rollback)

        def replay_covered(rank: int, cid: int) -> bool:
            """Do the out-of-scope senders' logs still cover ``cid``'s gap?

            Rolling ``rank`` back to checkpoint ``cid`` re-opens the byte
            range between its recorded R counters and the live frontier;
            bytes from senders outside the rollback scope must come from
            their retained logs (in-scope senders re-execute instead).  The
            deferred GC-point rule makes this hold for every *safe*
            checkpoint, but a copy destroyed after adoption can force an
            older target — this check turns that into an explicit
            unsurvivable verdict instead of a blocked receive.
            """
            proto = runtime.ctx(rank).protocol
            snap = next((s for s in proto.snapshot_history()
                         if s.ckpt_id == cid), None)
            resume = snap.resume if snap is not None else None
            if resume is None:
                return True
            for src_ctx in runtime.contexts:
                q = src_ctx.rank
                if q == rank or q in scope_set:
                    continue
                restored = resume.rr.get(q, 0)
                if src_ctx.account.sent_to(rank) <= restored:
                    continue
                log = getattr(src_ctx.protocol, "log", None)
                if log is None:
                    return False
                entries = log.entries_for(rank)
                if not entries:
                    return False
                first = entries[0]
                if first.end_offset - first.nbytes > restored:
                    return False
            return True

        def feasible(ranks: List[int], cid: int) -> Optional[Set[int]]:
            """Can every rank restore checkpoint ``cid``?

            Returns the set of spare placements that must be *cancelled* for
            it (the only surviving copy sits on the dead node's intact disk,
            so the rank reboots in place instead of migrating), or None when
            some rank has no surviving copy anywhere or some replay byte is
            no longer retained.
            """
            cancels: Set[int] = set()
            for rank in ranks:
                plan = hierarchy.restore_plan(
                    rank, cid, final_node[rank], assume_rebooted)
                if plan is None and rank in self.placements:
                    home = runtime.ctx(rank).node_id
                    plan = hierarchy.restore_plan(
                        rank, cid, home, assume_rebooted | {home})
                    if plan is not None:
                        cancels.add(rank)
                if plan is None or not replay_covered(rank, cid):
                    return None
            return cancels

        for members, ranks in groups.items():
            candidates = common_checkpoint_ids(runtime, members)
            if hierarchy.legacy:
                target_id = candidates[0] if candidates else None
            else:
                target_id = None
                for cid in candidates:
                    cancels = feasible(ranks, cid)
                    if cancels is None:
                        continue
                    target_id = cid
                    for rank in cancels:
                        # The spare cannot reach the image; restart in place
                        # on the (rebooting) dead node and return the spare.
                        spare = self.placements.pop(rank)
                        home = runtime.ctx(rank).node_id
                        self.dead_nodes.add(home)
                        assume_rebooted.add(home)
                        final_node[rank] = home
                        if self.spare_pool is not None:
                            self.spare_pool.release(spare, rank)
                    break
                if target_id is None and candidates:
                    # Checkpoints exist but no retrievable set survives: a
                    # real restart has nothing to restore these ranks from.
                    reason = (f"no surviving copy of checkpoint images for "
                              f"ranks {sorted(ranks)[:8]} "
                              f"({self.cause} at t={t_fail:.3f})")
                    report.unsurvivable = True
                    report.completed_at = sim.now
                    runtime.recovery_reports.append(report)
                    runtime.abort_application(reason)
                    return report
            if target_id is not None:
                target_ids.append(target_id)
            for rank in ranks:
                snap = None
                if target_id is not None:
                    proto = runtime.ctx(rank).protocol
                    snap = next(s for s in proto.snapshot_history()
                                if s.ckpt_id == target_id)
                target_by_rank[rank] = snap
        report.target_ckpt_id = max(target_ids) if target_ids else None

        # Roll every member back *now*: scripts interrupted, accounting and
        # sender logs restored, inboxes replaced (stale in-flight messages
        # die by epoch mismatch at delivery).
        resume_index: Dict[int, int] = {}
        lost_work: Dict[int, float] = {}
        for rank in rollback:
            ctx = runtime.ctx(rank)
            snap = target_by_rank[rank]
            since = snap.time if snap is not None else ctx.stats.started_at
            horizon = t_attempt
            if ctx.halted_at is not None and ctx.halted_at < horizon:
                # the script stopped before this failure (killed or rolled
                # back by a superseded recovery attempt): no work was done
                # (hence none lost) between the halt and now
                horizon = ctx.halted_at
            if ctx.stats.finished_at is not None and ctx.stats.finished_at < horizon:
                horizon = ctx.stats.finished_at  # it had already finished
            lost_work[rank] = max(horizon - since, 0.0)
            resume_index[rank] = runtime.rollback_rank(rank, snap)

        # Replay plans, computed after every rollback so truncated logs and
        # restored R counters are in effect.  A channel needs replay when an
        # endpoint rolled back: data beyond the receiver's restored R was on
        # connections the failure reset (or was logged before the sender's
        # own rollback) and will not be re-sent live.
        rollback_set = set(rollback)
        plans: List[Tuple[int, int, List]] = []
        for ctx in runtime.contexts:
            log = getattr(ctx.protocol, "log", None)
            if log is None:
                continue
            src = ctx.rank
            for dst in log.destinations():
                if src not in rollback_set and dst not in rollback_set:
                    continue
                received = runtime.ctx(dst).account.received_from(src)
                entries = log.replay_plan(dst, received)
                if entries:
                    plans.append((src, dst, entries))

        out_by_src: Dict[int, List[Tuple[int, List]]] = {}
        alive_plans: List[Tuple[int, int, List]] = []
        incoming_remaining: Dict[int, int] = {r: 0 for r in rollback}
        for src, dst, entries in plans:
            if src in rollback_set:
                out_by_src.setdefault(src, []).append((dst, entries))
            else:
                alive_plans.append((src, dst, entries))
            if dst in rollback_set:
                incoming_remaining[dst] += 1
        incoming_done: Dict[int, Event] = {
            r: Event(sim, name="replayed") for r in rollback
        }
        for rank in rollback:
            if incoming_remaining[rank] == 0:
                incoming_done[rank].succeed(0)

        measured: List[ReplayChannel] = []

        def channel_done(src: int, dst: int, nbytes: int, count: int) -> None:
            measured.append(ReplayChannel(src=src, dst=dst, nbytes=nbytes,
                                          n_messages=count))
            if dst in rollback_set:
                incoming_remaining[dst] -= 1
                if incoming_remaining[dst] == 0 and not incoming_done[dst].triggered:
                    incoming_done[dst].succeed(sim.now)

        rtt = 2 * (runtime.cluster.network.spec.latency_s
                   + runtime.cluster.network.spec.per_message_overhead_s)

        remote_storage = runtime.cluster.spec.checkpoint_storage == "remote"
        migrated_from: Dict[int, int] = {}
        rebooted: List[int] = []

        def alive_replay(src: int, dst: int, entries: List):
            # An out-of-group survivor serves replay from its in-memory log
            # in the background while its own script keeps running.
            try:
                nbytes, count = yield from runtime.replay_channel(src, dst, entries, False)
            except Interrupt:
                return  # recovery superseded; accounting is epoch-protected
            channel_done(src, dst, nbytes, count)

        def rank_restart(rank: int):
            # stage marks feed the recovery span tree; None when not tracing
            marks = self._stage_marks.setdefault(rank, []) if tracing else None
            entered_at = sim.now
            try:
                ctx = runtime.ctx(rank)
                snap = target_by_rank[rank]
                new_node = self.placements.get(rank)
                t0 = sim.now
                if new_node is not None and new_node != ctx.node_id:
                    # 0. relaunch on a spare node: every later step (image
                    # fetch, replay, application traffic) uses the spare's NIC
                    migrated_from[rank] = runtime.migrate_rank(rank, new_node)
                elif ctx.node_id in self.dead_nodes:
                    # in-place restart on the crashed node: wait out its reboot
                    rebooted.append(rank)
                    if self.reboot_delay_s > 0:
                        yield sim.timeout(self.reboot_delay_s)
                    runtime.cluster.nodes[ctx.node_id].mark_rebooted()
                    if marks is not None:
                        marks.append(("reboot", t0, sim.now))
                # 1. re-create the process and restore its image
                image_bytes = snap.image_bytes if snap is not None else 0
                t0 = sim.now
                if image_bytes > 0:
                    if hierarchy.legacy:
                        old = migrated_from.get(rank)
                        if old is not None and not remote_storage:
                            # legacy local storage: the image sits on the dead
                            # node's (surviving) disk — read it there and ship
                            # it to the spare over the network
                            yield from hierarchy.read(old, image_bytes)
                            yield from runtime.cluster.network.transfer(
                                old, ctx.node_id, image_bytes)
                        else:
                            # local disk in place, or checkpoint servers that
                            # stream the image straight to wherever the rank is
                            yield from hierarchy.read(ctx.node_id, image_bytes)
                    else:
                        # tier selection: cheapest copy that *still* survives
                        # (re-resolved here — a correlated failure may have
                        # taken the planned source since the target was picked;
                        # an in-place node has rebooted by now)
                        plan = hierarchy.restore_plan(
                            rank, snap.ckpt_id, ctx.node_id)
                        if plan is None:
                            report.unsurvivable = True
                            report.completed_at = sim.now
                            runtime.recovery_reports.append(report)
                            runtime.abort_application(
                                f"image of rank {rank} ckpt {snap.ckpt_id} lost "
                                f"mid-recovery ({self.cause})")
                            return
                        report.restore_tiers[rank] = plan.level
                        yield from hierarchy.perform_restore(
                            plan, ctx.node_id, image_bytes)
                    yield sim.timeout(self.blcr.restore_exec_s)
                if marks is not None:
                    marks.append(("image_restore", t0, sim.now))
                # 2. rebuild MPI internal structures
                t0 = sim.now
                yield sim.timeout(self.config.restart_rebuild_s)
                if marks is not None:
                    marks.append(("rebuild", t0, sim.now))
                # 3. R/S exchange with peers outside the rollback set
                t0 = sim.now
                out_peers = {p for p in ctx.account.peers() if p not in rollback_set}
                if out_peers:
                    yield sim.timeout(len(out_peers) * rtt)
                if marks is not None:
                    marks.append(("exchange", t0, sim.now))
                # 4. replay this rank's own logged messages (flushed log read back)
                t0 = sim.now
                for dst, entries in out_by_src.get(rank, []):
                    nbytes, count = yield from runtime.replay_channel(rank, dst, entries, True)
                    channel_done(rank, dst, nbytes, count)
                # ... and wait for everything owed to this rank
                yield incoming_done[rank]
                if marks is not None:
                    marks.append(("replay", t0, sim.now))
                    self._rank_windows[rank] = (entered_at, sim.now)
            except Interrupt:
                return  # recovery superseded; the new attempt re-rolls us

        prepared = [sim.process(rank_restart(rank), name=f"recover:{rank}")
                    for rank in rollback]
        self._children.extend(prepared)
        for src, dst, entries in alive_plans:
            self._children.append(
                sim.process(alive_replay(src, dst, entries), name="replay"))

        yield sim.all_of(prepared)
        # 5. group members resume together
        if self.barrier_cost_s > 0:
            yield sim.timeout(self.barrier_cost_s)

        resumed_at = sim.now
        network = runtime.cluster.network
        for rank in rollback:
            snap = target_by_rank[rank]
            ctx = runtime.ctx(rank)
            runtime.relaunch_rank(rank, resume_index[rank])
            report.ranks.append(RankRecovery(
                rank=rank,
                lost_work_s=lost_work[rank],
                resumed_at=resumed_at,
                recovery_time_s=resumed_at - t_fail,
                resume_op_index=resume_index[rank],
                image_bytes=snap.image_bytes if snap is not None else 0,
                restart_node=ctx.node_id,
                migrated_from=migrated_from.get(rank),
            ))
        report.completed_at = resumed_at
        report.channels = measured
        report.placements = [(rank, old, runtime.ctx(rank).node_id)
                             for rank, old in sorted(migrated_from.items())]
        report.same_switch_placements = sum(
            1 for _rank, old, new in report.placements
            if network.same_switch(old, new))
        report.inplace_reboots = len(rebooted)
        runtime.recovery_reports.append(report)
        del self._children[:]
        return report


# --------------------------------------------------------------------- elastic restart
def plan_repartition(
    runtime: "MpiRuntime",
    workload: "Workload",
    failed_ranks: Sequence[int],
) -> RepartitionPlan:
    """Decide how the survivors absorb the failed ranks' work units.

    Permanently dead ranks are ``failed_ranks`` plus every rank currently
    placed on a failed node (a previously retired rank must never adopt new
    units).  The orphaned units go to the least compute-loaded survivors;
    the recovery line is the newest checkpoint id held by every unit-owning
    rank whose images are *all* still reachable — the survivors' own copies
    from their own nodes, the dead ranks' copies from their adopters' nodes
    (the image has to ship over the live network; a copy stranded on a dead
    node's local disk does not qualify).  ``resume_step`` is the minimum
    per-unit domain progress recorded with those images; when no retrievable
    line exists the plan restarts from scratch (``target_ckpt_id=None``,
    ``resume_step=0``) — always survivable because the scripts simply
    re-execute everything.

    Raises ``ValueError`` when every rank is dead (nothing can adopt).
    """
    part = workload.partition
    nodes = runtime.cluster.nodes
    dead = set(failed_ranks)
    dead.update(r for r in range(runtime.n_ranks)
                if nodes[runtime.ctx(r).node_id].failed)
    new_part = part.reassign(sorted(dead), workload.domain().weights())
    adoptions = tuple(
        (u, part.owner[u], new_part.owner[u])
        for u in range(part.n_units)
        if part.owner[u] != new_part.owner[u]
    )

    hierarchy = runtime.cluster.hierarchy
    owners = sorted(part.active_ranks())
    candidates = common_checkpoint_ids(runtime, owners) if owners else []

    def snapshot_at(rank: int, cid: int) -> Optional[CheckpointSnapshot]:
        proto = runtime.ctx(rank).protocol
        if proto is None:
            return None
        return next((s for s in proto.snapshot_history() if s.ckpt_id == cid),
                    None)

    def feasible(cid: int) -> bool:
        for rank in owners:
            if rank in dead:
                record = hierarchy.catalog.get((rank, cid))
                if record is None:
                    return False
                adopters = {dst for u, src, dst in adoptions if src == rank}
                for adopter in adopters:
                    reader = runtime.ctx(adopter).node_id
                    if hierarchy.restore_plan(rank, cid, reader) is None:
                        return False
            else:
                reader = runtime.ctx(rank).node_id
                if hierarchy.restore_plan(rank, cid, reader) is None:
                    return False
        return True

    for cid in candidates:
        if not feasible(cid):
            continue
        progress: List[int] = []
        for u in range(part.n_units):
            old_owner = part.owner[u]
            if old_owner in dead:
                record = hierarchy.catalog.get((old_owner, cid))
                state = record.domain_state if record is not None else None
            else:
                snap = snapshot_at(old_owner, cid)
                state = (snap.resume.domain_state
                         if snap is not None and snap.resume is not None
                         else None)
            progress.append(state.get(u, 0) if state else 0)
        return RepartitionPlan(
            failed_ranks=tuple(sorted(dead)),
            new_partition=new_part,
            resume_step=min(progress) if progress else 0,
            target_ckpt_id=cid,
            adoptions=adoptions,
        )
    return RepartitionPlan(
        failed_ranks=tuple(sorted(dead)),
        new_partition=new_part,
        resume_step=0,
        target_ckpt_id=None,
        adoptions=adoptions,
    )


class ElasticRestart:
    """Shrink the job onto the surviving ranks when spares are exhausted.

    The alternative to :class:`LiveRecovery`'s wait-for-reboot path: the
    :class:`~repro.recovery.manager.RecoveryManager` diverts here (elastic
    mode) when a victim cannot be replaced.  The whole application resets to
    a *globally consistent* line: every rank rolls back to process start
    (channel accounting zeroed on both sides — exactly-once delivery is
    preserved by construction), the dead ranks' work units are redistributed
    over the survivors (:func:`plan_repartition`), the dead ranks' newest
    retrievable checkpoint images are shipped to their adopters over the
    live network, and the survivors relaunch with *repartitioned* scripts
    that resume at the recovery line's common domain step.  Dead ranks keep
    their rank ids but own nothing and are marked finished — no rank
    renumbering, no further traffic touches them.
    """

    def __init__(
        self,
        runtime: "MpiRuntime",
        victims: Sequence[int],
        workload: "Workload",
        detection_delay_s: float = 0.25,
        barrier_cost_s: float = 0.02,
        blcr: Optional[BlcrModel] = None,
        config: Optional[ProtocolConfig] = None,
        node: int = -1,
        superseded_attempts: int = 0,
        origin_time: Optional[float] = None,
        cause: str = "crash",
    ) -> None:
        if detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        if barrier_cost_s < 0:
            raise ValueError("barrier_cost_s must be non-negative")
        self.runtime = runtime
        self.victims = tuple(sorted(victims))
        if not self.victims:
            raise ValueError("victims must not be empty")
        self.workload = workload
        self.detection_delay_s = detection_delay_s
        self.barrier_cost_s = barrier_cost_s
        family = runtime.protocol_family
        self.blcr = blcr if blcr is not None else getattr(family, "blcr", None) or BlcrModel()
        self.config = config if config is not None else getattr(family, "config", None) or ProtocolConfig()
        self.node = node
        self.superseded_attempts = superseded_attempts
        self.origin_time = origin_time
        self.cause = cause
        #: manager-API compatibility: an elastic restart never reserves spares
        self.placements: Dict[int, int] = {}
        self._children: List[Event] = []

    def abort(self) -> None:
        """Cancel this in-flight shrink (a newer failure superseded it)."""
        for child in self._children:
            if child.is_alive:
                child.interrupt("recovery-superseded")
        del self._children[:]

    def run(self) -> Generator[Event, None, Optional[RecoveryReport]]:
        """The shrink-restart coroutine (registered as a process by the manager)."""
        try:
            report = yield from self._run_body()
        except Interrupt:
            self.abort()
            return None
        return report

    def _run_body(self) -> Generator[Event, None, RecoveryReport]:
        runtime = self.runtime
        sim = runtime.sim
        wl = self.workload
        t_attempt = sim.now
        t_fail = self.origin_time if self.origin_time is not None else t_attempt
        report = RecoveryReport(
            failure_time=t_fail, node=self.node, victims=self.victims,
            rollback_ranks=(), target_ckpt_id=None,
            superseded_attempts=self.superseded_attempts,
            cause=self.cause, shrink=True,
        )

        if self.detection_delay_s > 0:
            yield sim.timeout(self.detection_delay_s)
        report.detected_at = sim.now

        try:
            plan = plan_repartition(runtime, wl, self.victims)
        except ValueError:
            report.unsurvivable = True
            report.completed_at = sim.now
            runtime.recovery_reports.append(report)
            runtime.abort_application(
                f"elastic restart impossible: every rank is dead "
                f"({self.cause} at t={t_fail:.3f})")
            return report

        hierarchy = runtime.cluster.hierarchy
        all_ranks = range(runtime.n_ranks)
        cid = plan.target_ckpt_id
        report.rollback_ranks = tuple(all_ranks)
        report.target_ckpt_id = cid
        report.ranks_after = plan.ranks_after
        report.units_migrated = plan.units_migrated

        # Lost work is measured against the recovery line each rank's state
        # actually comes from (its snapshot at the target checkpoint), read
        # *before* the global rollback clears the histories.
        line_time: Dict[int, float] = {}
        if cid is not None:
            for rank in all_ranks:
                proto = runtime.ctx(rank).protocol
                snap = (next((s for s in proto.snapshot_history()
                              if s.ckpt_id == cid), None)
                        if proto is not None else None)
                if snap is not None:
                    line_time[rank] = snap.time

        # Global reset: every rank (survivor, victim, already-retired) rolls
        # back to process start.  Channel accounting zeroes on both sides and
        # every in-flight message dies by rollback-epoch mismatch, so the
        # relaunched repartitioned scripts see exactly-once delivery on a
        # clean communicator.
        lost_work: Dict[int, float] = {}
        for rank in all_ranks:
            ctx = runtime.ctx(rank)
            since = line_time.get(rank, ctx.stats.started_at)
            horizon = t_attempt
            if ctx.halted_at is not None and ctx.halted_at < horizon:
                horizon = ctx.halted_at
            if ctx.stats.finished_at is not None and ctx.stats.finished_at < horizon:
                horizon = ctx.stats.finished_at
            lost_work[rank] = max(horizon - since, 0.0)
            runtime.rollback_rank(rank, None)

        # Retire the dead ranks: they keep their ids, own nothing under the
        # new partition, and count as finished from here on (the coordinator
        # skips finished ranks, so no further checkpoint requests reach them).
        for rank in plan.failed_ranks:
            ctx = runtime.ctx(rank)
            ctx.in_recovery = False
            ctx.finished = True
            ctx.stats.finished_at = sim.now
            if runtime.sampler is not None:
                runtime.sampler.note_phase(rank, "finished", sim.now)

        # Install the new layout: derived programs and memory re-derive from
        # the repartitioned domain, resuming at the recovery line's step.
        wl.set_partition(plan.new_partition, start_step=plan.resume_step)
        for rank in all_ranks:
            runtime.ctx(rank).memory_bytes = wl.memory_bytes(rank)

        survivors = plan.new_partition.active_ranks()
        shipped = [0]
        restored_bytes: Dict[int, int] = {}
        ships_to: Dict[int, List[int]] = {}
        for src, dst in plan.image_ships():
            ships_to.setdefault(dst, []).append(src)

        def rank_restart(rank: int):
            try:
                ctx = runtime.ctx(rank)
                if cid is not None:
                    # 1. restore this survivor's own image from its cheapest
                    # surviving tier
                    own = hierarchy.catalog.get((rank, cid))
                    if own is not None:
                        rplan = hierarchy.restore_plan(rank, cid, ctx.node_id)
                        if rplan is not None:
                            report.restore_tiers[rank] = rplan.level
                            yield from hierarchy.perform_restore(
                                rplan, ctx.node_id, own.nbytes)
                            restored_bytes[rank] = own.nbytes
                    # 2. adopt: ship each dead donor's newest image here over
                    # the live network (the adopted units' progress)
                    for src in ships_to.get(rank, ()):
                        record = hierarchy.catalog.get((src, cid))
                        if record is None:
                            continue
                        splan = hierarchy.restore_plan(src, cid, ctx.node_id)
                        if splan is None:
                            report.unsurvivable = True
                            report.completed_at = sim.now
                            runtime.recovery_reports.append(report)
                            runtime.abort_application(
                                f"image of dead rank {src} ckpt {cid} lost "
                                f"mid-shrink ({self.cause})")
                            return
                        yield from hierarchy.perform_restore(
                            splan, ctx.node_id, record.nbytes)
                        shipped[0] += record.nbytes
                    yield sim.timeout(self.blcr.restore_exec_s)
                # 3. rebuild MPI structures for the shrunk communicator
                yield sim.timeout(self.config.restart_rebuild_s)
            except Interrupt:
                return  # superseded; the new attempt re-rolls everything

        procs = [sim.process(rank_restart(rank), name=f"shrink:{rank}")
                 for rank in survivors]
        self._children.extend(procs)
        yield sim.all_of(procs)
        if runtime.aborted is not None:
            return report
        if self.barrier_cost_s > 0:
            yield sim.timeout(self.barrier_cost_s)

        resumed_at = sim.now
        report.repartition_bytes_shipped = shipped[0]
        for rank in survivors:
            runtime.relaunch_rank(rank, 0, program=wl.program(rank))
        for rank in all_ranks:
            report.ranks.append(RankRecovery(
                rank=rank,
                lost_work_s=lost_work[rank],
                resumed_at=resumed_at,
                recovery_time_s=resumed_at - t_fail,
                resume_op_index=0,
                image_bytes=restored_bytes.get(rank, 0),
                restart_node=runtime.ctx(rank).node_id,
            ))
        report.completed_at = resumed_at
        if runtime.telemetry_tracing:
            runtime.telemetry.tracer.add(
                "recovery", start=t_fail, end=resumed_at,
                track="recovery", category="recovery",
                node=report.node, cause=report.cause, shrink=True,
                victims=list(report.victims),
                ranks_after=report.ranks_after,
                units_migrated=report.units_migrated,
                target_ckpt_id=cid)
        runtime.recovery_reports.append(report)
        del self._children[:]
        return report
