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

One pipeline, three drivers.  :func:`restart_stages` is the per-rank stage
sequence (steps 1–4); every restart runs it:

* :func:`simulate_restart` — the *post-hoc* whole-application restart of
  Figures 6b/7/8: a fresh simulator, every rank restarts from its latest
  checkpoint, replay volumes from the :func:`replay_volumes` model;
* :class:`LiveRecovery` rolling a group back — the *in-flight* recovery when
  a failure injector kills a rank mid-run: only the victim's group rolls back
  (to the newest checkpoint every member completed), peers replay their
  logged messages over the live network while out-of-group ranks keep
  executing, and the scripts re-execute from their resume points (the
  measured counterpart of the analytic ``expected_lost_work`` model);
* :class:`LiveRecovery` shrinking the job — elastic restart when spares run
  out: :func:`plan_repartition` moves the dead ranks' work units onto the
  survivors, which restore their own and the adopted images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Generator, List, Optional, Sequence,
                    Set, Tuple, TYPE_CHECKING)

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


def _inter_group_channels(snapshots: Dict[int, CheckpointSnapshot]):
    """``(q, snapshot_q, p, SS_q[p], RR_p or None)`` per inter-group channel."""
    for q, snap_q in snapshots.items():
        for p, sent_at_ckpt in snap_q.ss.items():
            if p != q and p not in snap_q.group_members:
                snap_p = snapshots.get(p)
                yield q, snap_q, p, sent_at_ckpt, snap_p.rr if snap_p is not None else None


def replay_volumes(result: ApplicationResult) -> List[ReplayChannel]:
    """Compute, per directed inter-group channel, the volume to replay.

    For sender ``q`` and receiver ``p`` in different groups the replayed bytes
    are the part of ``q``'s log that ``p`` had not yet received at its own
    checkpoint and that ``q`` had already sent (hence logged) by *its*
    checkpoint: ``max(0, SS_q[p] − RR_p[q])``, realised from the retained log
    entries when the sender's log is available.
    """
    channels: List[ReplayChannel] = []
    for q, snap_q, p, sent_at_ckpt, rr_p in _inter_group_channels(result.snapshots()):
        received_at_ckpt = rr_p.get(q, 0) if rr_p is not None else 0
        volume = max(0, sent_at_ckpt - received_at_ckpt)
        if volume <= 0:
            continue
        log = getattr(result.contexts[q].protocol, "log", None)
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
    out: Dict[Tuple[int, int], int] = {}
    for q, _snap_q, p, sent_at_ckpt, rr_p in _inter_group_channels(result.snapshots()):
        skip = max(0, rr_p.get(q, 0) - sent_at_ckpt) if rr_p is not None else 0
        if skip > 0:
            out[(q, p)] = skip
    return out


class _ReplayWait:
    """Per-rank countdown of owed replay channels; ``done[rank]`` fires at 0."""

    def __init__(self, sim: Simulator, owed: Dict[int, int]) -> None:
        self.sim = sim
        self.remaining = dict(owed)
        self.done = {rank: Event(sim, name="replayed") for rank in owed}
        for rank, count in owed.items():
            if count == 0:
                self.done[rank].succeed(0)

    def arrived(self, dst: int) -> None:
        """One replay channel into ``dst`` finished."""
        if dst in self.remaining:
            self.remaining[dst] -= 1
            if self.remaining[dst] == 0:
                self.done[dst].succeed(self.sim.now)


def restart_stages(
    sim: Simulator,
    network: Any,
    blcr: BlcrModel,
    config: ProtocolConfig,
    restore: Callable[[], Generator[Event, None, bool]],
    peers: Callable[[], int],
    replay: Callable[[], Generator[Event, None, None]],
) -> Generator[Event, None, List[Tuple[str, float, float]]]:
    """One rank's restart, steps 1–4: the only place stages are written.

    ``restore`` reads the image(s) and returns whether anything was restored
    (a from-scratch restart skips BLCR's restore exec); ``peers()`` counts
    the out-of-group peers, one R/S round trip each; ``replay`` resends this
    rank's logged messages and waits for every replay owed to it.  Returns
    ``(stage, start, end)`` marks in stage order.
    """
    marks: List[Tuple[str, float, float]] = []
    # 1. re-create the process and restore its image
    t0 = sim.now
    if (yield from restore()):
        yield sim.timeout(blcr.restore_exec_s)
    marks.append(("image", t0, sim.now))
    # 2. rebuild MPI internal structures
    t0 = sim.now
    yield sim.timeout(config.restart_rebuild_s)
    marks.append(("rebuild", t0, sim.now))
    # 3. exchange R/S volumes with out-of-group peers (one round trip each)
    t0 = sim.now
    n_peers = peers()
    if n_peers:
        rtt = 2 * (network.spec.latency_s + network.spec.per_message_overhead_s)
        yield sim.timeout(n_peers * rtt)
    marks.append(("exchange", t0, sim.now))
    # 4. replay logged messages to out-of-group peers, await the ones owed
    t0 = sim.now
    yield from replay()
    marks.append(("replay", t0, sim.now))
    return marks


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
    the original system would.  Every rank runs :func:`restart_stages` with
    the image read from its placement's storage and the replay volumes of
    :func:`replay_volumes`; the group barrier is computed afterwards.
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
    wait = _ReplayWait(sim, {r: len(incoming.get(r, [])) for r in range(n_ranks)})
    stage_times: Dict[int, Dict[str, float]] = {}
    skip_by_sender: Dict[int, int] = {}
    for (q, _p), nbytes in skip_volumes(result).items():
        skip_by_sender[q] = skip_by_sender.get(q, 0) + nbytes

    def rank_restart(rank: int):
        node = placement[rank]
        snap = snapshots.get(rank)
        ctx = result.contexts[rank]

        def restore():
            image_bytes = snap.image_bytes if snap is not None else blcr.image_bytes(ctx.memory_bytes)
            yield from storage.read(node, image_bytes)
            return True

        def peers() -> int:
            if snap is None:
                return 0
            return len({p for p in (set(snap.ss) | set(snap.rr))
                        if p != rank and p not in snap.group_members})

        def replay():
            for ch in outgoing.get(rank, []):
                # the flushed log is read back from checkpoint storage, then resent
                yield from storage.read(node, ch.nbytes)
                yield from network.transfer(node, placement[ch.dst], ch.nbytes)
                wait.arrived(ch.dst)
            # ... and wait for every replay destined to this rank
            yield wait.done[rank]

        marks = yield from restart_stages(sim, network, blcr, config,
                                          restore, peers, replay)
        stage_times[rank] = {name: t1 - t0 for name, t0, t1 in marks}
        prepared_time[rank] = sim.now

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
        sent = outgoing.get(rank, [])
        out.records.append(
            RestartRecord(
                rank=rank,
                start=0.0,
                end=end,
                image_bytes=image_bytes,
                replay_bytes_sent=sum(ch.nbytes for ch in sent),
                replay_bytes_received=sum(ch.nbytes for ch in incoming.get(rank, [])),
                resend_operations=sum(ch.n_messages for ch in sent),
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
    #: None until the failure is detected / the ranks resume (an attempt
    #: superseded before then never sets them)
    detected_at: Optional[float] = None
    completed_at: Optional[float] = None
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


def retired_ranks(runtime: "MpiRuntime") -> FrozenSet[int]:
    """Ranks that own no work unit (of the attached workload, if any).

    An elastic shrink retires the ranks it leaves without a unit: they keep
    their ids, count as finished, and no failure kills, no rollback scope
    contains and no later shrink relaunches them.
    """
    wl = runtime.workload
    if wl is None:
        return frozenset()
    part = wl.partition
    return frozenset(r for r in range(runtime.n_ranks) if not part.units_of(r))


def group_of(runtime: "MpiRuntime", rank: int) -> Tuple[int, ...]:
    """``rank``'s checkpoint group without its retired ranks, ascending.

    Group membership is the protocol's static definition (finished ranks
    included — a finished group member whose peer rolls back must re-execute
    its tail so re-generated intra-group traffic lines up).  VCL and any
    other global protocol coordinate every rank together.
    """
    members = getattr(runtime.ctx(rank).protocol, "group_members", None)
    retired = retired_ranks(runtime)
    return tuple(sorted(r for r in members or range(runtime.n_ranks)
                        if r not in retired))


def rollback_scope(runtime: "MpiRuntime", victims: Sequence[int],
                   shrink: bool = False) -> Set[int]:
    """Ranks that must roll back when ``victims`` die: their whole groups,
    or every rank not yet retired when the job shrinks."""
    if shrink:
        return set(range(runtime.n_ranks)) - retired_ranks(runtime)
    out: Set[int] = set(victims)
    for victim in victims:
        out.update(group_of(runtime, victim))
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


def snapshot_at(runtime: "MpiRuntime", rank: int,
                ckpt_id: Optional[int]) -> Optional[CheckpointSnapshot]:
    """``rank``'s retained snapshot of checkpoint ``ckpt_id`` (None if absent)."""
    proto = runtime.ctx(rank).protocol
    if proto is None or ckpt_id is None:
        return None
    return next((s for s in proto.snapshot_history() if s.ckpt_id == ckpt_id),
                None)


# --------------------------------------------------------------------- elastic restart
def plan_repartition(
    runtime: "MpiRuntime",
    workload: "Workload",
    failed_ranks: Sequence[int],
) -> RepartitionPlan:
    """Decide how the survivors absorb the failed ranks' work units.

    Permanently dead ranks are ``failed_ranks``, every rank currently placed
    on a failed node and every retired rank (a retired rank never adopts
    new units).  The orphaned units go to the least compute-loaded survivors;
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
    dead = set(failed_ranks) | retired_ranks(runtime)
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

    def feasible(cid: int) -> bool:
        for rank in owners:
            if rank in dead:
                if hierarchy.catalog.get((rank, cid)) is None:
                    return False
                readers = {dst for _u, src, dst in adoptions if src == rank}
            else:
                readers = {rank}
            if any(hierarchy.restore_plan(rank, cid, runtime.ctx(r).node_id) is None
                   for r in readers):
                return False
        return True

    # the newest feasible line, else restart from scratch
    line = next((cid for cid in candidates if feasible(cid)), None)
    progress: List[int] = []
    if line is not None:
        for u in range(part.n_units):
            old_owner = part.owner[u]
            if old_owner in dead:
                record = hierarchy.catalog.get((old_owner, line))
                state = record.domain_state if record is not None else None
            else:
                snap = snapshot_at(runtime, old_owner, line)
                state = (snap.resume.domain_state
                         if snap is not None and snap.resume is not None
                         else None)
            progress.append(state.get(u, 0) if state else 0)
    return RepartitionPlan(
        failed_ranks=tuple(sorted(dead)),
        new_partition=new_part,
        resume_step=min(progress) if progress else 0,
        target_ckpt_id=line,
        adoptions=adoptions,
    )


# --------------------------------------------------------------------- recovery driver
@dataclass
class _Plan:
    """What one recovery attempt restores, decided once the failure is detected."""

    #: ranks that roll back, ascending
    rollback: List[int]
    #: rank → the checkpoint its restored state comes from (None = process
    #: start); read before the rollback truncates the snapshot histories
    line: Dict[int, Optional[CheckpointSnapshot]]
    #: ranks that run the restart stages and relaunch (a shrink's survivors)
    restart: Sequence[int]
    #: the shrink's repartition (None = roll the victims' groups back)
    repartition: Optional[RepartitionPlan] = None


class LiveRecovery:
    """In-flight recovery after an injected failure: one driver, two plans.

    Runs *inside* the application's simulation while unaffected ranks keep
    executing.  The **rollback** plan rolls the victims' groups back to
    their newest common checkpoint whose images and replay bytes survive,
    restores channel accounting and sender logs from its resume points,
    replays logged inter-group messages over the live (contended) network
    and resumes the scripts at their resume operation indices.  The
    **shrink** plan (``shrink=True``, elastic restart on spare exhaustion)
    moves the dead ranks' units onto the survivors (:func:`plan_repartition`),
    resets every rank not yet retired to process start (exactly-once by
    construction: channel accounting zeroes on both sides), retires every
    rank left without a unit and relaunches repartitioned scripts at the
    recovery line's domain step.  Everything else is shared: verdicts, lost
    work, per-rank stages, barrier, relaunch, the :class:`RecoveryReport`
    appended to ``runtime.recovery_reports`` and its span tree.
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
        shrink: bool = False,
    ) -> None:
        if detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        if barrier_cost_s < 0:
            raise ValueError("barrier_cost_s must be non-negative")
        if reboot_delay_s < 0:
            raise ValueError("reboot_delay_s must be non-negative")
        if shrink and runtime.workload is None:
            raise ValueError("a shrink needs runtime.workload")
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
        self.shrink = shrink
        #: time of the earliest failure this recovery covers.  A merged or
        #: queued recovery starts later than the failure that triggered it;
        #: the *measured* recovery time must span from the original failure
        #: (the group was already dead/recovering in between), not from this
        #: attempt's start.  None = this attempt starts at the failure.
        self.origin_time = origin_time
        #: processes spawned by :meth:`run` (restart + replay coroutines);
        #: an abort interrupts them alongside the orchestration itself
        self._children: List["Event"] = []
        # -- per-attempt measurements (a LiveRecovery runs one attempt) ------
        self._report: Optional[RecoveryReport] = None
        self._migrated_from: Dict[int, int] = {}
        self._rebooted: List[int] = []
        #: adopted image bytes shipped in by a shrink
        self._shipped = 0
        #: replay bookkeeping of a rollback (None/empty for a shrink)
        self._out_by_src: Dict[int, List[Tuple[int, List]]] = {}
        self._wait: Optional[_ReplayWait] = None
        self._measured: List[ReplayChannel] = []
        #: restored rank → (start, end, stage marks) of its restart: the span
        #: tree is emitted from these and the report, so the two agree
        self._restarts: Dict[int, Tuple[float, float, List[Tuple[str, float, float]]]] = {}

    # -- orchestration --------------------------------------------------------
    def run(self) -> Generator[Event, None, Optional[RecoveryReport]]:
        """The recovery coroutine (registered as a process by the manager).

        Returns the completed :class:`RecoveryReport`, or None when the
        recovery was aborted mid-flight by a superseding failure (the
        manager restarts the affected scope from its new rollback target).
        """
        try:
            report = yield from self._run_body()
        except Interrupt:
            # A superseding failure cut this attempt short: stop the
            # restart/replay coroutines it spawned (in-flight replayed
            # messages die by rollback-epoch mismatch once the superseding
            # recovery re-rolls the group, so channel accounting stays
            # exact) and close its trace as an aborted recovery span.
            for child in self._children:
                if child.is_alive:
                    child.interrupt("recovery-superseded")
            self._emit_trace(aborted=True)
            return None
        self._emit_trace()
        return report

    def _run_body(self) -> Generator[Event, None, RecoveryReport]:
        runtime = self.runtime
        sim = runtime.sim
        #: this attempt's start (bounds lost-work horizons: work executed up
        #: to the instant each rank actually halted, never past this attempt)
        t_attempt = sim.now
        #: the original failure instant — recovery time is measured from here,
        #: so superseded attempts and queue waits count as recovery time
        t_fail = self.origin_time if self.origin_time is not None else t_attempt
        report = self._report = RecoveryReport(
            failure_time=t_fail, node=self.node, victims=self.victims,
            rollback_ranks=(), target_ckpt_id=None,
            superseded_attempts=self.superseded_attempts,
            cause=self.cause, shrink=self.shrink,
        )

        # mpirun notices the dead node only after the detection delay; the
        # victim's processes stopped at t_fail, everyone else keeps running.
        if self.detection_delay_s > 0:
            yield sim.timeout(self.detection_delay_s)
        report.detected_at = sim.now

        plan = self._plan_shrink() if self.shrink else self._plan_rollback()
        if plan is None:
            return report  # declared unsurvivable

        # Roll every planned rank back *now*: scripts interrupted, accounting
        # and sender logs restored, inboxes replaced (stale in-flight
        # messages die by epoch mismatch at delivery).  A shrink resets its
        # ranks to process start, so the relaunched repartitioned scripts see
        # exactly-once delivery on a clean communicator.
        lost_work: Dict[int, float] = {}
        resume_index: Dict[int, int] = {}
        for rank in plan.rollback:
            snap = plan.line[rank]
            lost_work[rank] = self._lost_work(rank, snap, t_attempt)
            resume_index[rank] = runtime.rollback_rank(
                rank, None if self.shrink else snap)
        if self.shrink:
            self._repartition(plan)
        alive_plans = [] if self.shrink else self._plan_replays(plan.rollback)

        rollback_set = set(plan.rollback)
        ships = plan.repartition.image_ships() if self.shrink else ()
        prepared = [
            sim.process(self._rank_restart(
                rank, plan.line[rank], [src for src, dst in ships if dst == rank],
                rollback_set), name=f"recover:{rank}")
            for rank in plan.restart]
        self._children.extend(prepared)
        for src, dst, entries in alive_plans:
            self._children.append(
                sim.process(self._alive_replay(src, dst, entries), name="replay"))

        yield sim.all_of(prepared)
        # 5. group members resume together
        if self.barrier_cost_s > 0:
            yield sim.timeout(self.barrier_cost_s)

        resumed_at = sim.now
        wl = runtime.workload
        for rank in plan.restart:
            runtime.relaunch_rank(rank, resume_index[rank],
                                  program=wl.program(rank) if self.shrink else None)
        for rank in plan.rollback:
            line = plan.line[rank]
            report.ranks.append(RankRecovery(
                rank=rank,
                lost_work_s=lost_work[rank],
                resumed_at=resumed_at,
                recovery_time_s=resumed_at - t_fail,
                resume_op_index=resume_index[rank],
                image_bytes=(line.image_bytes if line is not None
                             and rank in self._restarts else 0),
                restart_node=runtime.ctx(rank).node_id,
                migrated_from=self._migrated_from.get(rank),
            ))
        report.completed_at = resumed_at
        report.channels = self._measured
        report.placements = [(rank, old, runtime.ctx(rank).node_id)
                             for rank, old in sorted(self._migrated_from.items())]
        report.same_switch_placements = sum(
            1 for _rank, old, new in report.placements
            if runtime.cluster.network.same_switch(old, new))
        report.inplace_reboots = len(self._rebooted)
        report.repartition_bytes_shipped = self._shipped
        runtime.recovery_reports.append(report)
        del self._children[:]
        return report

    def _unsurvivable(self, reason: str) -> None:
        """Declare the run failed: no surviving copy can restore it."""
        report = self._report
        report.unsurvivable = True
        report.completed_at = self.runtime.sim.now
        self.runtime.recovery_reports.append(report)
        self.runtime.abort_application(reason)

    def _lost_work(self, rank: int, line: Optional[CheckpointSnapshot],
                   t_attempt: float) -> float:
        """Work ``rank`` discards: its recovery line → where its script stopped."""
        ctx = self.runtime.ctx(rank)
        since = line.time if line is not None else ctx.stats.started_at
        horizon = t_attempt
        if ctx.halted_at is not None and ctx.halted_at < horizon:
            # the script stopped before this failure (killed or rolled back
            # by a superseded recovery attempt): no work was done (hence
            # none lost) between the halt and now
            horizon = ctx.halted_at
        if ctx.stats.finished_at is not None and ctx.stats.finished_at < horizon:
            horizon = ctx.stats.finished_at  # it had already finished
        return max(horizon - since, 0.0)

    # -- plans ----------------------------------------------------------------
    def _plan_rollback(self) -> Optional[_Plan]:
        """Roll the victims' groups back to their newest feasible common line.

        Each checkpoint group in the rollback set gets its own recovery line
        (they are usually one and the same group).  With a storage hierarchy
        configured, the line is the newest common checkpoint whose every
        image still has a *surviving* copy on some tier; losing the newest
        one degrades to an older checkpoint, and losing them all makes the
        failure unsurvivable.  Legacy mode keeps the pre-hierarchy rule
        (newest common checkpoint, dead nodes' disks assumed readable)
        bit-for-bit.
        """
        runtime = self.runtime
        report = self._report
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
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for rank in rollback:
            groups.setdefault(group_of(runtime, rank), []).append(rank)
        line: Dict[int, Optional[CheckpointSnapshot]] = {}
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
            snap = snapshot_at(runtime, rank, cid)
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
                    self._unsurvivable(
                        f"no surviving copy of checkpoint images for ranks "
                        f"{sorted(ranks)[:8]} ({self.cause} at "
                        f"t={report.failure_time:.3f})")
                    return None
            if target_id is not None:
                target_ids.append(target_id)
            for rank in ranks:
                line[rank] = snapshot_at(runtime, rank, target_id)
        report.target_ckpt_id = max(target_ids) if target_ids else None
        return _Plan(rollback=rollback, line=line, restart=rollback)

    def _plan_shrink(self) -> Optional[_Plan]:
        """Repartition the dead ranks' units onto the survivors (elastic restart)."""
        runtime = self.runtime
        report = self._report
        try:
            repartition = plan_repartition(runtime, runtime.workload, self.victims)
        except ValueError:
            self._unsurvivable(
                f"elastic restart impossible: every rank is dead "
                f"({self.cause} at t={report.failure_time:.3f})")
            return None
        cid = repartition.target_ckpt_id
        rollback = sorted(rollback_scope(runtime, self.victims, shrink=True))
        report.rollback_ranks = tuple(rollback)
        report.target_ckpt_id = cid
        report.ranks_after = repartition.ranks_after
        report.units_migrated = repartition.units_migrated
        return _Plan(
            rollback=rollback,
            line={rank: snapshot_at(runtime, rank, cid) for rank in rollback},
            restart=repartition.new_partition.active_ranks(),
            repartition=repartition,
        )

    def _repartition(self, plan: _Plan) -> None:
        """Install the shrink's partition; retire every rank it leaves empty.

        A retired rank keeps its id and counts as finished from here on (the
        coordinator skips finished ranks, so no checkpoint request reaches
        it); programs and memory re-derive from the repartitioned domain.
        """
        runtime = self.runtime
        repartition = plan.repartition
        wl = runtime.workload
        wl.set_partition(repartition.new_partition,
                         start_step=repartition.resume_step)
        for ctx in runtime.contexts:
            ctx.memory_bytes = wl.memory_bytes(ctx.rank)
        now = runtime.sim.now
        retired = retired_ranks(runtime)
        for rank in plan.rollback:
            if rank not in retired:
                continue
            ctx = runtime.ctx(rank)
            ctx.in_recovery = False
            ctx.finished = True
            ctx.stats.finished_at = now
            if runtime.sampler is not None:
                runtime.sampler.note_phase(rank, "finished", now)

    def _plan_replays(self, rollback: List[int]) -> List[Tuple[int, int, List]]:
        """Replay plans of a rollback; returns the ones alive senders serve.

        Computed after every rollback so truncated logs and restored R
        counters are in effect.  A channel needs replay when an endpoint
        rolled back: data beyond the receiver's restored R was on
        connections the failure reset (or was logged before the sender's
        own rollback) and will not be re-sent live.
        """
        runtime = self.runtime
        rollback_set = set(rollback)
        alive_plans: List[Tuple[int, int, List]] = []
        owed = {r: 0 for r in rollback}
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
                if not entries:
                    continue
                if src in rollback_set:
                    self._out_by_src.setdefault(src, []).append((dst, entries))
                else:
                    alive_plans.append((src, dst, entries))
                if dst in rollback_set:
                    owed[dst] += 1
        self._wait = _ReplayWait(runtime.sim, owed)
        return alive_plans

    # -- per-rank stages --------------------------------------------------------
    def _rank_restart(self, rank: int, line: Optional[CheckpointSnapshot],
                      donors: Sequence[int], rollback_set: Set[int]):
        """Move onto a spare or reboot in place, then :func:`restart_stages`."""
        runtime = self.runtime
        sim = runtime.sim
        ctx = runtime.ctx(rank)
        entered_at = sim.now
        marks: List[Tuple[str, float, float]] = []
        try:
            new_node = self.placements.get(rank)
            if new_node is not None and new_node != ctx.node_id:
                # relaunch on a spare node: every later step (image fetch,
                # replay, application traffic) uses the spare's NIC
                self._migrated_from[rank] = runtime.migrate_rank(rank, new_node)
            elif ctx.node_id in self.dead_nodes:
                # in-place restart on the crashed node: wait out its reboot
                self._rebooted.append(rank)
                if self.reboot_delay_s > 0:
                    yield sim.timeout(self.reboot_delay_s)
                runtime.cluster.nodes[ctx.node_id].mark_rebooted()
                marks.append(("reboot", entered_at, sim.now))
            marks += yield from restart_stages(
                sim, runtime.cluster.network, self.blcr, self.config,
                restore=lambda: self._restore(rank, line, donors),
                peers=lambda: sum(1 for p in ctx.account.peers()
                                  if p not in rollback_set),
                replay=lambda: self._replay(rank))
        except Interrupt:
            return  # superseded (or the job aborted); the new attempt re-rolls us
        self._restarts[rank] = (entered_at, sim.now, marks)

    def _restore(self, rank: int, line: Optional[CheckpointSnapshot],
                 donors: Sequence[int]):
        """Image stage reads: ``rank``'s own image, then the ones it adopts."""
        if line is None:
            return False  # restart from scratch: nothing to read
        runtime = self.runtime
        hierarchy = runtime.cluster.hierarchy
        node = runtime.ctx(rank).node_id
        nbytes = line.image_bytes
        if nbytes > 0:
            old = self._migrated_from.get(rank)
            if not hierarchy.legacy:
                yield from self._fetch(rank, rank, line.ckpt_id, nbytes)
            elif old is not None and runtime.cluster.spec.checkpoint_storage != "remote":
                # legacy local storage: the image sits on the dead node's
                # (surviving) disk — read it there and ship it to the spare
                yield from hierarchy.read(old, nbytes)
                yield from runtime.cluster.network.transfer(old, node, nbytes)
            else:
                # local disk in place, or checkpoint servers that stream the
                # image straight to wherever the rank is
                yield from hierarchy.read(node, nbytes)
        for donor in donors:
            # plan_repartition only picks a line every dead owner's image is
            # catalogued for; the adopted units' progress ships in from it
            shipped = hierarchy.catalog[(donor, line.ckpt_id)].nbytes
            yield from self._fetch(rank, donor, line.ckpt_id, shipped)
            self._shipped += shipped
        return nbytes > 0 or bool(donors)

    def _fetch(self, rank: int, owner: int, ckpt_id: int, nbytes: int):
        """Read ``owner``'s image to ``rank``'s node from the cheapest tier.

        The tier is re-resolved here, not at planning time: a correlated
        failure may have taken the planned source since, and an in-place
        node has rebooted by now.
        """
        runtime = self.runtime
        hierarchy = runtime.cluster.hierarchy
        node = runtime.ctx(rank).node_id
        plan = hierarchy.restore_plan(owner, ckpt_id, node)
        if plan is None:
            self._unsurvivable(f"image of rank {owner} ckpt {ckpt_id} lost "
                               f"mid-recovery ({self.cause})")
            raise Interrupt("job-aborted")
        if owner == rank:
            self._report.restore_tiers[rank] = plan.level
        yield from hierarchy.perform_restore(plan, node, nbytes)

    def _replay(self, rank: int):
        """Resend ``rank``'s logged messages (the flushed log is read back),
        then wait for everything owed to it (nothing after a shrink)."""
        for dst, entries in self._out_by_src.get(rank, ()):
            yield from self._replay_channel(rank, dst, entries, True)
        if self._wait is not None:
            yield self._wait.done[rank]

    def _alive_replay(self, src: int, dst: int, entries: List):
        # An out-of-group survivor serves replay from its in-memory log in
        # the background while its own script keeps running.
        try:
            yield from self._replay_channel(src, dst, entries, False)
        except Interrupt:
            return  # recovery superseded; accounting is epoch-protected

    def _replay_channel(self, src: int, dst: int, entries: List,
                        from_storage: bool):
        nbytes, count = yield from self.runtime.replay_channel(
            src, dst, entries, from_storage)
        self._measured.append(ReplayChannel(src=src, dst=dst, nbytes=nbytes,
                                            n_messages=count))
        self._wait.arrived(dst)

    # -- telemetry -----------------------------------------------------------------
    def _emit_trace(self, aborted: bool = False) -> None:
        """Retro-emit this recovery's span tree from its report.

        The root ``recovery`` span carries the report's window (failure →
        resumption, or → now for an attempt cut short) and plan; children
        are the detection delay, one ``rank_restart`` per restored rank (its
        reboot and :func:`restart_stages` marks as sub-spans) and the resume
        barrier — derived from the report, so the tree cannot disagree.
        """
        runtime = self.runtime
        report = self._report
        if not runtime.telemetry_tracing or report is None:
            return
        tracer = runtime.telemetry.tracer
        end = report.completed_at if report.completed_at is not None else runtime.sim.now
        root = tracer.add(
            "recovery", start=report.failure_time, end=end,
            track="recovery", category="recovery",
            aborted=aborted or report.unsurvivable,
            node=report.node, cause=report.cause,
            victims=list(report.victims),
            rollback_ranks=list(report.rollback_ranks),
            target_ckpt_id=report.target_ckpt_id,
            unsurvivable=report.unsurvivable,
            shrink=report.shrink,
            ranks_after=report.ranks_after,
            units_migrated=report.units_migrated,
        )
        if report.detected_at is not None:
            tracer.add("detection", start=report.failure_time,
                       end=report.detected_at, track="recovery",
                       category="recovery", parent=root)
        ends = []
        for rr in report.ranks:
            if rr.rank not in self._restarts:
                continue  # retired by a shrink: nothing restored
            start, end, marks = self._restarts[rr.rank]
            ends.append(end)
            rspan = tracer.add(
                "rank_restart", start=start, end=end,
                track="recovery", category="recovery", parent=root,
                rank=rr.rank, restart_node=rr.restart_node,
                migrated_from=rr.migrated_from, image_bytes=rr.image_bytes)
            for name, t0, t1 in marks:
                tracer.add(name, start=t0, end=t1, track="recovery",
                           category="recovery.stage", parent=rspan)
        if ends and report.completed_at is not None:
            tracer.add("barrier", start=max(ends), end=report.completed_at,
                       track="recovery", category="recovery", parent=root)
