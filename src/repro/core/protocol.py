"""Algorithm 1 — the group-based checkpoint/restart protocol.

Per-rank behaviour, following the paper's pseudocode verbatim:

* **At process start** the rank reads the group definition and identifies its
  own group members.
* **On sending to P**: if P is outside the group, the message is logged
  asynchronously by the sender; if it is the first message to P after a
  checkpoint, the recorded ``RR_P`` value is piggybacked so P can garbage
  collect its own log for this channel.  ``S_P`` is updated either way.
* **On receiving from P**: ``R_P`` is updated; a piggybacked value triggers
  garbage collection of the log kept for P.
* **On a group checkpoint request**: message logs are synchronised (flushed),
  ``RR_Q`` is recorded for every out-of-group process Q, the group coordinates
  (bookmark exchange + drain of intra-group in-transit messages + barrier),
  every member writes its image, and members wait for each other before
  resuming.
* **On restart** (orchestrated by :mod:`repro.core.restart`): out-of-group
  pairs exchange ``R``/``S`` volumes and messages are replayed or skipped.

The NORM, GP1 and GP4 configurations of the paper's evaluation are this same
protocol with different :class:`~repro.core.groups.GroupSet`\\ s (one global
group, singletons, and four contiguous blocks respectively).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Set, Tuple, TYPE_CHECKING

from repro.ckpt.base import (
    STAGE_CHECKPOINT,
    STAGE_COORDINATION,
    STAGE_FINALIZE,
    STAGE_LOCK_MPI,
    CheckpointRecord,
    CheckpointRequest,
    CheckpointSnapshot,
    ProtocolConfig,
    ProtocolFamily,
    RankProtocol,
)
from repro.ckpt.blcr import BlcrModel
from repro.ckpt.logstore import SenderLog
from repro.core.groups import GroupSet
from repro.mpi.runtime import CONTROL_TAG_BASE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.messages import Message
    from repro.mpi.runtime import MpiRuntime, RankContext
    from repro.sim.primitives import Event


# Control-message tag layout: one block of tags per checkpoint id.
_TAGS_PER_CKPT = 8
_TAG_BOOKMARK = 1
_TAG_READY = 2
_TAG_GO = 3
_TAG_DONE = 4
_TAG_RESUME = 5


def _ctrl_tag(ckpt_id: int, which: int) -> int:
    return CONTROL_TAG_BASE + ckpt_id * _TAGS_PER_CKPT + which


class GroupRankProtocol(RankProtocol):
    """Per-rank instance of the group-based protocol."""

    name = "group"

    def __init__(
        self,
        family: "GroupProtocolFamily",
        ctx: "RankContext",
        runtime: "MpiRuntime",
    ) -> None:
        super().__init__(family, ctx, runtime)
        self.groups: GroupSet = family.groups
        self.group_members: Tuple[int, ...] = self.groups.members(ctx.rank)
        self.group_id: int = self.groups.group_index_of(ctx.rank)
        self.config: ProtocolConfig = family.config
        self.blcr: BlcrModel = family.blcr
        self.log = SenderLog(ctx.rank)
        #: RR values recorded at the latest *safe* checkpoint (per out-of-group
        #: peer) — the values piggybacked for the peers' log GC.  A checkpoint
        #: only becomes the GC point once the storage hierarchy reports all of
        #: its copies materialised (immediately for single-tier configs).
        self.rr_recorded: Dict[int, int] = {}
        #: checkpoint epoch counter and the epoch at which each peer last got a piggyback
        self._ckpt_epoch = 0
        self._piggyback_epoch: Dict[int, int] = {}
        #: newest checkpoint id adopted as the GC point, and the rollback
        #: generation (a pending adoption from before a rollback is void)
        self._gc_ckpt_id = -1
        self._rollback_gen = 0
        #: counts for reporting
        self.logged_messages = 0
        self.piggybacks_sent = 0
        self.gc_invocations = 0

    # -- membership helpers ---------------------------------------------------
    def in_group(self, rank: int) -> bool:
        """True if ``rank`` is in this process's checkpoint group."""
        return rank in self.group_members

    def out_of_group_peers(self) -> Set[int]:
        """Out-of-group processes this rank has exchanged data with."""
        return {p for p in self.ctx.account.peers() if not self.in_group(p)}

    # -- send / receive hooks ---------------------------------------------------
    def on_send(self, dst: int, nbytes: int, tag: int) -> Tuple[float, Optional[Dict[str, Any]]]:
        """Log inter-group messages and piggyback RR on the first post-checkpoint send."""
        if self.in_group(dst):
            return 0.0, None
        end_offset = self.ctx.account.sent_to(dst) + nbytes
        self.log.append(dst, nbytes, end_offset, self.runtime.now, tag=tag)
        self.logged_messages += 1
        extra = nbytes / self.config.log_copy_bandwidth + self.config.log_entry_overhead_s
        piggyback: Optional[Dict[str, Any]] = None
        if self._piggyback_epoch.get(dst, -1) < self._ckpt_epoch and self._ckpt_epoch > 0:
            piggyback = {"rr": self.rr_recorded.get(dst, 0)}
            self._piggyback_epoch[dst] = self._ckpt_epoch
            self.piggybacks_sent += 1
        return extra, piggyback

    def on_arrival(self, message: "Message") -> None:
        """Garbage-collect the log for the sender using a piggybacked RR value."""
        piggyback = message.piggyback
        if piggyback is not None and "rr" in piggyback:
            self.log.garbage_collect(message.src, int(piggyback["rr"]))
            self.gc_invocations += 1

    # -- checkpoint procedure ----------------------------------------------------
    def _group_barrier(
        self, participants: Tuple[int, ...], ready_tag: int, go_tag: int
    ) -> Generator["Event", Any, None]:
        """A leader-based barrier over ``participants`` using control messages."""
        rank = self.ctx.rank
        others = [p for p in participants if p != rank]
        if not others:
            return
        leader = min(participants)
        if rank == leader:
            yield self.runtime.control_gather(self.ctx, len(others), ready_tag)
            yield self.runtime.control_fanout(self.ctx, others, go_tag)
        else:
            yield self.runtime.control_fanout(self.ctx, (leader,), ready_tag)
            # only the leader sends ``go_tag`` to this rank
            yield self.runtime.control_gather(self.ctx, 1, go_tag)

    def checkpoint(self, request: CheckpointRequest) -> Generator["Event", Any, CheckpointRecord]:
        """Run the group-coordinated checkpoint (Algorithm 1, checkpoint part)."""
        runtime = self.runtime
        ctx = self.ctx
        cfg = self.config
        rng = runtime.rng
        participants = tuple(sorted(request.participants))
        others = [p for p in participants if p != ctx.rank]
        stages: Dict[str, float] = {}
        start = runtime.now

        # ----- Lock MPI: library quiesce (the propagation delay already elapsed
        # before the request became visible to this rank) ------------------------
        t0 = runtime.now
        if cfg.lock_mpi_s > 0:
            yield runtime.sim.timeout(cfg.lock_mpi_s)
        stages[STAGE_LOCK_MPI] = runtime.now - t0

        # ----- Coordination: flush logs, bookmarks, drain, entry barrier --------
        # Logging is asynchronous, so only the unflushed tail (bounded by the
        # in-memory log buffer) needs a synchronous flush here.
        t0 = runtime.now
        flushed = min(self.log.mark_flushed(), cfg.log_flush_buffer_bytes)
        if flushed > 0:
            yield from runtime.storage_write(ctx, flushed)

        # Bookmark exchange: tell every group member how much we sent to them.
        bookmark_tag = _ctrl_tag(request.ckpt_id, _TAG_BOOKMARK)
        if others:
            yield runtime.control_fanout(ctx, others, bookmark_tag,
                                         payload_of=ctx.account.sent_to)

        # Per-channel quiesce work (crtcp bookmark handling, TCP drain) and the
        # occasional stall — the term that makes global coordination expensive.
        quiesce = len(others) * cfg.per_channel_quiesce_s
        if cfg.channel_stall_probability > 0 and others:
            stalls = rng.bernoulli_count(f"ckpt-stall:rank{ctx.rank}",
                                         cfg.channel_stall_probability, len(others))
            for _ in range(stalls):
                quiesce += rng.exponential(f"ckpt-stall-len:rank{ctx.rank}", cfg.channel_stall_s)
        if cfg.unexpected_delay_probability > 0 and rng.bernoulli(
            f"ckpt-delay:rank{ctx.rank}", cfg.unexpected_delay_probability
        ):
            quiesce += rng.exponential(f"ckpt-delay-len:rank{ctx.rank}", cfg.unexpected_delay_s)
        if quiesce > 0:
            yield runtime.sim.timeout(quiesce)

        # Receive every member's bookmark and drain in-transit intra-group data.
        if others:
            yield runtime.control_gather(ctx, len(others), bookmark_tag,
                                         on_message=ctx.wait_for_bookmark)

        # Entry barrier: all members ready to dump.
        yield from self._group_barrier(
            participants,
            _ctrl_tag(request.ckpt_id, _TAG_READY),
            _ctrl_tag(request.ckpt_id, _TAG_GO),
        )
        stages[STAGE_COORDINATION] = runtime.now - t0

        # ----- Checkpoint: record RR/SS and dump the image ------------------------
        t0 = runtime.now
        rr = ctx.account.snapshot_received()
        ss = ctx.account.snapshot_sent()
        resume = runtime.capture_resume(ctx)
        new_rr_recorded = {p: rr.get(p, 0) for p in self.out_of_group_peers()}
        image_bytes = self.blcr.image_bytes(ctx.memory_bytes)
        if self.blcr.dump_fork_s > 0:
            yield runtime.sim.timeout(self.blcr.dump_fork_s)
        tiers = yield from runtime.checkpoint_image_write(ctx, request.ckpt_id, image_bytes)
        if resume is not None:
            resume.protocol_state = {
                "rr_recorded": dict(new_rr_recorded),
                "ckpt_epoch": self._ckpt_epoch + 1,
                "piggyback_epoch": dict(self._piggyback_epoch),
            }
        self._record_snapshot(CheckpointSnapshot(
            rank=ctx.rank,
            ckpt_id=request.ckpt_id,
            time=runtime.now,
            group_id=self.group_id,
            group_members=self.group_members,
            ss=ss,
            rr=rr,
            logged_bytes=self.log.bytes_by_destination(),
            logged_messages=self.log.messages_by_destination(),
            image_bytes=image_bytes,
            resume=resume,
            tiers=tiers,
        ))
        # This checkpoint becomes the peers' log-GC point only once every
        # scheduled copy of its image exists (immediately when nothing is
        # async): until the partner replica has drained, a failure still
        # rolls back to the *previous* checkpoint, whose replay bytes the
        # peers must therefore keep.
        runtime.cluster.hierarchy.on_image_safe(
            ctx.rank, request.ckpt_id,
            _GcAdoption(self, request.ckpt_id, new_rr_recorded,
                        self._rollback_gen))
        stages[STAGE_CHECKPOINT] = runtime.now - t0

        # ----- Finalize: exit barrier and resume --------------------------------
        t0 = runtime.now
        yield from self._group_barrier(
            participants,
            _ctrl_tag(request.ckpt_id, _TAG_DONE),
            _ctrl_tag(request.ckpt_id, _TAG_RESUME),
        )
        if cfg.finalize_s > 0:
            yield runtime.sim.timeout(cfg.finalize_s)
        stages[STAGE_FINALIZE] = runtime.now - t0

        return CheckpointRecord(
            rank=ctx.rank,
            ckpt_id=request.ckpt_id,
            group_id=request.group_id,
            start=start,
            end=runtime.now,
            stages=stages,
            image_bytes=image_bytes,
            log_bytes_flushed=flushed,
            group_size=len(participants),
        )

    # -- GC-point adoption --------------------------------------------------------
    def _adopt_gc_point(self, ckpt_id: int, rr_recorded: Dict[int, int],
                        rollback_gen: int) -> None:
        """Make checkpoint ``ckpt_id`` the log-GC point (its image is safe).

        Ignored when a rollback happened since the adoption was registered
        (the checkpoint belongs to a discarded timeline) or when a newer
        checkpoint already adopted.
        """
        if rollback_gen != self._rollback_gen or ckpt_id <= self._gc_ckpt_id:
            return
        self._gc_ckpt_id = ckpt_id
        self.rr_recorded = rr_recorded
        self._ckpt_epoch += 1

    # -- restart support ----------------------------------------------------------
    def rollback_to(self, snapshot: Optional[CheckpointSnapshot]) -> None:
        """Restore protocol state to ``snapshot`` (None = back to process start)."""
        self._rollback_gen += 1
        if snapshot is None:
            self.log.clear()
            self.rr_recorded = {}
            self._ckpt_epoch = 0
            self._piggyback_epoch = {}
            self._gc_ckpt_id = -1
            self._restore_snapshot(None)
            return
        resume = snapshot.resume
        if resume is None:
            raise ValueError(
                f"snapshot {snapshot.ckpt_id} of rank {snapshot.rank} carries no "
                "resume point; was the failure injector attached before the run?"
            )
        self.log.rollback_to(resume.ss)
        state = resume.protocol_state
        self.rr_recorded = dict(state.get("rr_recorded", {}))
        self._ckpt_epoch = state.get("ckpt_epoch", 0)
        self._piggyback_epoch = dict(state.get("piggyback_epoch", {}))
        self._gc_ckpt_id = snapshot.ckpt_id
        self._restore_snapshot(snapshot)

    @property
    def logged_bytes_total(self) -> int:
        """Bytes currently retained in this rank's sender-side log."""
        return self.log.retained_bytes


class _GcAdoption:
    """Deferred adoption of a checkpoint as the log-GC point (one slotted obj)."""

    __slots__ = ("protocol", "ckpt_id", "rr_recorded", "rollback_gen")

    def __init__(self, protocol: GroupRankProtocol, ckpt_id: int,
                 rr_recorded: Dict[int, int], rollback_gen: int) -> None:
        self.protocol = protocol
        self.ckpt_id = ckpt_id
        self.rr_recorded = rr_recorded
        self.rollback_gen = rollback_gen

    def __call__(self) -> None:
        self.protocol._adopt_gc_point(self.ckpt_id, self.rr_recorded,
                                      self.rollback_gen)


class GroupProtocolFamily(ProtocolFamily):
    """Factory for :class:`GroupRankProtocol` instances sharing one group set.

    The paper's four evaluated configurations are presets over this class:

    >>> GroupProtocolFamily(GroupSet.single(32), name="NORM")        # doctest: +SKIP
    >>> GroupProtocolFamily(GroupSet.singletons(32), name="GP1")     # doctest: +SKIP
    >>> GroupProtocolFamily(GroupSet.contiguous(32, 4), name="GP4")  # doctest: +SKIP
    >>> GroupProtocolFamily(form_groups(trace).groupset, name="GP")  # doctest: +SKIP
    """

    def __init__(
        self,
        groups: GroupSet,
        config: Optional[ProtocolConfig] = None,
        blcr: Optional[BlcrModel] = None,
        name: str = "GP",
    ) -> None:
        super().__init__(config)
        self.groups = groups
        self.blcr = blcr if blcr is not None else BlcrModel()
        self.name = name

    def create(self, ctx: "RankContext", runtime: "MpiRuntime") -> GroupRankProtocol:
        """Instantiate the per-rank protocol object."""
        return GroupRankProtocol(self, ctx, runtime)

    def participants_for(self, rank: int, running_ranks: Tuple[int, ...]) -> Tuple[int, ...]:
        """Group members of ``rank`` that are still running (always includes ``rank``)."""
        running = set(running_ranks) | {rank}
        return tuple(sorted(p for p in self.groups.members(rank) if p in running))

    def group_id_of(self, rank: int) -> int:
        """Index of the group containing ``rank``."""
        return self.groups.group_index_of(rank)

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return f"{self.name}: {self.groups.describe()}"
