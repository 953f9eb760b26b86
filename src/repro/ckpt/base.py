"""Common types for every checkpoint/restart protocol.

The paper's Figure 9 decomposes a checkpoint into four stages, which all our
protocols report so the breakdown can be reproduced:

* **Lock MPI** — quiescing the MPI library after the signal is received,
* **Coordination** — flushing message logs, exchanging bookmarks and draining
  in-transit messages, plus the intra-group barrier,
* **Checkpoint** — writing the process image (the BLCR dump),
* **Finalize** — the exit barrier and resuming normal execution.

Restart is reported with an analogous record.  The protocol interfaces follow
the hook points of a checkpointing MPI layer: ``on_send`` (sender-side
logging + piggybacking), ``on_arrival`` (piggyback processing / log GC),
``checkpoint`` (the coordinated procedure), and a ``snapshot`` consumed by the
restart orchestrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.runtime import MpiRuntime, RankContext
    from repro.sim.primitives import Event


STAGE_LOCK_MPI = "lock_mpi"
STAGE_COORDINATION = "coordination"
STAGE_CHECKPOINT = "checkpoint"
STAGE_FINALIZE = "finalize"

#: Stage names in the order the paper plots them (Figure 9).
STAGES: Tuple[str, ...] = (
    STAGE_LOCK_MPI,
    STAGE_COORDINATION,
    STAGE_CHECKPOINT,
    STAGE_FINALIZE,
)


@dataclass(frozen=True)
class CheckpointRequest:
    """A checkpoint request delivered to one rank.

    ``participants`` is the set of ranks that will coordinate this checkpoint
    (the rank's group under the group-based scheme, every rank under NORM,
    just the rank itself under GP1).  The coordinator snapshots this set when
    issuing the request so late-finishing ranks cannot deadlock the barrier.
    """

    ckpt_id: int
    group_id: int
    participants: Tuple[int, ...]
    issued_at: float
    #: extra delay before this rank starts handling, modelling mpirun's
    #: sequential propagation of the request to the group members.
    stagger_s: float = 0.0

    def __post_init__(self) -> None:
        if self.ckpt_id < 0:
            raise ValueError("ckpt_id must be non-negative")
        if not self.participants:
            raise ValueError("participants must not be empty")
        if self.issued_at < 0:
            raise ValueError("issued_at must be non-negative")
        if self.stagger_s < 0:
            raise ValueError("stagger_s must be non-negative")


@dataclass
class CheckpointRecord:
    """Timing record of one checkpoint taken by one rank."""

    rank: int
    ckpt_id: int
    group_id: int
    start: float
    end: float
    stages: Dict[str, float] = field(default_factory=dict)
    image_bytes: int = 0
    log_bytes_flushed: int = 0
    group_size: int = 1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("checkpoint end before start")

    @property
    def duration(self) -> float:
        """Total time from signal receipt to resuming normal execution."""
        return self.end - self.start

    @property
    def coordination_time(self) -> float:
        """Everything except the image dump (the paper's 'coordination cost')."""
        return self.duration - self.stages.get(STAGE_CHECKPOINT, 0.0)

    def stage(self, name: str) -> float:
        """Duration of one named stage (0 if the protocol does not report it)."""
        return self.stages.get(name, 0.0)


@dataclass
class RestartRecord:
    """Timing record of one rank's restart preparation."""

    rank: int
    start: float
    end: float
    image_bytes: int = 0
    replay_bytes_sent: int = 0
    replay_bytes_received: int = 0
    resend_operations: int = 0
    skip_bytes: int = 0
    stages: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("restart end before start")

    @property
    def duration(self) -> float:
        """Time from process re-creation to returning to normal execution."""
        return self.end - self.start


@dataclass
class ResumePoint:
    """Where (and with what channel state) a rolled-back rank re-executes.

    Captured at checkpoint time only when live failure injection is active.
    A checkpoint may be taken *inside* an operation (blocked in a receive, or
    between the steps of a collective schedule), so the channel counters at
    the image dump can include a partially-executed operation's traffic.  A
    rollback restarts the script at the *beginning* of ``op_index``, so:

    * the *send* counters restored on rollback are the checkpoint counters
      minus the in-progress operation's own sends (``pre-op`` values) —
      re-execution re-issues those sends at exactly the original byte
      offsets, which is what lets peers skip duplicates;
    * the *receive* counters stay at their checkpoint (delivery-time) values,
      and ``inbox`` preserves every application message that was delivered
      but not yet consumed — including those the partial operation had
      already consumed, which it will consume again.  This mirrors a real
      system checkpoint, where data drained into the MPI library is part of
      the process image.

    ``protocol_state`` is an opaque bag the owning protocol uses to restore
    its own internals (piggyback epochs, recorded RR values, ...).

    ``domain_state`` maps each workload domain unit owned by the rank to the
    number of simulated steps it had completed at capture time.  Elastic
    restart reads it to pick the consistent step boundary a repartitioned
    job resumes from; empty when the run's workload predates the
    domain/partition API (or no workload is attached to the runtime).
    """

    op_index: int
    ss: Dict[int, int] = field(default_factory=dict)
    rr: Dict[int, int] = field(default_factory=dict)
    ss_msgs: Dict[int, int] = field(default_factory=dict)
    rr_msgs: Dict[int, int] = field(default_factory=dict)
    inbox: List[Any] = field(default_factory=list)
    protocol_state: Dict[str, Any] = field(default_factory=dict)
    domain_state: Dict[int, int] = field(default_factory=dict)


@dataclass
class CheckpointSnapshot:
    """Per-rank protocol state captured at checkpoint time.

    The restart orchestrator computes replay/skip volumes from these, using
    the semantics of Algorithm 1:

    * ``ss`` — bytes sent to each peer as of this checkpoint (``S_X``),
    * ``rr`` — bytes received from each peer as of this checkpoint (``RR_X``),
    * ``logged_bytes`` — bytes currently retained in the sender-side log per
      destination (after garbage collection),
    * ``logged_messages`` — number of retained log entries per destination.

    ``resume`` carries the re-execution position for live failure recovery
    (None unless a failure injector is attached to the run).

    ``tiers`` records which storage levels the image was scheduled onto at
    dump time ("L1" local disk, "L2" partner replica, "L3" remote file
    system).  An L2 entry means the async partner copy was *initiated*; the
    storage hierarchy's catalog is the ground truth for whether it completed
    and still survives.
    """

    rank: int
    ckpt_id: int
    time: float
    group_id: int
    group_members: Tuple[int, ...]
    ss: Dict[int, int] = field(default_factory=dict)
    rr: Dict[int, int] = field(default_factory=dict)
    logged_bytes: Dict[int, int] = field(default_factory=dict)
    logged_messages: Dict[int, int] = field(default_factory=dict)
    image_bytes: int = 0
    resume: Optional[ResumePoint] = None
    tiers: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunable constants shared by the checkpoint/restart protocols.

    The values are calibrated to the behaviour of LAM/MPI 7.1.3b + BLCR 0.4.2
    over Fast Ethernet as reported in the paper; every knob is documented so
    ablations can vary it.

    Parameters
    ----------
    lock_mpi_s:
        Fixed cost of quiescing the MPI library after the checkpoint signal
        (signal delivery, acquiring the library locks).
    finalize_s:
        Fixed cost of releasing locks and resuming execution.
    restart_rebuild_s:
        Fixed per-process cost of re-creating the process and refreshing the
        MPI library's internal structures during restart.
    per_channel_quiesce_s:
        Per-peer-channel cost of the bookmark exchange and TCP-level quiesce
        during coordination.  This models LAM/MPI's crtcp module work per
        connection and is the term that makes *global* coordination grow with
        the number of processes (Figure 1).
    channel_stall_probability / channel_stall_s:
        Probability that quiescing one channel hits a TCP drain stall, and
        the mean stall duration (exponential).  Responsible for the spikes in
        Figures 1, 5 and 6.
    unexpected_delay_probability / unexpected_delay_s:
        Probability that a process experiences an unrelated OS-level delay
        (page-out, daemon activity) while coordinating, and its mean length.
    log_copy_bandwidth:
        Memory bandwidth available for copying outgoing messages into the
        sender-side log (bytes/s).  This is the steady-state overhead message
        logging adds to every inter-group send.
    log_entry_overhead_s:
        Fixed per-message cost of appending a log entry.
    log_flush_buffer_bytes:
        Size of the in-memory log buffer.  Logging is asynchronous, so at a
        checkpoint only the not-yet-persisted tail (at most this many bytes)
        needs a synchronous flush.
    dump_fork_s:
        Cost of the pre-dump quiesce/fork before image bytes start flowing.
    """

    lock_mpi_s: float = 0.08
    finalize_s: float = 0.12
    restart_rebuild_s: float = 0.35
    per_channel_quiesce_s: float = 0.010
    channel_stall_probability: float = 0.025
    channel_stall_s: float = 0.8
    unexpected_delay_probability: float = 0.02
    unexpected_delay_s: float = 2.5
    log_copy_bandwidth: float = 100e6
    log_entry_overhead_s: float = 12e-6
    log_flush_buffer_bytes: int = 4 * 1024 * 1024
    dump_fork_s: float = 0.05

    def __post_init__(self) -> None:
        non_negative = (
            "lock_mpi_s",
            "finalize_s",
            "restart_rebuild_s",
            "per_channel_quiesce_s",
            "channel_stall_s",
            "unexpected_delay_s",
            "log_entry_overhead_s",
            "dump_fork_s",
        )
        for name in non_negative:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("channel_stall_probability", "unexpected_delay_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.log_copy_bandwidth <= 0:
            raise ValueError("log_copy_bandwidth must be positive")
        if self.log_flush_buffer_bytes < 0:
            raise ValueError("log_flush_buffer_bytes must be non-negative")

    def with_overrides(self, **kwargs: Any) -> "ProtocolConfig":
        """A copy of this config with selected fields replaced."""
        return replace(self, **kwargs)


class RankProtocol:
    """Per-rank protocol instance (one per MPI process).

    Subclasses implement the actual protocol; the runtime calls the hooks.
    """

    #: short name used in reports ("group", "vcl", ...)
    name: str = "base"

    def __init__(self, family: "ProtocolFamily", ctx: "RankContext", runtime: "MpiRuntime") -> None:
        self.family = family
        self.ctx = ctx
        self.runtime = runtime
        #: latest checkpoint state, plus the history retained for live
        #: failure recovery (populated via :meth:`_record_snapshot`)
        self._latest_snapshot: Optional[CheckpointSnapshot] = None
        self._snapshots: List[CheckpointSnapshot] = []

    # -- send/receive hooks ------------------------------------------------
    def on_send(self, dst: int, nbytes: int, tag: int) -> Tuple[float, Optional[Dict[str, Any]]]:
        """Called before an application send.

        Returns ``(extra_sender_delay_seconds, piggyback_dict_or_None)``.
        ``None`` means "no metadata": the runtime then leaves the message's
        lazy ``piggyback`` unallocated, so steady-state sends pay no dict.
        """
        return 0.0, None

    def on_arrival(self, message: Any) -> None:
        """Called when an application message arrives at this rank."""

    # -- checkpoint / restart -----------------------------------------------
    def checkpoint(self, request: CheckpointRequest) -> Generator["Event", Any, CheckpointRecord]:
        """Run the checkpoint procedure (a simulation coroutine)."""
        raise NotImplementedError  # pragma: no cover - interface

    def latest_snapshot(self) -> Optional[CheckpointSnapshot]:
        """State captured at the most recent checkpoint (None if never checkpointed)."""
        return self._latest_snapshot

    def snapshot_history(self) -> Tuple[CheckpointSnapshot, ...]:
        """Snapshots retained for live failure recovery, oldest first.

        Protocols only keep more than the latest snapshot while a failure
        injector is attached (the rollback target is the newest checkpoint
        *every* group member completed, which may not be the newest overall).
        """
        if self._snapshots:
            return tuple(self._snapshots)
        return (self._latest_snapshot,) if self._latest_snapshot is not None else ()

    def _record_snapshot(self, snapshot: CheckpointSnapshot) -> None:
        """Install a freshly captured snapshot (history kept under injection).

        A snapshot carries a resume point exactly when a failure injector is
        attached — only then is history worth the memory.
        """
        self._latest_snapshot = snapshot
        if snapshot.resume is not None:
            self._snapshots.append(snapshot)

    def _restore_snapshot(self, snapshot: Optional[CheckpointSnapshot]) -> None:
        """Roll the snapshot bookkeeping back to ``snapshot`` (None = genesis)."""
        self._latest_snapshot = snapshot
        if snapshot is None:
            self._snapshots = []
        else:
            self._snapshots = [s for s in self._snapshots
                               if s.ckpt_id <= snapshot.ckpt_id]

    def rollback_to(self, snapshot: Optional[CheckpointSnapshot]) -> None:
        """Restore protocol state to ``snapshot`` (None = restart from scratch).

        Called by the live recovery orchestrator after a failure.  Protocols
        that support measured failure injection override this to truncate
        their sender logs and restore piggyback/GC bookkeeping.
        """
        raise NotImplementedError(
            f"protocol {type(self).__name__} does not support live rollback"
        )

    @property
    def logged_bytes_total(self) -> int:
        """Total bytes currently held in this rank's sender-side log."""
        return 0


class ProtocolFamily:
    """Factory and shared configuration for a protocol across all ranks."""

    #: short name used in reports ("NORM", "GP", "GP1", "GP4", "VCL")
    name: str = "base"

    def __init__(self, config: Optional[ProtocolConfig] = None) -> None:
        self.config = config if config is not None else ProtocolConfig()

    def create(self, ctx: "RankContext", runtime: "MpiRuntime") -> RankProtocol:
        """Instantiate the per-rank protocol object."""
        raise NotImplementedError  # pragma: no cover - interface

    def participants_for(self, rank: int, running_ranks: Tuple[int, ...]) -> Tuple[int, ...]:
        """Ranks that coordinate a checkpoint together with ``rank``.

        ``running_ranks`` lets the coordinator exclude ranks that have already
        finished their program.
        """
        raise NotImplementedError  # pragma: no cover - interface

    def group_id_of(self, rank: int) -> int:
        """Identifier of the group ``rank`` belongs to (0 for ungrouped protocols)."""
        return 0

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return self.name
