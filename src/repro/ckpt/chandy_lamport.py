"""MPICH-VCL — non-blocking coordinated checkpointing (Chandy–Lamport).

MPICH-VCL follows Chandy and Lamport's distributed-snapshot algorithm: on a
checkpoint request every process records its state, sends a *marker* on every
channel, and logs incoming messages on a channel until that channel's marker
arrives.  In principle the application keeps running; in practice the paper's
Section 2.2 shows the protocol *becomes blocking* at scale because

* the process may not send application messages between receiving the request
  and completing its own marker broadcast,
* every process must handle a marker from (and perform channel-memory work
  for) every other process — an O(n) per-process, O(n²) system-wide cost, and
* the checkpoint images go to a small pool of shared checkpoint servers, so
  the image dumps serialise and the frozen processes stall their neighbours,
  which in a communication-non-stop application (NPB CG) cascades globally.

The per-channel cost constant below is a calibration of MPICH-V's
per-connection channel/marker handling (the MPICH-V authors themselves note
the protocols "may add significant message overheads"); it is the knob that
reproduces the growth in Figures 13/14 and the widening gaps of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple, TYPE_CHECKING

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
from repro.mpi.messages import MessageKind
from repro.mpi.runtime import CONTROL_TAG_BASE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.messages import Message
    from repro.mpi.runtime import MpiRuntime, RankContext
    from repro.sim.primitives import Event


_VCL_TAG_STRIDE = 4
_TAG_MARKER = 1


def _marker_tag(ckpt_id: int) -> int:
    return CONTROL_TAG_BASE + 500_000 + ckpt_id * _VCL_TAG_STRIDE + _TAG_MARKER


@dataclass(frozen=True)
class VclConfig:
    """MPICH-VCL-specific calibration constants.

    Parameters
    ----------
    per_channel_marker_s:
        Channel-memory/marker handling work per peer channel during a
        checkpoint (the O(n) per-process term).
    marker_stall_probability / marker_stall_s:
        Probability and mean duration of a TCP-level stall while handling one
        channel (produces the variability seen at scale).
    request_fanout_delay_s:
        Per-rank delay of the dispatcher contacting the processes (the
        request wave is not instantaneous).
    """

    per_channel_marker_s: float = 0.030
    marker_stall_probability: float = 0.02
    marker_stall_s: float = 0.8
    request_fanout_delay_s: float = 0.004

    def __post_init__(self) -> None:
        if self.per_channel_marker_s < 0 or self.marker_stall_s < 0:
            raise ValueError("durations must be non-negative")
        if not 0.0 <= self.marker_stall_probability <= 1.0:
            raise ValueError("marker_stall_probability must be in [0, 1]")
        if self.request_fanout_delay_s < 0:
            raise ValueError("request_fanout_delay_s must be non-negative")


class VclRankProtocol(RankProtocol):
    """Per-rank instance of the MPICH-VCL protocol."""

    name = "vcl"

    def __init__(self, family: "VclProtocolFamily", ctx: "RankContext", runtime: "MpiRuntime") -> None:
        super().__init__(family, ctx, runtime)
        self.config: ProtocolConfig = family.config
        self.vcl: VclConfig = family.vcl_config
        self.blcr: BlcrModel = family.blcr
        #: bytes of application data that arrived while a checkpoint was in
        #: progress (the in-transit messages VCL logs to channel memories)
        self.in_transit_logged_bytes = 0
        self._in_checkpoint_window = False

    # -- hooks -----------------------------------------------------------------
    def on_send(self, dst: int, nbytes: int, tag: int) -> Tuple[float, Optional[Dict[str, Any]]]:
        """VCL adds no steady-state sender overhead (no sender-based logging)."""
        return 0.0, None

    def on_arrival(self, message: "Message") -> None:
        """Count application data arriving during the checkpoint window (channel logging)."""
        if self._in_checkpoint_window and message.is_app:
            self.in_transit_logged_bytes += message.nbytes

    # -- checkpoint ----------------------------------------------------------------
    def checkpoint(self, request: CheckpointRequest) -> Generator["Event", Any, CheckpointRecord]:
        """Take one Chandy–Lamport style checkpoint."""
        runtime = self.runtime
        ctx = self.ctx
        rng = runtime.rng
        participants = tuple(sorted(request.participants))
        others = [p for p in participants if p != ctx.rank]
        stages: Dict[str, float] = {}
        start = runtime.now
        self._in_checkpoint_window = True

        # ----- local quiesce (the dispatcher wave delay elapsed before visibility) --
        t0 = runtime.now
        if self.config.lock_mpi_s > 0:
            yield runtime.sim.timeout(self.config.lock_mpi_s)
        stages[STAGE_LOCK_MPI] = runtime.now - t0

        # ----- marker broadcast + marker collection + channel work ----------------
        t0 = runtime.now
        tag = _marker_tag(request.ckpt_id)
        if others:
            yield runtime.control_fanout(ctx, others, tag, kind=MessageKind.MARKER)
        channel_work = 0.0
        for _ in others:
            channel_work += self.vcl.per_channel_marker_s
            if self.vcl.marker_stall_probability > 0 and rng.bernoulli(
                f"vcl-stall:rank{ctx.rank}", self.vcl.marker_stall_probability
            ):
                channel_work += rng.exponential(
                    f"vcl-stall-len:rank{ctx.rank}", self.vcl.marker_stall_s
                )
        if channel_work > 0:
            yield runtime.sim.timeout(channel_work)
        if others:
            yield runtime.control_gather(ctx, len(others), tag, kind=MessageKind.MARKER)
        stages[STAGE_COORDINATION] = runtime.now - t0

        # ----- image dump (the process is frozen while dumping) --------------------
        t0 = runtime.now
        image_bytes = self.blcr.image_bytes(ctx.memory_bytes)
        if self.blcr.dump_fork_s > 0:
            yield runtime.sim.timeout(self.blcr.dump_fork_s)
        tiers = yield from runtime.checkpoint_image_write(ctx, request.ckpt_id, image_bytes)
        resume = runtime.capture_resume(ctx)
        if resume is not None:
            resume.protocol_state = {"in_transit": self.in_transit_logged_bytes}
        self._record_snapshot(CheckpointSnapshot(
            rank=ctx.rank,
            ckpt_id=request.ckpt_id,
            time=runtime.now,
            group_id=0,
            group_members=participants,
            ss=ctx.account.snapshot_sent(),
            rr=ctx.account.snapshot_received(),
            image_bytes=image_bytes,
            resume=resume,
            tiers=tiers,
        ))
        stages[STAGE_CHECKPOINT] = runtime.now - t0

        # ----- finalize -----------------------------------------------------------
        t0 = runtime.now
        if self.config.finalize_s > 0:
            yield runtime.sim.timeout(self.config.finalize_s)
        stages[STAGE_FINALIZE] = runtime.now - t0
        self._in_checkpoint_window = False

        return CheckpointRecord(
            rank=ctx.rank,
            ckpt_id=request.ckpt_id,
            group_id=request.group_id,
            start=start,
            end=runtime.now,
            stages=stages,
            image_bytes=image_bytes,
            log_bytes_flushed=0,
            group_size=len(participants),
        )

    def rollback_to(self, snapshot: Optional[CheckpointSnapshot]) -> None:
        """Restore protocol state to ``snapshot`` (None = back to process start).

        VCL checkpoints are global, so a failure rolls every rank back; there
        is no sender log to truncate — only the in-transit counter and the
        checkpoint-window flag are restored.
        """
        self._in_checkpoint_window = False
        if snapshot is None:
            self.in_transit_logged_bytes = 0
            self._restore_snapshot(None)
            return
        resume = snapshot.resume
        if resume is None:
            raise ValueError(
                f"snapshot {snapshot.ckpt_id} of rank {snapshot.rank} carries no "
                "resume point; was the failure injector attached before the run?"
            )
        self.in_transit_logged_bytes = resume.protocol_state.get("in_transit", 0)
        self._restore_snapshot(snapshot)


class VclProtocolFamily(ProtocolFamily):
    """Factory for :class:`VclRankProtocol` instances.

    Every checkpoint is global (all running ranks coordinate), as in
    MPICH-VCL, where the protocol is a full Chandy–Lamport wave.
    """

    name = "VCL"

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        vcl_config: Optional[VclConfig] = None,
        blcr: Optional[BlcrModel] = None,
        name: str = "VCL",
    ) -> None:
        super().__init__(config)
        self.vcl_config = vcl_config if vcl_config is not None else VclConfig()
        self.blcr = blcr if blcr is not None else BlcrModel()
        self.name = name

    def create(self, ctx: "RankContext", runtime: "MpiRuntime") -> VclRankProtocol:
        """Instantiate the per-rank protocol object."""
        return VclRankProtocol(self, ctx, runtime)

    def participants_for(self, rank: int, running_ranks: Tuple[int, ...]) -> Tuple[int, ...]:
        """Every running rank coordinates (global snapshot)."""
        return tuple(sorted(set(running_ranks) | {rank}))

    def group_id_of(self, rank: int) -> int:
        """VCL has a single global 'group'."""
        return 0

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return "MPICH-VCL non-blocking coordinated checkpointing (Chandy–Lamport)"
