"""The mpirun-style checkpoint coordinator.

In the paper, ``mpirun`` receives checkpoint requests from the system or the
user and propagates them to the MPI processes; for the group-based scheme it
reads a *checkpoint target file* naming the group(s) to checkpoint and spawns
one child per group so that request propagation and completion tracking stay
per-group.  After all groups finish, mpirun checkpoints itself (not timed by
the paper, and not timed here either).

:class:`CheckpointCoordinator` reproduces that control flow as a simulation
process: at every scheduled request time it snapshots the still-running ranks,
splits them into groups according to the protocol family, and delivers one
:class:`~repro.ckpt.base.CheckpointRequest` per rank.  Requests carry a small
per-member stagger that models the sequential propagation inside a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.ckpt.base import CheckpointRequest
from repro.ckpt.scheduler import CheckpointSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.base import ProtocolFamily
    from repro.mpi.runtime import MpiRuntime
    from repro.sim.primitives import Event


@dataclass
class IssuedCheckpoint:
    """Book-keeping entry for one issued checkpoint request wave."""

    ckpt_id: int
    requested_at: float
    target_ranks: Tuple[int, ...]
    groups: Tuple[Tuple[int, ...], ...]


@dataclass
class CoordinatorReport:
    """Summary of the coordinator's activity over a run."""

    issued: List[IssuedCheckpoint] = field(default_factory=list)
    skipped_waves: int = 0
    deferred_waves: int = 0
    #: colliding periodic ticks held back and issued once the wave cleared
    #: (``dispatch_policy="queue"`` only)
    queued_waves: int = 0
    #: per-group ticks dropped because that group was mid-recovery — the
    #: rest of the wave proceeded instead of queueing behind the recovery
    skipped_in_recovery: int = 0

    @property
    def checkpoints_requested(self) -> int:
        """Number of checkpoint waves issued."""
        return len(self.issued)


class CheckpointCoordinator:
    """Delivers checkpoint requests to ranks according to a schedule."""

    def __init__(
        self,
        runtime: "MpiRuntime",
        family: "ProtocolFamily",
        schedule: CheckpointSchedule,
        propagation_delay_s: float = 0.012,
        group_spawn_delay_s: float = 0.015,
        target_groups: Optional[Sequence[int]] = None,
        back_pressure: bool = True,
        dispatch_policy: str = "drop",
    ) -> None:
        """
        Parameters
        ----------
        runtime:
            The MPI runtime whose ranks will receive the requests.
        family:
            Protocol family (defines which ranks coordinate together).
        schedule:
            When to issue checkpoint requests.
        propagation_delay_s:
            Per-member propagation delay inside a group (the request reaches
            the *i*-th member of its group ``i * propagation_delay_s`` later).
        group_spawn_delay_s:
            Delay between mpirun spawning the propagation child of successive
            groups.  With many groups (GP1 has one per rank) the request wave
            is noticeably staggered, which is what lets early-notified ranks
            checkpoint while late ones are still sending — the source of the
            replay volumes measured in Figures 7/8.
        target_groups:
            Optional subset of group ids to checkpoint (the "checkpoint target
            file" of the paper); None means every group.
        back_pressure:
            Don't start a new wave while a previous one is still in flight
            (some rank checkpointing or holding an unconsumed request), as a
            real dispatcher would.  Without it, a periodic interval below the
            wave duration piles requests onto the ranks, the application is
            starved of compute time and its makespan diverges — the sweep
            effectively never terminates.  *Periodic* ticks that collide are
            dropped (counted in ``report.skipped_waves``); *explicitly
            scheduled* times (``schedule.times``) are deferred until the wave
            clears and then issued (counted in ``report.deferred_waves``), so
            forced-equal-count schedules — the Figure 13/14 fairness setup —
            never lose a checkpoint.
        dispatch_policy:
            What a *periodic* tick does when it collides with an in-flight
            wave under back-pressure.  ``"drop"`` (default, the behaviour the
            seed suite calibrated QUICK intervals against) discards the tick;
            ``"queue"`` holds it back and issues it as soon as the wave
            clears, so no requested wave is ever lost — the alternative
            dispatcher policy for Figure 10-style checkpoint-frequency
            comparisons.  Queued ticks count in ``report.queued_waves``.
            With an unbounded periodic schedule whose interval is below the
            wave duration, ``"queue"`` back-to-backs waves and starves the
            application exactly like ``back_pressure=False`` would — bound
            the schedule (``max_checkpoints``) when using it.
        """
        if propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be non-negative")
        if group_spawn_delay_s < 0:
            raise ValueError("group_spawn_delay_s must be non-negative")
        if dispatch_policy not in ("drop", "queue"):
            raise ValueError(f"unknown dispatch_policy {dispatch_policy!r}; "
                             "expected 'drop' or 'queue'")
        self.runtime = runtime
        # Ranks only need to watch for checkpoint signals while blocked in a
        # receive when a request source exists; telling the runtime up front
        # lets signal-free runs elide the per-receive wake condition.
        runtime.attach_checkpoint_source()
        self.family = family
        self.schedule = schedule
        self.propagation_delay_s = propagation_delay_s
        self.group_spawn_delay_s = group_spawn_delay_s
        self.target_groups = set(target_groups) if target_groups is not None else None
        self.back_pressure = back_pressure
        self.dispatch_policy = dispatch_policy
        self.report = CoordinatorReport()
        self._next_ckpt_id = 0
        self._process = None

    # -- one wave -----------------------------------------------------------------
    def issue_wave(self) -> Optional[IssuedCheckpoint]:
        """Issue one checkpoint request wave right now.

        Returns the book-keeping entry, or None if no rank is eligible
        (everything finished or filtered out by ``target_groups``).
        """
        running = self.runtime.running_ranks()
        if not running:
            self.report.skipped_waves += 1
            return None

        # Partition the running ranks into coordination groups.  A rank's
        # participants are the running members of its group, so they are
        # computed once per group.
        groups: Dict[Tuple[int, ...], List[int]] = {}
        participants_of: Dict[int, Tuple[int, ...]] = {}
        for rank in running:
            group_id = self.family.group_id_of(rank)
            if self.target_groups is not None and group_id not in self.target_groups:
                continue
            if group_id not in participants_of:
                participants_of[group_id] = self.family.participants_for(rank, running)
            groups.setdefault(participants_of[group_id], []).append(rank)
        # Recovery-aware scheduling: a group that is mid-recovery (some member
        # killed, rolled back or not yet relaunched) skips *its own* tick —
        # mpirun does not ask a group to checkpoint while restoring it — and
        # the rest of the wave proceeds instead of queueing behind it.
        recovering = [
            participants for participants in groups
            if any(self.runtime.ctx(r).in_recovery or self.runtime.ctx(r).failed
                   for r in participants)
        ]
        for participants in recovering:
            del groups[participants]
            self.report.skipped_in_recovery += 1
        if not groups:
            self.report.skipped_waves += 1
            return None

        ckpt_id = self._next_ckpt_id
        self._next_ckpt_id += 1
        now = self.runtime.now
        issued_groups: List[Tuple[int, ...]] = []
        target_ranks: List[int] = []
        max_stagger = 0.0
        ordered_groups = sorted(groups.items(), key=lambda item: item[0])
        for group_idx, (participants, members) in enumerate(ordered_groups):
            issued_groups.append(participants)
            spawn_offset = group_idx * self.group_spawn_delay_s
            for idx, rank in enumerate(sorted(members)):
                stagger = spawn_offset + idx * self.propagation_delay_s
                if stagger > max_stagger:
                    max_stagger = stagger
                request = CheckpointRequest(
                    ckpt_id=ckpt_id,
                    group_id=self.family.group_id_of(rank),
                    participants=participants,
                    issued_at=now,
                    stagger_s=stagger,
                )
                self.runtime.ctx(rank).deliver_request(request)
                target_ranks.append(rank)

        entry = IssuedCheckpoint(
            ckpt_id=ckpt_id,
            requested_at=now,
            target_ranks=tuple(sorted(target_ranks)),
            groups=tuple(issued_groups),
        )
        self.report.issued.append(entry)
        if self.runtime.telemetry_tracing:
            # the request fan-out window: issuance → last staggered delivery
            self.runtime.telemetry.tracer.add(
                "wave_request", start=now, end=now + max_stagger,
                track="coordinator", category="ckpt",
                ckpt_id=ckpt_id, groups=len(issued_groups),
                ranks=len(target_ranks))
        return entry

    def wave_in_flight(self) -> bool:
        """True while any running rank is still busy with an earlier request.

        A group that is merely mid-recovery does *not* hold the wave back:
        :meth:`issue_wave` skips that group's tick (counted in
        ``report.skipped_in_recovery``) and checkpoints everyone else, so a
        long recovery no longer starves the healthy groups of checkpoints.
        """
        for rank in self.runtime.running_ranks():
            ctx = self.runtime.ctx(rank)
            if ctx.in_checkpoint or ctx.has_pending_request():
                return True
        return False

    # -- scheduled operation ---------------------------------------------------------
    _DEFER_POLL_S = 0.05

    def _run(self) -> Generator["Event", None, None]:
        explicit_times = set(self.schedule.times)
        for t in self.schedule.iterate():
            delay = t - self.runtime.now
            if delay > 0:
                yield self.runtime.sim.timeout(delay)
            if not self.runtime.running_ranks():
                break
            if self.back_pressure and self.wave_in_flight():
                if t in explicit_times or self.dispatch_policy == "queue":
                    # Explicit request times must all land (equal-checkpoint-
                    # count comparisons depend on it), and the queue policy
                    # extends the same guarantee to periodic ticks: wait the
                    # wave out, then issue.
                    if t in explicit_times:
                        self.report.deferred_waves += 1
                    else:
                        self.report.queued_waves += 1
                    while self.wave_in_flight():
                        yield self.runtime.sim.timeout(self._DEFER_POLL_S)
                        if not self.runtime.running_ranks():
                            return
                else:
                    self.report.skipped_waves += 1
                    continue
            self.issue_wave()

    def start(self) -> None:
        """Register the coordinator as a simulation process (call before running)."""
        if self._process is not None:
            raise RuntimeError("coordinator already started")
        self._process = self.runtime.sim.process(self._run(), name="mpirun-coordinator")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CheckpointCoordinator family={self.family.name!r} "
            f"issued={self.report.checkpoints_requested}>"
        )
