"""Workload interface: decomposable work + an explicit partition.

A workload describes a rank-count-independent *domain* of work units (see
:mod:`repro.workloads.domain`) — one unit per natural decomposition element,
with its native operation script and resident memory — plus a
:class:`~repro.workloads.domain.Partition` mapping units onto the ranks of
the communicator actually running.  ``program(rank)`` and
``memory_bytes(rank)`` are *derived views* of that pair:

* under the identity partition (the default) rank ``r``'s program **is** unit
  ``r``'s native script, byte-for-byte — existing runs, goldens and
  experiment keys are unaffected by the refactor;
* under any other partition a rank's program is the step-wise merge of its
  units' native scripts with peer references remapped through the partition
  (see :meth:`Workload._merge_units`), which is what elastic shrink/expand
  restart runs on.  Each rank's merged script is derived once per partition
  and each distinct native op remapped once, so the ranks' cached scripts
  share their (frozen) op objects.

Workloads are deterministic: the same parameters always produce the same
scripts, so experiment repeats differ only through the runtime's seeded noise
streams.

Subclasses implement :meth:`native_program` / :meth:`native_memory_bytes`
(the per-unit views).  Legacy subclasses that override :meth:`program` /
:meth:`memory_bytes` directly keep working — they simply never support
non-identity partitions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.mpi.collectives import COLLECTIVES
from repro.mpi.ops import Compute, Isend, Marker, Op, Recv, Send, SendRecv
from repro.workloads.domain import Domain, Partition, WorkUnit

_POINT_TO_POINT = (Send, Isend, SendRecv, Recv)


def _remap(op: Op, owner: Tuple[int, ...]) -> Tuple[Optional[Op], Optional[Op]]:
    """The (send, receive) a point-to-point op becomes, peers mapped to owner ranks."""
    if isinstance(op, (Send, Isend)):
        return replace(op, dst=owner[op.dst]), None
    if isinstance(op, SendRecv):
        # src=None is a send-only exchange (as _run_rank runs it), not an
        # ANY_SOURCE receive
        recv = Recv(src=owner[op.src], tag=op.tag) if op.src is not None else None
        return Isend(dst=owner[op.dst], nbytes=op.send_nbytes, tag=op.tag), recv
    return None, replace(op, src=owner[op.src] if op.src is not None else None)


class _StepStream:
    """Pulls one Marker-delimited step at a time from a native script."""

    __slots__ = ("_it", "_pending", "_done")

    def __init__(self, ops: Iterable[Op]) -> None:
        self._it = iter(ops)
        self._pending: Optional[Op] = None
        self._done = False

    def next_step(self) -> Optional[List[Op]]:
        """The next step's ops (leading Marker included), None when exhausted."""
        if self._done and self._pending is None:
            return None
        step: List[Op] = []
        if self._pending is not None:
            step.append(self._pending)
            self._pending = None
        for op in self._it:
            if isinstance(op, Marker) and step:
                self._pending = op
                return step
            step.append(op)
        self._done = True
        return step if step else None


class Workload:
    """Base class of all workload generators."""

    #: short name used in reports ("hpl", "cg", "sp", ...)
    name: str = "workload"

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        #: number of domain units — fixed at construction, partition-invariant
        self.n_units = n_ranks
        #: communicator size of the current partition (== n_units by default)
        self.n_ranks = n_ranks
        self._partition: Optional[Partition] = None
        self._start_step = 0
        self._domain: Optional[Domain] = None
        #: rank → operation count of the derived script (satellite: programs
        #: are derived views now, so the count is materialised at most once)
        self._total_ops: Dict[int, int] = {}
        #: rank → (step-boundary op indices, script length) of the derived
        #: script, for mapping an op cursor to completed steps
        self._step_layout: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        #: rank → merged script under a non-identity partition
        self._merged: Dict[int, List[Op]] = {}
        #: native op → what it becomes under the partition: the (send,
        #: receive) pair of a point-to-point op, the re-scoped collective
        self._remapped: Dict[Op, Union[Op, Tuple[Optional[Op], Optional[Op]]]] = {}

    # -- per-unit interface (implemented by subclasses) -------------------------
    def native_program(self, unit: int) -> Iterator[Op]:
        """The native operation script of domain unit ``unit``."""
        raise NotImplementedError  # pragma: no cover - interface

    def native_memory_bytes(self, unit: int) -> int:
        """Resident set of domain unit ``unit`` (bytes)."""
        raise NotImplementedError  # pragma: no cover - interface

    # -- derived views ----------------------------------------------------------
    def program(self, rank: int) -> Iterator[Op]:
        """The operation script executed by ``rank`` under the partition."""
        part = self._partition
        if part is None or (part.is_identity and self._start_step == 0):
            return self.native_program(rank)
        self._check_rank(rank)
        script = self._merged.get(rank)
        if script is None:
            script = self._merged[rank] = list(self._merge_units(part.units_of(rank), part))
        return iter(script)

    def memory_bytes(self, rank: int) -> int:
        """Resident set of the application on ``rank`` (bytes)."""
        part = self._partition
        if part is None:
            return self.native_memory_bytes(rank)
        self._check_rank(rank)
        return sum(self.native_memory_bytes(u) for u in part.units_of(rank))

    def describe(self) -> str:
        """One-line description for reports."""
        return self.name

    # -- partition management ---------------------------------------------------
    @property
    def partition(self) -> Partition:
        """The current unit → rank assignment (identity unless set)."""
        if self._partition is None:
            self._partition = Partition.identity(self.n_units)
        return self._partition

    @property
    def start_step(self) -> int:
        """First simulated step the derived programs execute (elastic resume)."""
        return self._start_step

    def set_partition(self, partition: Partition, start_step: int = 0) -> None:
        """Install a new unit → rank assignment (and optional resume step).

        Changes every derived view: ``program``/``memory_bytes`` re-derive
        from the new layout, ``n_ranks`` becomes the partition's communicator
        size, and all materialised caches are dropped.  ``start_step`` makes
        every unit skip its first ``start_step`` steps — the elastic-restart
        resume point (progress up to there lives in the restored images).
        """
        if partition.n_units != self.n_units:
            raise ValueError(
                f"partition covers {partition.n_units} units, "
                f"workload has {self.n_units}")
        if start_step < 0:
            raise ValueError("start_step must be non-negative")
        self._partition = partition
        self._start_step = start_step
        self.n_ranks = partition.n_ranks
        self._total_ops.clear()
        self._step_layout.clear()
        self._merged.clear()
        self._remapped.clear()

    def domain(self) -> Domain:
        """The rank-count-independent work description (scanned once).

        Unit totals are derived from the native scripts, so any partition of
        the same domain conserves them by construction.
        """
        if self._domain is None:
            units = []
            for uid in range(self.n_units):
                compute = 0.0
                msg_bytes = 0
                steps = 0
                for op in self.native_program(uid):
                    if isinstance(op, Compute):
                        compute += op.seconds
                    elif isinstance(op, (Send, Isend)):
                        msg_bytes += op.nbytes
                    elif isinstance(op, SendRecv):
                        msg_bytes += op.send_nbytes
                    elif isinstance(op, Marker):
                        steps += 1
                units.append(WorkUnit(
                    uid=uid,
                    compute_seconds=compute,
                    memory_bytes=self.native_memory_bytes(uid),
                    message_bytes=msg_bytes,
                    steps=steps,
                ))
            self._domain = Domain(tuple(units))
        return self._domain

    def domain_progress(self, rank: int, op_index: int) -> Dict[int, int]:
        """Completed steps per unit owned by ``rank`` at op cursor ``op_index``.

        This is the ``domain_state`` payload checkpoint images carry: the
        merged derived program keeps a rank's units step-aligned, so every
        owned unit shares the rank's completed-step count.  Steps already
        skipped via ``start_step`` count as completed (their effects live in
        the restored image the resume came from).
        """
        boundaries, length = self._layout(rank)
        completed = bisect_right(boundaries, min(op_index, length))
        return {u: self._start_step + completed
                for u in self.partition.units_of(rank)}

    def _layout(self, rank: int) -> Tuple[Tuple[int, ...], int]:
        """Step-end op indices and total length of ``rank``'s derived script."""
        cached = self._step_layout.get(rank)
        if cached is not None:
            return cached
        marker_at: List[int] = []
        length = 0
        for i, op in enumerate(self.program(rank)):
            if isinstance(op, Marker):
                marker_at.append(i)
            length = i + 1
        # step k spans [marker_k, marker_{k+1}); the last step ends at the
        # script end.  A script without markers is one single step.
        if marker_at:
            boundaries = tuple(marker_at[1:]) + (length,)
        else:
            boundaries = (length,) if length else ()
        self._total_ops.setdefault(rank, length)
        self._step_layout[rank] = (boundaries, length)
        return boundaries, length

    # -- step-merged derived programs -------------------------------------------
    def _merge_units(
        self, units: Tuple[int, ...], part: Partition
    ) -> Iterator[Op]:
        """Merge the units' native scripts into one deadlock-free rank script.

        Step-by-step (Marker-delimited), each merged step emits one marker,
        then every unit's compute, then every send, then every receive — all
        peer references remapped through the partition.  Phasing all sends
        before all receives keeps arbitrary unit co-location deadlock-free
        (a blocking ``Send`` never waits on its receiver in this runtime);
        exchanges between co-located units become self-sends, so message
        totals are conserved exactly.  Collectives shared by every unit
        (e.g. CG's allreduce) are deduplicated to one per rank per step over
        the partition's active ranks.
        """
        owner = part.owner
        active = part.active_ranks()
        remapped = self._remapped
        streams = [_StepStream(self.native_program(u)) for u in units]
        skip = self._start_step
        while True:
            steps = [s.next_step() for s in streams]
            live = [st for st in steps if st is not None]
            if not live:
                return
            if skip > 0:
                skip -= 1
                continue
            marker = next((op for st in live for op in st
                           if isinstance(op, Marker)), None)
            if marker is not None:
                yield marker
            sends: List[Op] = []
            recvs: List[Op] = []
            collectives: List[Op] = []
            for st in live:
                for op in st:
                    if isinstance(op, Marker):
                        continue
                    if isinstance(op, _POINT_TO_POINT):
                        pair = remapped.get(op)
                        if pair is None:
                            pair = remapped[op] = _remap(op, owner)
                        send, recv = pair
                        if send is not None:
                            sends.append(send)
                        if recv is not None:
                            recvs.append(recv)
                    elif isinstance(op, COLLECTIVES):
                        collectives.append(op)
                    else:
                        # Compute, Wait, and any local op: emitted up front
                        yield op
            yield from sends
            yield from recvs
            seen: List[Op] = []
            for op in collectives:
                if op in seen:
                    continue
                seen.append(op)
                scoped = remapped.get(op)
                if scoped is None:
                    scoped = remapped[op] = replace(op, participants=active)
                yield scoped

    # -- helpers ----------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.n_ranks})")

    def _check_unit(self, unit: int) -> None:
        if not 0 <= unit < self.n_units:
            raise ValueError(f"unit {unit} outside [0, {self.n_units})")

    def program_factory(self) -> Callable[[int], Iterable[Op]]:
        """Factory usable directly by :meth:`repro.mpi.runtime.MpiRuntime.launch`."""
        return self.program

    def memory_map(self) -> List[int]:
        """Memory per rank, indexable by rank (for :meth:`MpiRuntime.set_memory`)."""
        return [self.memory_bytes(rank) for rank in range(self.n_ranks)]

    def total_operations(self, rank: int) -> int:
        """Number of operations in one rank's script (materialised once)."""
        cached = self._total_ops.get(rank)
        if cached is None:
            cached = self._total_ops[rank] = sum(1 for _ in self.program(rank))
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n_ranks={self.n_ranks}>"


def coarsen_steps(natural_steps: int, max_steps: int) -> List[int]:
    """Partition ``natural_steps`` algorithm steps into at most ``max_steps`` chunks.

    Long-running applications (HPL has N/NB panel steps, NPB runs hundreds of
    iterations) are coarsened so that the simulation executes a bounded number
    of *simulated* steps, each representing a contiguous chunk of real steps.
    Message volumes and compute times are summed over the chunk, so end-to-end
    totals are preserved; only the interleaving granularity is reduced.

    Returns a list whose i-th element is the number of real steps represented
    by simulated step i (non-empty, sums to ``natural_steps``).
    """
    if natural_steps < 1:
        raise ValueError("natural_steps must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    n_sim = min(natural_steps, max_steps)
    base = natural_steps // n_sim
    extra = natural_steps % n_sim
    return [base + (1 if i < extra else 0) for i in range(n_sim)]
