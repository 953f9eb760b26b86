"""Passive time-series sampling of simulation state.

``StateSampler`` turns a traced run into per-bin time series — per-rank
state occupancy, NIC inflight/utilization, inbox depths, sender-log
retained bytes, storage-tier inflight copies — **without scheduling a
single event**.  Like ``SpanTracer``, it only *reads* state, so a sampled
run is bit-identical to an unsampled one by construction.

How it works
------------
Simulation state only changes inside event callbacks, so between two
successive event pops the whole world is piecewise-constant.  The kernel
(``Simulator.run_until_event``) checks one bound local per event pop:
when the popped timestamp crosses the sampler's next bin edge it calls
:meth:`observe`, which takes **one** snapshot and stamps it onto every
edge crossed since the previous pop — the snapshot is exact for all of
them because nothing ran in between.

Point samples are accurate to one bin width per contiguous state
interval, which is not tight enough for phases that recur many times
(``K`` checkpoint waves would accumulate up to ``K`` bins of error).  The
runtime therefore *notifies* the sampler at its rare phase-transition
sites (checkpoint enter/exit, kill/rollback, relaunch, finish) via
:meth:`note_phase`; checkpoint / recovery / finished occupancy is
integrated exactly from those intervals, and only the compute /
send-blocked / recv-blocked split of the remainder comes from sampling.

Memory stays bounded: when the number of bins exceeds ``max_bins`` the
sampler drops every other edge and doubles the bin width — a
deterministic function of simulated time, so traced-run parity holds.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.primitives import Timeout

__all__ = [
    "StateSampler",
    "RANK_STATES",
    "SAMPLE_BIN_ENV",
    "sampling_bin_from_env",
]

#: rank-state taxonomy, in stacking order (code == index)
RANK_STATES: Tuple[str, ...] = (
    "compute", "send_blocked", "recv_blocked",
    "checkpoint", "recovery", "finished",
)

_COMPUTE, _SEND, _RECV, _CHECKPOINT, _RECOVERY, _FINISHED = range(6)

#: states integrated exactly from runtime phase notifications
PHASE_STATES: Tuple[str, ...] = ("checkpoint", "recovery", "finished")

#: set to a positive float (seconds of simulated time) to enable sampling
#: in env-configured runs, e.g. ``REPRO_TELEMETRY_SAMPLE_BIN=0.25``
SAMPLE_BIN_ENV = "REPRO_TELEMETRY_SAMPLE_BIN"


def sampling_bin_from_env() -> Optional[float]:
    """Bin width from ``REPRO_TELEMETRY_SAMPLE_BIN``, or None if unset."""
    raw = os.environ.get(SAMPLE_BIN_ENV, "").strip()
    if not raw:
        return None
    try:
        bin_s = float(raw)
    except ValueError:
        return None
    return bin_s if bin_s > 0 else None


class StateSampler:
    """Bucket passive observations of a run into fixed simulated-time bins.

    The sampler is attached to a :class:`~repro.obs.telemetry.Telemetry`
    and bound to the runtime by ``MpiRuntime.attach_telemetry``; the
    simulation kernel drives :meth:`observe` from ``run_until_event``.
    """

    def __init__(self, bin_s: float = 0.25, max_bins: int = 4096) -> None:
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        self.bin_s = bin_s
        self.max_bins = max_bins
        #: next simulated-time edge a snapshot is owed for (kernel compares
        #: ``time >= sampler.next_edge`` — one local read per event pop)
        self.next_edge = bin_s
        self.rebin_count = 0

        # -- per-edge parallel series (edge e covers the bin [e-bin_s, e)) --
        self.edges: List[float] = []
        self.rank_states: List[bytes] = []          # one state code per rank
        self.inbox_depths: List["array[int]"] = []  # per rank
        self.log_bytes: List["array[int]"] = []     # per rank, retained bytes
        self.nic_inflight: List["array[int]"] = []  # per node, tx+rx transfers
        self.nic_busy_nodes: List[int] = []
        self.storage_inflight: List[int] = []

        # -- exact phase intervals from runtime notifications --
        self._phase_open: Dict[int, Tuple[str, float]] = {}
        self.phase_intervals: List[Tuple[int, str, float, float]] = []

        self._runtime: Optional[Any] = None
        self.end_time: Optional[float] = None

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind_runtime(self, runtime: Any) -> None:
        """Point the sampler at the runtime whose state it reads."""
        self._runtime = runtime

    @property
    def n_ranks(self) -> int:
        return self._runtime.n_ranks if self._runtime is not None else 0

    @property
    def n_bins(self) -> int:
        return len(self.edges)

    # ------------------------------------------------------------------
    # observation (called from the kernel hot loop, once per crossed edge)
    # ------------------------------------------------------------------
    def observe(self, time: float) -> None:
        """Record the current snapshot for every bin edge crossed.

        Called by ``Simulator.run_until_event`` right after it advances
        ``sim.now`` to a popped event timestamp and *before* running its
        callbacks: all state is unchanged since the previous event, so the
        one snapshot taken here is exact for every edge in
        ``(prev_event_time, time]``.
        """
        runtime = self._runtime
        if runtime is None:
            self.next_edge = ((time // self.bin_s) + 1.0) * self.bin_s
            return
        snap = self._snapshot()
        edge = self.next_edge
        bin_s = self.bin_s
        (states, depths, logged, nic, busy, storage) = snap
        while edge <= time:
            self.edges.append(edge)
            self.rank_states.append(states)
            self.inbox_depths.append(depths)
            self.log_bytes.append(logged)
            self.nic_inflight.append(nic)
            self.nic_busy_nodes.append(busy)
            self.storage_inflight.append(storage)
            edge += bin_s
        self.next_edge = edge
        if len(self.edges) > self.max_bins:
            self._rebin()

    def _snapshot(self) -> Tuple[bytes, "array[int]", "array[int]",
                                 "array[int]", int, int]:
        runtime = self._runtime
        procs = runtime._rank_processes
        codes = bytearray(runtime.n_ranks)
        depths = array("l")
        logged = array("q")
        for ctx in runtime.contexts:
            rank = ctx.rank
            codes[rank] = self._derive_state(ctx, procs[rank] if rank < len(procs) else None)
            depths.append(len(ctx.inbox))
            logged.append(int(getattr(ctx.protocol, "logged_bytes_total", 0) or 0))
        net = runtime.cluster.network
        tx = net._tx_inflight
        rx = net._rx_inflight
        nic = array("l", [tx[i] + rx[i] for i in range(net.n_nodes)])
        busy = sum(1 for v in nic if v)
        hier = getattr(runtime.cluster, "hierarchy", None)
        storage = 0
        if hier is not None:
            storage = max(0, hier.partner_copies_started
                          - hier.partner_copies_completed
                          - hier.partner_copies_lost)
        return bytes(codes), depths, logged, nic, busy, storage

    @staticmethod
    def _derive_state(ctx: Any, proc: Any) -> int:
        """Classify one rank from runtime flags + what its process waits on.

        Known coarseness: the per-send NIC overhead timeout (~µs scale)
        classifies as compute — it models CPU time spent in the MPI
        library, which is the mpiP convention anyway.
        """
        if ctx.finished:
            return _FINISHED
        if ctx.failed or ctx.in_recovery:
            return _RECOVERY
        if ctx.in_checkpoint:
            return _CHECKPOINT
        if ctx.pending_get is not None or ctx.inbox._waiters:
            return _RECV
        if proc is not None:
            waiting = proc.waiting_on
            if waiting is not None and not isinstance(waiting, Timeout):
                return _SEND
        return _COMPUTE

    def _rebin(self) -> None:
        """Halve resolution: keep every second edge, double the bin width."""
        self.edges = self.edges[1::2]
        self.rank_states = self.rank_states[1::2]
        self.inbox_depths = self.inbox_depths[1::2]
        self.log_bytes = self.log_bytes[1::2]
        self.nic_inflight = self.nic_inflight[1::2]
        self.nic_busy_nodes = self.nic_busy_nodes[1::2]
        self.storage_inflight = self.storage_inflight[1::2]
        self.bin_s *= 2.0
        self.rebin_count += 1
        # re-align the next edge to the coarser grid
        self.next_edge = ((self.next_edge - 1e-12) // self.bin_s + 1.0) * self.bin_s

    # ------------------------------------------------------------------
    # exact phase intervals (runtime notifications, rare transitions)
    # ------------------------------------------------------------------
    def note_phase(self, rank: int, phase: Optional[str], now: float) -> None:
        """Open/close an exact occupancy interval for ``rank``.

        ``phase`` is one of :data:`PHASE_STATES` or None (back to plain
        execution).  Re-noting the currently open phase is a no-op, so
        call sites don't need to dedupe (e.g. kill followed by rollback).
        """
        open_phase = self._phase_open.get(rank)
        if open_phase is not None:
            if open_phase[0] == phase:
                return
            state, start = open_phase
            if state == "checkpoint" and phase == "recovery":
                # A kill/rollback landed mid-checkpoint: the partial wave
                # is wasted work caused by the failure, so book it as
                # recovery cost.  This keeps checkpoint occupancy exactly
                # identical to ``RankStats.checkpoint_time`` (and thus the
                # registry's ``mpi.time.checkpoint`` total), which only
                # counts completed waves.
                state = "recovery"
            if now > start:
                self.phase_intervals.append((rank, state, start, now))
            del self._phase_open[rank]
        if phase is not None:
            self._phase_open[rank] = (phase, now)

    def end_phase(self, rank: int, phase: str, now: float) -> None:
        """Close ``rank``'s open interval only if it is still ``phase``.

        Used by unwind paths (the checkpoint ``finally``) that must not
        clobber a later transition — a kill that lands mid-checkpoint has
        already moved the rank to "recovery" by the time the generator's
        finally block runs.
        """
        open_phase = self._phase_open.get(rank)
        if open_phase is not None and open_phase[0] == phase:
            self.note_phase(rank, None, now)

    def finalize(self, now: float) -> None:
        """Close open phase intervals and stamp the end of the run."""
        for rank, (phase, start) in sorted(self._phase_open.items()):
            if now > start:
                self.phase_intervals.append((rank, phase, start, now))
        self._phase_open.clear()
        if not self.edges and now > 0 and self._runtime is not None:
            # run shorter than one bin: emit a single closing sample so the
            # series (and the dashboard) are never empty
            snap = self._snapshot()
            self.edges.append(now)
            self.rank_states.append(snap[0])
            self.inbox_depths.append(snap[1])
            self.log_bytes.append(snap[2])
            self.nic_inflight.append(snap[3])
            self.nic_busy_nodes.append(snap[4])
            self.storage_inflight.append(snap[5])
        self.end_time = now

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def occupancy_fractions(self) -> Dict[str, List[float]]:
        """Fraction of ranks in each state, per bin (stacked-area input)."""
        n = self.n_ranks or (len(self.rank_states[0]) if self.rank_states else 0)
        out: Dict[str, List[float]] = {s: [] for s in RANK_STATES}
        if not n:
            return out
        for row in self.rank_states:
            counts = [0] * len(RANK_STATES)
            for code in row:
                counts[code] += 1
            for s, c in zip(RANK_STATES, counts):
                out[s].append(c / n)
        return out

    def bin_series(self) -> Dict[str, List[float]]:
        """Aggregate per-bin series keyed by metric name."""
        n_nodes = len(self.nic_inflight[0]) if self.nic_inflight else 0
        return {
            "t": [e - self.bin_s for e in self.edges],
            "nic_inflight_total": [float(sum(a)) for a in self.nic_inflight],
            "nic_busy_frac": [
                (b / n_nodes if n_nodes else 0.0) for b in self.nic_busy_nodes
            ],
            "inbox_depth_total": [float(sum(a)) for a in self.inbox_depths],
            "inbox_depth_max": [float(max(a)) if len(a) else 0.0
                                for a in self.inbox_depths],
            "log_bytes_total": [float(sum(a)) for a in self.log_bytes],
            "storage_inflight": [float(v) for v in self.storage_inflight],
        }

    def phase_seconds(self) -> Dict[int, Dict[str, float]]:
        """Exact per-rank seconds in each notified phase."""
        out: Dict[int, Dict[str, float]] = {}
        for rank, phase, start, end in self.phase_intervals:
            out.setdefault(rank, {})[phase] = (
                out.get(rank, {}).get(phase, 0.0) + (end - start)
            )
        return out

    def state_sample_counts(self) -> Dict[int, Dict[str, int]]:
        """Per-rank count of bins point-sampled in each state."""
        out: Dict[int, Dict[str, int]] = {}
        for row in self.rank_states:
            for rank, code in enumerate(row):
                rank_counts = out.setdefault(rank, {})
                name = RANK_STATES[code]
                rank_counts[name] = rank_counts.get(name, 0) + 1
        return out

    def summary(self) -> Dict[str, float]:
        """Compact scalars for the campaign payload (v8 series summaries)."""
        series = self.bin_series()
        busy = series["nic_busy_frac"]
        return {
            "bin_s": self.bin_s,
            "n_bins": float(self.n_bins),
            "rebin_count": float(self.rebin_count),
            "nic_util_peak": max(busy) if busy else 0.0,
            "nic_util_mean": (sum(busy) / len(busy)) if busy else 0.0,
            "inbox_depth_max": max(series["inbox_depth_max"], default=0.0),
            "log_bytes_peak": max(series["log_bytes_total"], default=0.0),
            "storage_inflight_peak": max(series["storage_inflight"], default=0.0),
        }
