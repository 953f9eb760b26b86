"""Failure injection models and the live failure injector.

The paper motivates group-based checkpointing with the observation that
failures usually hit a small region of a large system, so a *global* restart
throws away the work of all the healthy processes.  The failure models here
generate failure events (which node, at what time); two consumers exist:

* the analytic experiment layer (``expected_lost_work`` and the
  failure-rate sweeps) models lost work post hoc on a failure-free run, and
* :class:`FailureInjector` turns the events into *simulator interrupts*: the
  victim node's rank processes are killed mid-run and the
  :class:`~repro.recovery.manager.RecoveryManager` drives a
  :class:`~repro.core.restart.LiveRecovery` — a group rollback + log replay,
  or an elastic shrink — producing measured recovery metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.runtime import MpiRuntime
    from repro.sim.engine import SimProcess
    from repro.sim.primitives import Event


@dataclass(frozen=True, order=True)
class FailureEvent:
    """A single node failure at a point in virtual time.

    ``destroys_disk`` distinguishes a process/OS crash (the node's disk — and
    the checkpoint images on it — survives an in-place reboot) from a
    destructive correlated event (a whole-rack power hit): with the disk gone,
    only off-node checkpoint copies (partner replica, remote file system) can
    restore the victim's ranks.
    """

    time: float
    node: int
    cause: str = field(default="crash", compare=False)
    destroys_disk: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("failure time must be non-negative")
        if self.node < 0:
            raise ValueError("node must be non-negative")


class FailureModel:
    """Interface: produce the failures occurring within ``[0, horizon)``."""

    def failures(self, horizon: float, n_nodes: int) -> List[FailureEvent]:
        raise NotImplementedError  # pragma: no cover - interface

    def iterate(self, horizon: float, n_nodes: int) -> Iterator[FailureEvent]:
        """Failures in chronological order."""
        return iter(sorted(self.failures(horizon, n_nodes)))


class ExponentialFailureModel(FailureModel):
    """Independent exponential failures per node.

    Parameters
    ----------
    mtbf_per_node_s:
        Mean time between failures of a single node.  System MTBF is
        ``mtbf_per_node_s / n_nodes``, which is how large systems become
        failure-prone even with reliable components.
    rng:
        Named random streams; failures use the ``"failures"`` stream.
    max_failures:
        Optional cap on the number of generated events.
    """

    def __init__(
        self,
        mtbf_per_node_s: float,
        rng: Optional[RandomStreams] = None,
        max_failures: Optional[int] = None,
    ) -> None:
        if mtbf_per_node_s <= 0:
            raise ValueError("mtbf_per_node_s must be positive")
        if max_failures is not None and max_failures < 0:
            raise ValueError("max_failures must be non-negative")
        self.mtbf_per_node_s = mtbf_per_node_s
        self.rng = rng if rng is not None else RandomStreams(0)
        self.max_failures = max_failures

    def failures(self, horizon: float, n_nodes: int) -> List[FailureEvent]:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        out: List[FailureEvent] = []
        for node in range(n_nodes):
            t = 0.0
            while True:
                t += self.rng.exponential(f"failures:node{node}", self.mtbf_per_node_s)
                if t >= horizon:
                    break
                out.append(FailureEvent(time=t, node=node))
        out.sort()
        if self.max_failures is not None:
            out = out[: self.max_failures]
        return out

    def system_mtbf(self, n_nodes: int) -> float:
        """Expected time to the first failure anywhere in an ``n_nodes`` system."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return self.mtbf_per_node_s / n_nodes


class PoissonFailureModel(FailureModel):
    """A system-wide Poisson failure process with uniformly random victims.

    Failures arrive at total rate ``rate_per_node_s × n_nodes`` (the classic
    "system MTBF shrinks with scale" model) and each event strikes a node
    chosen uniformly at random.  Unlike :class:`ExponentialFailureModel`
    (which draws one independent arrival process per node), the draw order
    here is a single stream, so the k-th failure of a run is identical for a
    fixed seed regardless of node count changes elsewhere — the property the
    failure-injection determinism tests pin down.
    """

    def __init__(
        self,
        rate_per_node_s: float,
        rng: Optional[RandomStreams] = None,
        max_failures: Optional[int] = None,
        stream: str = "poisson-failures",
    ) -> None:
        if rate_per_node_s <= 0:
            raise ValueError("rate_per_node_s must be positive")
        if max_failures is not None and max_failures < 0:
            raise ValueError("max_failures must be non-negative")
        self.rate_per_node_s = rate_per_node_s
        self.rng = rng if rng is not None else RandomStreams(0)
        self.max_failures = max_failures
        self.stream = stream

    def failures(self, horizon: float, n_nodes: int) -> List[FailureEvent]:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        mean_gap = 1.0 / (self.rate_per_node_s * n_nodes)
        out: List[FailureEvent] = []
        t = 0.0
        while True:
            if self.max_failures is not None and len(out) >= self.max_failures:
                break
            t += self.rng.exponential(self.stream, mean_gap)
            if t >= horizon:
                break
            node = self.rng.integers(f"{self.stream}:victims", 0, n_nodes)
            out.append(FailureEvent(time=t, node=node))
        return out

    def system_mtbf(self, n_nodes: int) -> float:
        """Expected time between failures anywhere in an ``n_nodes`` system."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return 1.0 / (self.rate_per_node_s * n_nodes)


class TraceFailureModel(FailureModel):
    """Failures replayed from an explicit list (deterministic scenarios)."""

    def __init__(self, events: Sequence[FailureEvent]) -> None:
        self._events = sorted(events)

    def failures(self, horizon: float, n_nodes: int) -> List[FailureEvent]:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        return [
            ev
            for ev in self._events
            if ev.time < horizon and ev.node < n_nodes
        ]


class SwitchOutageFailureModel(FailureModel):
    """Correlated whole-switch outages: every node behind one edge switch dies.

    This is the spatially-correlated failure mode the ROADMAP's availability
    work left open and the storage-tier experiments exercise: a top-of-rack
    switch (or its rack PDU) fails and *all* of its nodes go down at the same
    instant.  Same-switch checkpoint replicas die with their primaries, so
    only cross-switch partner copies or the remote file system can restore
    the victims.

    Two modes:

    * ``at_s`` set — one deterministic outage of edge switch ``switch`` at
      that time,
    * ``rate_per_switch_s`` set — seeded Poisson outages at total rate
      ``rate × n_switches`` with a uniformly drawn victim switch per event
      (a single stream, so the k-th outage is seed-stable).

    ``destroy_disks`` (default True) marks the victims' local disks — and the
    checkpoint images on them — as lost: the model represents a destructive
    rack event, not a graceful power-down.  Set it False to model a pure
    connectivity outage whose nodes reboot with their images intact.
    """

    def __init__(
        self,
        at_s: Optional[float] = None,
        switch: int = 0,
        nodes_per_switch: int = 32,
        rate_per_switch_s: Optional[float] = None,
        rng: Optional[RandomStreams] = None,
        max_outages: Optional[int] = None,
        destroy_disks: bool = True,
        stream: str = "switch-outages",
    ) -> None:
        if (at_s is None) == (rate_per_switch_s is None):
            raise ValueError("set exactly one of at_s (deterministic outage) or "
                             "rate_per_switch_s (Poisson outages)")
        if at_s is not None and at_s < 0:
            raise ValueError("at_s must be non-negative")
        if switch < 0:
            raise ValueError("switch must be non-negative")
        if nodes_per_switch < 1:
            raise ValueError("nodes_per_switch must be >= 1")
        if rate_per_switch_s is not None and rate_per_switch_s <= 0:
            raise ValueError("rate_per_switch_s must be positive")
        if max_outages is not None and max_outages < 0:
            raise ValueError("max_outages must be non-negative")
        self.at_s = at_s
        self.switch = switch
        self.nodes_per_switch = nodes_per_switch
        self.rate_per_switch_s = rate_per_switch_s
        self.rng = rng if rng is not None else RandomStreams(0)
        self.max_outages = max_outages
        self.destroy_disks = destroy_disks
        self.stream = stream

    def _topology(self, n_nodes: int):
        from repro.cluster.topology import NodeTopology

        return NodeTopology(n_nodes, self.nodes_per_switch)

    def outages(self, horizon: float, n_nodes: int) -> List[Tuple[float, int]]:
        """The ``(time, switch)`` outage events within ``[0, horizon)``."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        topo = self._topology(n_nodes)
        if self.at_s is not None:
            if self.at_s >= horizon or self.switch >= topo.n_switches:
                return []
            return [(self.at_s, self.switch)]
        mean_gap = 1.0 / (self.rate_per_switch_s * topo.n_switches)
        out: List[Tuple[float, int]] = []
        t = 0.0
        while True:
            if self.max_outages is not None and len(out) >= self.max_outages:
                break
            t += self.rng.exponential(self.stream, mean_gap)
            if t >= horizon:
                break
            switch = self.rng.integers(f"{self.stream}:victims", 0, topo.n_switches)
            out.append((t, switch))
        return out

    def failures(self, horizon: float, n_nodes: int) -> List[FailureEvent]:
        topo = self._topology(n_nodes)
        out: List[FailureEvent] = []
        for t, switch in self.outages(horizon, n_nodes):
            for node in topo.switch_nodes(switch):
                out.append(FailureEvent(
                    time=t, node=node, cause="switch-outage",
                    destroys_disk=self.destroy_disks))
        out.sort()
        return out


def expected_lost_work(
    checkpoint_interval_s: float,
    failure_time_s: float,
    checkpoint_times: Sequence[float],
) -> float:
    """Work lost by a failure at ``failure_time_s`` given completed checkpoints.

    The lost work is the time elapsed since the most recent completed
    checkpoint (or since the start of the run if none completed yet) —
    exactly the quantity the paper argues is reduced when the group-based
    scheme affords more frequent checkpoints (Figure 10 discussion).
    ``checkpoint_interval_s`` is accepted for symmetry with analytic
    formulas; it is only used to validate inputs.
    """
    if checkpoint_interval_s < 0:
        raise ValueError("checkpoint_interval_s must be non-negative")
    if failure_time_s < 0:
        raise ValueError("failure_time_s must be non-negative")
    last = 0.0
    for t in checkpoint_times:
        if t < 0:
            raise ValueError("checkpoint times must be non-negative")
        if t <= failure_time_s:
            last = max(last, t)
    return failure_time_s - last


class FailureInjector:
    """Turns failure events into live kills + orchestrated recovery.

    Wire-up (done before ``runtime.launch``): the injector registers itself
    as a simulation process; at each failure event's time it *submits* the
    failure to a :class:`~repro.recovery.manager.RecoveryManager`, which
    kills the victim node's rank processes (they stop mid-operation, their
    in-flight messages die with the connections), decides whether the
    recovery runs concurrently with / merges into / queues behind in-flight
    recoveries, places relaunches through an optional spare pool (or, in
    elastic mode, shrinks the job when the pool runs dry), and drives one
    :class:`~repro.core.restart.LiveRecovery` per recovery.

    By default failures overlap (``concurrent=True``): the injector submits
    and moves on to the next event, so two failures in channel-independent
    groups recover at the same time.  ``concurrent=False`` restores the
    PR 3 behaviour — every event waits until the manager fully drains —
    which serves as the serialised baseline in the concurrency experiments.

    Parameters
    ----------
    runtime:
        The MPI runtime whose ranks may be killed.
    model:
        Where failure events come from.
    horizon_s:
        Upper bound for event generation (events beyond the application's
        actual completion are ignored).
    detection_delay_s / barrier_cost_s:
        Recovery timing knobs, forwarded through the manager.
    manager:
        An explicit :class:`RecoveryManager` (one is built otherwise).
    spare_pool / reboot_delay_s:
        Forwarded to the auto-built manager (ignored when ``manager`` is
        given): the replacement-node pool and the reboot time an in-place
        restart of a crashed node must wait out.
    concurrent:
        False serialises failure handling (the pre-manager behaviour).
    elastic:
        Forwarded to the auto-built manager: spare-pool exhaustion shrinks
        the job onto the survivors (needs ``runtime.workload`` set) instead
        of waiting out an in-place reboot.
    """

    def __init__(
        self,
        runtime: "MpiRuntime",
        model: FailureModel,
        horizon_s: float = 1e7,
        detection_delay_s: float = 0.25,
        barrier_cost_s: float = 0.02,
        manager: Optional[Any] = None,
        spare_pool: Optional[Any] = None,
        reboot_delay_s: float = 0.0,
        concurrent: bool = True,
        elastic: bool = False,
    ) -> None:
        if horizon_s < 0:
            raise ValueError("horizon_s must be non-negative")
        if detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        self.runtime = runtime
        self.model = model
        self.horizon_s = horizon_s
        self.detection_delay_s = detection_delay_s
        self.barrier_cost_s = barrier_cost_s
        self.concurrent = concurrent
        if manager is None:
            from repro.recovery.manager import RecoveryManager

            manager = RecoveryManager(
                runtime,
                spare_pool=spare_pool,
                detection_delay_s=detection_delay_s,
                barrier_cost_s=barrier_cost_s,
                reboot_delay_s=reboot_delay_s,
                elastic=elastic,
            )
        self.manager = manager
        #: events that found no live rank on the victim node (already
        #: finished, or the node hosts no ranks)
        self.ignored_events: List[FailureEvent] = []
        #: events that actually killed at least one rank
        self.injected_events: List[FailureEvent] = []
        self._process: Optional["SimProcess"] = None
        runtime.attach_failure_source()

    def start(self) -> "SimProcess":
        """Register the injector as a simulation process (before running)."""
        if self._process is not None:
            raise RuntimeError("failure injector already started")
        self._process = self.runtime.sim.process(self._run(), name="failure-injector")
        return self._process

    # -- internals -------------------------------------------------------------
    def _victims_of(self, node: int) -> List[int]:
        return [ctx.rank for ctx in self.runtime.contexts
                if ctx.node_id == node and not ctx.finished and not ctx.failed]

    def _run(self) -> Generator["Event", Any, None]:
        runtime = self.runtime
        sim = runtime.sim
        n_nodes = runtime.cluster.spec.n_nodes
        for event in self.model.iterate(self.horizon_s, n_nodes):
            delay = event.time - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            if all(ctx.finished for ctx in runtime.contexts):
                return
            victims = self._victims_of(event.node)
            if not victims:
                # No live rank to kill, but the node is dead all the same:
                # an idle spare that dies must leave the pool instead of
                # being handed out as a healthy replacement later.
                self.manager.node_failed(event.node,
                                         disk_lost=event.destroys_disk)
                self.ignored_events.append(event)
                continue
            self.injected_events.append(event)
            self.manager.submit(event, victims)
            if not self.concurrent:
                # Serialised baseline: wait every recovery out before the
                # next event (the pre-manager PR 3 behaviour).
                yield self.manager.drained()
