"""Run one scenario end to end and derive the metrics the figures need.

The standard flow for a trace-assisted ("GP") scenario is exactly the
workflow of the paper's Figure 4:

1. trace the application's sends.  The paper runs it once with a
   light-weight tracer linked in; here every script is deterministic, so
   :func:`~repro.mpi.trace.script_trace` reads the same ``(SRC, DST, Z)``
   records off the ranks' op scripts without simulating a run,
2. analyse the trace with Algorithm 2 to obtain a group definition,
3. run the application with the group-based checkpointing protocol and
   the chosen checkpoint schedule,
4. optionally restart the application from its last checkpoint and measure
   the restart preparation.

Traces are cached per (workload, scale, options) so sweeping the grouping
method does not re-trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.analysis.catalog import StoredResult, evaluate
from repro.ckpt.base import ProtocolConfig, ProtocolFamily
from repro.ckpt.presets import (
    gp1_family,
    gp4_family,
    gp_family,
    norm_family,
    vcl_family,
)
from repro.ckpt.scheduler import CheckpointSchedule
from repro.cluster.failure import (
    FailureEvent,
    FailureInjector,
    PoissonFailureModel,
    SwitchOutageFailureModel,
    TraceFailureModel,
)
from repro.cluster.topology import Cluster
from repro.core.coordinator import CheckpointCoordinator
from repro.core.formation import form_groups
from repro.core.groups import GroupSet
from repro.core.restart import RestartResult, simulate_restart
from repro.experiments.config import ScenarioConfig
from repro.mpi.runtime import ApplicationResult, MpiRuntime
from repro.mpi.trace import TraceLog, script_trace
from repro.obs import (
    Telemetry,
    harvest_scenario,
    sampling_bin_from_env,
    tracing_enabled_from_env,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.base import Workload
from repro.workloads.hpl import HplParameters, HplWorkload
from repro.workloads.npb_cg import CgParameters, CgWorkload
from repro.workloads.npb_sp import SpParameters, SpWorkload
from repro.workloads.synthetic import (
    AllToAllWorkload,
    Halo2DWorkload,
    MasterWorkerWorkload,
    RingWorkload,
    SyntheticParameters,
)


# --------------------------------------------------------------------------- workloads
def build_workload(name: str, n_ranks: int, options: Optional[Dict[str, object]] = None) -> Workload:
    """Instantiate a workload by name with optional parameter overrides.

    The reserved option ``n_units`` decouples the domain size from the
    communicator size: the workload is built with that many work units and a
    block partition maps them onto the ``n_ranks`` actually running (shrink
    when ``n_units > n_ranks``, expand with idle ranks when smaller).
    Without it the domain has one unit per rank (the identity partition —
    bit-identical legacy scripts).
    """
    options = dict(options or {})
    n_units = options.pop("n_units", None)
    if n_units is not None:
        from repro.workloads.domain import Partition

        wl = build_workload(name, int(n_units), options)
        wl.set_partition(Partition.block(int(n_units), n_ranks))
        return wl
    if name == "hpl":
        return HplWorkload(n_ranks, HplParameters(**options))
    if name == "cg":
        return CgWorkload(n_ranks, CgParameters(**options))
    if name == "sp":
        return SpWorkload(n_ranks, SpParameters(**options))
    synthetic = {
        "ring": RingWorkload,
        "halo2d": Halo2DWorkload,
        "master-worker": MasterWorkerWorkload,
        "all-to-all": AllToAllWorkload,
    }
    if name in synthetic:
        params = SyntheticParameters(**options) if options else SyntheticParameters()
        return synthetic[name](n_ranks, params)
    raise ValueError(f"unknown workload {name!r}")


def _tracing_options(name: str, options: Dict[str, object]) -> Dict[str, object]:
    """Cheaper workload options for the trace (fewer steps)."""
    out = dict(options)
    if name in ("hpl", "cg", "sp"):
        out.setdefault("max_steps", 8)
    else:
        out.setdefault("iterations", 4)
    return out


# ------------------------------------------------------------------- trace & formation
_TRACE_CACHE: Dict[Tuple[str, int, Tuple[Tuple[str, object], ...]], TraceLog] = {}
_GROUP_CACHE: Dict[Tuple[str, int, Tuple[Tuple[str, object], ...], Optional[int]], GroupSet] = {}


def obtain_trace(
    workload_name: str,
    n_ranks: int,
    options: Optional[Dict[str, object]] = None,
) -> TraceLog:
    """The workload's send records, read off its scripts (cached)."""
    options = dict(options or {})
    key = (workload_name, n_ranks, tuple(sorted(options.items())))
    if key in _TRACE_CACHE:
        return _TRACE_CACHE[key]
    workload = build_workload(workload_name, n_ranks,
                              _tracing_options(workload_name, options))
    trace = _TRACE_CACHE[key] = script_trace(workload.program, n_ranks)
    return trace


def obtain_groups(
    workload_name: str,
    n_ranks: int,
    options: Optional[Dict[str, object]] = None,
    max_group_size: Optional[int] = None,
) -> GroupSet:
    """Trace-assisted group formation for a workload/scale (cached)."""
    options = dict(options or {})
    key = (workload_name, n_ranks, tuple(sorted(options.items())), max_group_size)
    if key in _GROUP_CACHE:
        return _GROUP_CACHE[key]
    trace = obtain_trace(workload_name, n_ranks, options)
    formation = form_groups(trace, max_group_size=max_group_size, n_ranks=n_ranks)
    _GROUP_CACHE[key] = formation.groupset
    return formation.groupset


def build_family(
    method: str,
    n_ranks: int,
    workload_name: str,
    options: Optional[Dict[str, object]] = None,
    max_group_size: Optional[int] = None,
    protocol_config: Optional[ProtocolConfig] = None,
) -> ProtocolFamily:
    """Instantiate the protocol family for one of the paper's methods."""
    if method == "NORM":
        return norm_family(n_ranks, config=protocol_config)
    if method == "GP1":
        return gp1_family(n_ranks, config=protocol_config)
    if method == "GP4":
        return gp4_family(n_ranks, config=protocol_config)
    if method == "VCL":
        return vcl_family(config=protocol_config)
    if method == "GP":
        groups = obtain_groups(workload_name, n_ranks, options, max_group_size)
        return gp_family(groups, config=protocol_config)
    raise ValueError(f"unknown method {method!r}")


# ------------------------------------------------------------------------- scenario run
@dataclass
class ScenarioResult(StoredResult):
    """Everything measured for one scenario run.

    Every metric accessor is :class:`~repro.analysis.catalog.StoredResult`'s,
    reading :attr:`metrics` — the metric catalog evaluated once over this
    live run — so a live result and its stored payload answer alike.
    """

    config: ScenarioConfig
    app: ApplicationResult
    #: telemetry harvested for this run (registry-only unless tracing was requested)
    telemetry: Telemetry
    restart: Optional[RestartResult] = None
    groupset: Optional[GroupSet] = None
    coordinator_report: Optional[object] = None

    @cached_property
    def metrics(self) -> Dict[str, object]:
        """Every catalog metric of this run, evaluated on first read."""
        return evaluate(self)

    @property
    def sampler(self) -> Optional[object]:
        """The run's :class:`~repro.obs.StateSampler`, if sampling was on."""
        return self.telemetry.sampler

    @property
    def recovery_reports(self) -> List[object]:
        """Live-recovery reports, one per injected failure (empty without one)."""
        return list(self.app.recovery)

    @property
    def recovery_stats(self) -> Dict[str, int]:
        """Recovery-manager scheduling counters (empty for failure-free runs)."""
        return dict(self.app.recovery_stats)

    @property
    def abort_reason(self) -> Optional[str]:
        """Why the run was declared failed (None when it survived)."""
        return self.app.aborted


def run_scenario(
    config: ScenarioConfig,
    protocol_config: Optional[ProtocolConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> ScenarioResult:
    """Execute one scenario (trace → formation → run → restart) and return its result.

    A metrics registry is always harvested at the end of the run (it feeds
    the payload's ``phase_times`` and the overhead tables) — that costs
    nothing during simulation.  Span *tracing* is off unless a ``telemetry``
    handle is passed in or ``REPRO_TELEMETRY=1`` is exported; either way the
    tracer only observes ``sim.now`` passively, so simulated metrics are
    bit-identical with tracing on or off.
    """
    workload = build_workload(config.workload, config.n_ranks, config.workload_options)
    cluster_spec = config.cluster.with_nodes(max(config.cluster.n_nodes, config.n_ranks))
    family = build_family(
        config.method,
        config.n_ranks,
        config.workload,
        config.workload_options,
        config.max_group_size,
        protocol_config,
    )

    sim = Simulator()
    cluster = Cluster(sim, cluster_spec)
    runtime = MpiRuntime(
        sim, cluster, config.n_ranks, protocol_family=family, rng=RandomStreams(config.seed)
    )
    if telemetry is None:
        telemetry = Telemetry(trace=tracing_enabled_from_env(),
                              sample_bin_s=sampling_bin_from_env())
    runtime.attach_telemetry(telemetry)
    runtime.set_memory(workload.memory_map())
    coordinator: Optional[CheckpointCoordinator] = None
    if config.schedule is not None:
        coordinator = CheckpointCoordinator(runtime, family, config.schedule)
        coordinator.start()
    if config.failure is not None:
        from repro.recovery import SparePool

        fs = config.failure
        if fs.at_s is not None:
            node = runtime.ctx(fs.victim_rank).node_id
            model: object = TraceFailureModel([FailureEvent(fs.at_s, node)])
        elif fs.switch_outage_at_s is not None:
            model = SwitchOutageFailureModel(
                at_s=fs.switch_outage_at_s,
                switch=fs.outage_switch,
                nodes_per_switch=cluster_spec.nodes_per_switch,
                destroy_disks=not fs.outage_spares_disks,
            )
        elif fs.switch_outage_rate_per_switch_s is not None:
            model = SwitchOutageFailureModel(
                rate_per_switch_s=fs.switch_outage_rate_per_switch_s,
                nodes_per_switch=cluster_spec.nodes_per_switch,
                rng=RandomStreams(fs.seed),
                max_outages=fs.max_failures,
                destroy_disks=not fs.outage_spares_disks,
            )
        else:
            model = PoissonFailureModel(
                rate_per_node_s=1.0 / fs.mtbf_per_node_s,
                rng=RandomStreams(fs.seed),
                max_failures=fs.max_failures,
            )
        spare_pool = SparePool(cluster, fs.n_spares) if fs.n_spares > 0 else None
        if fs.elastic:
            runtime.workload = workload
        FailureInjector(runtime, model,
                        detection_delay_s=fs.detection_delay_s,
                        spare_pool=spare_pool,
                        reboot_delay_s=fs.reboot_delay_s,
                        concurrent=not fs.serialize_recoveries,
                        elastic=fs.elastic).start()
    runtime.launch(workload.program_factory())
    app = runtime.run_to_completion(limit_s=1e8)
    if telemetry.sampler is not None:
        # close open phase intervals and stamp the end of the sampled
        # series; the separate restart simulation below is not sampled
        telemetry.sampler.finalize(sim.now)

    restart: Optional[RestartResult] = None
    if (config.do_restart and config.schedule is not None and app.snapshots()
            and app.aborted is None):
        restart = simulate_restart(app, cluster_spec, config=protocol_config)

    groupset = getattr(family, "groups", None)
    result = ScenarioResult(config=config, app=app, restart=restart,
                            groupset=groupset,
                            coordinator_report=(coordinator.report
                                                if coordinator is not None else None),
                            telemetry=telemetry)
    harvest_scenario(result, telemetry)
    return result


def clear_caches() -> None:
    """Forget cached traces and group formations (mainly for tests)."""
    _TRACE_CACHE.clear()
    _GROUP_CACHE.clear()
