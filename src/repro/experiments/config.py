"""Scenario and profile configuration for the experiment harness.

A :class:`ScenarioConfig` fully describes one simulated run: which workload at
which scale, which grouping method, when checkpoints are requested, where the
images go, and the random seed.  An :class:`ExperimentProfile` scales whole
figures up or down: ``FULL`` uses the paper's process counts, ``QUICK`` uses
reduced scales and workload fidelity so the integration tests stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.topology import GIDEON_300, ClusterSpec
from repro.ckpt.scheduler import CheckpointSchedule


#: grouping methods evaluated in the paper
METHODS: Tuple[str, ...] = ("GP", "GP1", "GP4", "NORM", "VCL")


@dataclass(frozen=True)
class FailureSpec:
    """Live failure injection for one scenario (measured failure experiments).

    Three modes:

    * ``at_s`` set — one deterministic kill: the node hosting ``victim_rank``
      dies at ``at_s`` seconds of simulated time (the measured counterpart of
      the analytic "failure at X% of execution" model).
    * ``mtbf_per_node_s`` set — seeded random kills from a
      :class:`~repro.cluster.failure.PoissonFailureModel` at the given
      per-node MTBF, capped at ``max_failures`` events.
    * ``switch_outage_at_s`` set — one deterministic *correlated* failure: at
      that time, every node behind edge switch ``outage_switch`` dies at once
      (:class:`~repro.cluster.failure.SwitchOutageFailureModel`), destroying
      the victims' local disks unless ``outage_spares_disks`` is True.  This
      is the storage-tier survivability scenario: node-local checkpoint
      images die with their rack, so only cross-switch partner replicas or
      the remote file system can restore the job.
    * ``switch_outage_rate_per_switch_s`` set — seeded *random* correlated
      outages: each edge switch fails as an independent Poisson process at
      this rate, capped at ``max_failures`` events (the stochastic companion
      of the deterministic outage above; ``outage_spares_disks`` applies to
      every drawn event).

    Exactly one of the four must be set.  ``detection_delay_s`` models the
    dispatcher noticing the dead node before starting the group rollback.

    Recovery placement (the recovery-orchestration subsystem):

    * ``n_spares`` reserves that many idle nodes as a
      :class:`~repro.recovery.spare.SparePool`; a victim's ranks relaunch on
      a spare (same-switch preferred) instead of waiting for the dead node,
    * ``reboot_delay_s`` is the reboot time an *in-place* restart of a
      crashed node must wait out (spare placements skip it; the default 0
      keeps the pre-spare model of instantly restartable nodes),
    * ``serialize_recoveries`` disables concurrent recovery scheduling
      (every failure waits the previous recovery out) — the baseline the
      concurrency experiments compare against,
    * ``elastic`` enables shrink restart: when a victim cannot be replaced
      from the spare pool, the job repartitions its work units onto the
      surviving ranks (a shrink :class:`~repro.core.restart.LiveRecovery`)
      instead of waiting out an in-place node reboot.
    """

    at_s: Optional[float] = None
    victim_rank: int = 0
    mtbf_per_node_s: Optional[float] = None
    max_failures: int = 1
    detection_delay_s: float = 0.25
    seed: int = 0
    n_spares: int = 0
    reboot_delay_s: float = 0.0
    serialize_recoveries: bool = False
    switch_outage_at_s: Optional[float] = None
    outage_switch: int = 0
    #: True models a connectivity-only outage: nodes reboot with their local
    #: checkpoint images intact (the default outage destroys the disks)
    outage_spares_disks: bool = False
    switch_outage_rate_per_switch_s: Optional[float] = None
    elastic: bool = False

    def __post_init__(self) -> None:
        modes = sum(x is not None for x in
                    (self.at_s, self.mtbf_per_node_s, self.switch_outage_at_s,
                     self.switch_outage_rate_per_switch_s))
        if modes != 1:
            raise ValueError("set exactly one of at_s (deterministic kill), "
                             "mtbf_per_node_s (Poisson kills), "
                             "switch_outage_at_s (correlated switch outage) "
                             "or switch_outage_rate_per_switch_s (Poisson "
                             "switch outages)")
        if (self.switch_outage_rate_per_switch_s is not None
                and self.switch_outage_rate_per_switch_s <= 0):
            raise ValueError("switch_outage_rate_per_switch_s must be positive")
        if self.at_s is not None and self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.switch_outage_at_s is not None and self.switch_outage_at_s < 0:
            raise ValueError("switch_outage_at_s must be non-negative")
        if self.outage_switch < 0:
            raise ValueError("outage_switch must be non-negative")
        if self.victim_rank < 0:
            raise ValueError("victim_rank must be non-negative")
        if self.mtbf_per_node_s is not None and self.mtbf_per_node_s <= 0:
            raise ValueError("mtbf_per_node_s must be positive")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_spares < 0:
            raise ValueError("n_spares must be non-negative")
        if self.reboot_delay_s < 0:
            raise ValueError("reboot_delay_s must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated run of one workload under one checkpointing method.

    Parameters
    ----------
    workload:
        ``"hpl"``, ``"cg"``, ``"sp"`` or one of the synthetic names
        (``"ring"``, ``"halo2d"``, ``"master-worker"``, ``"all-to-all"``).
    n_ranks:
        Number of MPI processes.
    method:
        Grouping / protocol method (one of :data:`METHODS`).
    schedule:
        When checkpoint requests are issued (None = no checkpoints).
    cluster:
        Hardware description; defaults to the Gideon-300-like cluster.
    seed:
        Master seed for the run's random streams.
    workload_options:
        Extra keyword arguments forwarded to the workload parameter class
        (e.g. ``problem_size`` for HPL).
    max_group_size:
        ``G`` bound for trace-assisted group formation (None = paper default
        ⌈√n⌉; the HPL experiments use P = 8 to match Table 1).
    do_restart:
        Whether to simulate a restart from the last checkpoint after the run.
    failure:
        Optional live failure injection (measured failure experiments): ranks
        are killed mid-run and the group rollback + replay actually executes,
        instead of the analytic post-hoc loss model.
    """

    workload: str
    n_ranks: int
    method: str = "GP"
    schedule: Optional[CheckpointSchedule] = None
    cluster: ClusterSpec = GIDEON_300
    seed: int = 0
    workload_options: Dict[str, object] = field(default_factory=dict)
    max_group_size: Optional[int] = None
    do_restart: bool = True
    failure: Optional[FailureSpec] = None

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.failure is not None and self.failure.victim_rank >= self.n_ranks:
            raise ValueError(
                f"failure.victim_rank {self.failure.victim_rank} out of range "
                f"[0, {self.n_ranks})")

    def with_method(self, method: str) -> "ScenarioConfig":
        """Copy of this scenario under a different grouping method."""
        return replace(self, method=method)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Copy of this scenario with a different master seed."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class ExperimentProfile:
    """Scales a whole figure's sweep up (paper scale) or down (test scale).

    Parameters
    ----------
    name:
        "full" or "quick".
    hpl_scales / cg_scales / sp_scales:
        Process counts used for the per-figure sweeps.
    hpl_options / cg_options / sp_options:
        Workload parameter overrides (smaller problems under "quick").
    checkpoint_at_s:
        Time of the single checkpoint in the one-shot experiments.
    """

    name: str
    hpl_scales: Tuple[int, ...]
    cg_scales: Tuple[int, ...]
    sp_scales: Tuple[int, ...]
    coordination_scales: Tuple[int, ...]
    hpl_options: Dict[str, object] = field(default_factory=dict)
    cg_options: Dict[str, object] = field(default_factory=dict)
    sp_options: Dict[str, object] = field(default_factory=dict)
    checkpoint_at_s: float = 60.0
    interval_sweep_s: Tuple[float, ...] = (0.0, 60.0, 120.0, 180.0, 300.0)
    vcl_interval_s: float = 30.0

    def __post_init__(self) -> None:
        if self.checkpoint_at_s < 0:
            raise ValueError("checkpoint_at_s must be non-negative")


#: The paper's scales: HPL 16..128 step 16 (Figures 5-9), Figure 1 sweeps
#: 12..68, CG uses 16/32/64/128, SP uses the square counts 64/81/100/121.
FULL = ExperimentProfile(
    name="full",
    hpl_scales=(16, 32, 48, 64, 80, 96, 112, 128),
    cg_scales=(16, 32, 64, 128),
    sp_scales=(64, 81, 100, 121),
    coordination_scales=(16, 24, 32, 40, 48, 56, 64),
    checkpoint_at_s=60.0,
)

#: Reduced scales and problem sizes for fast integration tests.
#:
#: The periodic intervals must stay comfortably above the checkpoint *wave*
#: duration at these scales (~6 s for NORM on HPL at 32 ranks): an interval
#: below it starves the application — every cycle is spent checkpointing, the
#: makespan diverges and the interval-sweep experiments effectively hang.
QUICK = ExperimentProfile(
    name="quick",
    hpl_scales=(16, 32),
    cg_scales=(16, 32),
    sp_scales=(16, 25),
    coordination_scales=(8, 16, 24),
    hpl_options={"problem_size": 6000, "block_size": 200, "max_steps": 12},
    cg_options={"na": 30000, "max_steps": 8},
    # time_steps keeps the SP run past checkpoint_at_s at every quick scale
    # (at 25 ranks, 60 steps finish in ~1.97 s — before the t = 2 s request)
    sp_options={"grid_points": 64, "max_steps": 6, "time_steps": 120},
    checkpoint_at_s=2.0,
    interval_sweep_s=(0.0, 8.0, 14.0, 24.0),
    vcl_interval_s=8.0,
)


def profile_by_name(name: str) -> ExperimentProfile:
    """Look up a profile ("full" or "quick")."""
    profiles = {"full": FULL, "quick": QUICK}
    try:
        return profiles[name]
    except KeyError as exc:
        raise ValueError(f"unknown profile {name!r}; expected one of {sorted(profiles)}") from exc
