"""One function per table/figure of the paper's evaluation section.

Every function takes an :class:`~repro.experiments.config.ExperimentProfile`
(``FULL`` reproduces the paper's scales, ``QUICK`` is a reduced version used
by the integration tests) and returns a dictionary containing
:class:`~repro.analysis.reporting.Series` / :class:`Table` objects with the
same rows/series the paper reports.  The benchmark harness prints them.

Runs are shared between figures that the paper derives from the same
experiment (e.g. Figures 5–9 all come from the HPL one-shot-checkpoint
sweep) and executed through the :mod:`repro.campaign` engine: results are
keyed by a content-hash of the scenario config in a (possibly persistent,
see ``REPRO_CAMPAIGN_DB``) store, so repeated figure generation re-runs
nothing and a cold sweep can use several worker processes
(``REPRO_CAMPAIGN_WORKERS``, or :func:`repro.campaign.set_default_campaign`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.analysis.reporting import Series, Table, series_table
from repro.ckpt.base import STAGES
from repro.ckpt.scheduler import CheckpointSchedule, one_shot, periodic
from repro.cluster.topology import GIDEON_300
from repro.core.formation import form_groups, grouping_quality
from repro.core.groups import GroupSet
from repro.experiments.config import ExperimentProfile, FULL, ScenarioConfig
from repro.experiments.runner import obtain_trace

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.campaign.grid import ParameterGrid
    from repro.campaign.results import StoredResult

#: grouping methods compared in the HPL / CG experiments
HPL_METHODS: Tuple[str, ...] = ("GP", "GP1", "GP4", "NORM")
SP_METHODS: Tuple[str, ...] = ("GP", "GP1", "NORM")

#: the HPL trace analysis yields groups of size P (the process-column size),
#: so the formation bound is set to the grid height, as in Table 1
HPL_MAX_GROUP_SIZE = 8

# ----------------------------------------------------------------------- shared sweeps
def _run_all(configs: Sequence[ScenarioConfig]) -> List["StoredResult"]:
    """Run configs through the default campaign (parallel, cached, resumable)."""
    from repro.campaign.executor import get_default_campaign

    return get_default_campaign().run(configs)


def _grid(**kwargs) -> "ParameterGrid":
    from repro.campaign.grid import ParameterGrid

    return ParameterGrid(**kwargs)


def _by_method_and_scale(
    results: Sequence["StoredResult"],
) -> Dict[Tuple[str, int], "StoredResult"]:
    return {(r.config.method, r.config.n_ranks): r for r in results}


def _hpl_config(profile: ExperimentProfile, n: int, method: str, schedule) -> ScenarioConfig:
    return ScenarioConfig(
        workload="hpl",
        n_ranks=n,
        method=method,
        schedule=schedule,
        cluster=GIDEON_300,
        workload_options=dict(profile.hpl_options),
        max_group_size=HPL_MAX_GROUP_SIZE,
        seed=7,
    )


def hpl_grid(profile: ExperimentProfile = FULL) -> "ParameterGrid":
    """The HPL one-shot-checkpoint grid (method × scale) as a declarative object.

    The base is derived from :func:`_hpl_config` so the grid's scenarios and
    figure1's individually built ones share content-hash keys (and therefore
    store rows) by construction.
    """
    template = _hpl_config(profile, profile.hpl_scales[0], HPL_METHODS[0],
                           one_shot(profile.checkpoint_at_s))
    base = {field: getattr(template, field)
            for field in ("workload", "schedule", "cluster", "workload_options",
                          "max_group_size", "seed")}
    return _grid(axes={"n_ranks": profile.hpl_scales, "method": HPL_METHODS}, base=base)


def hpl_sweep(profile: ExperimentProfile = FULL) -> Dict[Tuple[str, int], "StoredResult"]:
    """The HPL one-shot-checkpoint sweep shared by Figures 5, 6, 7, 8 and 9."""
    return _by_method_and_scale(_run_all(hpl_grid(profile).expand()))


def cg_grid(profile: ExperimentProfile = FULL) -> "ParameterGrid":
    """The NPB CG one-shot-checkpoint grid behind Figure 11."""
    return _grid(
        axes={"n_ranks": profile.cg_scales, "method": HPL_METHODS},
        base=dict(
            workload="cg",
            schedule=one_shot(profile.checkpoint_at_s),
            workload_options=dict(profile.cg_options),
            seed=7,
        ),
    )


def cg_sweep(profile: ExperimentProfile = FULL) -> Dict[Tuple[str, int], "StoredResult"]:
    """The NPB CG one-shot-checkpoint sweep behind Figure 11."""
    return _by_method_and_scale(_run_all(cg_grid(profile).expand()))


def sp_grid(profile: ExperimentProfile = FULL) -> "ParameterGrid":
    """The NPB SP one-shot-checkpoint grid behind Figure 12 (GP4 is not applicable)."""
    return _grid(
        axes={"n_ranks": profile.sp_scales, "method": SP_METHODS},
        base=dict(
            workload="sp",
            schedule=one_shot(profile.checkpoint_at_s),
            workload_options=dict(profile.sp_options),
            seed=7,
        ),
    )


def sp_sweep(profile: ExperimentProfile = FULL) -> Dict[Tuple[str, int], "StoredResult"]:
    """The NPB SP one-shot-checkpoint sweep behind Figure 12 (GP4 is not applicable)."""
    return _by_method_and_scale(_run_all(sp_grid(profile).expand()))


def remote_storage_sweep(
    profile: ExperimentProfile = FULL, n_checkpoints: int = 3
) -> Dict[Tuple[str, int], "StoredResult"]:
    """The CG remote-storage comparison behind Figures 13 and 14 (GP vs VCL).

    The paper triggers MPICH-VCL every 120 s and then forces GP to take the
    *same number* of checkpoints; with the simulator's shorter executions the
    fair equivalent is a fixed number of evenly spaced checkpoints per run.
    """
    cluster = GIDEON_300.with_remote_checkpointing(4)
    # Estimate the no-checkpoint execution time per scale to place the requests.
    probes = _run_all([
        ScenarioConfig(
            workload="cg",
            n_ranks=n,
            method="NORM",
            schedule=None,
            cluster=cluster,
            workload_options=dict(profile.cg_options),
            do_restart=False,
            seed=7,
        )
        for n in profile.cg_scales
    ])
    configs = []
    for n, probe in zip(profile.cg_scales, probes):
        horizon = probe.makespan
        times = tuple(horizon * (i + 1) / (n_checkpoints + 1) for i in range(n_checkpoints))
        schedule = CheckpointSchedule(times=times)
        for method in ("GP", "VCL"):
            configs.append(
                ScenarioConfig(
                    workload="cg",
                    n_ranks=n,
                    method=method,
                    schedule=schedule,
                    cluster=cluster,
                    workload_options=dict(profile.cg_options),
                    do_restart=False,
                    seed=7,
                )
            )
    return _by_method_and_scale(_run_all(configs))


def clear_sweep_cache() -> None:
    """Forget cached sweeps (mainly for tests).

    Drops the auto-created (in-memory) default campaign.  An explicitly
    installed campaign — e.g. the benchmark harness's persistent store — is
    left untouched: its database is an authoritative result archive, not a
    throwaway memo.  The same applies to a store selected via
    ``REPRO_CAMPAIGN_DB``: the handle is dropped but the file (and its
    ``done`` rows) persists — delete the file to force cold re-runs after
    changing simulator internals.
    """
    from repro.campaign.executor import reset_default_campaign

    reset_default_campaign(only_auto=True)


# ------------------------------------------------------------------------------ Figure 1
def figure1(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 1: aggregate coordination time of one global checkpoint (HPL + LAM/MPI).

    The paper's claim: the summed coordination time grows steadily with the
    number of processes and occasionally spikes because of unexpected delays.
    """
    series = Series(name="NORM aggregate coordination time (s)")
    schedule = one_shot(profile.checkpoint_at_s)
    results = _run_all([_hpl_config(profile, n, "NORM", schedule)
                        for n in profile.coordination_scales])
    for n, result in zip(profile.coordination_scales, results):
        series.append(n, result.aggregate_coordination_time)
    table = series_table("Figure 1: checkpoint coordination time (HPL, global coordinated)",
                         [series], x_label="processes")
    return {"series": [series], "table": table}


# ------------------------------------------------------------------------------ Figure 2
def figure2(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 2: MPICH-VCL blocking behaviour on CG at two scales.

    The paper shows MPI trace diagrams with 30-second checkpoints: at 32
    processes messages still flow during a checkpoint, at 128 processes the
    light-grey "gaps" span nearly the whole checkpoint.  The quantified
    equivalent is the *gap fraction*: the fraction of checkpoint-window time
    with no message deliveries anywhere.
    """
    scales = (profile.cg_scales[0], profile.cg_scales[-1])
    cluster = GIDEON_300.with_remote_checkpointing(4)
    table = Table(
        title="Figure 2: VCL checkpoint blocking on CG (checkpoints every 30 s)",
        columns=["processes", "execution time (s)", "checkpoints", "mean ckpt (s)", "gap fraction"],
    )
    gap_series = Series(name="VCL gap fraction")
    results = _run_all([
        ScenarioConfig(
            workload="cg",
            n_ranks=n,
            method="VCL",
            schedule=periodic(profile.vcl_interval_s),
            cluster=cluster,
            workload_options=dict(profile.cg_options),
            do_restart=False,
            seed=7,
        )
        for n in scales
    ])
    for n, result in zip(scales, results):
        gap = result.gap_fraction
        gap_series.append(n, gap)
        table.add_row(n, result.makespan, result.checkpoints_completed,
                      result.mean_checkpoint_duration, gap)
    return {"series": [gap_series], "table": table}


# ------------------------------------------------------------------------------ Figure 3
def figure3(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 3: conceptual comparison — coordination scope vs logged channels.

    For a reference HPL trace, compares the three schemes along the two axes
    the figure illustrates: how many processes must coordinate a checkpoint,
    and how much traffic must be logged.
    """
    n = profile.hpl_scales[min(1, len(profile.hpl_scales) - 1)]
    trace = obtain_trace("hpl", n, GIDEON_300, dict(profile.hpl_options))
    formation = form_groups(trace, max_group_size=HPL_MAX_GROUP_SIZE, n_ranks=n)
    schemes = {
        "coordinated (NORM)": GroupSet.single(n),
        "group-based (GP)": formation.groupset,
        "message logging (GP1)": GroupSet.singletons(n),
    }
    table = Table(
        title=f"Figure 3: protocol comparison on an HPL trace ({n} processes)",
        columns=["scheme", "coordination scope", "logged messages", "logged bytes fraction"],
    )
    total_bytes = float(trace.total_bytes) or 1.0
    for name, groupset in schemes.items():
        quality = grouping_quality(groupset, trace)
        table.add_row(
            name,
            groupset.max_group_size,
            int(quality["logged_messages"]),
            quality["logged_bytes"] / total_bytes,
        )
    return {"table": table}


# ------------------------------------------------------------------------------- Table 1
def table1(profile: ExperimentProfile = FULL, n_ranks: int = 32) -> Dict[str, object]:
    """Table 1: trace-assisted group formation for HPL (P×Q = 8×4 at 32 processes)."""
    trace = obtain_trace("hpl", n_ranks, GIDEON_300, dict(profile.hpl_options))
    formation = form_groups(trace, max_group_size=HPL_MAX_GROUP_SIZE, n_ranks=n_ranks)
    table = Table(
        title=f"Table 1: group formation for HPL, {n_ranks} processes",
        columns=["group #", "process ranks"],
    )
    for idx, group in enumerate(sorted(formation.groupset.all_groups()), start=1):
        table.add_row(idx, ", ".join(str(r) for r in group))
    return {"table": table, "groupset": formation.groupset, "formation": formation}


# ------------------------------------------------------------------------------ Figure 5
def figure5(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 5: HPL execution time with one checkpoint at t = 60 s (and Δ vs NORM)."""
    sweep = hpl_sweep(profile)
    series = [Series(name=m) for m in HPL_METHODS]
    diff_series = [Series(name=f"{m} - NORM") for m in HPL_METHODS]
    for n in profile.hpl_scales:
        norm_time = sweep[("NORM", n)].makespan
        for s, d, method in zip(series, diff_series, HPL_METHODS):
            t = sweep[(method, n)].makespan
            s.append(n, t)
            d.append(n, t - norm_time)
    table = series_table("Figure 5a: HPL execution time with one checkpoint (s)",
                         series, x_label="processes")
    diff_table = series_table("Figure 5b: difference from NORM (s, lower is better)",
                              diff_series, x_label="processes")
    return {"series": series, "diff_series": diff_series, "table": table, "diff_table": diff_table}


# ------------------------------------------------------------------------------ Figure 6
def figure6(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 6: summed checkpoint (a) and restart (b) times for HPL."""
    sweep = hpl_sweep(profile)
    ckpt_series = [Series(name=m) for m in HPL_METHODS]
    restart_series = [Series(name=m) for m in HPL_METHODS]
    for n in profile.hpl_scales:
        for cs, rs, method in zip(ckpt_series, restart_series, HPL_METHODS):
            cs.append(n, sweep[(method, n)].aggregate_checkpoint_time)
            rs.append(n, sweep[(method, n)].aggregate_restart_time)
    return {
        "checkpoint_series": ckpt_series,
        "restart_series": restart_series,
        "table": series_table("Figure 6a: aggregate checkpoint time (s)", ckpt_series, "processes"),
        "restart_table": series_table("Figure 6b: aggregate restart time (s)", restart_series, "processes"),
    }


# ------------------------------------------------------------------------------ Figure 7
def figure7(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 7: total amount of data to resend during a restart (KB)."""
    sweep = hpl_sweep(profile)
    methods = ("GP", "GP1", "GP4")
    series = [Series(name=m) for m in methods]
    for n in profile.hpl_scales:
        for s, method in zip(series, methods):
            s.append(n, sweep[(method, n)].resend_bytes / 1024.0)
    return {"series": series,
            "table": series_table("Figure 7: amount of data to resend (KB)", series, "processes")}


# ------------------------------------------------------------------------------ Figure 8
def figure8(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 8: number of resend operations needed to complete a restart."""
    sweep = hpl_sweep(profile)
    methods = ("GP", "GP1", "GP4")
    series = [Series(name=m) for m in methods]
    for n in profile.hpl_scales:
        for s, method in zip(series, methods):
            s.append(n, sweep[(method, n)].resend_operations)
    return {"series": series,
            "table": series_table("Figure 8: number of resend operations", series, "processes")}


# ------------------------------------------------------------------------------ Figure 9
def figure9(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 9: average checkpoint time breakdown by stage at the smallest and largest scales."""
    sweep = hpl_sweep(profile)
    scales = (profile.hpl_scales[0], profile.hpl_scales[-1])
    table = Table(
        title="Figure 9: checkpoint time breakdown (average per process, s)",
        columns=["processes", "method"] + list(STAGES) + ["total"],
    )
    for n in scales:
        for method in HPL_METHODS:
            # stage means come from the metrics registry (payload v6
            # "phase_times" harvested by the telemetry layer) — see
            # StoredResult.breakdown
            breakdown = sweep[(method, n)].breakdown()
            row = [n, method] + breakdown.as_row() + [breakdown.total]
            table.add_row(*row)
    return {"table": table}


# ----------------------------------------------------------------------------- Figure 10
def figure10(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
    problem_size: Optional[int] = None,
) -> Dict[str, object]:
    """Figure 10: effect of multiple checkpoints at fixed intervals (GP vs NORM).

    The paper runs HPL with N = 56000 on 128 processes and checkpoints every
    0 / 60 / 120 / 180 / 300 seconds.  GP pays a logging overhead when no
    checkpoint is taken, catches up as checkpoints are added, and wins (while
    completing more checkpoints) at the shorter intervals.
    """
    n = n_ranks if n_ranks is not None else profile.hpl_scales[-1]
    options = dict(profile.hpl_options)
    if problem_size is not None:
        options["problem_size"] = problem_size
    elif profile.name == "full":
        options["problem_size"] = 56000
    exec_series = {m: Series(name=f"{m} time") for m in ("GP", "NORM")}
    count_series = {m: Series(name=f"{m} #CKPT") for m in ("GP", "NORM")}
    schedules = {interval: None if interval == 0 else periodic(interval)
                 for interval in profile.interval_sweep_s}
    grid = _grid(
        axes={
            "schedule": tuple(schedules.values()),
            "method": ("GP", "NORM"),
        },
        base=dict(
            workload="hpl",
            n_ranks=n,
            workload_options=options,
            max_group_size=HPL_MAX_GROUP_SIZE,
            do_restart=False,
            seed=7,
        ),
    )
    by_point = {(r.config.schedule, r.config.method): r for r in _run_all(grid.expand())}
    for interval in profile.interval_sweep_s:
        for method in ("GP", "NORM"):
            result = by_point[(schedules[interval], method)]
            exec_series[method].append(interval, result.makespan)
            count_series[method].append(interval, result.checkpoints_completed)
    all_series = list(exec_series.values()) + list(count_series.values())
    return {
        "series": all_series,
        "table": series_table(
            f"Figure 10: effect of multiple checkpoints (HPL N={options.get('problem_size', 20000)}, {n} processes)",
            all_series,
            x_label="interval (s)",
        ),
    }


# ----------------------------------------------------------------------------- Figure 11
def figure11(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 11: CG class C — summed checkpoint and restart times."""
    sweep = cg_sweep(profile)
    ckpt_series = [Series(name=m) for m in HPL_METHODS]
    restart_series = [Series(name=m) for m in HPL_METHODS]
    for n in profile.cg_scales:
        for cs, rs, method in zip(ckpt_series, restart_series, HPL_METHODS):
            cs.append(n, sweep[(method, n)].aggregate_checkpoint_time)
            rs.append(n, sweep[(method, n)].aggregate_restart_time)
    return {
        "checkpoint_series": ckpt_series,
        "restart_series": restart_series,
        "table": series_table("Figure 11a: CG aggregate checkpoint time (s)", ckpt_series, "processes"),
        "restart_table": series_table("Figure 11b: CG aggregate restart time (s)", restart_series, "processes"),
    }


# ----------------------------------------------------------------------------- Figure 12
def figure12(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 12: SP class C — summed checkpoint and restart times (GP, GP1, NORM)."""
    sweep = sp_sweep(profile)
    ckpt_series = [Series(name=m) for m in SP_METHODS]
    restart_series = [Series(name=m) for m in SP_METHODS]
    for n in profile.sp_scales:
        for cs, rs, method in zip(ckpt_series, restart_series, SP_METHODS):
            cs.append(n, sweep[(method, n)].aggregate_checkpoint_time)
            rs.append(n, sweep[(method, n)].aggregate_restart_time)
    return {
        "checkpoint_series": ckpt_series,
        "restart_series": restart_series,
        "table": series_table("Figure 12a: SP aggregate checkpoint time (s)", ckpt_series, "processes"),
        "restart_table": series_table("Figure 12b: SP aggregate restart time (s)", restart_series, "processes"),
    }


# ----------------------------------------------------------------------------- Figure 13
def figure13(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 13: CG with remote checkpoint storage — execution time and checkpoint count."""
    sweep = remote_storage_sweep(profile)
    exec_series = {m: Series(name=f"{m} time") for m in ("GP", "VCL")}
    count_series = {m: Series(name=f"{m} #CKPT") for m in ("GP", "VCL")}
    for n in profile.cg_scales:
        for method in ("GP", "VCL"):
            result = sweep[(method, n)]
            exec_series[method].append(n, result.makespan)
            count_series[method].append(n, result.checkpoints_completed)
    all_series = list(exec_series.values()) + list(count_series.values())
    return {
        "series": all_series,
        "table": series_table("Figure 13: CG on remote checkpoint storage (GP vs MPICH-VCL)",
                              all_series, x_label="processes"),
    }


# ----------------------------------------------------------------------------- Figure 14
def figure14(profile: ExperimentProfile = FULL) -> Dict[str, object]:
    """Figure 14: average time per checkpoint, GP vs MPICH-VCL, on remote storage."""
    sweep = remote_storage_sweep(profile)
    series = [Series(name="GP"), Series(name="VCL")]
    for n in profile.cg_scales:
        series[0].append(n, sweep[("GP", n)].mean_checkpoint_duration)
        series[1].append(n, sweep[("VCL", n)].mean_checkpoint_duration)
    return {"series": series,
            "table": series_table("Figure 14: average time per checkpoint (s)", series, "processes")}


#: registry used by the benchmark harness and the reproduce-everything example
ALL_EXPERIMENTS = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "table1": table1,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
}
