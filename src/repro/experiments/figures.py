"""Every table and figure of the paper's evaluation, declared once.

:data:`FIGURES` maps each figure or table, in paper order, to an
:class:`~repro.experiments.declaration.Experiment`.  Its
``configs(profile=...)`` builds the scenario rows for an
:class:`~repro.experiments.config.ExperimentProfile` (``FULL`` reproduces the
paper's scales, ``QUICK`` is a reduced version used by the integration
tests), and its pure ``tables(results)`` returns a dictionary of
:class:`~repro.analysis.reporting.Series` / :class:`Table` objects with the
same rows/series the paper reports.  The tables read scales, intervals,
problem size and rank count from the results' configs, not from the profile.

Figures that the paper derives from the same experiment build the same rows
(e.g. Figures 5–9 all come from the HPL one-shot-checkpoint grid).  Rows are
keyed by a content-hash of their config in the :mod:`repro.campaign` store,
so a whole-paper run queues every figure's rows once, in one campaign
(``examples/reproduce_paper.py``), and ``FIGURES[name].run(profile=...)``
then renders each figure from the store without simulating again.  The
default campaign may be persistent (``REPRO_CAMPAIGN_DB``) and parallel
(``REPRO_CAMPAIGN_WORKERS``, or :func:`repro.campaign.set_default_campaign`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import Series, Table, series_table
from repro.campaign.executor import get_default_campaign
from repro.campaign.grid import ParameterGrid
from repro.campaign.results import StoredResult
from repro.ckpt.base import STAGES
from repro.ckpt.scheduler import CheckpointSchedule, one_shot, periodic
from repro.cluster.topology import GIDEON_300
from repro.core.formation import form_groups, grouping_quality
from repro.core.groups import GroupSet
from repro.experiments.config import ExperimentProfile, FULL, ScenarioConfig
from repro.experiments.declaration import Experiment
from repro.experiments.runner import obtain_trace

#: grouping methods compared in the HPL / CG experiments
HPL_METHODS: Tuple[str, ...] = ("GP", "GP1", "GP4", "NORM")
SP_METHODS: Tuple[str, ...] = ("GP", "GP1", "NORM")

#: the HPL trace analysis yields groups of size P (the process-column size),
#: so the formation bound is set to the grid height, as in Table 1
HPL_MAX_GROUP_SIZE = 8

Results = Sequence[StoredResult]


# ------------------------------------------------------------------------- scenario rows
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


def hpl_grid(profile: ExperimentProfile = FULL) -> ParameterGrid:
    """The HPL one-shot-checkpoint grid (method × scale) as a declarative object.

    The base is derived from :func:`_hpl_config` so the grid's scenarios and
    the individually built rows of Figures 1 and 3 and Table 1 share
    content-hash keys (and therefore store rows) by construction.
    """
    template = _hpl_config(profile, profile.hpl_scales[0], HPL_METHODS[0],
                           one_shot(profile.checkpoint_at_s))
    base = {field: getattr(template, field)
            for field in ("workload", "schedule", "cluster", "workload_options",
                          "max_group_size", "seed")}
    return ParameterGrid(axes={"n_ranks": profile.hpl_scales, "method": HPL_METHODS},
                         base=base)


def hpl_configs(profile: ExperimentProfile = FULL) -> List[ScenarioConfig]:
    """The HPL one-shot-checkpoint sweep shared by Figures 5, 6, 7, 8 and 9."""
    return hpl_grid(profile).expand()


def cg_configs(profile: ExperimentProfile = FULL) -> List[ScenarioConfig]:
    """The NPB CG one-shot-checkpoint sweep behind Figure 11."""
    return ParameterGrid(
        axes={"n_ranks": profile.cg_scales, "method": HPL_METHODS},
        base=dict(
            workload="cg",
            schedule=one_shot(profile.checkpoint_at_s),
            workload_options=dict(profile.cg_options),
            seed=7,
        ),
    ).expand()


def sp_configs(profile: ExperimentProfile = FULL) -> List[ScenarioConfig]:
    """The NPB SP one-shot-checkpoint sweep behind Figure 12 (GP4 is not applicable)."""
    return ParameterGrid(
        axes={"n_ranks": profile.sp_scales, "method": SP_METHODS},
        base=dict(
            workload="sp",
            schedule=one_shot(profile.checkpoint_at_s),
            workload_options=dict(profile.sp_options),
            seed=7,
        ),
    ).expand()


def _coordination_configs(profile: ExperimentProfile = FULL) -> List[ScenarioConfig]:
    schedule = one_shot(profile.checkpoint_at_s)
    return [_hpl_config(profile, n, "NORM", schedule) for n in profile.coordination_scales]


def _vcl_configs(profile: ExperimentProfile = FULL) -> List[ScenarioConfig]:
    cluster = GIDEON_300.with_remote_checkpointing(4)
    return [
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
        for n in (profile.cg_scales[0], profile.cg_scales[-1])
    ]


def _figure3_configs(profile: ExperimentProfile = FULL) -> List[ScenarioConfig]:
    """The HPL GP row whose groups Figure 3 compares (a row of :func:`hpl_grid`)."""
    n = profile.hpl_scales[min(1, len(profile.hpl_scales) - 1)]
    return [_hpl_config(profile, n, "GP", one_shot(profile.checkpoint_at_s))]


def _table1_configs(profile: ExperimentProfile = FULL, n_ranks: int = 32) -> List[ScenarioConfig]:
    """The HPL GP row whose groups Table 1 lists (a row of :func:`hpl_grid`)."""
    return [_hpl_config(profile, n_ranks, "GP", one_shot(profile.checkpoint_at_s))]


def _interval_configs(
    profile: ExperimentProfile = FULL,
    n_ranks: Optional[int] = None,
    problem_size: Optional[int] = None,
) -> List[ScenarioConfig]:
    options = dict(profile.hpl_options)
    if problem_size is not None:
        options["problem_size"] = problem_size
    elif profile.name == "full":
        options["problem_size"] = 56000
    schedules = tuple(None if interval == 0 else periodic(interval)
                      for interval in profile.interval_sweep_s)
    return ParameterGrid(
        axes={"schedule": schedules, "method": ("GP", "NORM")},
        base=dict(
            workload="hpl",
            n_ranks=n_ranks if n_ranks is not None else profile.hpl_scales[-1],
            workload_options=options,
            max_group_size=HPL_MAX_GROUP_SIZE,
            do_restart=False,
            seed=7,
        ),
    ).expand()


def remote_storage_configs(profile: ExperimentProfile = FULL) -> List[ScenarioConfig]:
    """The CG remote-storage comparison behind Figures 13 and 14 (GP vs VCL).

    The paper triggers MPICH-VCL every 120 s and then forces GP to take the
    *same number* of checkpoints; with the simulator's shorter executions the
    fair equivalent is three evenly spaced checkpoints per run.  Placing them
    needs each scale's no-checkpoint execution time, so building these rows
    first runs one no-checkpoint probe per scale through the default campaign.
    """
    n_checkpoints = 3
    cluster = GIDEON_300.with_remote_checkpointing(4)

    def config(n: int, method: str, schedule: Optional[CheckpointSchedule]) -> ScenarioConfig:
        return ScenarioConfig(workload="cg", n_ranks=n, method=method, schedule=schedule,
                              cluster=cluster, workload_options=dict(profile.cg_options),
                              do_restart=False, seed=7)

    probes = get_default_campaign().run([config(n, "NORM", None) for n in profile.cg_scales])
    configs = []
    for n, probe in zip(profile.cg_scales, probes):
        horizon = probe.makespan
        times = tuple(horizon * (i + 1) / (n_checkpoints + 1) for i in range(n_checkpoints))
        schedule = CheckpointSchedule(times=times)
        configs += [config(n, method, schedule) for method in ("GP", "VCL")]
    return configs


# ------------------------------------------------------------------------------ tables
def _scales(results: Results) -> List[int]:
    return sorted({r.config.n_ranks for r in results})


def _per_method(results: Results, methods: Sequence[str],
                value: Callable[[StoredResult], float]) -> List[Series]:
    """One series per method: ``value(result)`` over the process count."""
    by_point = {(r.config.method, r.config.n_ranks): r for r in results}
    series = [Series(name=m) for m in methods]
    for n in _scales(results):
        for s in series:
            s.append(n, value(by_point[(s.name, n)]))
    return series


def _time_and_checkpoints(results: Results, methods: Sequence[str],
                          x: Callable[[ScenarioConfig], float]) -> List[Series]:
    """Execution time and completed checkpoints per method, over ``x(config)``."""
    times = {m: Series(name=f"{m} time") for m in methods}
    counts = {m: Series(name=f"{m} #CKPT") for m in methods}
    for result in sorted(results, key=lambda r: x(r.config)):
        method = result.config.method
        times[method].append(x(result.config), result.makespan)
        counts[method].append(x(result.config), result.checkpoints_completed)
    return list(times.values()) + list(counts.values())


def _series_tables(methods: Sequence[str], title: str,
                   value: Callable[[StoredResult], float]) -> Callable[[Results], Dict[str, object]]:
    """A figure of one per-method series of ``value`` over the process count."""
    def tables(results: Results) -> Dict[str, object]:
        series = _per_method(results, methods, value)
        return {"series": series, "table": series_table(title, series, "processes")}

    return tables


def _ckpt_restart_tables(methods: Sequence[str],
                         title: str) -> Callable[[Results], Dict[str, object]]:
    """Summed checkpoint (a) and restart (b) times per method.

    ``title`` is formatted with the panel letter and the summed quantity.
    """
    def tables(results: Results) -> Dict[str, object]:
        ckpt_series = _per_method(results, methods, lambda r: r.aggregate_checkpoint_time)
        restart_series = _per_method(results, methods, lambda r: r.aggregate_restart_time)
        return {
            "checkpoint_series": ckpt_series,
            "restart_series": restart_series,
            "table": series_table(title.format("a", "checkpoint"), ckpt_series, "processes"),
            "restart_table": series_table(title.format("b", "restart"), restart_series,
                                          "processes"),
        }

    return tables


def _figure1_tables(results: Results) -> Dict[str, object]:
    """Figure 1: aggregate coordination time of one global checkpoint (HPL + LAM/MPI).

    The paper's claim: the summed coordination time grows steadily with the
    number of processes and occasionally spikes because of unexpected delays.
    """
    ordered = sorted(results, key=lambda r: r.config.n_ranks)
    series = Series(name="NORM aggregate coordination time (s)",
                    x=[r.config.n_ranks for r in ordered],
                    y=[r.aggregate_coordination_time for r in ordered])
    table = series_table("Figure 1: checkpoint coordination time (HPL, global coordinated)",
                         [series], x_label="processes")
    return {"series": [series], "table": table}


def _figure2_tables(results: Results) -> Dict[str, object]:
    """Figure 2: MPICH-VCL blocking behaviour on CG at two scales.

    The paper shows MPI trace diagrams with 30-second checkpoints: at 32
    processes messages still flow during a checkpoint, at 128 processes the
    light-grey "gaps" span nearly the whole checkpoint.  The quantified
    equivalent is the *gap fraction*: the fraction of checkpoint-window time
    with no message deliveries anywhere.
    """
    interval = results[0].config.schedule.interval_s
    table = Table(
        title=f"Figure 2: VCL checkpoint blocking on CG (checkpoints every {interval:g} s)",
        columns=["processes", "execution time (s)", "checkpoints", "mean ckpt (s)", "gap fraction"],
    )
    gap_series = Series(name="VCL gap fraction")
    for result in sorted(results, key=lambda r: r.config.n_ranks):
        gap_series.append(result.config.n_ranks, result.gap_fraction)
        table.add_row(result.config.n_ranks, result.makespan, result.checkpoints_completed,
                      result.mean_checkpoint_duration, result.gap_fraction)
    return {"series": [gap_series], "table": table}


def _hpl_formation(results: Results):
    """The trace and group formation of the one HPL GP row, rebuilt from its config."""
    (result,) = results
    config = result.config
    trace = obtain_trace(config.workload, config.n_ranks, config.workload_options)
    return trace, form_groups(trace, max_group_size=config.max_group_size,
                              n_ranks=config.n_ranks)


def _figure3_tables(results: Results) -> Dict[str, object]:
    """Figure 3: conceptual comparison — coordination scope vs logged channels.

    For a reference HPL trace, compares the three schemes along the two axes
    the figure illustrates: how many processes must coordinate a checkpoint,
    and how much traffic must be logged.
    """
    trace, formation = _hpl_formation(results)
    n = formation.groupset.n_ranks
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


def _table1_tables(results: Results) -> Dict[str, object]:
    """Table 1: trace-assisted group formation for HPL (P×Q = 8×4 at 32 processes)."""
    _, formation = _hpl_formation(results)
    table = Table(
        title=f"Table 1: group formation for HPL, {formation.groupset.n_ranks} processes",
        columns=["group #", "process ranks"],
    )
    for idx, group in enumerate(sorted(formation.groupset.all_groups()), start=1):
        table.add_row(idx, ", ".join(str(r) for r in group))
    return {"table": table, "groupset": formation.groupset, "formation": formation}


def _figure5_tables(results: Results) -> Dict[str, object]:
    """Figure 5: HPL execution time with one checkpoint at t = 60 s (and Δ vs NORM)."""
    series = _per_method(results, HPL_METHODS, lambda r: r.makespan)
    norm = series[HPL_METHODS.index("NORM")].as_dict()
    diff_series = [Series(name=f"{s.name} - NORM", x=list(s.x),
                          y=[t - norm[n] for n, t in zip(s.x, s.y)])
                   for s in series]
    table = series_table("Figure 5a: HPL execution time with one checkpoint (s)",
                         series, x_label="processes")
    diff_table = series_table("Figure 5b: difference from NORM (s, lower is better)",
                              diff_series, x_label="processes")
    return {"series": series, "diff_series": diff_series, "table": table, "diff_table": diff_table}


def _figure9_tables(results: Results) -> Dict[str, object]:
    """Figure 9: average checkpoint time breakdown by stage at the smallest and largest scales."""
    by_point = {(r.config.method, r.config.n_ranks): r for r in results}
    scales = _scales(results)
    table = Table(
        title="Figure 9: checkpoint time breakdown (average per process, s)",
        columns=["processes", "method"] + list(STAGES) + ["total"],
    )
    for n in (scales[0], scales[-1]):
        for method in HPL_METHODS:
            # stage means come from the payload's "phase_times", harvested
            # by the telemetry layer (see StoredResult.breakdown)
            breakdown = by_point[(method, n)].breakdown()
            table.add_row(n, method, *breakdown.as_row(), breakdown.total)
    return {"table": table}


def _interval(config: ScenarioConfig) -> float:
    return 0.0 if config.schedule is None else config.schedule.interval_s


def _figure10_tables(results: Results) -> Dict[str, object]:
    """Figure 10: effect of multiple checkpoints at fixed intervals (GP vs NORM).

    The paper runs HPL with N = 56000 on 128 processes and checkpoints every
    0 / 60 / 120 / 180 / 300 seconds.  GP pays a logging overhead when no
    checkpoint is taken, catches up as checkpoints are added, and wins (while
    completing more checkpoints) at the shorter intervals.
    """
    config = results[0].config
    all_series = _time_and_checkpoints(results, ("GP", "NORM"), _interval)
    problem_size = config.workload_options.get("problem_size", 20000)
    return {
        "series": all_series,
        "table": series_table(
            f"Figure 10: effect of multiple checkpoints (HPL N={problem_size}, "
            f"{config.n_ranks} processes)",
            all_series,
            x_label="interval (s)",
        ),
    }


def _figure13_tables(results: Results) -> Dict[str, object]:
    """Figure 13: CG with remote checkpoint storage — execution time and checkpoint count."""
    all_series = _time_and_checkpoints(results, ("GP", "VCL"), lambda c: c.n_ranks)
    return {
        "series": all_series,
        "table": series_table("Figure 13: CG on remote checkpoint storage (GP vs MPICH-VCL)",
                              all_series, x_label="processes"),
    }


#: every table and figure of the paper's evaluation, in paper order
FIGURES: Dict[str, Experiment] = {
    "figure1": Experiment(_coordination_configs, _figure1_tables),
    "figure2": Experiment(_vcl_configs, _figure2_tables),
    "figure3": Experiment(_figure3_configs, _figure3_tables),
    "table1": Experiment(_table1_configs, _table1_tables),
    "figure5": Experiment(hpl_configs, _figure5_tables),
    # Figure 6: summed checkpoint (a) and restart (b) times for HPL
    "figure6": Experiment(hpl_configs, _ckpt_restart_tables(
        HPL_METHODS, "Figure 6{}: aggregate {} time (s)")),
    # Figure 7: total amount of data to resend during a restart (KB)
    "figure7": Experiment(hpl_configs, _series_tables(
        ("GP", "GP1", "GP4"), "Figure 7: amount of data to resend (KB)",
        lambda r: r.resend_bytes / 1024.0)),
    # Figure 8: number of resend operations needed to complete a restart
    "figure8": Experiment(hpl_configs, _series_tables(
        ("GP", "GP1", "GP4"), "Figure 8: number of resend operations",
        lambda r: r.resend_operations)),
    "figure9": Experiment(hpl_configs, _figure9_tables),
    "figure10": Experiment(_interval_configs, _figure10_tables),
    # Figure 11: CG class C — summed checkpoint and restart times
    "figure11": Experiment(cg_configs, _ckpt_restart_tables(
        HPL_METHODS, "Figure 11{}: CG aggregate {} time (s)")),
    # Figure 12: SP class C — summed checkpoint and restart times (GP, GP1, NORM)
    "figure12": Experiment(sp_configs, _ckpt_restart_tables(
        SP_METHODS, "Figure 12{}: SP aggregate {} time (s)")),
    "figure13": Experiment(remote_storage_configs, _figure13_tables),
    # Figure 14: average time per checkpoint, GP vs MPICH-VCL, on remote storage
    "figure14": Experiment(remote_storage_configs, _series_tables(
        ("GP", "VCL"), "Figure 14: average time per checkpoint (s)",
        lambda r: r.mean_checkpoint_duration)),
}
