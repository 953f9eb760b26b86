"""Tests for the experiment harness (configs, runner, figure generators)."""

import pytest

from repro.analysis.reporting import format_table
from repro.ckpt.scheduler import one_shot
from repro.campaign.executor import Campaign, reset_default_campaign, set_default_campaign
from repro.campaign.results import StoredResult
from repro.campaign.store import scenario_key
from repro.experiments.figures import FIGURES, hpl_grid
from repro.experiments.config import FULL, QUICK, FailureSpec, ScenarioConfig, profile_by_name
from repro.experiments.failures import (
    WORK_LOSS,
    failure_rate_table,
    predicted_rollback_scope,
    work_loss_configs,
)
from repro.experiments.runner import (
    build_family,
    build_workload,
    clear_caches,
    obtain_groups,
    run_scenario,
)
from repro.sim.engine import Simulator


# --------------------------------------------------------------------------------- config
def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(workload="hpl", n_ranks=0)
    with pytest.raises(ValueError):
        ScenarioConfig(workload="hpl", n_ranks=8, method="BOGUS")
    cfg = ScenarioConfig(workload="ring", n_ranks=4)
    assert cfg.with_method("NORM").method == "NORM"
    assert cfg.with_seed(9).seed == 9


def test_profiles_lookup_and_contents():
    assert profile_by_name("full") is FULL
    assert profile_by_name("quick") is QUICK
    with pytest.raises(ValueError):
        profile_by_name("enormous")
    assert FULL.hpl_scales[-1] == 128
    assert FULL.sp_scales == (64, 81, 100, 121)
    assert QUICK.hpl_scales[-1] <= 32


# --------------------------------------------------------------------------------- runner
def test_build_workload_by_name():
    assert build_workload("hpl", 16).name == "hpl"
    assert build_workload("cg", 16).name == "cg"
    assert build_workload("sp", 16).name == "sp"
    assert build_workload("ring", 4).name == "ring"
    with pytest.raises(ValueError):
        build_workload("mystery", 4)


def test_build_family_by_method():
    assert build_family("NORM", 8, "ring").name == "NORM"
    assert build_family("GP1", 8, "ring").name == "GP1"
    assert build_family("GP4", 8, "ring").name == "GP4"
    assert build_family("VCL", 8, "ring").name == "VCL"
    with pytest.raises(ValueError):
        build_family("BOGUS", 8, "ring")


def test_obtain_groups_for_hpl_quick_matches_columns():
    groups = obtain_groups("hpl", 16, QUICK.hpl_options, max_group_size=8)
    # 16 ranks on an 8x2 grid: two columns of 8
    assert groups.members(0) == (0, 2, 4, 6, 8, 10, 12, 14)
    assert groups.members(1) == (1, 3, 5, 7, 9, 11, 13, 15)


def test_run_scenario_ring_norm_end_to_end():
    result = run_scenario(
        ScenarioConfig(
            workload="ring",
            n_ranks=4,
            method="NORM",
            schedule=one_shot(0.2),
            workload_options={"iterations": 10, "compute_seconds": 0.05},
        )
    )
    assert result.makespan > 0
    assert result.checkpoints_completed == 1
    assert result.aggregate_checkpoint_time > 0
    assert result.restart is not None
    assert result.aggregate_restart_time > 0
    assert result.resend_bytes == 0  # NORM never replays
    assert result.breakdown().n_records == 4


def test_run_scenario_without_schedule_skips_restart():
    result = run_scenario(
        ScenarioConfig(workload="ring", n_ranks=3, method="GP1", schedule=None,
                       workload_options={"iterations": 5})
    )
    assert result.restart is None
    assert result.checkpoints_completed == 0
    assert result.gap_fraction == 0.0


# -------------------------------------------------------------------------------- figures
def test_table1_reproduces_round_robin_groups():
    out = FIGURES["table1"].run(profile=QUICK, n_ranks=32)
    groupset = out["groupset"]
    assert groupset.members(0) == (0, 4, 8, 12, 16, 20, 24, 28)
    assert len(out["table"].rows) == 4
    assert out["formation"].intra_fraction > 0.5


def test_figure1_series_is_increasing_overall():
    out = FIGURES["figure1"].run(profile=QUICK)
    series = out["series"][0]
    assert len(series) == len(QUICK.coordination_scales)
    assert series.y[-1] > series.y[0]
    assert "Figure 1" in format_table(out["table"])


def test_figure3_orders_schemes_by_logging():
    out = FIGURES["figure3"].run(profile=QUICK)
    table = out["table"]
    logged = dict(zip(table.column("scheme"), table.column("logged bytes fraction")))
    assert logged["coordinated (NORM)"] == 0.0
    assert logged["message logging (GP1)"] == 1.0
    assert 0.0 < logged["group-based (GP)"] < 1.0
    scope = dict(zip(table.column("scheme"), table.column("coordination scope")))
    assert scope["coordinated (NORM)"] > scope["group-based (GP)"] > scope["message logging (GP1)"]


def test_figures_5_to_9_share_the_same_sweep():
    reset_default_campaign()
    f5 = FIGURES["figure5"].run(profile=QUICK)
    f6 = FIGURES["figure6"].run(profile=QUICK)
    f7 = FIGURES["figure7"].run(profile=QUICK)
    f8 = FIGURES["figure8"].run(profile=QUICK)
    f9 = FIGURES["figure9"].run(profile=QUICK)
    # Figure 5: every method has one point per scale; NORM difference is zero
    for series in f5["series"]:
        assert len(series) == len(QUICK.hpl_scales)
    norm_diff = next(s for s in f5["diff_series"] if s.name.startswith("NORM"))
    assert all(abs(v) < 1e-9 for v in norm_diff.y)
    # Figure 6: grouped checkpointing beats global coordination at the largest scale
    ckpt = {s.name: s for s in f6["checkpoint_series"]}
    largest = QUICK.hpl_scales[-1]
    assert ckpt["GP"].as_dict()[largest] < ckpt["NORM"].as_dict()[largest]
    assert ckpt["GP1"].as_dict()[largest] <= ckpt["GP"].as_dict()[largest]
    # Figure 7/8: resend volumes and operations are reported for GP/GP1/GP4 only
    assert {s.name for s in f7["series"]} == {"GP", "GP1", "GP4"}
    assert {s.name for s in f8["series"]} == {"GP", "GP1", "GP4"}
    gp1_resend = next(s for s in f7["series"] if s.name == "GP1")
    gp_resend = next(s for s in f7["series"] if s.name == "GP")
    assert all(a >= b for a, b in zip(gp1_resend.y, gp_resend.y))
    # Figure 9: one breakdown row per (scale, method) with non-negative stages
    assert len(f9["table"].rows) == 2 * 4
    for row in f9["table"].rows:
        assert all(v >= 0 for v in row[2:])


def test_figure10_interval_zero_has_no_checkpoints():
    out = FIGURES["figure10"].run(profile=QUICK, n_ranks=16)
    count = next(s for s in out["series"] if s.name == "NORM #CKPT")
    assert count.as_dict()[0.0] == 0
    gp_time = next(s for s in out["series"] if s.name == "GP time")
    norm_time = next(s for s in out["series"] if s.name == "NORM time")
    # with no checkpoints GP can only be slower or equal (logging overhead)
    assert gp_time.as_dict()[0.0] >= norm_time.as_dict()[0.0] - 1e-6


def test_figure13_and_14_compare_gp_and_vcl():
    reset_default_campaign()
    f13 = FIGURES["figure13"].run(profile=QUICK)
    f14 = FIGURES["figure14"].run(profile=QUICK)
    names13 = {s.name for s in f13["series"]}
    assert names13 == {"GP time", "VCL time", "GP #CKPT", "VCL #CKPT"}
    assert {s.name for s in f14["series"]} == {"GP", "VCL"}
    for s in f14["series"]:
        assert all(v > 0 for v in s.y)


def test_whole_paper_runs_as_one_campaign():
    # every figure's rows queued once; each figure then renders from the store
    campaign = Campaign()
    set_default_campaign(campaign)
    try:
        queued = {scenario_key(c): c for experiment in FIGURES.values()
                  for c in experiment.configs(profile=QUICK)}
        campaign.run(list(queued.values()))
        assert campaign.last_executed == len(queued)
        for name, experiment in FIGURES.items():
            out = experiment.run(profile=QUICK)
            assert campaign.last_executed == 0, name
            assert out["table"].rows, name
    finally:
        set_default_campaign(None)


def test_figure8_resend_operations_stay_integers():
    # tables() is pure, so stored payloads stand in for simulated rows
    configs = FIGURES["figure8"].configs(profile=QUICK)
    out = FIGURES["figure8"].tables([StoredResult(c, {"resend_operations": 7})
                                     for c in configs])
    assert all(type(v) is int for s in out["series"] for v in s.y)


def test_figure3_and_table1_render_from_stored_results_without_simulating(monkeypatch):
    # a warm render re-derives the HPL trace and groups from the row's config;
    # the trace is read off the scripts, so no simulator is built
    def refuse(*args, **kwargs):
        raise AssertionError("a warm render must not simulate")

    clear_caches()
    monkeypatch.setattr(Simulator, "__init__", refuse)
    out = {name: FIGURES[name].tables([StoredResult(c, {})
                                       for c in FIGURES[name].configs(profile=QUICK)])
           for name in ("figure3", "table1")}
    assert out["table1"]["groupset"].members(0) == (0, 4, 8, 12, 16, 20, 24, 28)
    assert len(out["figure3"]["table"].rows) == 3
    clear_caches()


@pytest.mark.parametrize("profile", [QUICK, FULL], ids=lambda p: p.name)
def test_figure3_and_table1_rows_are_hpl_grid_rows(profile):
    grid_keys = {scenario_key(c) for c in hpl_grid(profile).expand()}
    for name in ("figure3", "table1"):
        (config,) = FIGURES[name].configs(profile=profile)
        assert config.method == "GP"
        assert scenario_key(config) in grid_keys, name


# -------------------------------------------------------------------------------- failures
def test_rollback_scope_experiment_orders_methods():
    scope = {
        method: predicted_rollback_scope(ScenarioConfig(
            "hpl", 16, method, workload_options=dict(QUICK.hpl_options), max_group_size=8,
            failure=FailureSpec(at_s=1.0)))
        for method in ("NORM", "GP", "GP1")
    }
    assert scope["NORM"] == 16
    assert scope["GP1"] == 1
    assert 1 < scope["GP"] < 16


def test_expected_work_loss_experiment_reports_points():
    out = WORK_LOSS.run(profile=QUICK, n_ranks=16, intervals=(2.0, 4.0))
    losses = [y for series in out["series"] for y in series.y]
    assert len(losses) == 4
    assert all(loss >= 0 for loss in losses)


def test_failure_rate_table_skips_intervals_that_never_checkpointed():
    """A 100 s interval outlasts the run: its tiny overhead must not make it "best"."""
    def stored(config):
        interval = config.schedule.interval_s if config.schedule else None
        makespan, ends = {None: (50.0, []), 8.0: (60.0, [10.0, 20.0, 30.0]),
                          100.0: (51.0, [])}[interval]
        return StoredResult(config, {"makespan": makespan, "checkpoints_completed": len(ends),
                                     "rank0_checkpoint_end_times": ends})

    results = [stored(c) for c in work_loss_configs(QUICK, n_ranks=16, intervals=(8.0, 100.0))]
    rows = failure_rate_table(results, failure_rates=(1e-7,))["table"].rows
    assert [(method, interval) for _, method, interval, *_ in rows] == [("GP", 8.0), ("NORM", 8.0)]
    only_too_long = [r for r in results if r.config.schedule is None
                     or r.config.schedule.interval_s == 100.0]
    with pytest.raises(ValueError, match="choose intervals shorter"):
        failure_rate_table(only_too_long, failure_rates=(1e-7,))
    with pytest.raises(ValueError):
        failure_rate_table(results, failure_rates=(0.0,))
