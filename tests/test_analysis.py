"""Tests for the analysis layer: metrics, reporting, advisor."""

import random

import pytest

from repro.analysis.advisor import (
    expected_overhead_fraction,
    suggest_checkpoint_interval,
    young_interval,
)
from repro.analysis.metrics import (
    aggregate_checkpoint_time,
    aggregate_coordination_time,
    aggregate_restart_time,
    mean_checkpoint_duration,
    progress_gap_fraction,
    stage_breakdown,
)
from repro.analysis.reporting import Series, Table, format_table, series_table
from repro.ckpt.base import CheckpointRecord, RestartRecord, STAGE_CHECKPOINT


def make_record(rank=0, start=0.0, end=5.0, checkpoint=2.0, coordination=2.5):
    return CheckpointRecord(
        rank=rank, ckpt_id=0, group_id=0, start=start, end=end,
        stages={"lock_mpi": 0.3, "coordination": coordination,
                STAGE_CHECKPOINT: checkpoint, "finalize": 0.2},
    )


# -------------------------------------------------------------------------------- metrics
def test_aggregate_checkpoint_and_coordination_time():
    records = [make_record(rank=r) for r in range(4)]
    assert aggregate_checkpoint_time(records) == pytest.approx(20.0)
    assert aggregate_coordination_time(records) == pytest.approx(4 * 3.0)


def test_mean_checkpoint_duration_empty_is_zero():
    assert mean_checkpoint_duration([]) == 0.0
    assert mean_checkpoint_duration([make_record()]) == pytest.approx(5.0)


def test_stage_breakdown_averages_across_records():
    records = [make_record(checkpoint=2.0), make_record(checkpoint=4.0)]
    breakdown = stage_breakdown(records)
    assert breakdown.n_records == 2
    assert breakdown.stages[STAGE_CHECKPOINT] == pytest.approx(3.0)
    assert breakdown.total == pytest.approx(sum(breakdown.stages.values()))
    assert len(breakdown.as_row()) == 4
    assert stage_breakdown([]).n_records == 0


def test_aggregate_restart_time():
    records = [RestartRecord(rank=r, start=0.0, end=2.0) for r in range(3)]
    assert aggregate_restart_time(records) == pytest.approx(6.0)


def _gap_fraction_reference(delivery_times, windows, bin_s=0.25):
    """Brute force: test every delivery against every bin."""
    total = empty = 0
    for lo, hi in windows:
        t = lo
        while t < hi:
            t_next = min(t + bin_s, hi)
            total += 1
            if not any(t <= d < t_next for d in delivery_times):
                empty += 1
            t = t_next
    return empty / total if total else 0.0


class _Deliveries:
    """The two ``ApplicationResult`` fields the gap fraction reads."""

    def __init__(self, times):
        self.deliveries = [(t, 0, 1, 64) for t in times]
        self.checkpoint_records = []


@pytest.mark.parametrize("times, windows", [
    ([0.0, 0.25, 0.5], [(0.0, 1.0)]),              # on bins' lower edges
    ([0.25, 0.75], [(0.0, 0.25), (0.5, 0.75)]),    # exactly on t_next
    ([1.0, 2.1], [(0.0, 1.0), (2.0, 2.1)]),        # at a window's end
    ([0.3], [(0.3, 0.3), (0.2, 0.2)]),             # zero-width windows only
    ([0.3, 0.9], [(0.5, 0.5), (0.2, 0.7)]),        # zero-width among others
    ([], [(0.0, 2.0)]),                            # no deliveries at all
    ([0.6, 0.6, 0.61, 5.0], [(0.1, 0.85), (4.0, 4.6)]),  # duplicates, ragged bins
])
def test_progress_gap_fraction_matches_brute_force(times, windows):
    got = progress_gap_fraction(_Deliveries(times), windows=windows)
    want = _gap_fraction_reference(times, [w for w in windows if w[1] > w[0]])
    assert got == want


def test_progress_gap_fraction_matches_brute_force_on_random_edges():
    rng = random.Random(7)
    for _ in range(200):
        bin_s = rng.choice((0.25, 0.1, 0.3))
        windows = []
        for _ in range(rng.randint(1, 4)):
            lo = round(rng.uniform(0.0, 10.0), 2)
            windows.append((lo, lo + rng.choice((0.0, 0.05, 0.5, 1.7))))
        # bin edges exactly as the scan computes them, so deliveries can sit on them
        edges = []
        for lo, hi in windows:
            t = lo
            while t < hi:
                edges.append(t)
                t = min(t + bin_s, hi)
            edges.append(hi)
        times = rng.sample(edges, min(len(edges), rng.randint(0, 6)))
        times += [rng.uniform(0.0, 12.0) for _ in range(rng.randint(0, 6))]
        got = progress_gap_fraction(_Deliveries(times), windows=windows, bin_s=bin_s)
        want = _gap_fraction_reference(sorted(times), [w for w in windows if w[1] > w[0]],
                                       bin_s)
        assert got == want, (times, windows, bin_s)


# ------------------------------------------------------------------------------- reporting
def test_series_append_and_dict():
    s = Series(name="x")
    s.append(1, 10)
    s.append(2, 20)
    assert s.as_dict() == {1: 10, 2: 20}
    assert len(s) == 2
    with pytest.raises(ValueError):
        Series(name="bad", x=[1], y=[])


def test_table_add_row_and_column():
    t = Table(title="t", columns=["a", "b"])
    t.add_row(1, 2)
    assert t.column("b") == [2]
    with pytest.raises(ValueError):
        t.add_row(1)
    with pytest.raises(KeyError):
        t.column("missing")


def test_format_table_renders_all_rows():
    t = Table(title="demo", columns=["n", "value"])
    t.add_row(16, 1.2345)
    t.add_row(128, 10000.0)
    text = format_table(t)
    assert "demo" in text and "128" in text and "n" in text
    assert len(text.splitlines()) == 5


def test_series_table_merges_x_values():
    a = Series(name="a", x=[1, 2], y=[10, 20])
    b = Series(name="b", x=[2, 3], y=[200, 300])
    table = series_table("merged", [a, b], x_label="n")
    assert table.columns == ["n", "a", "b"]
    assert len(table.rows) == 3
    assert table.rows[0] == [1, 10, ""]


# --------------------------------------------------------------------------------- advisor
def test_young_interval_formula():
    assert young_interval(10.0, 2000.0) == pytest.approx((2 * 10 * 2000) ** 0.5)
    with pytest.raises(ValueError):
        young_interval(0.0, 100.0)
    with pytest.raises(ValueError):
        young_interval(1.0, 0.0)


def test_suggestion_respects_floor_and_logging_overhead():
    base = suggest_checkpoint_interval(10.0, 10000.0)
    cheaper = suggest_checkpoint_interval(10.0, 10000.0, logging_overhead_fraction=0.5)
    assert cheaper.interval_s < base.interval_s
    floored = suggest_checkpoint_interval(10.0, 10000.0, min_interval_s=1000.0)
    assert floored.interval_s == 1000.0
    assert base.expected_checkpoints_per_failure > 1
    with pytest.raises(ValueError):
        suggest_checkpoint_interval(10.0, 1000.0, logging_overhead_fraction=1.5)


def test_expected_overhead_fraction_tradeoff():
    # very frequent checkpoints: checkpoint term dominates
    frequent = expected_overhead_fraction(10.0, 5.0, 100000.0)
    # very rare checkpoints: rework term dominates
    rare = expected_overhead_fraction(50000.0, 5.0, 100000.0)
    optimal = expected_overhead_fraction(young_interval(5.0, 100000.0), 5.0, 100000.0)
    assert optimal < frequent
    assert optimal < rare
    with pytest.raises(ValueError):
        expected_overhead_fraction(0.0, 1.0, 100.0)


def test_measured_recovery_cost_shifts_the_optimum():
    from repro.analysis.advisor import MeasuredCosts, measured_costs

    base = suggest_checkpoint_interval(10.0, 10000.0)
    calibrated = suggest_checkpoint_interval(10.0, 10000.0, recovery_cost_s=4000.0)
    # recovery time does no work: effective MTBF shrinks, checkpoints tighten
    assert calibrated.interval_s < base.interval_s
    assert calibrated.recovery_cost_s == 4000.0
    assert "recovery" in calibrated.describe()

    costs = MeasuredCosts(checkpoint_cost_s=8.0, recovery_cost_s=2000.0,
                          lost_work_per_failure_s=30.0, n_failures=3)
    via_measured = suggest_checkpoint_interval(10.0, 10000.0, measured=costs)
    assert via_measured.checkpoint_cost_s == 8.0
    assert via_measured.recovery_cost_s == 2000.0
    assert via_measured.interval_s == suggest_checkpoint_interval(
        8.0, 10000.0, recovery_cost_s=2000.0).interval_s

    with pytest.raises(ValueError):
        suggest_checkpoint_interval(10.0, 1000.0, recovery_cost_s=-1.0)
    # extraction works on plain payload dicts too
    payload = {"failures_injected": 2, "rollback_ranks_total": 8,
               "recovery_rank_seconds": 16.0, "mean_checkpoint_duration": 3.0,
               "measured_lost_work_s": 10.0}
    costs = measured_costs(payload)
    assert costs.checkpoint_cost_s == 3.0
    assert costs.recovery_cost_s == pytest.approx(2.0)
    assert costs.lost_work_per_failure_s == pytest.approx(5.0)
    with pytest.raises(ValueError):
        measured_costs({"failures_injected": 0})
