"""Tests for the campaign engine (grids, store, executor, exports)."""

import csv
import dataclasses
import json
import os
import pickle

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignStore,
    ParameterGrid,
    StoredResult,
    campaign_worker,
    config_from_dict,
    config_to_dict,
    execute_scenario,
    metrics_payload,
    results_to_csv,
    results_to_series,
    results_to_table,
    scenario_key,
    set_default_campaign,
    summary_table,
)
from repro.ckpt.scheduler import one_shot, periodic
from repro.cluster.topology import GIDEON_300
from repro.experiments.config import QUICK, ScenarioConfig
from repro.experiments.runner import run_scenario

RING_OPTS = {"iterations": 6, "compute_seconds": 0.05}


def ring_config(method="NORM", seed=1, **kwargs):
    base = dict(workload="ring", n_ranks=4, method=method, schedule=one_shot(0.2),
                workload_options=dict(RING_OPTS), seed=seed)
    base.update(kwargs)
    return ScenarioConfig(**base)


def ring_grid():
    return ParameterGrid(
        axes={"method": ("NORM", "GP1"), "seed": (1, 2)},
        base=dict(workload="ring", n_ranks=4, schedule=one_shot(0.2),
                  workload_options=dict(RING_OPTS)),
    )


# ------------------------------------------------------------------- keys & round-trips
def test_scenario_key_is_stable_and_sensitive():
    a = ring_config()
    b = ring_config()
    assert scenario_key(a) == scenario_key(b)
    # every varying field must change the key
    assert scenario_key(a) != scenario_key(ring_config(seed=2))
    assert scenario_key(a) != scenario_key(ring_config(method="GP1"))
    assert scenario_key(a) != scenario_key(ring_config(schedule=one_shot(0.3)))
    assert scenario_key(a) != scenario_key(
        ring_config(cluster=GIDEON_300.with_remote_checkpointing(2)))
    # option-dict insertion order must not matter
    c = ring_config(workload_options={"compute_seconds": 0.05, "iterations": 6})
    assert scenario_key(a) == scenario_key(c)


def test_config_round_trip_through_json():
    for config in (
        ring_config(),
        ring_config(schedule=None),
        ring_config(schedule=periodic(3.0, first_at=1.0, max_checkpoints=4)),
        ring_config(cluster=GIDEON_300.with_remote_checkpointing(3),
                    max_group_size=2, do_restart=False),
    ):
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert scenario_key(rebuilt) == scenario_key(config)


def test_worker_entry_points_are_picklable():
    # the executor path must survive any multiprocessing start method
    assert pickle.loads(pickle.dumps(execute_scenario)) is execute_scenario
    assert pickle.loads(pickle.dumps(campaign_worker)) is campaign_worker
    pickle.dumps(ring_config())


# ----------------------------------------------------------------------------- the grid
def test_grid_expands_cartesian_product_in_order():
    grid = ring_grid()
    configs = grid.expand()
    assert len(grid) == 4 and len(configs) == 4
    # first axis varies slowest
    assert [(c.method, c.seed) for c in configs] == [
        ("NORM", 1), ("NORM", 2), ("GP1", 1), ("GP1", 2)]


def test_grid_per_axis_overrides_and_dedup():
    grid = ParameterGrid(
        axes={"workload": ("ring", "halo2d"), "n_ranks": (4, 9)},
        base=dict(method="GP1", workload_options={"iterations": 3}),
        overrides={"workload": {"halo2d": {"workload_options": {"iterations": 2}}}},
    )
    configs = grid.expand()
    assert len(configs) == 4
    by_workload = {c.workload: c for c in configs}
    assert by_workload["ring"].workload_options == {"iterations": 3}
    assert by_workload["halo2d"].workload_options == {"iterations": 2}
    # a redundant axis value collapses via content-hash dedup
    dup = ParameterGrid(axes={"seed": (1, 1)}, base=dict(workload="ring", n_ranks=4))
    assert len(dup.expand()) == 1


def test_grid_rejects_unknown_fields():
    with pytest.raises(ValueError):
        ParameterGrid(axes={"bogus": (1,)}, base=dict(workload="ring", n_ranks=4))
    with pytest.raises(ValueError):
        ParameterGrid(axes={"seed": (1,)}, base=dict(nope=2))
    with pytest.raises(ValueError):
        ParameterGrid(axes={"seed": (1,)}, base=dict(workload="ring", n_ranks=4),
                      overrides={"seed": {1: {"bad_field": 0}}})
    # an override for a value that is not on the axis would be silently inert
    with pytest.raises(ValueError):
        ParameterGrid(axes={"workload": ("ring",)}, base=dict(n_ranks=4),
                      overrides={"workload": {"Ring": {"max_group_size": 2}}})


# ---------------------------------------------------------------------------- the store
def test_store_round_trip_and_status_flow():
    store = CampaignStore(":memory:")
    config = ring_config()
    key = store.add(config)
    assert store.add(config) == key  # idempotent
    assert len(store) == 1
    assert store.counts()["pending"] == 1

    row = store.claim("w1")
    assert row is not None and row.key == key
    assert row.status == "running" and row.worker == "w1" and row.attempts == 1
    assert row.config == config
    assert store.claim("w2") is None  # nothing else pending

    store.mark_done(key, {"makespan": 1.5}, duration_s=0.1)
    row = store.get(config)
    assert row.status == "done"
    assert row.metrics == {"makespan": 1.5}
    assert row.duration_s == 0.1
    assert [r.key for r in store.rows(status="done")] == [key]


def test_rows_read_back_in_registration_order():
    # one add_many shares a timestamp; its rows must not come back in key order
    store = CampaignStore(":memory:")
    keys = store.add_many([ring_config(seed=seed) for seed in range(12)])
    assert [row.key for row in store.rows()] == keys
    later = store.add(ring_config(seed=99))
    assert [row.key for row in store.rows()] == keys + [later]


def test_store_failure_and_reset():
    store = CampaignStore(":memory:")
    k1 = store.add(ring_config(seed=1))
    k2 = store.add(ring_config(seed=2))
    store.claim("w1")
    store.claim("w1")
    store.mark_failed(k1, "Traceback: boom")
    # k2 stays 'running' — its worker "crashed"
    assert store.counts() == {"pending": 0, "running": 1, "done": 0, "failed": 1}
    assert store.get(k1).error == "Traceback: boom"
    assert store.reset(("running", "failed")) == 2
    assert store.counts()["pending"] == 2
    assert store.get(k1).error is None


# ------------------------------------------------------------------------- the campaign
def test_campaign_runs_and_serves_cache_hits():
    campaign = Campaign()
    configs = ring_grid().expand()
    results = campaign.run(configs)
    assert campaign.last_executed == len(configs)
    assert all(isinstance(r, StoredResult) for r in results)
    # results arrive in input order and are the real simulation metrics
    direct = run_scenario(configs[0])
    assert results[0].makespan == direct.makespan
    assert results[0].aggregate_checkpoint_time == direct.aggregate_checkpoint_time
    assert results[0].breakdown().n_records == direct.breakdown().n_records

    again = campaign.run(configs)
    assert campaign.last_executed == 0  # all served from 'done' rows
    assert [r.makespan for r in again] == [r.makespan for r in results]
    assert all(row.attempts == 1 for row in campaign.store.rows())


def test_campaign_records_failure_and_retries_on_rerun():
    campaign = Campaign()
    good = ring_config(seed=3)
    bad = ring_config(seed=4, workload_options={"bogus_option": 1})
    with pytest.raises(CampaignError) as err:
        campaign.run([good, bad])
    assert "bogus_option" in str(err.value)
    assert campaign.counts()["done"] == 1 and campaign.counts()["failed"] == 1

    # a plain re-run retries the failed row (resume semantics) but never the
    # done one; non-strict returns None for the row that failed again
    results = campaign.run([good, bad], strict=False)
    assert campaign.last_executed == 1
    assert results[0] is not None and results[1] is None
    assert campaign.store.get(bad).status == "failed"
    assert campaign.store.get(bad).attempts == 2
    assert campaign.store.get(good).attempts == 1


def test_stale_worker_cannot_clobber_finished_rows():
    store = CampaignStore(":memory:")
    key = store.add(ring_config())
    store.claim("a")
    assert store.mark_done(key, {"version": 1, "makespan": 1.0})
    # worker "a"'s duplicate execution dying late must not discard the result
    assert not store.mark_failed(key, "late crash")
    assert not store.mark_done(key, {"version": 1, "makespan": 2.0})
    row = store.get(key)
    assert row.status == "done" and row.metrics["makespan"] == 1.0


def test_run_invalidates_rows_from_older_payload_versions():
    campaign = Campaign()
    config = ring_config()
    key = campaign.store.add(config)
    campaign.store.claim("old-build")
    campaign.store.mark_done(key, {"version": 0, "makespan": -1.0})
    results = campaign.run([config])
    assert campaign.last_executed == 1  # stale row re-ran instead of serving
    assert results[0].makespan > 0
    assert campaign.store.get(key).metrics["version"] > 0


def test_campaign_run_is_scoped_but_resume_drains_the_store():
    # run() must not execute unrelated pending rows sharing the store
    # (a quick figure must never trigger someone's paper-scale backlog);
    # resume() is the explicit whole-store drain.
    campaign = Campaign()
    unrelated = ring_config(seed=99)
    campaign.store.add(unrelated)
    requested = [ring_config(seed=1)]
    results = campaign.run(requested)
    assert len(results) == 1 and campaign.last_executed == 1
    assert campaign.store.get(unrelated).status == "pending"
    assert campaign.resume() == 1
    assert campaign.store.get(unrelated).status == "done"


def test_campaign_rerun_recovers_orphaned_running_rows():
    # "interrupt, then simply re-run" — rows left 'running' by a crashed
    # worker are re-opened by the next run() over the same configs once
    # their lease has lapsed (lease_s=0 models an already-expired claim)
    campaign = Campaign()
    configs = ring_grid().expand()
    campaign.store.add_many(configs)
    crashed = campaign.store.claim("doomed-worker", lease_s=0.0)
    results = campaign.run(configs)
    assert len(results) == len(configs)
    assert campaign.counts()["done"] == len(configs)
    assert campaign.store.get(crashed.key).attempts == 2


def test_campaign_resume_after_simulated_worker_crash(tmp_path):
    path = str(tmp_path / "campaign.sqlite")
    campaign = Campaign(CampaignStore(path))
    configs = ring_grid().expand()
    campaign.store.add_many(configs)
    # a worker claims a row and "crashes" before writing anything back
    # (its heartbeat dies with it, so the zero-length lease is already stale)
    crashed = campaign.store.claim("doomed-worker", lease_s=0.0)
    assert crashed is not None
    assert campaign.counts()["running"] == 1

    executed = campaign.resume()
    assert executed == len(configs)
    assert campaign.counts() == {"pending": 0, "running": 0,
                                 "done": len(configs), "failed": 0}
    # the crashed row was re-claimed by a fresh worker and finished
    row = campaign.store.get(crashed.key)
    assert row.status == "done" and row.attempts == 2
    assert row.worker != "doomed-worker"


def test_parallel_campaign_matches_sequential(tmp_path):
    configs = ring_grid().expand()
    sequential = [run_scenario(config) for config in configs]

    campaign = Campaign(CampaignStore(str(tmp_path / "par.sqlite")), n_workers=2)
    results = campaign.run(configs)
    for got, want in zip(results, sequential):
        assert got.makespan == want.makespan
        assert got.aggregate_checkpoint_time == want.aggregate_checkpoint_time
        assert got.aggregate_restart_time == want.aggregate_restart_time
        assert got.checkpoints_completed == want.checkpoints_completed


def test_parallel_campaign_requires_file_store():
    with pytest.raises(ValueError):
        Campaign(CampaignStore(":memory:"), n_workers=2)


# ------------------------------------------------------- the figure sweeps run on top
def test_hpl_sweep_quick_parallel_matches_sequential_and_caches(tmp_path):
    """Acceptance: cold QUICK HPL sweep with 2 workers == sequential; warm run free."""
    from repro.experiments import figures

    grid = figures.hpl_grid(QUICK)
    configs = grid.expand()
    assert len(configs) == len(QUICK.hpl_scales) * len(figures.HPL_METHODS)
    sequential = {
        (c.method, c.n_ranks): metrics_payload(run_scenario(c)) for c in configs
    }

    campaign = Campaign(CampaignStore(str(tmp_path / "hpl.sqlite")), n_workers=2)
    set_default_campaign(campaign)
    try:
        cold = {(r.config.method, r.config.n_ranks): r for r in campaign.run(configs)}
        assert campaign.last_executed == len(configs)
        for key, result in cold.items():
            assert result.metrics == sequential[key], f"mismatch for {key}"

        warm = {(r.config.method, r.config.n_ranks): r for r in campaign.run(configs)}
        assert campaign.last_executed == 0  # no simulation re-ran
        assert all(row.attempts == 1 for row in campaign.store.rows())
        assert {k: v.makespan for k, v in warm.items()} == \
               {k: v.makespan for k, v in cold.items()}

        # figures consume the stored results directly
        fig5 = figures.FIGURES["figure5"].run(profile=QUICK)
        assert campaign.last_executed == 0
        assert len(fig5["table"].rows) == len(QUICK.hpl_scales)
    finally:
        set_default_campaign(None)


# ------------------------------------------------------------------------------ exports
def _finished_campaign():
    campaign = Campaign()
    results = campaign.run(ring_grid().expand())
    return campaign, results


def test_results_to_series_groups_by_method():
    _, results = _finished_campaign()
    series = results_to_series(results, x="seed", y="makespan", group_by="method")
    assert {s.name for s in series} == {"NORM", "GP1"}
    for s in series:
        assert s.x == [1, 2]
        assert all(y > 0 for y in s.y)


def test_results_to_table_and_csv(tmp_path):
    campaign, results = _finished_campaign()
    table = results_to_table(results, title="ring sweep")
    assert len(table.rows) == len(results)
    assert table.column("method") == ["NORM", "NORM", "GP1", "GP1"]
    assert all(v > 0 for v in table.column("makespan"))

    path = str(tmp_path / "out.csv")
    assert results_to_csv(results, path) == len(results)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "workload" and len(rows) == len(results) + 1

    summary = summary_table(campaign.store)
    assert summary.column("done") == [len(results)]


def test_export_rejects_unknown_columns():
    _, results = _finished_campaign()
    with pytest.raises(KeyError):
        results_to_series(results, x="seed", y="makspan")  # typo must not yield Nones


# ------------------------------------------------------- simulator fingerprint stamping
def test_payload_carries_simulator_fingerprint():
    from repro.campaign.results import payload_stamp, simulator_fingerprint

    payload = metrics_payload(run_scenario(ring_config()))
    assert payload["sim_version"] == simulator_fingerprint()
    stamp = payload_stamp()
    assert all(payload[name] == value for name, value in stamp.items())


def test_run_invalidates_rows_from_older_simulator_fingerprint():
    from repro.campaign.results import PAYLOAD_VERSION

    campaign = Campaign()
    config = ring_config()
    key = campaign.store.add(config)
    campaign.store.claim("old-kernel")
    # right payload version, but written by a different simulator build
    campaign.store.mark_done(
        key, {"version": PAYLOAD_VERSION, "sim_version": "0.0.1+kernel-r0",
              "makespan": -1.0})
    results = campaign.run([config])
    assert campaign.last_executed == 1  # stale row re-ran instead of serving
    assert results[0].makespan > 0
    assert campaign.store.get(key).metrics["sim_version"] != "0.0.1+kernel-r0"


def test_resume_reopens_stale_fingerprint_rows():
    from repro.campaign.results import PAYLOAD_VERSION

    campaign = Campaign()
    config = ring_config()
    key = campaign.store.add(config)
    campaign.store.claim("old-kernel")
    campaign.store.mark_done(
        key, {"version": PAYLOAD_VERSION, "sim_version": "stale", "makespan": -1.0})
    assert campaign.resume() == 1
    row = campaign.store.get(key)
    assert row.status == "done" and row.metrics["makespan"] > 0


def test_stale_done_keys_scoped_and_matching_rows_kept():
    from repro.campaign.results import payload_stamp

    campaign = Campaign()
    fresh_config = ring_config(seed=1)
    campaign.run([fresh_config])  # writes a correctly stamped row
    stale_config = ring_config(seed=2)
    stale_key = campaign.store.add(stale_config)
    campaign.store.claim("old")
    campaign.store.mark_done(stale_key, {"version": 0, "makespan": 0.0})
    stamp = payload_stamp()
    assert campaign.store.stale_done_keys(stamp) == [stale_key]
    # scoped scan: restricting to the fresh key reports nothing stale
    assert campaign.store.stale_done_keys(stamp, keys=[scenario_key(fresh_config)]) == []
    assert campaign.store.stale_done_keys(stamp, keys=[]) == []


# ------------------------------------------------------------------ benchmark side table
def test_benchmark_rows_round_trip_and_append():
    store = CampaignStore(":memory:")
    first = store.record_benchmark("kernel_speed", {"events_per_s": 100.0})
    second = store.record_benchmark("kernel_speed", {"events_per_s": 200.0})
    store.record_benchmark("other", {"x": 1})
    assert second > first
    rows = store.benchmark_rows("kernel_speed")
    assert [row["payload"]["events_per_s"] for row in rows] == [100.0, 200.0]
    assert len(store.benchmark_rows()) == 3


# ------------------------------------------------------------- failure-rate campaign
def test_failure_rate_sweep_runs_through_campaign_and_caches():
    from repro.experiments.failures import WORK_LOSS, failure_rate_table

    def sweep():
        results = WORK_LOSS.run(profile=QUICK, n_ranks=16, intervals=(8.0,))["results"]
        return failure_rate_table(results, failure_rates=(1e-6, 1e-3))

    campaign = Campaign()
    set_default_campaign(campaign)
    try:
        rows = sweep()["table"].rows
        assert len(rows) == 4  # 2 rates x 2 methods
        executed_cold = campaign.last_executed
        assert executed_cold > 0
        # a higher failure rate can only raise the expected total cost
        by_method = {}
        for rate, method, *_, total in rows:
            by_method.setdefault(method, []).append((rate, total))
        for points in by_method.values():
            points.sort()
            assert points[0][1] <= points[1][1]
        # warm rerun: everything served from the store
        sweep()
        assert campaign.last_executed == 0
    finally:
        set_default_campaign(None)


# ------------------------------------------------------------------ lease/heartbeat
def test_claim_stamps_a_lease_and_renewal_extends_it():
    store = CampaignStore(":memory:")
    store.add(ring_config())
    row = store.claim("w1", lease_s=120.0)
    assert row.lease_expires_at is not None
    before = row.lease_expires_at
    assert store.renew_lease(row.key, "w1", lease_s=600.0)
    assert store.get(row.key).lease_expires_at > before
    # the wrong worker (or a finished row) cannot renew
    assert not store.renew_lease(row.key, "someone-else")
    store.mark_done(row.key, {"makespan": 1.0})
    assert not store.renew_lease(row.key, "w1")


def test_expired_leases_are_reclaimed_but_live_ones_are_not():
    store = CampaignStore(":memory:")
    configs = ring_grid().expand()
    store.add_many(configs)
    stale = store.claim("crashed", lease_s=0.0)
    live = store.claim("alive", lease_s=3600.0)
    assert store.expired_running_keys() == [stale.key]
    assert store.reclaim_expired() == 1
    assert store.get(stale.key).status == "pending"
    assert store.get(live.key).status == "running"
    # a reclaimed row's original owner cannot renew its stale lease
    assert not store.renew_lease(stale.key, "crashed")


def test_concurrent_run_waits_for_live_rows_instead_of_duplicating(tmp_path):
    import threading
    import time as _time

    from repro.campaign.results import payload_stamp

    path = str(tmp_path / "campaign.sqlite")
    config = ring_config()
    holder = CampaignStore(path)
    holder.add(config)
    held = holder.claim("other-live-campaign", lease_s=3600.0)

    results = {}

    def run():
        # sqlite connections are per-thread: build the campaign in here
        campaign = Campaign(CampaignStore(path))
        results["rows"] = campaign.run([config])
        results["executed"] = campaign.last_executed
        campaign.store.close()

    thread = threading.Thread(target=run)
    thread.start()
    _time.sleep(0.15)
    # the concurrent run() must still be waiting, not re-executing
    assert thread.is_alive()
    assert holder.get(held.key).status == "running"
    metrics = dict(payload_stamp(), makespan=1.25)
    assert holder.mark_done(held.key, metrics)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert results["executed"] == 0  # served, never duplicated
    assert results["rows"][0].makespan == 1.25
    assert holder.get(held.key).attempts == 1
    holder.close()


def test_run_takes_over_once_a_lease_expires(tmp_path):
    path = str(tmp_path / "campaign.sqlite")
    config = ring_config()
    holder = CampaignStore(path)
    holder.add(config)
    holder.claim("crashed-campaign", lease_s=0.05)

    import time as _time
    _time.sleep(0.06)
    campaign = Campaign(CampaignStore(path))
    results = campaign.run([config])
    assert campaign.last_executed == 1
    assert results[0].makespan > 0
    holder.close()


def test_heartbeat_thread_keeps_a_claim_alive(tmp_path):
    import time as _time

    from repro.campaign.executor import _LeaseHeartbeat

    path = str(tmp_path / "campaign.sqlite")
    store = CampaignStore(path)
    store.add(ring_config())
    row = store.claim("hb-worker", lease_s=0.3)
    heartbeat = _LeaseHeartbeat(path, row.key, "hb-worker", lease_s=0.3)
    try:
        _time.sleep(0.5)
        # without renewal the 0.3 s lease would have lapsed by now
        assert store.expired_running_keys() == []
    finally:
        heartbeat.stop()
    _time.sleep(0.4)
    assert store.expired_running_keys() == [row.key]
    store.close()


# ------------------------------------------------------------- claim order & seed-averaging
def test_claims_follow_registration_order():
    store = CampaignStore()
    batch = store.add_many([ring_config(seed=s) for s in (5, 1, 9, 3)])
    later = store.add(ring_config(seed=2))
    order = []
    while True:
        row = store.claim("w")
        if row is None:
            break
        order.append(row.key)
        store.mark_done(row.key, {"makespan": 1.0})
    assert order == batch + [later]
    assert [row.key for row in store.rows()] == order


def test_average_over_seeds_means_and_spread():
    from repro.campaign import average_over_seeds

    a = StoredResult(ring_config(seed=1), {"makespan": 2.0, "checkpoints_completed": 1,
                                           "version": 4, "sim_version": "x"})
    b = StoredResult(ring_config(seed=2), {"makespan": 4.0, "checkpoints_completed": 1,
                                           "version": 4, "sim_version": "x"})
    other = StoredResult(ring_config(method="GP1", seed=1), {"makespan": 10.0})
    (cell, lone) = average_over_seeds([a, b, other])
    assert cell.config.seed == 1 and cell.config.method == "NORM"
    assert cell.metrics["n_seeds"] == 2
    assert cell.makespan == pytest.approx(3.0)
    assert cell.metrics["makespan_std"] == pytest.approx(1.0)
    assert cell.metrics["checkpoints_completed"] == 1
    assert cell.metrics["sim_version"] == "x"
    assert lone.metrics["n_seeds"] == 1
    assert lone.makespan == 10.0
    assert lone.metrics["makespan_std"] == 0.0


def test_average_over_seeds_collapses_failure_seed_too():
    from repro.campaign import average_over_seeds
    from repro.experiments.config import FailureSpec

    def cfg(seed):
        return ring_config(seed=seed,
                           failure=FailureSpec(mtbf_per_node_s=50.0, seed=seed))

    a = StoredResult(cfg(1), {"makespan": 1.0})
    b = StoredResult(cfg(2), {"makespan": 3.0})
    (cell,) = average_over_seeds([a, b])
    assert cell.metrics["n_seeds"] == 2
    assert cell.makespan == pytest.approx(2.0)


def test_average_over_seeds_feeds_series_helpers():
    from repro.campaign import average_over_seeds

    results = [
        StoredResult(ring_config(method=m, seed=s), {"makespan": v})
        for (m, s, v) in [("NORM", 1, 2.0), ("NORM", 2, 4.0),
                          ("GP1", 1, 1.0), ("GP1", 2, 3.0)]
    ]
    averaged = average_over_seeds(results)
    series = results_to_series(averaged, x="n_ranks", y="makespan")
    assert {s.name for s in series} == {"NORM", "GP1"}
    (norm,) = [s for s in series if s.name == "NORM"]
    assert list(zip(norm.x, norm.y)) == [(4, 3.0)]


# ------------------------------------------------- telemetry auto-export
def test_drain_store_auto_exports_per_worker_traces(tmp_path, monkeypatch):
    """REPRO_TELEMETRY_DIR: each worker's drain writes a parseable trace."""
    from repro.campaign import drain_store
    from repro.obs import load_spans

    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    store = CampaignStore(":memory:")
    keys = [store.add(ring_config(seed=s)) for s in (11, 12, 13, 14)]
    assert drain_store(store, worker="w1", keys=keys[:2]) == 2
    assert drain_store(store, worker="w2", keys=keys[2:]) == 2
    assert store.counts()["done"] == 4

    files = sorted(os.listdir(tmp_path))
    assert files == ["campaign-trace-w1.json", "campaign-trace-w2.json"]

    for name in files:
        spans, tracks = load_spans(os.path.join(str(tmp_path), name))
        # one campaign_task span per claimed row, on the worker's track
        tasks = [s for s in spans if s["name"] == "campaign_task"]
        assert len(tasks) == 2
        assert all(float(s["dur"]) >= 0 and "ts" in s for s in tasks)
        assert tracks


def test_drain_store_without_telemetry_env_writes_nothing(tmp_path, monkeypatch):
    from repro.campaign import drain_store

    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    store = CampaignStore(":memory:")
    store.add(ring_config(seed=21))
    assert drain_store(store, worker="w1") == 1
    assert os.listdir(tmp_path) == []


# ------------------------------------------------- payload v8 series summaries
def test_payload_v8_carries_sampler_summary():
    from repro.obs import Telemetry

    config = ring_config(seed=31)
    telemetry = Telemetry(trace=False, sample_bin_s=0.05)
    result = run_scenario(config, telemetry=telemetry)
    payload = metrics_payload(result)
    summary = payload["sampler_summary"]
    assert summary and summary == telemetry.sampler.summary()


# ---------------------------------------------- the metric catalog round trip
def _elastic_failure_config():
    """Failures with spares, elastic shrink and all three storage levels."""
    from repro.experiments.config import FailureSpec
    from repro.storage import full_hierarchy

    cluster = dataclasses.replace(GIDEON_300, n_nodes=18, nodes_per_switch=8,
                                  storage_policy=full_hierarchy())
    return ScenarioConfig(
        workload="halo2d", n_ranks=16, method="GP", schedule=periodic(2.0),
        cluster=cluster, max_group_size=8, do_restart=False, seed=3,
        workload_options={"iterations": 40, "compute_seconds": 0.3,
                          "memory_bytes": 4 * 1024 * 1024, "message_bytes": 32 * 1024},
        failure=FailureSpec(mtbf_per_node_s=64, max_failures=4, seed=3,
                            n_spares=1, reboot_delay_s=5, elastic=True))


def _assert_same(stored, live, where):
    """Equal in value and, recursively, in type."""
    assert type(stored) is type(live), (where, stored, live)
    if isinstance(live, dict):
        assert stored.keys() == live.keys(), where
        for key in live:
            _assert_same(stored[key], live[key], f"{where}[{key!r}]")
    elif isinstance(live, list):
        assert len(stored) == len(live), where
        for i, (a, b) in enumerate(zip(stored, live)):
            _assert_same(a, b, f"{where}[{i}]")
    else:
        assert stored == live, where


@pytest.mark.parametrize("sample_bin_s", [None, 0.25], ids=["unsampled", "sampled"])
@pytest.mark.parametrize("make_config", [lambda: ring_config(method="GP1", seed=33),
                                         _elastic_failure_config],
                         ids=["failure-free", "failure-elastic"])
def test_payload_round_trips_every_catalog_metric(make_config, sample_bin_s):
    from repro.analysis.catalog import CATALOG, SAMPLER_VIEWS
    from repro.campaign.results import PAYLOAD_VERSION
    from repro.obs import Telemetry

    config = make_config()
    live = run_scenario(config, telemetry=Telemetry(trace=False, sample_bin_s=sample_bin_s))
    if config.failure is not None:
        # the failure paths ran, so the round trip carries non-default values
        assert live.failures_injected and live.spare_migrations and live.shrink_restarts
    assert bool(live.sampler_summary) == (sample_bin_s is not None)

    payload = metrics_payload(live)
    names = [metric.name for metric in CATALOG]
    assert set(payload) == set(names) | {"version", "sim_version"}
    assert payload["version"] == PAYLOAD_VERSION

    stored = StoredResult(config, json.loads(json.dumps(payload)))
    for name in names + list(SAMPLER_VIEWS):
        _assert_same(getattr(stored, name), getattr(live, name), name)
    assert stored.breakdown() == live.breakdown()


def test_payload_without_sampler_defaults_empty():
    config = ring_config(seed=32)
    result = run_scenario(config)
    payload = metrics_payload(result)
    assert payload["sampler_summary"] == {}
    stored = StoredResult(config, payload)
    assert stored.sampler_summary == {}
    assert stored.nic_util_peak == 0.0


# --------------------------------------------------- campaign observatory
def _progress_store():
    store = CampaignStore(":memory:")
    keys = [store.add(ring_config(seed=40 + i)) for i in range(6)]
    for _ in range(5):
        store.claim("w1")
    for i in range(3):
        store.mark_done(keys[i], {"makespan": 1.0 + i}, duration_s=2.0 + i)
    store.mark_failed(keys[3], "ValueError: boom\nTraceback (most recent)")
    return store, keys


def test_campaign_progress_snapshot():
    from repro.campaign import campaign_progress

    store, keys = _progress_store()
    progress = campaign_progress(store)
    assert progress.counts == {"pending": 1, "running": 1, "done": 3, "failed": 1}
    assert progress.total == 6
    assert progress.done_fraction == pytest.approx(0.5)
    assert progress.mean_duration_s == pytest.approx(3.0)
    assert progress.eta_s is not None
    # failure summaries keep only the first error line
    assert progress.failures == {keys[3]: "ValueError: boom"}
    # the running row holds a live lease
    (lease,) = progress.leases
    assert lease[1] == "w1" and lease[2] > 0
    assert progress.expired_leases == 0


def test_campaign_progress_empty_store():
    from repro.campaign import (campaign_progress, progress_tables,
                                render_progress_html, render_progress_text)

    progress = campaign_progress(CampaignStore(":memory:"))
    assert progress.total == 0
    assert progress.is_empty
    assert progress.done_fraction == 0.0
    assert progress.eta_s is None  # no rows: no projection, not "drained"
    assert progress.throughput_per_s == 0.0
    tables = progress_tables(progress)
    assert [t.title for t in tables][:2] == ["Campaign status", "Rates"]
    rates = tables[1]
    assert any("no rows yet" in str(cell) for row in rates.rows for cell in row)
    # both renderers must survive (and say so) rather than divide by zero
    assert "no rows yet" in render_progress_text(progress)
    html_page = render_progress_html(progress)
    assert "no rows yet" in html_page
    as_dict = progress.as_dict()
    assert as_dict["is_empty"] and as_dict["eta_s"] is None
    assert as_dict["total"] == 0


def test_progress_renderers():
    from repro.campaign import (campaign_progress, render_progress_html,
                                render_progress_text)

    store, _ = _progress_store()
    progress = campaign_progress(store)
    text = render_progress_text(progress)
    assert "Campaign status" in text and "Lease health" in text
    assert "ValueError: boom" in text

    html = render_progress_html(progress, title="obs test")
    assert "obs test" in html
    assert "50%" in html  # hero done-fraction
    assert 'class="meter"' in html
    assert "prefers-color-scheme: dark" in html
    # status is never colour alone: icon + label pairs present
    assert "✓ done" in html and "✗ failed" in html


def test_dashboard_cli_writes_html(tmp_path):
    from repro.campaign import dashboard

    db = str(tmp_path / "sweep.sqlite")
    store = CampaignStore(db)
    key = store.add(ring_config(seed=50))
    store.claim("w1")
    store.mark_done(key, {"makespan": 1.0}, duration_s=0.5)
    store.close()

    out = str(tmp_path / "observatory.html")
    assert dashboard.main(["--db", db, "--html", out]) == 0
    html_text = open(out, encoding="utf-8").read()
    assert "campaign observatory" in html_text
    assert "100%" in html_text
