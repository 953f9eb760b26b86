"""Measured elastic shrink restart: spare exhaustion → repartition → finish.

The scenario the tentpole exists for: a node dies, the spare pool is empty,
and instead of waiting out a reboot the recovery manager *shrinks* — the dead
rank's units are reassigned onto the survivors, its newest surviving
checkpoint image is shipped to the adopter (remote storage) or the job
restarts the domain from step 0 (node-local storage, image died with the
node), and the run completes on fewer ranks with exactly-once channel
totals.  Also covers the payload v7 fields end to end and the two satellite
wirings: the Poisson switch-outage mode and key-stable FailureSpec
serialization.
"""

import dataclasses

import pytest

from repro.campaign.results import metrics_payload
from repro.campaign.store import CampaignStore, config_from_dict, config_to_dict, scenario_key
from repro.ckpt.scheduler import periodic
from repro.cluster.failure import FailureEvent, FailureInjector, TraceFailureModel
from repro.cluster.topology import Cluster, GIDEON_300
from repro.core.coordinator import CheckpointCoordinator
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.runner import build_family, build_workload, run_scenario
from repro.mpi.runtime import MpiRuntime
from repro.recovery import SparePool
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.domain import Partition

#: long enough that several checkpoint waves land before the kill at 1.7 s,
#: images small enough (4 MB) that a wave completes within the 0.4 s period
SHRINK_OPTS = {"iterations": 60, "memory_bytes": 4 * 1024 * 1024}


def _run_elastic(kills, workload="halo2d", method="GP4", n=8, storage="remote",
                 n_nodes=None, n_spares=0, reboot_delay_s=0.0, owner=None,
                 limit_s=1e6):
    """Elastic run with node failures at ``kills`` = ``[(time, rank), ...]``.

    ``owner`` (unit → rank) starts the workload from a non-identity
    partition.  Returns (app, runtime).
    """
    opts = dict(SHRINK_OPTS) if workload in ("halo2d", "ring") else {}
    wl = build_workload(workload, n, opts)
    if owner is not None:
        wl.set_partition(Partition(tuple(owner), n))
    spec = dataclasses.replace(GIDEON_300,
                               n_nodes=n_nodes or max(GIDEON_300.n_nodes, n),
                               checkpoint_storage=storage)
    family = build_family(method, n, workload, {}, None, None)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, n, protocol_family=family,
                         rng=RandomStreams(7))
    runtime.set_memory(wl.memory_map())
    runtime.workload = wl
    CheckpointCoordinator(runtime, family, periodic(0.4)).start()
    model = TraceFailureModel([FailureEvent(t, runtime.ctx(rank).node_id)
                               for t, rank in kills])
    pool = SparePool(cluster, n_spares) if n_spares else None
    FailureInjector(runtime, model, spare_pool=pool,
                    reboot_delay_s=reboot_delay_s, elastic=True).start()
    runtime.launch(wl.program_factory())
    app = runtime.run_to_completion(limit_s=limit_s)
    return app, runtime


def _run_shrink(workload="halo2d", method="GP4", n=8, storage="remote",
                kill_at=1.7, victim=1):
    """Kill ``victim``'s node with zero spares; return (app, runtime)."""
    return _run_elastic([(kill_at, victim)], workload, method, n, storage)


def _assert_exactly_once(app):
    """Every directed channel's sent total equals its received total."""
    for ctx in app.contexts:
        for peer in ctx.account.peers():
            sent = ctx.account.sent_to(peer)
            received = app.contexts[peer].account.received_from(ctx.rank)
            assert sent == received, (ctx.rank, peer, sent, received)


# ------------------------------------------------------------- measured shrink
def test_shrink_completes_with_image_ship():
    """Remote storage: the dead rank's newest image ships to its adopter."""
    app, runtime = _run_shrink(storage="remote")
    assert runtime.aborted is None
    assert runtime.recovery_manager.shrink_restarts == 1
    reports = [r for r in runtime.recovery_reports if r.shrink]
    assert len(reports) == 1
    rep = reports[0]
    assert rep.target_ckpt_id is not None      # resumed from a recovery line
    assert rep.ranks_after == 7
    assert rep.units_migrated >= 1
    assert rep.repartition_bytes_shipped > 0
    _assert_exactly_once(app)
    # the victim is retired: finished, owns nothing, never relaunched
    wl = runtime.workload
    assert wl.partition.units_of(1) == ()
    assert runtime.ctx(1).finished and not runtime.ctx(1).in_recovery


def test_shrink_from_scratch_with_local_storage():
    """Node-local storage: the victim's images died with it → restart at 0."""
    app, runtime = _run_shrink(storage="local")
    assert runtime.aborted is None
    assert runtime.recovery_manager.shrink_restarts == 1
    rep = next(r for r in runtime.recovery_reports if r.shrink)
    assert rep.target_ckpt_id is None
    assert rep.repartition_bytes_shipped == 0
    assert rep.ranks_after == 7
    _assert_exactly_once(app)


@pytest.mark.parametrize("workload", ["ring", "cg", "hpl"])
def test_shrink_completes_across_workloads(workload):
    app, runtime = _run_shrink(workload=workload)
    assert runtime.aborted is None
    assert runtime.recovery_manager.shrink_restarts >= 1
    _assert_exactly_once(app)


# ------------------------------------------------ orchestration regressions
#: 16 ranks on a 4×4 halo grid under GP4: each grid row is a checkpoint
#: group, adjacent rows share halo channels, rows 0 and 2 share none.  One
#: spare node; a sim-time limit turns a wedged recovery into a prompt error.
GRID = dict(n=16, n_nodes=17, n_spares=1, reboot_delay_s=5.0, limit_s=1e3)


def _retired(runtime):
    """Ranks owning no work unit, read straight off the partition."""
    part = runtime.workload.partition
    return {r for r in range(runtime.n_ranks) if not part.units_of(r)}


def test_shrink_waits_for_the_active_live_recovery():
    """A shrink resets every rank, so it must not overlap another recovery.

    Rank 0's live recovery takes the only spare; rank 8 (row 2, no channel
    into row 0) dies during it and needs a shrink.  That shrink must wait
    for the live recovery instead of resetting and relaunching row 0
    alongside it.
    """
    app, runtime = _run_elastic([(20.0, 0), (20.1, 8)], **GRID)
    live, shrink = runtime.recovery_reports
    assert not live.shrink and shrink.shrink
    assert shrink.detected_at >= live.completed_at
    assert app.recovery_stats["max_concurrent_recoveries"] == 1
    assert all(ctx.finished for ctx in app.contexts)
    _assert_exactly_once(app)


def test_queued_failure_retired_by_a_shrink_is_not_recovered():
    """A failure whose victim a shrink retired needs no recovery of its own.

    Ranks 4 and 8 die while rank 0's live recovery holds the only spare, so
    both failures queue; the shrink covering them retires both.  With the
    dead spare-donor node refilled meanwhile, no later live recovery may
    migrate, roll back or relaunch a retired rank.
    """
    app, runtime = _run_elastic([(20.0, 0), (20.05, 4), (20.1, 8)],
                                **dict(GRID, reboot_delay_s=1.0))
    retired = _retired(runtime)
    assert retired == {4, 8}
    for report in runtime.recovery_reports:
        if not report.shrink:
            assert not retired & set(report.rollback_ranks)
    assert all(ctx.finished for ctx in app.contexts)
    _assert_exactly_once(app)


def test_shrink_keeps_every_rank_without_a_unit_retired():
    """A rank owning no unit stays retired through a shrink.

    Rank 0 owns units 0–2, so ranks 1 and 2 start without work.  When rank
    3 dies with no spare, the shrink must neither roll them back (leaving
    them waiting for a relaunch that never comes) nor hand them rank 3's
    unit.
    """
    owner = list(range(16))
    owner[1] = owner[2] = 0
    app, runtime = _run_elastic([(20.0, 3)], n=16, n_nodes=16, owner=owner,
                                limit_s=1e3)
    (report,) = runtime.recovery_reports
    assert report.shrink and not {1, 2} & set(report.rollback_ranks)
    assert _retired(runtime) == {1, 2, 3}
    assert runtime.ctx(1).finished and runtime.ctx(2).finished
    _assert_exactly_once(app)


# ------------------------------------------------------------ scenario harness
def _elastic_config(**kwargs):
    spec = dataclasses.replace(GIDEON_300, checkpoint_storage="remote")
    defaults = dict(
        workload="halo2d", n_ranks=8, method="GP4",
        schedule=periodic(0.4), cluster=spec, seed=7,
        workload_options=dict(SHRINK_OPTS), do_restart=False,
        failure=FailureSpec(at_s=1.7, victim_rank=1, elastic=True))
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def test_run_scenario_elastic_payload_v7():
    result = run_scenario(_elastic_config())
    assert result.survived
    assert result.shrink_restarts == 1
    assert result.ranks_after_restart == 7
    assert result.units_migrated >= 1
    assert result.repartition_bytes_shipped > 0
    payload = metrics_payload(result)
    assert payload["shrink_restarts"] == 1
    assert payload["ranks_after_restart"] == 7
    assert payload["units_migrated"] == result.units_migrated
    assert payload["repartition_bytes_shipped"] == result.repartition_bytes_shipped


def test_switch_outage_rate_mode_fires_and_recovers():
    """Poisson switch outages (satellite wiring): the drawn event executes."""
    spec = dataclasses.replace(GIDEON_300, n_nodes=12, nodes_per_switch=4,
                               checkpoint_storage="remote")
    config = ScenarioConfig(
        workload="halo2d", n_ranks=8, method="GP4",
        schedule=periodic(0.4), cluster=spec, seed=3,
        workload_options=dict(SHRINK_OPTS), do_restart=False,
        failure=FailureSpec(switch_outage_rate_per_switch_s=0.05,
                            max_failures=1, seed=3, n_spares=4))
    result = run_scenario(config)
    assert result.survived
    causes = {getattr(rep, "cause", "crash") for rep in result.app.recovery}
    assert "switch-outage" in causes


def test_failure_spec_mode_validation():
    with pytest.raises(ValueError):
        FailureSpec()                                     # no mode at all
    with pytest.raises(ValueError):
        FailureSpec(at_s=1.0, switch_outage_rate_per_switch_s=0.1)
    with pytest.raises(ValueError):
        FailureSpec(switch_outage_rate_per_switch_s=-1.0)


# -------------------------------------------------------- key-stable storage
def test_new_failure_fields_are_key_stable():
    """Configs not using the new knobs keep their pre-PR key shape."""
    base = _elastic_config(failure=FailureSpec(at_s=1.0))
    serialized = config_to_dict(base)
    assert "elastic" not in serialized["failure"]
    assert "switch_outage_rate_per_switch_s" not in serialized["failure"]
    # the new knobs are present — and change the key — when set
    elastic = _elastic_config(failure=FailureSpec(at_s=1.0, elastic=True))
    assert config_to_dict(elastic)["failure"]["elastic"] is True
    assert scenario_key(elastic) != scenario_key(base)


def test_new_failure_fields_round_trip_through_store():
    for config in (
        _elastic_config(),
        _elastic_config(failure=FailureSpec(
            switch_outage_rate_per_switch_s=0.01, seed=5, max_failures=2,
            n_spares=1, elastic=True)),
    ):
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert scenario_key(rebuilt) == scenario_key(config)
        store = CampaignStore(":memory:")
        key = store.add(config)
        row = store.get(key)
        assert row.config == config
