"""Recovery-orchestration subsystem: concurrency, supersession, spares.

Pins down the tentpole properties:

* **Concurrent disjoint recoveries** — two simultaneous failures in
  channel-independent groups recover with overlapping windows, out-of-group
  ranks execute zero extra operations, and the concurrent schedule beats the
  serialised baseline on the same failure stream.
* **Failure during recovery** — a second failure inside a recovering group
  aborts the in-flight attempt and restarts the merged scope from the new
  rollback target; the run converges with exact channel accounting.
* **Spare placement** — victims relaunch on spares (same-switch preferred),
  the pool degrades to in-place reboot on exhaustion, and with a realistic
  reboot delay the spare run never trails the in-place run.
* **Determinism** — multi-failure runs with spares and concurrent recovery
  are bit-identical across ``REPRO_SIM_FASTPATH=0/1``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ckpt.scheduler import periodic
from repro.cluster.failure import (
    FailureEvent,
    FailureInjector,
    PoissonFailureModel,
    TraceFailureModel,
)
from repro.cluster.topology import Cluster, GIDEON_300, NodeTopology
from repro.core.coordinator import CheckpointCoordinator
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.runner import build_family, build_workload, run_scenario
from repro.mpi.runtime import MpiRuntime
from repro.obs import Telemetry
from repro.recovery import RecoveryManager, SparePool
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _launch(method="GP4", n=16, workload="halo2d", interval=0.3, seed=7,
            model=None, n_spares=0, reboot_delay_s=0.0, concurrent=True,
            spec=None, telemetry=None):
    wl = build_workload(workload, n, {})
    if spec is None:
        spec = GIDEON_300.with_nodes(max(GIDEON_300.n_nodes, n))
    family = build_family(method, n, workload, {}, None, None)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, n, protocol_family=family,
                         rng=RandomStreams(seed))
    runtime.set_memory(wl.memory_map())
    if telemetry is not None:
        runtime.attach_telemetry(telemetry)
    CheckpointCoordinator(runtime, family, periodic(interval)).start()
    injector = None
    if model is not None:
        pool = SparePool(cluster, n_spares) if n_spares else None
        injector = FailureInjector(runtime, model, spare_pool=pool,
                                   reboot_delay_s=reboot_delay_s,
                                   concurrent=concurrent)
        injector.start()
    runtime.launch(wl.program_factory())
    return runtime, injector


def _channel_totals(app):
    out = {}
    for ctx in app.contexts:
        for peer in ctx.account.peers():
            out[(ctx.rank, peer, "S")] = ctx.account.sent_to(peer)
            out[(ctx.rank, peer, "Sm")] = ctx.account.messages_sent_to(peer)
            out[(ctx.rank, peer, "R")] = ctx.account.received_from(peer)
            out[(ctx.rank, peer, "Rm")] = ctx.account.messages_received_from(peer)
    return out


# ---------------------------------------------------------------- node topology
class TestNodeTopology:
    def test_switch_mapping(self):
        topo = NodeTopology(n_nodes=70, nodes_per_switch=32)
        assert topo.n_switches == 3
        assert topo.switch_of(0) == 0
        assert topo.switch_of(31) == 0
        assert topo.switch_of(32) == 1
        assert topo.same_switch(0, 31) and not topo.same_switch(31, 32)
        assert list(topo.switch_nodes(2)) == list(range(64, 70))

    def test_cluster_exposes_topology_through_network(self):
        spec = dataclasses.replace(GIDEON_300, n_nodes=40, nodes_per_switch=8)
        cluster = Cluster(Simulator(), spec)
        assert cluster.topology.n_switches == 5
        assert cluster.network.same_switch(0, 7)
        assert not cluster.network.same_switch(7, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeTopology(n_nodes=0)
        with pytest.raises(ValueError):
            NodeTopology(n_nodes=4, nodes_per_switch=0)
        with pytest.raises(ValueError):
            NodeTopology(n_nodes=4).switch_of(4)


# ------------------------------------------------------------------- spare pool
class TestSparePool:
    def _cluster(self, n_nodes=20, n_ranks=16, nodes_per_switch=10):
        spec = dataclasses.replace(GIDEON_300, n_nodes=n_nodes,
                                   nodes_per_switch=nodes_per_switch)
        cluster = Cluster(Simulator(), spec)
        cluster.place_ranks(n_ranks)
        return cluster

    def test_reserves_highest_free_nodes(self):
        cluster = self._cluster()
        pool = SparePool(cluster, 3)
        assert pool.available == [17, 18, 19]
        assert pool.remaining == 3

    def test_prefers_same_switch_then_falls_back(self):
        cluster = self._cluster()  # switches: 0-9, 10-19; spares 16..19
        pool = SparePool(cluster, 4)
        # victim on switch 1: same-switch spare (lowest id) wins
        assert pool.acquire(near_node=12, rank=12) == 16
        # victim on switch 0: no spare on switch 0, cluster-wide fallback
        assert pool.acquire(near_node=2, rank=2) == 17
        assert [p.same_switch for p in pool.placements] == [True, False]

    def test_exhaustion_and_failed_spares(self):
        cluster = self._cluster()
        pool = SparePool(cluster, 2)  # nodes 18, 19
        pool.node_failed(19)
        assert pool.lost_spares == 1
        assert pool.acquire(0, 0) == 18
        assert pool.acquire(1, 1) is None
        assert pool.exhausted_requests == 1

    def test_cannot_over_reserve(self):
        cluster = self._cluster()
        with pytest.raises(ValueError):
            SparePool(cluster, 5)  # only 4 free nodes


# ------------------------------------------------- concurrent disjoint recoveries
@pytest.fixture(scope="module")
def concurrent_pair():
    """Failure-free run, concurrent 2-failure run, serialised 2-failure run.

    halo2d on a 4×4 grid under GP4 groups rows: rows 0 (ranks 0–3) and 2
    (ranks 8–11) share no channels (neighbours wrap to rows 1 and 3), so
    their recoveries are channel-independent and may overlap.
    """
    runtime, _ = _launch()
    base = runtime.run_to_completion(limit_s=1e5)
    kill_at = base.makespan * 0.6
    nodes = (runtime.ctx(0).node_id, runtime.ctx(8).node_id)
    events = [FailureEvent(kill_at, nodes[0]), FailureEvent(kill_at, nodes[1])]
    runtime2, _ = _launch(model=TraceFailureModel(events))
    conc = runtime2.run_to_completion(limit_s=1e6)
    runtime3, _ = _launch(model=TraceFailureModel(events), concurrent=False)
    ser = runtime3.run_to_completion(limit_s=1e6)
    return base, conc, ser


class TestConcurrentRecovery:
    def test_both_groups_recover_with_overlapping_windows(self, concurrent_pair):
        _base, conc, _ser = concurrent_pair
        assert len(conc.recovery) == 2
        scopes = sorted(r.rollback_ranks for r in conc.recovery)
        assert scopes == [(0, 1, 2, 3), (8, 9, 10, 11)]
        (a, b) = conc.recovery
        # overlapping recovery windows: each starts before the other completes
        assert a.failure_time < b.completed_at
        assert b.failure_time < a.completed_at
        assert conc.recovery_stats["max_concurrent_recoveries"] == 2
        assert conc.recovery_stats["serialized_conflicts"] == 0

    def test_out_of_group_ranks_do_zero_extra_ops(self, concurrent_pair):
        base, conc, _ser = concurrent_pair
        rolled = set()
        for report in conc.recovery:
            rolled |= set(report.rollback_ranks)
        for b, f in zip(base.contexts, conc.contexts):
            if b.rank in rolled:
                assert f.stats.ops_executed > b.stats.ops_executed
            else:
                assert f.stats.ops_executed == b.stats.ops_executed

    def test_concurrent_beats_serialized_baseline(self, concurrent_pair):
        _base, conc, ser = concurrent_pair
        assert ser.recovery_stats["max_concurrent_recoveries"] == 1
        assert conc.makespan < ser.makespan

    def test_channel_totals_conserved(self, concurrent_pair):
        base, conc, ser = concurrent_pair
        assert _channel_totals(conc) == _channel_totals(base)
        assert _channel_totals(ser) == _channel_totals(base)

    def test_channel_coupled_failures_serialize(self):
        """Adjacent rows share halo channels: their recoveries must not overlap."""
        runtime, _ = _launch()
        base = runtime.run_to_completion(limit_s=1e5)
        kill_at = base.makespan * 0.6
        events = [FailureEvent(kill_at, runtime.ctx(0).node_id),
                  FailureEvent(kill_at, runtime.ctx(4).node_id)]
        runtime2, _ = _launch(model=TraceFailureModel(events))
        failed = runtime2.run_to_completion(limit_s=1e6)
        assert failed.recovery_stats["serialized_conflicts"] == 1
        assert failed.recovery_stats["max_concurrent_recoveries"] == 1
        assert len(failed.recovery) == 2
        # the queued recovery starts only after the first completes
        first, second = sorted(failed.recovery, key=lambda r: r.completed_at)
        assert second.detected_at >= first.completed_at
        assert _channel_totals(failed) == _channel_totals(base)


# ------------------------------------------------------ failure during recovery
def _merged_run(telemetry=None):
    """Rank 1 dies 0.3 s into the recovery of rank 0, its group peer."""
    runtime, _ = _launch()
    base = runtime.run_to_completion(limit_s=1e5)
    kill_at = base.makespan * 0.6
    events = [FailureEvent(kill_at, runtime.ctx(0).node_id),
              FailureEvent(kill_at + 0.3, runtime.ctx(1).node_id)]
    runtime2, injector = _launch(model=TraceFailureModel(events),
                                 telemetry=telemetry)
    failed = runtime2.run_to_completion(limit_s=1e6)
    return base, failed, injector


class TestFailureDuringRecovery:
    @pytest.fixture(scope="class")
    def merged(self):
        return _merged_run()

    def test_converges_with_one_merged_report(self, merged):
        _base, failed, injector = merged
        assert all(ctx.finished for ctx in failed.contexts)
        assert len(injector.injected_events) == 2
        assert failed.recovery_stats["aborted_recoveries"] == 1
        assert len(failed.recovery) == 1
        report = failed.recovery[0]
        assert report.victims == (0, 1)
        assert report.rollback_ranks == (0, 1, 2, 3)
        assert report.superseded_attempts == 1

    def test_channel_accounting_stays_exact(self, merged):
        base, failed, _ = merged
        assert _channel_totals(failed) == _channel_totals(base)

    def test_out_of_group_ranks_unaffected(self, merged):
        base, failed, _ = merged
        for b, f in zip(base.contexts, failed.contexts):
            if b.rank not in (0, 1, 2, 3):
                assert f.stats.ops_executed == b.stats.ops_executed

    def test_recovery_time_spans_from_the_original_failure(self, merged):
        """Superseded attempts count as recovery time, not as a free reset.

        The merged recovery starts at the second failure, but the group was
        dead/recovering since the first one — the measured recovery window
        must be anchored at the original failure instant.
        """
        _base, failed, injector = merged
        report = failed.recovery[0]
        t1, t2 = (e.time for e in injector.injected_events)
        assert report.failure_time == pytest.approx(t1)
        for rec in report.ranks:
            assert rec.recovery_time_s == pytest.approx(report.completed_at - t1)
            assert rec.recovery_time_s > t2 - t1

    def test_lost_work_not_double_counted(self, merged):
        """Between the halt and the second failure no work was executed.

        The merged report's lost work is bounded by what could actually have
        run: every rolled-back rank lost at most (second failure time −
        restored checkpoint), and the victims of the *first* kill lost only
        up to the first kill.
        """
        _base, failed, injector = merged
        report = failed.recovery[0]
        t1 = injector.injected_events[0].time
        for rec in report.ranks:
            assert rec.lost_work_s <= t1 + 1e-9 or rec.rank != 0


    def test_superseded_attempt_span_ends_at_the_abort(self):
        """The aborted attempt's recovery span closes when it is superseded."""
        telemetry = Telemetry()
        _base, _failed, injector = _merged_run(telemetry)
        spans = telemetry.tracer.spans
        aborted, converged = [s for s in spans if s.name == "recovery"]
        assert aborted.aborted and not converged.aborted
        assert aborted.end == pytest.approx(injector.injected_events[1].time)
        for span in spans:
            assert span.end >= span.start, span


# ---------------------------------------------------------------- spare placement
class TestSparePlacement:
    @pytest.fixture(scope="class")
    def runs(self):
        """Same single-failure scenario: spares on vs in-place reboot."""
        runtime, _ = _launch()
        base = runtime.run_to_completion(limit_s=1e5)
        kill_at = base.makespan * 0.6
        node0 = runtime.ctx(0).node_id
        model = lambda: TraceFailureModel([FailureEvent(kill_at, node0)])
        rt_spare, inj_spare = _launch(model=model(), n_spares=2,
                                      reboot_delay_s=20.0)
        spare = rt_spare.run_to_completion(limit_s=1e6)
        rt_place, _ = _launch(model=model(), n_spares=0, reboot_delay_s=20.0)
        inplace = rt_place.run_to_completion(limit_s=1e6)
        return base, spare, inplace, rt_spare, node0

    def test_victim_relaunches_on_spare(self, runs):
        _base, spare, _inplace, runtime, node0 = runs
        report = spare.recovery[0]
        assert len(report.placements) == 1
        rank, from_node, to_node = report.placements[0]
        assert (rank, from_node) == (0, node0)
        assert runtime.ctx(0).node_id == to_node != node0
        # placement maps were rewired: the spare hosts the rank now
        assert 0 in runtime.cluster.nodes[to_node].ranks
        assert 0 not in runtime.cluster.nodes[node0].ranks
        assert runtime.cluster.node_of(0) == to_node
        assert report.inplace_reboots == 0
        assert spare.recovery_stats["spare_migrations"] == 1

    def test_post_recovery_traffic_flows_over_the_new_nic(self, runs):
        base, spare, _inplace, runtime, _ = runs
        # the run completed with exact channel totals — every post-recovery
        # message to/from rank 0 was delivered through the spare node's NIC
        assert all(ctx.finished for ctx in spare.contexts)
        assert _channel_totals(spare) == _channel_totals(base)

    def test_spare_beats_inplace_reboot(self, runs):
        _base, spare, inplace, _runtime, _ = runs
        assert inplace.recovery[0].inplace_reboots == 1
        assert inplace.recovery[0].placements == []
        assert spare.makespan < inplace.makespan

    def test_exhausted_pool_degrades_to_inplace(self):
        runtime, _ = _launch()
        base = runtime.run_to_completion(limit_s=1e5)
        kill_at = base.makespan * 0.6
        events = [FailureEvent(kill_at, runtime.ctx(0).node_id),
                  FailureEvent(kill_at + 0.1, runtime.ctx(8).node_id)]
        runtime2, injector = _launch(model=TraceFailureModel(events),
                                     n_spares=1, reboot_delay_s=1.0)
        failed = runtime2.run_to_completion(limit_s=1e6)
        assert all(ctx.finished for ctx in failed.contexts)
        pool = injector.manager.spare_pool
        # the pool was dry when the second failure hit (in-place reboot), and
        # the first victim's abandoned node later rebooted and re-registered
        # as a spare (refill), so the pool ends refilled rather than empty
        assert pool.exhausted_requests == 1
        assert pool.refilled == 1
        assert pool.remaining == 1
        assert failed.recovery_stats["spare_refills"] == 1
        assert failed.recovery_stats["spare_migrations"] == 1
        assert sum(r.inplace_reboots for r in failed.recovery) == 1
        assert _channel_totals(failed) == _channel_totals(base)

    def test_idle_spare_death_leaves_the_pool(self):
        """A failure striking an unused spare must retire it, not be ignored."""
        spec = dataclasses.replace(GIDEON_300, n_nodes=18)
        runtime, _ = _launch(spec=spec)
        base = runtime.run_to_completion(limit_s=1e5)
        kill_at = base.makespan * 0.6
        # nodes 16/17 are the spares; kill spare 17 first, then rank 0's node
        events = [FailureEvent(kill_at - 0.5, 17),
                  FailureEvent(kill_at, runtime.ctx(0).node_id)]
        runtime2, injector = _launch(spec=spec, n_spares=2, reboot_delay_s=5.0,
                                     model=TraceFailureModel(events))
        failed = runtime2.run_to_completion(limit_s=1e6)
        pool = injector.manager.spare_pool
        assert len(injector.ignored_events) == 1
        assert pool.lost_spares == 1
        assert runtime2.cluster.nodes[17].failed
        # the victim was placed on the surviving spare, never the dead one
        (placement,) = pool.placements
        assert placement.to_node == 16
        assert all(ctx.finished for ctx in failed.contexts)

    def test_aborted_attempt_returns_unused_spare(self):
        """A spare reserved by a superseded attempt that never migrated goes back.

        The second failure lands within the detection window, before the
        first attempt's restart coroutines (and hence the migration) run:
        the reservation must be released so the merged attempt can use it,
        and the pool statistics must reflect the one migration that really
        happened.
        """
        spec = dataclasses.replace(GIDEON_300, n_nodes=18)
        runtime, _ = _launch(spec=spec)
        base = runtime.run_to_completion(limit_s=1e5)
        kill_at = base.makespan * 0.6
        events = [FailureEvent(kill_at, runtime.ctx(0).node_id),
                  FailureEvent(kill_at + 0.1, runtime.ctx(1).node_id)]
        runtime2, injector = _launch(spec=spec, n_spares=2, reboot_delay_s=5.0,
                                     model=TraceFailureModel(events))
        failed = runtime2.run_to_completion(limit_s=1e6)
        assert failed.recovery_stats["aborted_recoveries"] == 1
        report = failed.recovery[0]
        # both victims migrated in the merged attempt; no reservation leaked
        pool = injector.manager.spare_pool
        assert len(report.placements) == 2
        assert failed.recovery_stats["spare_migrations"] == 2
        assert len(pool.placements) == 2
        assert pool.remaining == 0 and pool.exhausted_requests == 0
        assert all(ctx.finished for ctx in failed.contexts)

    def test_same_switch_spare_preferred(self):
        # 20 nodes, 10 per switch: ranks 0..15, spares 16..19 live on switch 1
        spec = dataclasses.replace(GIDEON_300, n_nodes=20, nodes_per_switch=10)
        runtime, _ = _launch(spec=spec)
        base = runtime.run_to_completion(limit_s=1e5)
        kill_at = base.makespan * 0.6
        victim_node = runtime.ctx(12).node_id  # node 12, switch 1
        runtime2, injector = _launch(
            spec=spec, n_spares=2, reboot_delay_s=5.0,
            model=TraceFailureModel([FailureEvent(kill_at, victim_node)]))
        failed = runtime2.run_to_completion(limit_s=1e6)
        placement = injector.manager.spare_pool.placements[0]
        assert placement.same_switch
        assert failed.recovery_stats["spare_same_switch"] == 1
        assert failed.recovery[0].same_switch_placements == 1


# ------------------------------------------------------------------ determinism
class TestDeterminism:
    METRICS = staticmethod(lambda app: (
        app.makespan,
        app.checkpoints_completed,
        [(r.failure_time, r.node, r.victims, r.rollback_ranks, r.target_ckpt_id,
          r.total_lost_work_s, r.max_recovery_time_s, r.replayed_bytes,
          r.completed_at, tuple(r.placements), r.inplace_reboots,
          r.superseded_attempts) for r in app.recovery],
        sorted(app.recovery_stats.items()),
        sum(c.stats.skipped_bytes for c in app.contexts),
    ))

    def _multi_failure_run(self):
        model = PoissonFailureModel(rate_per_node_s=1 / 40.0,
                                    rng=RandomStreams(42), max_failures=4)
        runtime, _ = _launch(model=model, n_spares=2, reboot_delay_s=2.0)
        return runtime.run_to_completion(limit_s=1e6)

    def test_fastpath_settings_agree_bit_for_bit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
        fast = self.METRICS(self._multi_failure_run())
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        slow = self.METRICS(self._multi_failure_run())
        assert fast == slow
        assert fast[2], "the seeded model must inject at least one failure"

    def test_same_seed_reproduces_exactly(self):
        assert self.METRICS(self._multi_failure_run()) == \
            self.METRICS(self._multi_failure_run())


# ------------------------------------------------------- scenario/campaign glue
class TestScenarioIntegration:
    def test_failure_spec_spare_fields_round_trip(self):
        from repro.campaign.store import config_from_dict, config_to_dict, scenario_key

        cfg = ScenarioConfig(
            "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
            failure=FailureSpec(at_s=1.5, victim_rank=2, n_spares=3,
                                reboot_delay_s=12.5, serialize_recoveries=True))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert scenario_key(again) == scenario_key(cfg)

    def test_default_spare_fields_keep_pre_subsystem_keys(self):
        from repro.campaign.store import config_to_dict

        cfg = ScenarioConfig(
            "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
            failure=FailureSpec(at_s=1.5))
        data = config_to_dict(cfg)
        assert "n_spares" not in data["failure"]
        assert "reboot_delay_s" not in data["failure"]
        assert "serialize_recoveries" not in data["failure"]
        assert "nodes_per_switch" not in data["cluster"]

    def test_run_scenario_wires_spares_and_payload(self):
        from repro.campaign.results import metrics_payload

        spec = dataclasses.replace(GIDEON_300, n_nodes=18)
        cfg = ScenarioConfig(
            "halo2d", 16, "GP4", periodic(0.3), cluster=spec,
            do_restart=False, seed=3,
            failure=FailureSpec(at_s=1.9, victim_rank=0, n_spares=2,
                                reboot_delay_s=10.0))
        result = run_scenario(cfg)
        assert result.failures_injected == 1
        assert result.spare_migrations == 1
        assert result.inplace_reboots == 0
        assert 0.0 < result.availability < 1.0
        assert result.recovery_rank_seconds > 0
        payload = metrics_payload(result)
        assert payload["spare_migrations"] == 1
        assert payload["availability"] == result.availability
        assert payload["max_concurrent_recoveries"] == 1


# --------------------------------------------------------- availability sweep
class TestAvailabilityExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.campaign.executor import reset_default_campaign
        from repro.experiments.availability import AVAILABILITY

        reset_default_campaign()
        out = AVAILABILITY.run(
            mtbf_per_node_s=(240.0, 100.0, 50.0), spare_counts=(0, 2),
            seeds=(0, 1))
        reset_default_campaign()
        return out

    def test_makespan_ordering_holds_across_rates(self, sweep):
        cells = {(c.method, c.mtbf_per_node_s, c.n_spares): c
                 for c in sweep["cells"]}
        for mtbf in (240.0, 100.0, 50.0):
            for spares in (0, 2):
                norm = cells[("NORM", mtbf, spares)].makespan_s
                gp = cells[("GP", mtbf, spares)].makespan_s
                gp1 = cells[("GP1", mtbf, spares)].makespan_s
                assert norm >= gp >= gp1, (mtbf, spares, norm, gp, gp1)

    def test_failures_were_actually_injected(self, sweep):
        by_method = {}
        for cell in sweep["cells"]:
            by_method.setdefault(cell.method, 0.0)
            by_method[cell.method] += cell.failures
        assert all(total > 0 for total in by_method.values()), by_method

    def test_spares_never_worse_than_inplace(self, sweep):
        cells = {(c.method, c.mtbf_per_node_s, c.n_spares): c
                 for c in sweep["cells"]}
        for (method, mtbf, spares), cell in cells.items():
            if spares == 0:
                continue
            inplace = cells[(method, mtbf, 0)]
            assert cell.makespan_s <= inplace.makespan_s + 1e-9, \
                (method, mtbf, cell.makespan_s, inplace.makespan_s)

    def test_availability_degrades_gracefully_for_gp(self, sweep):
        cells = {(c.method, c.mtbf_per_node_s, c.n_spares): c
                 for c in sweep["cells"]}
        # at the harshest rate, grouping beats global rollback on availability
        assert (cells[("GP", 50.0, 0)].availability
                > cells[("NORM", 50.0, 0)].availability)
        assert (cells[("GP1", 50.0, 0)].availability
                > cells[("NORM", 50.0, 0)].availability)

    def test_calibrated_interval_table(self, sweep):
        from repro.experiments.availability import calibrated_interval_table

        out = calibrated_interval_table(sweep["results"], mtbf_s=5000.0)
        for method, entry in out["suggestions"].items():
            assert entry["costs"].recovery_cost_s > 0
            assert (entry["calibrated"].interval_s
                    <= entry["analytic"].interval_s), method

    def test_repeated_grid_value_runs_and_counts_once(self):
        from repro.analysis.reporting import table_to_dict
        from repro.campaign.executor import reset_default_campaign
        from repro.experiments.availability import AVAILABILITY

        grid = dict(methods=("GP1",), mtbf_per_node_s=(50.0,), seeds=(0,))
        reset_default_campaign()
        try:
            once = AVAILABILITY.run(spare_counts=(0,), **grid)
            twice = AVAILABILITY.run(spare_counts=(0, 0), **grid)
        finally:
            reset_default_campaign()
        assert table_to_dict(twice["table"]) == table_to_dict(once["table"])
        assert [cell.n_seeds for cell in twice["cells"]] == [1]
