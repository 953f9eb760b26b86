"""Tests for the multi-level checkpoint-storage hierarchy.

Covers: the :class:`~repro.storage.policy.StoragePolicy` and its FTI-style
level scheduling, topology-aware partner placement, the legacy single-tier
delegation (byte-identical to the pre-hierarchy model, locked against the
parity goldens), the :class:`~repro.cluster.failure.SwitchOutageFailureModel`
(seeded determinism, victim set = switch membership), end-to-end correlated
failure survival (unsurvivable with same-switch partners, recovers from
cross-switch L2 and from L3 with exactly-once channel accounting), the
recovery-aware checkpoint coordinator, the campaign serialisation of the new
config fields, the payload v5 metrics, and the advisor's multi-level
interval suggestion.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.advisor import suggest_multilevel_intervals
from repro.campaign.results import metrics_payload, StoredResult
from repro.campaign.store import config_from_dict, config_to_dict, scenario_key
from repro.ckpt.scheduler import one_shot, periodic, tier_levels
from repro.cluster.failure import FailureEvent, SwitchOutageFailureModel
from repro.cluster.topology import GIDEON_300, Cluster, ClusterSpec
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.parity import parity_metrics, quick_parity_configs, scenario_label
from repro.experiments.runner import run_scenario
from repro.experiments.storage_tiers import (
    DEFAULT_WORKLOAD_OPTIONS,
    STORAGE_TIERS,
    policy_label,
    storage_tier_configs,
    survivability_matrix,
    tier_cost_calibration,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.storage.policy import (
    PARTNER_SAME_SWITCH,
    StoragePolicy,
    full_hierarchy,
    local_only,
    partner_replicated,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "quick_parity_golden.json")


def _channel_totals(app):
    out = {}
    for ctx in app.contexts:
        for peer in ctx.account.peers():
            out[(ctx.rank, peer, "S")] = ctx.account.sent_to(peer)
            out[(ctx.rank, peer, "Sm")] = ctx.account.messages_sent_to(peer)
            out[(ctx.rank, peer, "R")] = ctx.account.received_from(peer)
            out[(ctx.rank, peer, "Rm")] = ctx.account.messages_received_from(peer)
    return out


# ------------------------------------------------------------------ policy unit
class TestStoragePolicy:
    def test_defaults_are_l1_only(self):
        policy = StoragePolicy()
        assert policy.levels == ("L1",)
        assert policy.uses_l1 and not policy.uses_l2 and not policy.uses_l3

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            StoragePolicy(levels=("L1", "L9"))

    def test_rejects_async_only_hierarchy(self):
        with pytest.raises(ValueError):
            StoragePolicy(levels=("L2",))

    def test_rejects_duplicate_levels(self):
        with pytest.raises(ValueError):
            StoragePolicy(levels=("L1", "L1"))

    def test_rejects_bad_promotion_intervals(self):
        with pytest.raises(ValueError):
            StoragePolicy(levels=("L1", "L2"), l2_every=0)

    def test_describe_names_placement_and_intervals(self):
        text = full_hierarchy(l2_every=2, l3_every=4).describe()
        assert "L1" in text and "cross_switch/2" in text and "L3/4" in text


class TestTierLevels:
    def test_every_checkpoint_hits_all_levels_by_default(self):
        policy = full_hierarchy()
        assert tier_levels(policy, 0) == ("L1", "L2", "L3")
        assert tier_levels(policy, 7) == ("L1", "L2", "L3")

    def test_promotion_intervals_select_waves(self):
        policy = full_hierarchy(l2_every=2, l3_every=4)
        assert tier_levels(policy, 0) == ("L1",)
        assert tier_levels(policy, 1) == ("L1", "L2")
        assert tier_levels(policy, 3) == ("L1", "L2", "L3")

    def test_l3_only_policy_always_has_a_sync_home(self):
        policy = StoragePolicy(levels=("L3",), l3_every=3)
        # waves not due for L3 still land on it: an image with no durable
        # copy could never be restarted from
        assert tier_levels(policy, 0) == ("L3",)
        assert tier_levels(policy, 2) == ("L3",)


# ------------------------------------------------------------- partner placement
class TestPartnerPlacement:
    def _hierarchy(self, n_nodes, nodes_per_switch, policy):
        spec = dataclasses.replace(GIDEON_300, n_nodes=n_nodes,
                                   nodes_per_switch=nodes_per_switch,
                                   storage_policy=policy)
        return Cluster(Simulator(), spec).hierarchy

    def test_cross_switch_partner_is_on_another_switch(self):
        h = self._hierarchy(12, 4, partner_replicated())
        for node in range(12):
            partner = h.partner_of(node)
            assert partner is not None
            assert not h.topology.same_switch(node, partner), (node, partner)

    def test_same_switch_partner_stays_in_rack(self):
        h = self._hierarchy(12, 4, partner_replicated(placement=PARTNER_SAME_SWITCH))
        for node in range(12):
            partner = h.partner_of(node)
            assert partner is not None and partner != node
            assert h.topology.same_switch(node, partner), (node, partner)

    def test_single_switch_cluster_degrades_to_ring(self):
        h = self._hierarchy(4, 32, partner_replicated())
        assert [h.partner_of(n) for n in range(4)] == [1, 2, 3, 0]

    def test_uneven_last_switch_wraps_offsets(self):
        h = self._hierarchy(6, 4, partner_replicated())  # switches {0..3}, {4,5}
        for node in range(6):
            partner = h.partner_of(node)
            assert partner is not None
            assert not h.topology.same_switch(node, partner)


# ------------------------------------------------- legacy delegation (satellite)
class TestLegacyTierApiParity:
    def test_legacy_write_read_delegate_to_base_storage(self):
        """hierarchy.write/read must cost exactly what the raw storage costs."""
        def elapsed(use_hierarchy):
            sim = Simulator()
            cluster = Cluster(sim, GIDEON_300.with_nodes(4).with_remote_checkpointing(2))
            target = cluster.hierarchy if use_hierarchy else cluster.checkpoint_storage

            times = {}

            def driver():
                t = yield from target.write(1, 10 * 1024 * 1024)
                times["write"] = t
                t = yield from target.read(1, 10 * 1024 * 1024)
                times["read"] = t

            sim.process(driver())
            sim.run()
            return times, sim.now

        assert elapsed(True) == elapsed(False)

    def test_remote_storage_golden_parity_through_tier_api(self):
        """The Figure-13-style remote config reproduces its golden bit-for-bit.

        All storage traffic now routes through the hierarchy's tier API; this
        locks the legacy remote path (and with it Figure 13's benchmark)
        against the pre-hierarchy golden metrics.
        """
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        config = next(c for c in quick_parity_configs()
                      if c.cluster.checkpoint_storage == "remote")
        label = scenario_label(config)
        result = run_scenario(config)
        assert parity_metrics(result) == golden[label]["metrics"]

    def test_legacy_runs_report_base_tier_bytes(self):
        config = ScenarioConfig("ring", 8, "GP", one_shot(0.3), seed=3)
        result = run_scenario(config)
        written = result.tier_bytes_written
        assert written["L1"] > 0 and written["L2"] == 0 and written["L3"] == 0
        assert result.partner_copies == 0


# --------------------------------------------------------- switch-outage model
class TestSwitchOutageModel:
    def test_deterministic_outage_kills_exactly_the_switch(self):
        model = SwitchOutageFailureModel(at_s=10.0, switch=1, nodes_per_switch=4)
        events = model.failures(horizon=100.0, n_nodes=12)
        assert {e.node for e in events} == {4, 5, 6, 7}
        assert all(e.time == 10.0 for e in events)
        assert all(e.cause == "switch-outage" for e in events)
        assert all(e.destroys_disk for e in events)

    def test_outage_beyond_horizon_or_switch_range_is_empty(self):
        model = SwitchOutageFailureModel(at_s=200.0, switch=0, nodes_per_switch=4)
        assert model.failures(horizon=100.0, n_nodes=12) == []
        model = SwitchOutageFailureModel(at_s=10.0, switch=9, nodes_per_switch=4)
        assert model.failures(horizon=100.0, n_nodes=12) == []

    def test_disk_sparing_outage(self):
        model = SwitchOutageFailureModel(at_s=5.0, switch=0, nodes_per_switch=2,
                                         destroy_disks=False)
        assert all(not e.destroys_disk for e in model.failures(10.0, 4))

    def test_poisson_outages_are_seed_deterministic(self):
        def outages(seed):
            model = SwitchOutageFailureModel(
                rate_per_switch_s=0.01, nodes_per_switch=4,
                rng=RandomStreams(seed), max_outages=5)
            return model.outages(horizon=1000.0, n_nodes=16)

        assert outages(7) == outages(7)
        assert outages(7) != outages(8)

    def test_poisson_victims_cover_whole_switches(self):
        model = SwitchOutageFailureModel(
            rate_per_switch_s=0.01, nodes_per_switch=4,
            rng=RandomStreams(1), max_outages=3)
        events = model.failures(horizon=1000.0, n_nodes=16)
        by_time = {}
        for e in events:
            by_time.setdefault(e.time, set()).add(e.node)
        topo_switch = lambda node: node // 4
        for victims in by_time.values():
            switches = {topo_switch(v) for v in victims}
            assert len(switches) == 1
            assert victims == set(range(min(victims), min(victims) + 4))

    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            SwitchOutageFailureModel()
        with pytest.raises(ValueError):
            SwitchOutageFailureModel(at_s=1.0, rate_per_switch_s=0.1)


# --------------------------------------------------- failure-spec serialisation
class TestConfigSerialisation:
    def test_switch_outage_spec_requires_one_mode(self):
        with pytest.raises(ValueError):
            FailureSpec(at_s=1.0, switch_outage_at_s=2.0)
        with pytest.raises(ValueError):
            FailureSpec()

    def test_pre_hierarchy_keys_are_stable(self):
        config = ScenarioConfig("halo2d", 8, "GP1", periodic(4.0),
                                failure=FailureSpec(at_s=2.0))
        data = config_to_dict(config)
        assert "storage_policy" not in data["cluster"]
        assert "switch_outage_at_s" not in data["failure"]
        assert "outage_switch" not in data["failure"]

    def test_policy_and_outage_round_trip(self):
        cluster = dataclasses.replace(
            GIDEON_300, n_nodes=12, nodes_per_switch=4,
            storage_policy=full_hierarchy(l2_every=2, l3_every=4))
        config = ScenarioConfig(
            "halo2d", 8, "GP1", periodic(4.0), cluster=cluster,
            failure=FailureSpec(switch_outage_at_s=6.0, outage_switch=1))
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert scenario_key(rebuilt) == scenario_key(config)

    def test_policy_changes_the_key(self):
        base = ScenarioConfig("halo2d", 8, "GP1", periodic(4.0))
        tiered = dataclasses.replace(
            base, cluster=base.cluster.with_storage_policy(partner_replicated()))
        assert scenario_key(base) != scenario_key(tiered)


# --------------------------------------------------------------- e2e survival
def _tier_config(policy, kind, method="GP1", n_spares=2):
    cluster = dataclasses.replace(
        GIDEON_300, n_nodes=16 + n_spares, nodes_per_switch=4,
        storage_policy=policy, name="storage-tiers")
    failure = None
    if kind == "node-crash":
        failure = FailureSpec(at_s=12.0, victim_rank=0, n_spares=n_spares,
                              reboot_delay_s=5.0)
    elif kind == "switch-outage":
        failure = FailureSpec(switch_outage_at_s=12.0, outage_switch=0,
                              n_spares=n_spares, reboot_delay_s=5.0)
    return ScenarioConfig(
        workload="halo2d", n_ranks=16, method=method, schedule=periodic(2.0),
        cluster=cluster, seed=0,
        workload_options=dict(DEFAULT_WORKLOAD_OPTIONS),
        max_group_size=8, do_restart=False, failure=failure)


class TestCorrelatedFailureSurvival:
    @pytest.fixture(scope="class")
    def outage_runs(self):
        return {
            "L1": run_scenario(_tier_config(local_only(), "switch-outage")),
            "L2same": run_scenario(_tier_config(
                partner_replicated(placement=PARTNER_SAME_SWITCH), "switch-outage")),
            "L2cross": run_scenario(_tier_config(partner_replicated(), "switch-outage")),
            "L3": run_scenario(_tier_config(full_hierarchy(), "switch-outage")),
            "baseline": run_scenario(_tier_config(partner_replicated(), "none")),
        }

    def test_outage_unsurvivable_without_offsite_copies(self, outage_runs):
        result = outage_runs["L1"]
        assert not result.survived
        assert "no surviving copy" in result.abort_reason
        # the run terminated at the abort instead of deadlocking
        assert result.makespan == pytest.approx(12.25)
        (report,) = result.recovery_reports
        assert report.unsurvivable and report.cause == "switch-outage"

    def test_outage_unsurvivable_with_same_switch_partners(self, outage_runs):
        result = outage_runs["L2same"]
        assert not result.survived
        assert result.partner_copies > 0  # replicas existed — on the dead switch

    def test_outage_recovers_from_cross_switch_partners(self, outage_runs):
        result = outage_runs["L2cross"]
        assert result.survived
        assert result.outages_survived == 1
        tiers = {}
        for report in result.recovery_reports:
            assert not report.unsurvivable
            tiers.update(report.restore_tiers)
        # every victim rank was restored from its partner replica
        assert {tiers[rank] for rank in (0, 1, 2, 3)} == {"L2"}
        assert result.tier_bytes_read["L2"] > 0

    def test_outage_recovers_from_l3(self, outage_runs):
        result = outage_runs["L3"]
        assert result.survived
        assert result.outages_survived == 1
        tiers = {}
        for report in result.recovery_reports:
            tiers.update(report.restore_tiers)
        assert all(tiers[rank] in ("L2", "L3") for rank in (0, 1, 2, 3))
        assert result.tier_bytes_read["L3"] > 0 or result.tier_bytes_read["L2"] > 0

    def test_recovered_run_keeps_exactly_once_channels(self, outage_runs):
        base = outage_runs["baseline"]
        for key in ("L2cross", "L3"):
            recovered = outage_runs[key]
            assert _channel_totals(recovered.app) == _channel_totals(base.app), key

    def test_recovery_reports_are_measured(self, outage_runs):
        result = outage_runs["L2cross"]
        assert result.failures_injected >= 1
        assert result.measured_recovery_time_s > 0
        assert result.measured_lost_work_s > 0

    def test_outage_recovery_is_fastpath_bit_deterministic(self, monkeypatch):
        def metrics():
            result = run_scenario(_tier_config(partner_replicated(), "switch-outage"))
            return (
                result.makespan,
                result.checkpoints_completed,
                result.tier_bytes_written,
                result.tier_bytes_read,
                result.partner_copies,
                [(r.failure_time, r.rollback_ranks, r.target_ckpt_id,
                  dict(r.restore_tiers), r.completed_at)
                 for r in result.recovery_reports],
            )

        monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
        fast = metrics()
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        slow = metrics()
        assert fast == slow
        assert fast[5], "the outage must have injected a recovery"

    def test_node_crash_survives_on_l1_via_inplace_reboot(self):
        result = run_scenario(_tier_config(local_only(), "node-crash"))
        assert result.survived
        tiers = {}
        for report in result.recovery_reports:
            tiers.update(report.restore_tiers)
        assert tiers[0] == "L1"
        assert sum(r.inplace_reboots for r in result.recovery_reports) >= 1


# ---------------------------------------------- recovery-aware coordinator tick
class TestRecoveryAwareScheduling:
    def test_healthy_groups_checkpoint_while_one_recovers(self):
        result = run_scenario(_tier_config(partner_replicated(), "node-crash",
                                           method="GP4"))
        assert result.survived
        # the victim's group missed at least one tick mid-recovery, and the
        # coordinator kept issuing waves to the other groups meanwhile
        assert result.skipped_in_recovery >= 1
        assert result.checkpoints_completed >= 2


# ------------------------------------------------------------ payload & results
class TestPayloadV5:
    def test_payload_carries_tier_metrics(self):
        result = run_scenario(_tier_config(partner_replicated(), "none"))
        payload = metrics_payload(result)
        assert payload["survived"] == 1
        assert payload["tier_bytes_written"]["L2"] > 0
        assert payload["partner_copies"] > 0

    def test_pre_v5_payloads_default_gracefully(self):
        stored = StoredResult(ScenarioConfig("ring", 4), {"makespan": 1.0})
        assert stored.survived
        assert stored.tier_bytes_written == {}
        assert stored.partner_copies == 0
        assert stored.spare_refills == 0


# -------------------------------------------------------------- tier experiment
class TestStorageTierExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.campaign.executor import reset_default_campaign

        reset_default_campaign()
        out = STORAGE_TIERS.run(
            methods=("NORM", "GP", "GP1"),
            policies=("L1", "L1+L2", "L1+L2+L3"),
            failures=("none", "switch-outage"),
            seeds=(0,))
        reset_default_campaign()
        return out

    def test_overhead_ordering_per_method(self, sweep):
        by_cell = sweep["by_cell"]
        for method in ("NORM", "GP", "GP1"):
            l1 = by_cell[(method, "L1", "none", 0)].makespan
            l2 = by_cell[(method, "L1+L2", "none", 0)].makespan
            l3 = by_cell[(method, "L1+L2+L3", "none", 0)].makespan
            assert l1 <= l2 <= l3, (method, l1, l2, l3)

    def test_method_ordering_preserved_per_policy(self, sweep):
        by_cell = sweep["by_cell"]
        for policy in ("L1", "L1+L2", "L1+L2+L3"):
            norm = by_cell[("NORM", policy, "none", 0)].makespan
            gp = by_cell[("GP", policy, "none", 0)].makespan
            gp1 = by_cell[("GP1", policy, "none", 0)].makespan
            assert norm >= gp >= gp1, (policy, norm, gp, gp1)

    def test_survivability_matrix_reports_not_crashes(self, sweep):
        table = sweep["survivability"]
        rows = {row[0]: row for row in table.rows}
        l1_row = rows["L1"]
        assert any("UNSURVIVABLE" in str(cell) for cell in l1_row)
        for policy in ("L1+L2", "L1+L2+L3"):
            assert all("UNSURVIVABLE" not in str(cell) for cell in rows[policy])

    def test_tier_bytes_grow_with_levels(self, sweep):
        by_cell = sweep["by_cell"]
        for method in ("NORM", "GP", "GP1"):
            l2_cell = by_cell[(method, "L1+L2", "none", 0)]
            l3_cell = by_cell[(method, "L1+L2+L3", "none", 0)]
            assert l2_cell.tier_bytes_written["L2"] > 0
            assert l2_cell.tier_bytes_written["L3"] == 0
            assert l3_cell.tier_bytes_written["L3"] > 0

    def test_second_run_is_served_from_the_store(self):
        from repro.campaign.executor import get_default_campaign, reset_default_campaign

        reset_default_campaign()
        try:
            configs = storage_tier_configs(
                methods=("GP1",), policies=("L1",), failures=("none",), seeds=(0,))
            campaign = get_default_campaign()
            first = campaign.run(configs)
            store = campaign.store
            done_before = store.counts()["done"]
            second = campaign.run(configs)
            assert store.counts()["done"] == done_before
            assert first[0].metrics == second[0].metrics
        finally:
            reset_default_campaign()

    def test_calibration_feeds_the_multilevel_advisor(self, sweep):
        out = tier_cost_calibration(
            sweep["results"], crash_mtbf_s=600.0, node_loss_mtbf_s=3600.0,
            outage_mtbf_s=86400.0)
        suggestion = out["suggestion"]
        assert suggestion.intervals_s["L1"] <= suggestion.intervals_s["L2"] \
            <= suggestion.intervals_s["L3"]
        assert suggestion.multipliers["L1"] == 1
        assert suggestion.multipliers["L3"] >= suggestion.multipliers["L2"] >= 1
        args = suggestion.as_policy_args()
        policy = StoragePolicy(levels=("L1", "L2", "L3"), **args)
        assert policy.l3_every == suggestion.multipliers["L3"]


# -------------------------------------------------------------- advisor units
class TestMultiLevelAdvisor:
    def test_rarer_failures_get_sparser_levels(self):
        suggestion = suggest_multilevel_intervals(
            {"L1": 0.5, "L2": 1.0, "L3": 4.0},
            {"L1": 600.0, "L2": 7200.0, "L3": 864000.0})
        assert suggestion.multipliers["L1"] == 1
        assert suggestion.multipliers["L2"] > 1
        assert suggestion.multipliers["L3"] > suggestion.multipliers["L2"]
        assert suggestion.base_interval_s == suggestion.intervals_s["L1"]

    def test_missing_mtbf_is_an_error(self):
        with pytest.raises(ValueError):
            suggest_multilevel_intervals({"L1": 0.5, "L2": 1.0}, {"L1": 600.0})

    def test_describe_mentions_promotions(self):
        suggestion = suggest_multilevel_intervals(
            {"L1": 0.5, "L2": 1.0}, {"L1": 600.0, "L2": 7200.0})
        text = suggestion.describe()
        assert "L1 every" in text and "-th ckpt" in text


# ------------------------------------------------------------------ spare refill
class TestSpareRefill:
    def test_refilled_node_serves_a_later_failure(self):
        # two sequential crashes, one spare: without refill the second kill
        # degrades to an in-place reboot; with refill the first victim's
        # rebooted node is back in the pool and serves the second placement
        cluster = dataclasses.replace(
            GIDEON_300, n_nodes=17, nodes_per_switch=4,
            storage_policy=full_hierarchy(), name="storage-tiers")
        config = ScenarioConfig(
            workload="halo2d", n_ranks=16, method="GP1",
            schedule=periodic(2.0), cluster=cluster, seed=0,
            workload_options=dict(DEFAULT_WORKLOAD_OPTIONS),
            max_group_size=8, do_restart=False,
            failure=FailureSpec(mtbf_per_node_s=60.0, max_failures=3, seed=3,
                                n_spares=1, reboot_delay_s=1.0))
        result = run_scenario(config)
        assert result.survived
        stats = result.recovery_stats
        if stats.get("spare_migrations", 0) >= 2:
            # the pool had 1 spare; a second migration proves a refill landed
            assert stats.get("spare_refills", 0) >= 1
        assert result.spare_refills == stats.get("spare_refills", 0)
