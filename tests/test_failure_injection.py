"""Live failure injection: kill ranks mid-run, measure real rollback + replay.

The assertions pin down the properties the measured failure experiments rely
on:

* **Scoped rollback** — only the victim's checkpoint group loses progress
  past its last coordinated checkpoint; out-of-group ranks execute exactly
  the operations of the failure-free run.
* **Exactly-once channels** — after recovery, every channel's cumulative
  sent/received byte and message totals equal the failure-free run's (skip
  accounting, connection-reset drops and log replay deliver every byte
  exactly once).
* **Replay structure** — replayed channels exist iff the protocol logs
  inter-group traffic (none under NORM, sender logs under GP-k/GP1), and
  every replayed channel crosses a group boundary and touches the rollback
  set.
* **Determinism** — a seeded :class:`PoissonFailureModel` produces identical
  recovery metrics with ``REPRO_SIM_FASTPATH=0`` and ``=1``.
* **Interrupted coordination** — a kill in the middle of a bookmark fan-out
  or gather stops it where the per-peer loop it replaces stopped.
* **Measured vs analytic** — measured lost work preserves the paper's
  NORM >= GP-k >= GP1 ordering and tracks the analytic model on the same grid.
"""

from __future__ import annotations

import pytest

from repro.ckpt.scheduler import periodic
from repro.cluster.failure import (
    FailureEvent,
    FailureInjector,
    PoissonFailureModel,
    TraceFailureModel,
)
from repro.cluster.topology import Cluster, GIDEON_300
from repro.core.coordinator import CheckpointCoordinator
from repro.core.protocol import _TAG_BOOKMARK, _ctrl_tag
from repro.experiments.config import QUICK, FailureSpec, ScenarioConfig
from repro.experiments.runner import build_family, build_workload, run_scenario
from repro.mpi.runtime import Inbox, MpiRuntime, _ControlFanout
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _launch(method="GP4", n=16, workload="halo2d", interval=0.3, seed=7,
            failure_model=None, detection_delay_s=0.25):
    """Build a runtime (+ optional injector) for a QUICK-ish scenario."""
    wl = build_workload(workload, n, {})
    spec = GIDEON_300.with_nodes(max(GIDEON_300.n_nodes, n))
    family = build_family(method, n, workload, {}, None, None)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, n, protocol_family=family,
                         rng=RandomStreams(seed))
    runtime.set_memory(wl.memory_map())
    CheckpointCoordinator(runtime, family, periodic(interval)).start()
    injector = None
    if failure_model is not None:
        injector = FailureInjector(runtime, failure_model,
                                   detection_delay_s=detection_delay_s)
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


@pytest.fixture(scope="module")
def gp4_pair():
    """One failure-free and one killed run of the same GP4 scenario."""
    runtime, _ = _launch()
    base = runtime.run_to_completion(limit_s=1e5)
    kill_at = base.makespan * 0.6
    node = runtime.ctx(0).node_id  # placement is deterministic across runs
    runtime2, injector = _launch(
        failure_model=TraceFailureModel([FailureEvent(kill_at, node)]))
    failed = runtime2.run_to_completion(limit_s=1e6)
    return base, failed, runtime2, injector


class TestScopedRollback:
    def test_run_completes_and_only_victim_group_rolls_back(self, gp4_pair):
        base, failed, runtime, injector = gp4_pair
        assert all(ctx.finished for ctx in failed.contexts)
        assert len(injector.injected_events) == 1
        assert len(failed.recovery) == 1
        report = failed.recovery[0]
        # GP4 on 16 ranks: rank 0's group is (0, 1, 2, 3)
        assert report.rollback_ranks == (0, 1, 2, 3)
        rolled = set(report.rollback_ranks)
        for ctx in failed.contexts:
            if ctx.rank in rolled:
                assert ctx.stats.rollbacks == 1
            else:
                assert ctx.stats.rollbacks == 0

    def test_out_of_group_ranks_do_no_extra_work(self, gp4_pair):
        base, failed, _, _ = gp4_pair
        rolled = set(failed.recovery[0].rollback_ranks)
        for b, f in zip(base.contexts, failed.contexts):
            if b.rank in rolled:
                # lost work really was re-executed
                assert f.stats.ops_executed > b.stats.ops_executed
            else:
                assert f.stats.ops_executed == b.stats.ops_executed

    def test_rollback_target_is_a_coordinated_checkpoint(self, gp4_pair):
        _, failed, runtime, _ = gp4_pair
        report = failed.recovery[0]
        assert report.target_ckpt_id is not None
        for rank in report.rollback_ranks:
            ids = [s.ckpt_id for s in runtime.ctx(rank).protocol.snapshot_history()]
            assert report.target_ckpt_id in ids
        # lost work per rank = failure time minus that checkpoint's completion
        for rec in report.ranks:
            assert rec.lost_work_s > 0
            assert rec.recovery_time_s > 0

    def test_channel_totals_match_failure_free_run(self, gp4_pair):
        base, failed, _, _ = gp4_pair
        assert _channel_totals(failed) == _channel_totals(base)

    def test_makespan_grows_by_the_disruption(self, gp4_pair):
        base, failed, _, _ = gp4_pair
        assert failed.makespan > base.makespan


class TestReplayStructure:
    def test_gp4_replays_only_inter_group_channels(self, gp4_pair):
        _, failed, runtime, _ = gp4_pair
        report = failed.recovery[0]
        assert report.channels, "inter-group traffic must be replayed under GP4"
        rolled = set(report.rollback_ranks)
        family = runtime.protocol_family
        for ch in report.channels:
            assert ch.src in rolled or ch.dst in rolled
            assert family.group_id_of(ch.src) != family.group_id_of(ch.dst)
            assert ch.nbytes > 0 and ch.n_messages > 0
        assert report.replayed_bytes == sum(c.nbytes for c in report.channels)

    def test_replayed_bytes_match_sender_log_plans(self, gp4_pair):
        """Replay must equal the gap between restored R and the sender's S.

        For every channel into the rollback set, the bytes the receiver was
        missing at rollback (sender's cumulative S at the kill minus the
        receiver's restored RR) must be covered exactly once — by replay for
        data the (non-rolled-back) sender will not re-send.  Since final
        totals equal the failure-free run (exactly-once), here we check the
        replay channels are consistent with the snapshots they restored.
        """
        _, failed, runtime, _ = gp4_pair
        report = failed.recovery[0]
        target = report.target_ckpt_id
        by_channel = {(c.src, c.dst): c for c in report.channels}
        for (src, dst), ch in by_channel.items():
            if dst not in set(report.rollback_ranks):
                continue
            snap = next(s for s in runtime.ctx(dst).protocol.snapshot_history()
                        if s.ckpt_id == target)
            restored_rr = snap.resume.rr.get(src, 0)
            # replayed data strictly extends what the restored rank had
            assert ch.nbytes > 0
            assert restored_rr + ch.nbytes <= runtime.ctx(src).account.sent_to(dst)

    def test_norm_needs_no_replay(self):
        runtime, _ = _launch(method="NORM")
        base = runtime.run_to_completion(limit_s=1e5)
        node = None
        runtime, injector = _launch(
            method="NORM",
            failure_model=TraceFailureModel(
                [FailureEvent(base.makespan * 0.6, 0)]))
        failed = runtime.run_to_completion(limit_s=1e6)
        report = failed.recovery[0]
        # one global group: everyone rolls back, nothing is inter-group
        assert len(report.rollback_ranks) == failed.n_ranks
        assert report.channels == []
        assert report.replayed_bytes == 0
        assert _channel_totals(failed) == _channel_totals(base)

    def test_failure_before_first_checkpoint_restarts_from_scratch(self):
        runtime, injector = _launch(
            failure_model=TraceFailureModel([FailureEvent(0.05, 0)]),
            interval=0.4)
        failed = runtime.run_to_completion(limit_s=1e6)
        report = failed.recovery[0]
        assert report.target_ckpt_id is None
        assert all(ctx.finished for ctx in failed.contexts)
        for rec in report.ranks:
            assert rec.image_bytes == 0  # nothing to restore, re-created fresh


class TestDeterminism:
    METRICS = staticmethod(lambda app: (
        app.makespan,
        app.checkpoints_completed,
        [(r.failure_time, r.node, r.rollback_ranks, r.target_ckpt_id,
          r.total_lost_work_s, r.max_recovery_time_s, r.replayed_bytes,
          r.replayed_messages, r.completed_at) for r in app.recovery],
        sum(c.stats.skipped_bytes for c in app.contexts),
        sum(c.stats.skipped_sends for c in app.contexts),
    ))

    def _poisson_run(self):
        model = PoissonFailureModel(rate_per_node_s=1 / 120.0,
                                    rng=RandomStreams(42), max_failures=2)
        runtime, _ = _launch(failure_model=model)
        return runtime.run_to_completion(limit_s=1e6)

    def test_fastpath_settings_agree_bit_for_bit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
        fast = self.METRICS(self._poisson_run())
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        slow = self.METRICS(self._poisson_run())
        assert fast == slow
        assert fast[2], "the seeded model must inject at least one failure"

    def test_same_seed_reproduces_exactly(self):
        a = self.METRICS(self._poisson_run())
        b = self.METRICS(self._poisson_run())
        assert a == b


#: tag of the bookmarks of the first checkpoint (id 0)
_BOOKMARK = _ctrl_tag(0, _TAG_BOOKMARK)


def _log_control(monkeypatch):
    """Log every control message built and every one an inbox hands out.

    Entries are ``(what, rank, peer, time, tag)``: ``("built", src, dst,
    ...)`` when a fan-out builds a message, and ``("taken", receiving rank,
    src, ...)`` when the control mailbox hands one to a consumer — at
    delivery to a posted consumer, or when a consumer takes a buffered one.
    """
    log = []
    build, finish, take = (_ControlFanout._build, MpiRuntime._finish_delivery,
                           Inbox.take_control)

    def logged_build(self):
        build(self)
        msg = self.msg
        log.append(("built", msg.src, msg.dst, msg.sent_at, msg.tag))

    def logged_finish(self, msg):
        inbox = self.contexts[msg.dst].inbox
        posted = (msg.kind, msg.tag) in inbox._posted
        finish(self, msg)
        if posted and (msg.kind, msg.tag) not in inbox._posted:
            log.append(("taken", msg.dst, msg.src, self.sim.now, msg.tag))

    def logged_take(self, kind, tag, consumer):
        mail = self._mail.get((kind, tag))
        if mail:
            log.append(("taken", self.rank, mail[0].src, self.sim.now, tag))
        take(self, kind, tag, consumer)

    monkeypatch.setattr(_ControlFanout, "_build", logged_build)
    monkeypatch.setattr(MpiRuntime, "_finish_delivery", logged_finish)
    monkeypatch.setattr(Inbox, "take_control", logged_take)
    return log


def _rank0_bookmarks(log, what):
    return [t for w, rank, _, t, tag in log if w == what and rank == 0 and tag == _BOOKMARK]


@pytest.fixture(scope="module")
def rank0_bookmarks():
    """When rank 0 builds and takes its first-checkpoint bookmarks, failure-free.

    NORM on 16 ranks: rank 0 sends its 15 bookmarks one overhead apart,
    then finds most of its peers' bookmarks already buffered; the last ones
    (later request stagger) arrive one by one.
    """
    with pytest.MonkeyPatch.context() as mp:
        log = _log_control(mp)
        runtime, _ = _launch(method="NORM")
        runtime.run_to_completion(limit_s=1e5)
    built, taken = _rank0_bookmarks(log, "built"), _rank0_bookmarks(log, "taken")
    assert len(built) == len(taken) == 15
    assert taken[-3] < taken[-2] < taken[-1]
    return {"fanout": (built[5] + built[6]) / 2, "gather": (taken[-3] + taken[-2]) / 2,
            "built": built}


def _kill_rank0(kill_at):
    runtime, injector = _launch(
        method="NORM", failure_model=TraceFailureModel([FailureEvent(kill_at, 0)]))
    app = runtime.run_to_completion(limit_s=1e6)
    assert len(injector.injected_events) == 1 and len(app.recovery) == 1
    return app, runtime.sim


class TestControlChainsUnderKills:
    """A kill stops a bookmark fan-out or gather where the per-peer loop it
    replaces stopped: the victim's pending timeout, get or drain still fires,
    but starts nothing more."""

    def test_kill_mid_fanout_builds_nothing_after_the_kill(self, rank0_bookmarks,
                                                           monkeypatch):
        kill_at = rank0_bookmarks["fanout"]
        log = _log_control(monkeypatch)
        app, _ = _kill_rank0(kill_at)
        relaunched = app.recovery[0].completed_at
        assert _rank0_bookmarks(log, "built")[:6] == rank0_bookmarks["built"][:6]
        assert not [t for w, rank, _, t, _ in log
                    if w == "built" and rank == 0 and kill_at < t < relaunched]

    def test_kill_mid_gather_takes_at_most_the_pending_message(self, rank0_bookmarks,
                                                              monkeypatch):
        kill_at = rank0_bookmarks["gather"]
        log = _log_control(monkeypatch)
        app, _ = _kill_rank0(kill_at)
        relaunched = app.recovery[0].completed_at
        # peers still send rank 0 bookmarks after the kill (non-vacuity) ...
        assert len([t for w, _, peer, t, tag in log if w == "built" and peer == 0
                    and tag == _BOOKMARK and kill_at < t < relaunched]) >= 2
        # ... but only the get pending at the kill can take one
        assert len([t for t in _rank0_bookmarks(log, "taken")
                    if kill_at < t < relaunched]) <= 1

    @pytest.mark.parametrize("where", ["fanout", "gather"])
    def test_killed_runs_account_every_event(self, rank0_bookmarks, where, monkeypatch):
        runs = {}
        for fast in ("1", "0"):
            monkeypatch.setenv("REPRO_SIM_FASTPATH", fast)
            app, sim = _kill_rank0(rank0_bookmarks[where])
            runs[fast] = (TestDeterminism.METRICS(app), sim.processed_events,
                          sim.stats.events_elided)
        (fast_metrics, fast_events, fast_elided), (slow_metrics, slow_events, _) = (
            runs["1"], runs["0"])
        assert fast_metrics == slow_metrics
        assert slow_events == fast_events + fast_elided


class TestScenarioIntegration:
    def test_failure_spec_round_trips_through_the_campaign_store(self):
        from repro.campaign.store import config_from_dict, config_to_dict, scenario_key

        cfg = ScenarioConfig(
            "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
            failure=FailureSpec(at_s=1.5, victim_rank=2, detection_delay_s=0.1))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert scenario_key(again) == scenario_key(cfg)
        # failure-free configs keep their pre-failure-feature key shape
        free = ScenarioConfig("halo2d", 16, "GP4", periodic(0.3),
                              do_restart=False, seed=3)
        assert "failure" not in config_to_dict(free)

    def test_run_scenario_measures_recovery(self):
        cfg = ScenarioConfig(
            "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
            failure=FailureSpec(at_s=1.9, victim_rank=0))
        result = run_scenario(cfg)
        assert result.failures_injected == 1
        assert result.rollback_ranks_total == 4
        assert result.measured_lost_work_s > 0
        assert result.measured_recovery_time_s > 0
        payload_metrics = result.recovery_reports[0]
        assert payload_metrics.rollback_ranks == (0, 1, 2, 3)

    def test_metrics_payload_carries_recovery_fields(self):
        from repro.campaign.results import metrics_payload

        cfg = ScenarioConfig(
            "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
            failure=FailureSpec(at_s=1.9, victim_rank=0))
        payload = metrics_payload(run_scenario(cfg))
        assert payload["failures_injected"] == 1
        assert payload["rollback_ranks_total"] == 4
        assert payload["measured_lost_work_s"] > 0
        assert payload["replayed_bytes"] > 0


class TestMeasuredVsAnalytic:
    @pytest.fixture(scope="class")
    def experiment(self):
        """The killed runs and the analytic total loss, by method."""
        from repro.campaign.executor import reset_default_campaign
        from repro.experiments.failures import MEASURED_METHODS, MEASURED_WORK_LOSS

        reset_default_campaign()
        out = MEASURED_WORK_LOSS.run(profile=QUICK, n_ranks=16, intervals=(8.0,))
        reset_default_campaign()
        killed = {r.config.method: r for r in out["results"] if r.config.failure is not None}
        analytic = {method: series.y[0]
                    for method, series in zip(MEASURED_METHODS, out["analytic_series"])}
        return killed, analytic

    def test_group_size_ordering_matches_the_paper(self, experiment):
        killed, _ = experiment
        assert (killed["NORM"].measured_lost_work_s
                >= killed["GP"].measured_lost_work_s
                >= killed["GP1"].measured_lost_work_s)
        assert (killed["NORM"].rollback_ranks_total
                > killed["GP"].rollback_ranks_total
                > killed["GP1"].rollback_ranks_total == 1)

    def test_measured_loss_tracks_the_analytic_model(self, experiment):
        killed, analytic = experiment
        assert set(killed) == set(analytic)
        for method, run in killed.items():
            assert analytic[method] > 0
            ratio = run.measured_lost_work_s / analytic[method]
            # same grid, same failure instant: the analytic model should be
            # within a modest factor of the measurement (it ignores recovery
            # dynamics, staggered checkpoint ends and partial-op effects)
            assert 0.5 <= ratio <= 2.0, (method, ratio)

    def test_only_logging_methods_replay(self, experiment):
        killed, _ = experiment
        assert killed["NORM"].replayed_bytes == 0
        assert killed["GP"].replayed_bytes > 0
        assert killed["GP1"].replayed_bytes > 0
