"""Telemetry layer: span semantics, metrics registry, exporters, integration.

Covers:

* :class:`~repro.obs.SpanTracer` semantics — nesting, attribute propagation,
  idempotent close, retroactive spans, and ``abort_open`` sweeping
  interrupted spans closed with ``aborted=True``;
* the :class:`~repro.obs.MetricsRegistry` instrument family and its flat
  rendering (the campaign payload's ``registry_metrics``);
* the MPI :class:`~repro.mpi.tracer.Tracer` cap marking its log
  ``truncated`` (with the dropped count surviving a dumps/loads round trip);
* Chrome ``trace_event`` export validity;
* scenario integration — a traced failure + recovery run leaves no open
  spans, closes killed ranks' checkpoint spans as aborted, and exports a
  recovery span tree that *matches the* :class:`RecoveryReport` (same
  rollback ranks, same measured failure→resumption window) for a group
  rollback and for an elastic shrink alike;
* bit-identity — span tracing enabled reproduces the committed golden
  parity metrics under both ``REPRO_SIM_FASTPATH`` modes.
"""

import dataclasses
import json
import os

import pytest

from repro.ckpt.scheduler import periodic
from repro.cluster.network import FAST_PATH_ENV
from repro.cluster.topology import GIDEON_300
from repro.experiments import runner
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.parity import parity_metrics, quick_parity_configs, scenario_label
from repro.experiments.runner import run_scenario
from repro.mpi.tracer import Tracer
from repro.mpi.messages import Message
from repro.mpi.trace import TraceLog, TraceRecord
from repro.obs import (
    RANK_STATES,
    SAMPLE_BIN_ENV,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    SpanTracer,
    StateSampler,
    Telemetry,
    chrome_trace,
    flat_metrics,
    phase_times,
    reconcile_with_registry,
    sampling_bin_from_env,
    spans_to_jsonl,
    utilization_breakdown,
    utilization_table,
    write_series_csv,
    write_series_jsonl,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "quick_parity_golden.json")


class ManualClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ------------------------------------------------------------- span semantics
class TestSpanTracer:
    def test_nesting_and_attribute_propagation(self):
        clock = ManualClock()
        tracer = SpanTracer(clock)
        outer = tracer.begin("wave", track="rank0", category="ckpt", ckpt_id=1)
        clock.now = 1.0
        inner = tracer.begin("dump", track="rank0", group_id=2)
        assert inner.parent_id == outer.span_id
        clock.now = 1.5
        tracer.end(inner, nbytes=4096)
        clock.now = 2.0
        tracer.end(outer)
        assert inner.attrs == {"group_id": 2, "nbytes": 4096}
        assert outer.attrs == {"ckpt_id": 1}
        assert (outer.start, outer.end) == (0.0, 2.0)
        assert (inner.start, inner.end) == (1.0, 1.5)
        assert inner.duration == 0.5
        assert tracer.open_count() == 0

    def test_separate_tracks_do_not_nest(self):
        tracer = SpanTracer(ManualClock())
        a = tracer.begin("a", track="rank0")
        b = tracer.begin("b", track="rank1")
        assert b.parent_id is None
        tracer.end(a)
        tracer.end(b)

    def test_end_is_idempotent(self):
        clock = ManualClock()
        tracer = SpanTracer(clock)
        span = tracer.begin("x")
        clock.now = 1.0
        tracer.end(span)
        clock.now = 5.0
        tracer.end(span)  # no-op: already closed
        assert span.end == 1.0
        assert len(tracer.spans) == 1

    def test_context_manager(self):
        clock = ManualClock()
        tracer = SpanTracer(clock)
        with tracer.span("claim", track="worker", key="k1") as span:
            clock.now = 3.0
        assert span.end == 3.0
        assert span.attrs == {"key": "k1"}

    def test_abort_open_closes_innermost_first_with_cause(self):
        clock = ManualClock()
        tracer = SpanTracer(clock)
        outer = tracer.begin("checkpoint", track="rank3")
        inner = tracer.begin("stage", track="rank3")
        clock.now = 2.5
        closed = tracer.abort_open("rank3", abort_cause="node-crash")
        assert closed == [inner, outer]
        for span in (inner, outer):
            assert span.aborted
            assert span.end == 2.5
            assert span.attrs["abort_cause"] == "node-crash"
        assert tracer.open_count("rank3") == 0

    def test_abort_open_on_clean_track_is_a_noop(self):
        tracer = SpanTracer(ManualClock())
        assert tracer.abort_open("rank9") == []

    def test_retroactive_add_bypasses_open_stacks(self):
        tracer = SpanTracer(ManualClock())
        live = tracer.begin("checkpoint", track="rank0")
        retro = tracer.add("l2_partner_copy", start=0.5, end=0.9,
                           track="rank0", parent=live, bytes=1024)
        # the retro span did not become the nesting parent of future begins
        sibling = tracer.begin("stage", track="rank0")
        assert sibling.parent_id == live.span_id
        assert retro.parent_id == live.span_id
        assert retro.end == 0.9
        assert retro.attrs == {"bytes": 1024}
        tracer.end(sibling)
        tracer.end(live)

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        span = tracer.begin("x", track="t")
        tracer.end(span)
        with tracer.span("y"):
            pass
        assert tracer.abort_open("t") == []
        assert tracer.open_count() == 0
        assert tracer.spans == []


# ----------------------------------------------------------- metrics registry
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("sim.events.processed").inc()
        reg.counter("sim.events.processed").inc(4)
        reg.gauge("recovery.inflight.peak").max(2)
        reg.gauge("recovery.inflight.peak").max(1)  # lower: no change
        hist = reg.histogram("phase.checkpoint.duration")
        for v in (1.0, 3.0, 2.0):
            hist.observe(v)
        assert reg.get("sim.events.processed").value == 5
        assert reg.get("recovery.inflight.peak").value == 2
        assert (hist.count, hist.total, hist.min, hist.max) == (3, 6.0, 1.0, 3.0)
        assert hist.mean == 2.0

    def test_tags_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("storage.bytes.written", tier="L1").inc(10)
        reg.counter("storage.bytes.written", tier="L2").inc(20)
        assert reg.get("storage.bytes.written", tier="L1").value == 10
        assert reg.get("storage.bytes.written", tier="L2").value == 20
        assert reg.get("storage.bytes.written") is None

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_merge_counts_prefixes_legacy_stats(self):
        reg = MetricsRegistry()
        reg.merge_counts({"spare_migrations": 2, "inplace_reboots": 1},
                         prefix="recovery.")
        assert reg.get("recovery.spare_migrations").value == 2

    def test_flat_dict_expands_histograms_sorted(self):
        reg = MetricsRegistry()
        reg.histogram("b.hist").observe(2.0)
        reg.counter("a.count", tier="L2").inc(3)
        flat = reg.as_flat_dict()
        assert flat == {
            "a.count{tier=L2}": 3,
            "b.hist.count": 1,
            "b.hist.max": 2.0,
            "b.hist.min": 2.0,
            "b.hist.total": 2.0,
        }
        assert list(flat) == sorted(flat)
        assert flat_metrics(reg) == flat

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.counter("x").inc()
        reg.histogram("y").observe(1.0)
        reg.merge_counts({"a": 1})
        assert reg.get("x") is None
        assert len(reg) == 0
        assert reg.as_flat_dict() == {}


# ------------------------------------------------- MPI trace-log truncation
class TestTraceLogTruncation:
    def _send(self, tracer, n):
        for i in range(n):
            tracer.on_send(Message(src=0, dst=1, nbytes=100, tag=i), timestamp=float(i))

    def test_cap_marks_log_truncated(self):
        tracer = Tracer(max_records=3)
        self._send(tracer, 5)
        assert len(tracer.log) == 3
        assert tracer.log.truncated
        assert tracer.log.dropped_records == 2
        assert tracer.dropped_records == 2

    def test_uncapped_log_is_not_truncated(self):
        tracer = Tracer()
        self._send(tracer, 5)
        assert not tracer.log.truncated
        assert tracer.log.dropped_records == 0

    def test_truncation_survives_round_trip(self):
        tracer = Tracer(max_records=2)
        self._send(tracer, 6)
        text = tracer.log.dumps()
        assert "# truncated 4" in text
        again = TraceLog.loads(text)
        assert again.truncated
        assert again.dropped_records == 4
        assert len(again) == 2
        # a complete trace round-trips as not-truncated
        clean = TraceLog.loads(TraceLog(tracer.log.records).dumps())
        assert not clean.truncated

    def test_reset_clears_truncation(self):
        tracer = Tracer(max_records=1)
        self._send(tracer, 3)
        tracer.reset()
        assert not tracer.log.truncated
        assert tracer.dropped_records == 0

    def test_retro_appends_past_cap_count_as_dropped(self):
        # regression: records added directly to a capped log (not via the
        # tracer's on_send) used to bypass the cap entirely, leaving
        # dropped_records stale and the `# truncated N` marker wrong
        tracer = Tracer(max_records=3)
        self._send(tracer, 3)
        log = tracer.log
        assert not log.truncated
        assert log.append(TraceRecord(src=0, dst=1, nbytes=7)) is False
        assert log.extend(TraceRecord(src=0, dst=1, nbytes=7)
                          for _ in range(2)) == 0
        assert log.truncated
        assert log.dropped_records == 3
        assert tracer.dropped_records == 3  # tracer view == the log's counter
        text = log.dumps()
        assert "# truncated 3" in text
        again = TraceLog.loads(text)
        assert again.truncated and again.dropped_records == 3
        assert len(again) == 3

    def test_cap_enforced_from_construction(self):
        records = [TraceRecord(src=0, dst=1, nbytes=1) for _ in range(5)]
        log = TraceLog(records, max_records=2)
        assert len(log) == 2
        assert log.truncated and log.dropped_records == 3

    def test_reset_preserves_cap(self):
        tracer = Tracer(max_records=2)
        self._send(tracer, 5)
        tracer.reset()
        self._send(tracer, 5)
        assert len(tracer.log) == 2
        assert tracer.dropped_records == 3


# ------------------------------------------------------------- chrome export
class TestExport:
    def _tracer(self):
        clock = ManualClock()
        tracer = SpanTracer(clock)
        outer = tracer.begin("checkpoint", track="rank0", category="ckpt", ckpt_id=1)
        clock.now = 2.0
        tracer.end(outer)
        tracer.add("copy", start=0.5, end=1.0, track="storage",
                   category="storage", aborted=True)
        return tracer

    def test_chrome_trace_structure(self):
        tracer = self._tracer()
        reg = MetricsRegistry()
        reg.counter("ckpt.records").inc(1)
        doc = chrome_trace(tracer, metrics=reg)
        json.dumps(doc)  # must be serialisable
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} >= {"repro", "rank0", "storage"}
        assert len(complete) == 2
        ckpt = next(e for e in complete if e["name"] == "checkpoint")
        assert ckpt["ts"] == 0.0 and ckpt["dur"] == 2e6  # seconds -> µs
        copy = next(e for e in complete if e["name"] == "copy")
        assert copy["args"]["aborted"] is True
        assert copy["tid"] != ckpt["tid"]
        assert doc["otherData"]["metrics"] == {"ckpt.records": 1}

    def test_jsonl_is_one_object_per_line(self):
        lines = spans_to_jsonl(self._tracer()).strip().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "checkpoint"
        assert parsed[1]["aborted"] is True


# ------------------------------------------------------- scenario integration
FAILURE_CONFIG = ScenarioConfig(
    "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
    failure=FailureSpec(at_s=1.9, victim_rank=0),
)


#: victim 1 dies with no spare: the job shrinks onto the other seven ranks
SHRINK_CONFIG = ScenarioConfig(
    "halo2d", 8, "GP4", periodic(0.4), do_restart=False, seed=7,
    cluster=dataclasses.replace(GIDEON_300, checkpoint_storage="remote"),
    workload_options={"iterations": 60, "memory_bytes": 4 * 1024 * 1024},
    failure=FailureSpec(at_s=1.7, victim_rank=1, elastic=True),
)


@pytest.fixture(scope="module")
def traced_failure_run():
    telemetry = Telemetry()
    result = run_scenario(FAILURE_CONFIG, telemetry=telemetry)
    return result, telemetry


@pytest.fixture(scope="module")
def traced_shrink_run():
    telemetry = Telemetry()
    result = run_scenario(SHRINK_CONFIG, telemetry=telemetry)
    return result, telemetry


class TestScenarioTelemetry:
    def test_no_spans_left_open(self, traced_failure_run):
        _, telemetry = traced_failure_run
        assert telemetry.tracer.open_count() == 0
        assert telemetry.tracer.spans

    def test_killed_ranks_checkpoints_close_aborted(self, traced_failure_run):
        _, telemetry = traced_failure_run
        aborted = [s for s in telemetry.tracer.spans
                   if s.name == "checkpoint" and s.aborted]
        assert aborted
        for span in aborted:
            assert "abort_cause" in span.attrs

    def test_recovery_span_tree_matches_report(self, traced_failure_run,
                                               traced_shrink_run):
        """One emitter serves both plans: group rollback and elastic shrink."""
        for result, telemetry in (traced_failure_run, traced_shrink_run):
            (report,) = result.recovery_reports
            spans = [s for s in telemetry.tracer.spans if s.track == "recovery"]
            roots = [s for s in spans if s.name == "recovery"]
            assert len(roots) == 1
            root = roots[0]
            # same plan, same measured failure -> resumption window
            assert root.attrs["rollback_ranks"] == list(report.rollback_ranks)
            assert root.attrs["shrink"] == report.shrink
            assert root.start == report.failure_time
            assert root.end == report.completed_at
            assert not root.aborted

            detection = next(s for s in spans if s.name == "detection")
            assert detection.parent_id == root.span_id
            assert (detection.start, detection.end) == (report.failure_time,
                                                        report.detected_at)

            # one rank_restart per restored rank: a shrink retires its victim
            restored = set(report.rollback_ranks)
            if report.shrink:
                restored -= set(report.victims)
            rank_spans = [s for s in spans if s.name == "rank_restart"]
            assert sorted(s.attrs["rank"] for s in rank_spans) == sorted(restored)
            for span in rank_spans:
                assert span.parent_id == root.span_id
                assert root.start <= span.start <= span.end <= root.end
                stages = [s for s in spans if s.parent_id == span.span_id]
                assert {s.name for s in stages} <= {
                    "reboot", "image", "rebuild", "exchange", "replay"}

            barrier = next(s for s in spans if s.name == "barrier")
            assert barrier.parent_id == root.span_id
            assert barrier.end == report.completed_at

    def test_phase_times_cover_checkpoint_and_recovery(self, traced_failure_run):
        result, _ = traced_failure_run
        times = result.phase_times
        assert times["checkpoint"]["records"] == len(result.app.checkpoint_records)
        assert times["checkpoint"]["stages"]["checkpoint"] == pytest.approx(
            sum(r.stages.get("checkpoint", 0.0) for r in result.app.checkpoint_records))
        assert times["recovery"]["reports"] == 1
        assert times["recovery"]["stages"]["total"] > 0

    def test_tracing_does_not_change_simulated_metrics(self, traced_failure_run):
        traced_result, _ = traced_failure_run
        runner.clear_caches()
        untraced = run_scenario(FAILURE_CONFIG)
        assert untraced.telemetry.tracing is False
        assert parity_metrics(untraced) == parity_metrics(traced_result)

    def test_phase_times_helper_matches_result_property(self, traced_failure_run):
        result, telemetry = traced_failure_run
        assert phase_times(telemetry) == result.phase_times


# ------------------------------------------------ golden parity with tracing
PARITY_SUBSET = [quick_parity_configs()[i] for i in (0, 6)]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "slowpath"])
@pytest.mark.parametrize("config", PARITY_SUBSET, ids=scenario_label)
def test_traced_runs_match_parity_golden(config, fast, golden, monkeypatch):
    """Span tracing on, both kernel paths: golden metrics stay bit-identical."""
    monkeypatch.setenv(FAST_PATH_ENV, "1" if fast else "0")
    runner.clear_caches()
    try:
        result = run_scenario(config, telemetry=Telemetry())
    finally:
        runner.clear_caches()
    assert result.telemetry.tracing is True
    assert result.telemetry.tracer.spans  # tracing actually engaged
    assert result.telemetry.tracer.open_count() == 0
    assert parity_metrics(result) == golden[scenario_label(config)]["metrics"]


# --------------------------------------------------- continuous state sampler
class _StubInbox:
    _waiters = ()

    def __len__(self):
        return 0


class _StubCtx:
    def __init__(self, rank):
        self.rank = rank
        self.finished = False
        self.failed = False
        self.in_recovery = False
        self.in_checkpoint = False
        self.pending_get = None
        self.inbox = _StubInbox()
        self.protocol = object()


class _StubNet:
    def __init__(self, n):
        self.n_nodes = n
        self._tx_inflight = [0] * n
        self._rx_inflight = [0] * n


class _StubCluster:
    def __init__(self, n):
        self.network = _StubNet(n)


class _StubRuntime:
    def __init__(self, n=2):
        self.n_ranks = n
        self.contexts = [_StubCtx(r) for r in range(n)]
        self._rank_processes = [None] * n
        self.cluster = _StubCluster(n)


class TestStateSamplerUnit:
    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            StateSampler(bin_s=0.0)
        with pytest.raises(ValueError):
            StateSampler(bin_s=0.25, max_bins=1)

    def test_env_bin_parsing(self, monkeypatch):
        monkeypatch.delenv(SAMPLE_BIN_ENV, raising=False)
        assert sampling_bin_from_env() is None
        monkeypatch.setenv(SAMPLE_BIN_ENV, "0.25")
        assert sampling_bin_from_env() == 0.25
        monkeypatch.setenv(SAMPLE_BIN_ENV, "junk")
        assert sampling_bin_from_env() is None
        monkeypatch.setenv(SAMPLE_BIN_ENV, "-1")
        assert sampling_bin_from_env() is None

    def test_unbound_observe_only_advances_the_edge(self):
        sampler = StateSampler(bin_s=0.5)
        sampler.observe(1.7)
        assert sampler.next_edge == pytest.approx(2.0)
        assert sampler.n_bins == 0

    def test_observe_stamps_every_crossed_edge(self):
        sampler = StateSampler(bin_s=0.25)
        sampler.bind_runtime(_StubRuntime(n=3))
        sampler.observe(1.05)  # crosses 0.25, 0.5, 0.75, 1.0
        assert sampler.edges == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert sampler.next_edge == pytest.approx(1.25)
        # one snapshot, shared by all four edges; stub ranks all compute
        assert sampler.rank_states[0] == bytes([0, 0, 0])
        fractions = sampler.occupancy_fractions()
        assert fractions["compute"] == [1.0] * 4

    def test_rebin_halves_resolution_and_bounds_memory(self):
        sampler = StateSampler(bin_s=0.25, max_bins=4)
        sampler.bind_runtime(_StubRuntime())
        sampler.observe(2.0)  # 8 edges > max_bins -> one rebin
        assert sampler.rebin_count == 1
        assert sampler.bin_s == pytest.approx(0.5)
        assert sampler.edges == pytest.approx([0.5, 1.0, 1.5, 2.0])
        assert sampler.next_edge == pytest.approx(2.5)

    def test_note_phase_reclassifies_interrupted_checkpoint(self):
        sampler = StateSampler(bin_s=0.25)
        sampler.note_phase(0, "checkpoint", 1.0)
        sampler.note_phase(0, "checkpoint", 1.1)  # re-note: no-op
        sampler.note_phase(0, "recovery", 1.5)  # kill mid-checkpoint
        sampler.note_phase(0, None, 2.5)
        # the partial wave books as recovery, not checkpoint
        assert sampler.phase_intervals == [
            (0, "recovery", 1.0, 1.5),
            (0, "recovery", 1.5, 2.5),
        ]
        assert sampler.phase_seconds() == {0: {"recovery": pytest.approx(1.5)}}

    def test_end_phase_only_closes_matching_phase(self):
        sampler = StateSampler(bin_s=0.25)
        sampler.note_phase(1, "checkpoint", 1.0)
        sampler.note_phase(1, "recovery", 1.2)
        # the checkpoint finally-block fires after the kill moved the rank
        # to recovery: it must not clobber the open recovery interval
        sampler.end_phase(1, "checkpoint", 1.3)
        sampler.finalize(2.0)
        assert (1, "recovery", 1.2, 2.0) in sampler.phase_intervals

    def test_finalize_closes_open_phases(self):
        sampler = StateSampler(bin_s=0.25)
        sampler.note_phase(0, "finished", 3.0)
        sampler.finalize(4.0)
        assert sampler.phase_intervals == [(0, "finished", 3.0, 4.0)]
        assert sampler.end_time == 4.0


# ------------------------------------------- sampled scenario + attribution
SAMPLE_BIN = 0.1


@pytest.fixture(scope="module")
def sampled_failure_run():
    runner.clear_caches()
    telemetry = Telemetry(trace=False, sample_bin_s=SAMPLE_BIN)
    result = run_scenario(FAILURE_CONFIG, telemetry=telemetry)
    runner.clear_caches()
    return result, telemetry


class TestSampledScenario:
    def test_sampler_engaged_and_summary_flows_through(self, sampled_failure_run):
        result, telemetry = sampled_failure_run
        sampler = telemetry.sampler
        assert sampler.n_bins > 0
        assert result.sampler is sampler
        summary = result.sampler_summary
        assert summary == sampler.summary()
        assert result.nic_util_peak == summary["nic_util_peak"] > 0
        assert result.log_bytes_peak == summary["log_bytes_peak"] > 0
        assert result.inbox_depth_max == summary["inbox_depth_max"] > 0

    def test_occupancy_fractions_sum_to_one_per_bin(self, sampled_failure_run):
        _, telemetry = sampled_failure_run
        fractions = telemetry.sampler.occupancy_fractions()
        for i in range(telemetry.sampler.n_bins):
            assert sum(fractions[s][i] for s in RANK_STATES) == pytest.approx(1.0)

    def test_breakdown_reconciles_with_registry_phase_times(self, sampled_failure_run):
        """Acceptance criterion: occupancy reconciles within one bin width."""
        result, telemetry = sampled_failure_run
        sampler = telemetry.sampler
        rec = reconcile_with_registry(sampler, telemetry)
        assert rec["checkpoint_registry_s"] > 0
        assert rec["checkpoint_abs_diff"] <= sampler.bin_s
        assert rec["recovery_attributed_s"] > 0

    def test_breakdown_sums_to_run_length_per_rank(self, sampled_failure_run):
        result, telemetry = sampled_failure_run
        sampler = telemetry.sampler
        breakdown = utilization_breakdown(sampler)
        assert set(breakdown) == set(range(FAILURE_CONFIG.n_ranks))
        for rank, states in breakdown.items():
            assert set(states) == set(RANK_STATES)
            assert sum(states.values()) == pytest.approx(sampler.end_time)
        table = utilization_table(breakdown)
        assert len(table.rows) == FAILURE_CONFIG.n_ranks

    def test_sampling_does_not_change_simulated_metrics(self, sampled_failure_run):
        sampled_result, _ = sampled_failure_run
        runner.clear_caches()
        plain = run_scenario(FAILURE_CONFIG)
        runner.clear_caches()
        assert parity_metrics(plain) == parity_metrics(sampled_result)

    def test_series_exports_round_trip(self, sampled_failure_run, tmp_path):
        _, telemetry = sampled_failure_run
        sampler = telemetry.sampler
        jsonl_path = tmp_path / "series.jsonl"
        csv_path = tmp_path / "series.csv"
        write_series_jsonl(jsonl_path, sampler)
        write_series_csv(csv_path, sampler)

        records = [json.loads(line)
                   for line in jsonl_path.read_text().splitlines()]
        meta = [r for r in records if r["type"] == "meta"]
        bins = [r for r in records if r["type"] == "bin"]
        phases = [r for r in records if r["type"] == "phase"]
        assert len(meta) == 1
        assert meta[0]["states"] == list(RANK_STATES)
        assert len(bins) == sampler.n_bins
        assert len(phases) == len(sampler.phase_intervals)

        csv_lines = csv_path.read_text().strip().splitlines()
        assert len(csv_lines) == sampler.n_bins + 1  # header + one per bin
        assert csv_lines[0].startswith("t0,t1,n_compute")

    def test_dashboard_renders_from_jsonl(self, sampled_failure_run, tmp_path):
        """Acceptance criterion: heatmap HTML renders end-to-end."""
        from repro.obs import load_series
        from repro.obs.report import occupancy_table, render_dashboard_html

        _, telemetry = sampled_failure_run
        path = tmp_path / "series.jsonl"
        write_series_jsonl(path, telemetry.sampler)
        data = load_series(str(path))
        assert len(data["bins"]) == telemetry.sampler.n_bins
        html = render_dashboard_html(data, title="test run")
        assert "Rank-state heatmap" in html
        assert "Utilization stacked area" in html
        assert "prefers-color-scheme: dark" in html
        assert "Table view" in html
        table = occupancy_table(data)
        assert [row[0] for row in table.rows] == list(RANK_STATES)


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "slowpath"])
@pytest.mark.parametrize("config", PARITY_SUBSET, ids=scenario_label)
def test_sampled_runs_match_parity_golden(config, fast, golden, monkeypatch):
    """Sampler on, both kernel paths: golden metrics stay bit-identical."""
    monkeypatch.setenv(FAST_PATH_ENV, "1" if fast else "0")
    runner.clear_caches()
    try:
        result = run_scenario(
            config, telemetry=Telemetry(trace=False, sample_bin_s=0.05))
    finally:
        runner.clear_caches()
    sampler = result.telemetry.sampler
    assert sampler is not None and sampler.n_bins > 0
    assert parity_metrics(result) == golden[scenario_label(config)]["metrics"]
