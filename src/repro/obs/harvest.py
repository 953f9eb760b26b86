"""End-of-run harvest: legacy counters + records → registry and trace.

``harvest_scenario`` is called once per ``run_scenario`` after the simulation
finishes.  It absorbs the ad-hoc per-subsystem accounting — ``SimStats``,
``RankStats`` tallies, the ``CoordinatorReport``, storage-hierarchy and
recovery-manager stats dicts — into the metrics registry under the common
naming scheme, fills the ``phase.*`` histograms the overhead tables read, and
(when tracing) retro-emits wave-level spans from the checkpoint records.

The harvest happens after ``run_to_completion`` returns, so it can never
perturb the simulation; and because the phase histograms observe the exact
same record sequences, left to right, that the legacy ``analysis.metrics``
aggregators iterate, the registry totals are bit-identical to the values the
parity goldens pin down.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .telemetry import Telemetry

#: phase-histogram name prefixes (also the keys of the payload "phase_times")
CKPT_STAGE_PREFIX = "phase.checkpoint.stage."
RESTART_STAGE_PREFIX = "phase.restart.stage."
RECOVERY_PREFIX = "phase.recovery."


def harvest_app(app, telemetry: Telemetry) -> None:
    """Absorb an ``ApplicationResult`` into the registry (+ wave spans)."""
    m = telemetry.metrics

    # kernel counters: sim.events.* straight from SimStats
    sim = app.contexts[0].sim if app.contexts else None
    if sim is not None:
        m.counter("sim.events.processed").inc(sim.processed_events)
        m.merge_counts(sim.stats.as_dict(), prefix="sim.events.")

    # per-rank runtime tallies, summed (the per-rank split stays on RankStats)
    for ctx in app.contexts:
        st = ctx.stats
        m.counter("mpi.ops.executed").inc(st.ops_executed)
        m.counter("mpi.messages.sent").inc(st.messages_sent)
        m.counter("mpi.messages.received").inc(st.messages_received)
        m.counter("mpi.bytes.sent").inc(st.bytes_sent)
        m.counter("mpi.bytes.received").inc(st.bytes_received)
        m.counter("mpi.rollbacks").inc(st.rollbacks)
        m.counter("mpi.sends.skipped").inc(st.skipped_sends)
        m.counter("mpi.bytes.skipped").inc(st.skipped_bytes)
        m.histogram("mpi.time.compute").observe(st.compute_time)
        m.histogram("mpi.time.send").observe(st.send_time)
        m.histogram("mpi.time.recv_wait").observe(st.recv_wait_time)
        m.histogram("mpi.time.checkpoint").observe(st.checkpoint_time)

    # checkpoint phase histograms — observe records in the exact order
    # ``app.checkpoint_records`` yields them so totals match the legacy
    # ``stage_breakdown``/``aggregate_*`` float summation bit for bit
    records = app.checkpoint_records
    m.counter("ckpt.records").inc(len(records))
    for rec in records:
        m.histogram("phase.checkpoint.duration").observe(rec.duration)
        m.histogram("phase.checkpoint.coordination_time").observe(rec.coordination_time)
        m.counter("ckpt.bytes.image").inc(rec.image_bytes)
        m.counter("ckpt.bytes.log_flushed").inc(rec.log_bytes_flushed)
        for name, value in rec.stages.items():
            m.histogram(CKPT_STAGE_PREFIX + name).observe(value)

    # storage hierarchy counters
    stats = app.storage_stats or {}
    for tier, nbytes in stats.get("tier_bytes_written", {}).items():
        m.counter("storage.bytes.written", tier=tier).inc(nbytes)
    for tier, nbytes in stats.get("tier_bytes_read", {}).items():
        m.counter("storage.bytes.read", tier=tier).inc(nbytes)
    m.counter("storage.replication.started").inc(stats.get("partner_copies_started", 0))
    m.counter("storage.replication.completed").inc(stats.get("partner_copies_completed", 0))
    m.counter("storage.replication.lost").inc(stats.get("partner_copies_lost", 0))
    m.counter("storage.replication.stalls").inc(stats.get("replication_stalls", 0))

    # recovery-manager scheduling counters + per-report phase times
    m.merge_counts(app.recovery_stats or {}, prefix="recovery.")
    m.counter("recovery.reports").inc(len(app.recovery))
    for rep in app.recovery:
        if rep.detected_at is not None:
            m.histogram(RECOVERY_PREFIX + "detection").observe(rep.detected_at - rep.failure_time)
        if rep.completed_at is not None:
            m.histogram(RECOVERY_PREFIX + "total").observe(rep.completed_at - rep.failure_time)
        for rr in rep.ranks:
            m.histogram(RECOVERY_PREFIX + "rank_restart").observe(rr.recovery_time_s)
            m.histogram(RECOVERY_PREFIX + "lost_work").observe(rr.lost_work_s)

    if telemetry.tracing and records:
        _emit_wave_spans(telemetry, records)


def _emit_wave_spans(telemetry: Telemetry, records) -> None:
    """Retro-emit wave → per-group envelope spans from checkpoint records.

    Per-rank checkpoint spans are recorded live by the runtime; this adds the
    enclosing structure — one span per checkpoint wave (``ckpt_id``) and one
    child per group dump — on the dedicated ``waves`` track.
    """
    waves: Dict[int, Dict[int, list]] = {}
    for rec in records:
        waves.setdefault(rec.ckpt_id, {}).setdefault(rec.group_id, []).append(rec)
    tracer = telemetry.tracer
    for ckpt_id in sorted(waves):
        groups = waves[ckpt_id]
        allrecs = [rec for recs in groups.values() for rec in recs]
        wave = tracer.add(
            "checkpoint_wave",
            start=min(rec.start for rec in allrecs),
            end=max(rec.end for rec in allrecs),
            track="waves",
            category="ckpt",
            ckpt_id=ckpt_id,
            groups=len(groups),
            ranks=len(allrecs),
        )
        for group_id in sorted(groups):
            recs = groups[group_id]
            tracer.add(
                "group_dump",
                start=min(rec.start for rec in recs),
                end=max(rec.end for rec in recs),
                track="waves",
                category="ckpt",
                parent=wave,
                ckpt_id=ckpt_id,
                group_id=group_id,
                ranks=len(recs),
                image_bytes=sum(rec.image_bytes for rec in recs),
            )


def harvest_coordinator(report, telemetry: Telemetry) -> None:
    """Absorb a ``CoordinatorReport``'s wave counters."""
    m = telemetry.metrics
    m.counter("ckpt.waves.issued").inc(len(report.issued))
    m.counter("ckpt.waves.skipped").inc(report.skipped_waves)
    m.counter("ckpt.waves.deferred").inc(report.deferred_waves)
    m.counter("ckpt.waves.queued").inc(report.queued_waves)
    m.counter("ckpt.waves.skipped_in_recovery").inc(report.skipped_in_recovery)


def harvest_restart(restart, telemetry: Telemetry) -> None:
    """Absorb a whole-application ``RestartResult``'s stage times."""
    m = telemetry.metrics
    m.counter("restart.records").inc(len(restart.records))
    for rec in restart.records:
        m.histogram("phase.restart.duration").observe(rec.duration)
        for name, value in rec.stages.items():
            m.histogram(RESTART_STAGE_PREFIX + name).observe(value)


def harvest_scenario(result, telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Harvest a full ``ScenarioResult`` (app + coordinator + restart)."""
    if telemetry is None:
        telemetry = Telemetry(trace=False)
    harvest_app(result.app, telemetry)
    if result.coordinator_report is not None:
        harvest_coordinator(result.coordinator_report, telemetry)
    if result.restart is not None:
        harvest_restart(result.restart, telemetry)
    return telemetry


def phase_times(telemetry: Telemetry) -> Dict[str, Dict[str, Any]]:
    """Phase-attributed time breakdown read back from the registry.

    The campaign payload (v6) and the overhead tables consume this shape::

        {"checkpoint": {"records": N, "stages": {stage: total_seconds}},
         "restart":    {"records": M, "stages": {...}},
         "recovery":   {"reports": K, "stages": {...}}}

    Stage totals are the registry histograms' running sums, so dividing by
    the record count reproduces the legacy mean-per-record breakdown exactly.
    """
    m = telemetry.metrics

    def _stages(prefix: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for inst in m:
            if inst.name.startswith(prefix) and not inst.tags:
                out[inst.name[len(prefix):]] = inst.total
        return out

    def _count(name: str) -> int:
        inst = m.get(name)
        return int(inst.value) if inst is not None else 0

    return {
        "checkpoint": {"records": _count("ckpt.records"), "stages": _stages(CKPT_STAGE_PREFIX)},
        "restart": {"records": _count("restart.records"), "stages": _stages(RESTART_STAGE_PREFIX)},
        "recovery": {"reports": _count("recovery.reports"), "stages": _stages(RECOVERY_PREFIX)},
    }
