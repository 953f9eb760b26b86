"""Unified telemetry: simulated-time spans, metrics registry, exporters.

Public API
----------
* :class:`Telemetry` — the handle to attach to a run; bundles a
  :class:`SpanTracer` and a :class:`MetricsRegistry` behind one clock.
* :class:`SpanTracer` / :class:`Span` — nested, attributed time intervals
  (simulated or wall clock); ``abort_open`` closes interrupted spans with
  ``aborted=True``.
* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — named, tagged instruments superseding the ad-hoc
  per-subsystem counters.
* Exporters — :func:`chrome_trace` / :func:`write_chrome_trace` (open in
  chrome://tracing or Perfetto), :func:`spans_to_jsonl`,
  :func:`flat_metrics`; :func:`load_spans` reads a trace back.
* Harvest — :func:`harvest_scenario` / :func:`phase_times` turn a finished
  run's legacy accounting into registry series and payload phase times.
* Sampling — :class:`StateSampler` buckets passive observations into fixed
  simulated-time bins (rank-state occupancy, NIC utilization, inbox depths,
  sender-log bytes, storage inflight) without scheduling events;
  :func:`utilization_breakdown` rolls the series into per-rank seconds that
  reconcile with the registry's phase times; :func:`write_series_jsonl` /
  :func:`write_series_csv` export the series, :func:`load_series` reads
  the JSONL back.
* Reports — :mod:`repro.obs.report` renders a series file as the run
  dashboard and a trace as the span timeline.

Telemetry is off by default and costs nothing on the simulator hot loops;
set ``REPRO_TELEMETRY=1`` (or pass ``telemetry=`` to ``run_scenario``) to
record spans.  See the README "Observability" section.
"""

from repro import lazy_exports

_EXPORTS = {
    ".export": ("chrome_trace", "flat_metrics", "load_series", "load_spans", "spans_to_jsonl",
                "write_chrome_trace", "write_series_csv", "write_series_jsonl"),
    ".harvest": ("harvest_app", "harvest_coordinator", "harvest_restart", "harvest_scenario",
                 "phase_times"),
    ".metrics": ("NULL_INSTRUMENT", "Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "NullRegistry"),
    ".attribution": ("reconcile_with_registry", "utilization_breakdown", "utilization_table"),
    ".sampler": ("RANK_STATES", "SAMPLE_BIN_ENV", "StateSampler", "sampling_bin_from_env"),
    ".spans": ("NullTracer", "Span", "SpanTracer"),
    ".telemetry": ("TELEMETRY_DIR_ENV", "TELEMETRY_ENV", "Telemetry",
                   "tracing_enabled_from_env"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
