"""Exporters: Chrome ``trace_event`` JSON, JSONL streams, flat metrics.

``chrome_trace`` produces the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev — load the written file
directly.  Each span track becomes a thread (tid) under one process, spans
become complete (``"X"``) events with microsecond timestamps, and span
attributes (plus the ``aborted`` flag) land in ``args`` so they show up in
the event-details pane.  Each format's reader sits next to its writer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .spans import Span, SpanTracer


def _sorted_spans(tracer: SpanTracer) -> List[Span]:
    return sorted(tracer.spans, key=lambda s: (s.start, s.span_id))


def _track_order(spans: List[Span]) -> List[str]:
    seen: Dict[str, None] = {}
    for span in spans:
        if span.track not in seen:
            seen[span.track] = None
    return sorted(seen)


def chrome_trace(
    tracer: SpanTracer,
    metrics: Optional[MetricsRegistry] = None,
    process_name: str = "repro",
) -> Dict[str, Any]:
    """Render a tracer (and optionally a registry) to a trace-event dict.

    Timestamps are simulated seconds scaled to microseconds, which is what
    the Trace Event Format expects; Perfetto then renders simulated seconds
    as wall microseconds, preserving relative phase widths.  Flat metrics,
    when given, ride along under ``otherData`` (Perfetto shows them in the
    trace-info view and scripts can read them back).
    """
    spans = _sorted_spans(tracer)
    tids = {track: tid for tid, track in enumerate(_track_order(spans))}
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": track}}
        )
    for span in spans:
        args: Dict[str, Any] = dict(span.attrs)
        if span.aborted:
            args["aborted"] = True
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tids[span.track],
                "id": span.span_id,
                "args": args,
            }
        )
    trace: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        trace["otherData"] = {"metrics": metrics.as_flat_dict()}
    return trace


def write_chrome_trace(
    path: str,
    tracer: SpanTracer,
    metrics: Optional[MetricsRegistry] = None,
    process_name: str = "repro",
) -> None:
    """Write ``chrome_trace`` JSON to ``path`` (open it in Perfetto)."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, metrics, process_name=process_name), fh, indent=1)


def load_spans(path: str) -> Tuple[List[Dict[str, Any]], Dict[int, str]]:
    """Read a trace-event JSON file into (complete events, tid → track name).

    Accepts any file in the Trace Event Format, object or bare-array form.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else doc
    tracks: Dict[int, str] = {}
    spans: List[Dict[str, Any]] = []
    for ev in events:
        ph = ev.get("ph")
        if ph == "M" and ev.get("name") == "thread_name":
            tracks[int(ev.get("tid", 0))] = str(ev.get("args", {}).get("name", ""))
        elif ph == "X":
            spans.append(ev)
    return spans, tracks


def spans_to_jsonl(tracer: SpanTracer) -> str:
    """One JSON object per line per span, in (start, id) order."""
    lines = []
    for span in _sorted_spans(tracer):
        lines.append(
            json.dumps(
                {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "cat": span.category,
                    "track": span.track,
                    "start": span.start,
                    "end": span.end,
                    "aborted": span.aborted,
                    "attrs": span.attrs,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def flat_metrics(metrics: MetricsRegistry) -> Dict[str, Any]:
    """Alias for ``registry.as_flat_dict()`` kept at the export surface."""
    return metrics.as_flat_dict()


def write_series_jsonl(path: str, sampler: Any) -> None:
    """Write a sampler's time series as self-describing JSONL.

    Line 1 is a ``meta`` record (bin width, state names, summary scalars);
    then one ``bin`` record per bin (rank-state codes plus the aggregate
    gauges) and one ``phase`` record per exact phase interval.
    :func:`load_series` reads it back.
    """
    from .sampler import RANK_STATES

    series = sampler.bin_series()
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "type": "meta",
            "states": list(RANK_STATES),
            "bin_s": sampler.bin_s,
            "n_ranks": sampler.n_ranks,
            "end_time": sampler.end_time,
            "summary": sampler.summary(),
        }, sort_keys=True) + "\n")
        for i, edge in enumerate(sampler.edges):
            fh.write(json.dumps({
                "type": "bin",
                "t0": edge - sampler.bin_s,
                "t1": edge,
                "rank_states": list(sampler.rank_states[i]),
                "inbox_depth": list(sampler.inbox_depths[i]),
                "log_bytes": list(sampler.log_bytes[i]),
                "nic_inflight": list(sampler.nic_inflight[i]),
                "nic_busy_frac": series["nic_busy_frac"][i],
                "storage_inflight": sampler.storage_inflight[i],
            }, sort_keys=True) + "\n")
        for rank, phase, start, end in sampler.phase_intervals:
            fh.write(json.dumps({
                "type": "phase",
                "rank": rank,
                "state": phase,
                "start": start,
                "end": end,
            }, sort_keys=True) + "\n")


def load_series(path: str) -> Dict[str, Any]:
    """Read a :func:`write_series_jsonl` file into ``{meta, bins, phases}``."""
    data: Dict[str, Any] = {"meta": {}, "bins": [], "phases": []}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                data["meta"] = record
            elif kind in ("bin", "phase"):
                data[kind + "s"].append(record)
    return data


def write_series_csv(path: str, sampler: Any) -> None:
    """Write the aggregate per-bin series as CSV (one row per bin).

    Columns: bin bounds, per-state rank counts, then the gauge series —
    spreadsheet-friendly; per-rank detail stays in the JSONL export.
    """
    import csv

    from .sampler import RANK_STATES

    series = sampler.bin_series()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t0", "t1"] + [f"n_{s}" for s in RANK_STATES]
            + ["nic_inflight_total", "nic_busy_frac", "inbox_depth_total",
               "inbox_depth_max", "log_bytes_total", "storage_inflight"])
        for i, edge in enumerate(sampler.edges):
            counts = [0] * len(RANK_STATES)
            for code in sampler.rank_states[i]:
                counts[code] += 1
            writer.writerow(
                [edge - sampler.bin_s, edge] + counts
                + [series["nic_inflight_total"][i],
                   series["nic_busy_frac"][i],
                   series["inbox_depth_total"][i],
                   series["inbox_depth_max"][i],
                   series["log_bytes_total"][i],
                   series["storage_inflight"][i]])
