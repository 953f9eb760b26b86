#!/usr/bin/env python
"""End-to-end telemetry demo: trace a failure + recovery run, export a timeline.

Runs one checkpointed halo2d scenario with a deterministic mid-run node kill,
with span tracing enabled, then:

* prints the per-phase time table sourced from the metrics registry
  (the same ``phase_times`` mapping stored in campaign payload v6),
* prints a per-span summary of the recorded trace,
* writes a Chrome ``trace_event`` JSON — open it in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` to see checkpoint waves,
  per-rank dumps, L2 partner copies, and the failure's recovery span tree
  (detection → per-rank restart stages → barrier) on simulated time,
* optionally renders the self-contained HTML timeline next to it with
  :func:`repro.obs.report.render_timeline_html` (``tools/timeline.py`` does
  the same from the JSON after the fact).

Tracing is passive — the tracer only reads the simulated clock — so this run
produces bit-identical metrics to the same scenario without telemetry.

Run:  PYTHONPATH=src python examples/trace_timeline.py [--out trace.json]
          [--html timeline.html]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.reporting import format_table, phase_time_table
from repro.ckpt.scheduler import periodic
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.obs import Telemetry, load_spans, write_chrome_trace
from repro.obs.report import render_timeline_html


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace output path (default: %(default)s)")
    parser.add_argument("--html", default=None,
                        help="also render a self-contained HTML timeline here")
    args = parser.parse_args(argv)

    # A deterministic kill at t=1.9s: the victim's 4-rank group rolls back to
    # its last coordinated checkpoint while the other groups keep computing.
    config = ScenarioConfig(
        "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
        failure=FailureSpec(at_s=1.9, victim_rank=0),
    )
    telemetry = Telemetry()  # trace=True: spans + metrics
    result = run_scenario(config, telemetry=telemetry)

    print(f"makespan: {result.app.makespan:.3f}s simulated, "
          f"{result.failures_injected} failure(s) injected, "
          f"{result.rollback_ranks_total} rank rollback(s)\n")
    print(format_table(phase_time_table(result.phase_times)))
    print()

    spans = telemetry.tracer.spans
    by_cat = {}
    for span in spans:
        by_cat[span.category] = by_cat.get(span.category, 0) + 1
    print(f"recorded {len(spans)} spans: "
          + ", ".join(f"{cat or '(none)'}={n}" for cat, n in sorted(by_cat.items())))

    write_chrome_trace(args.out, telemetry.tracer, metrics=telemetry.metrics)
    print(f"wrote Chrome trace to {args.out} "
          f"(open in https://ui.perfetto.dev or chrome://tracing)")

    if args.html:
        events, tracks = load_spans(args.out)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_timeline_html(events, tracks, title="failure + recovery timeline"))
        print(f"wrote HTML timeline to {args.html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
