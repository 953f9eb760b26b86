#!/usr/bin/env python
"""End-to-end continuous-telemetry demo: sample a run, render the dashboard.

Runs one checkpointed halo2d scenario with a deterministic mid-run node kill
and the passive state sampler enabled, then:

* prints the per-rank utilization breakdown (compute / blocked / checkpoint /
  recovery seconds, attributed from the sampled series + exact phase
  intervals) and its reconciliation against the metrics-registry
  ``mpi.time.checkpoint`` histogram,
* writes the series as JSONL and CSV (``repro.obs.write_series_jsonl`` /
  ``write_series_csv``),
* renders the self-contained HTML dashboard — rank-state heatmap,
  utilization stacked-area, NIC utilization and sender-log line charts —
  with :func:`repro.obs.report.render_dashboard_html` (``tools/dashboard.py``
  does the same from the JSONL after the fact).

Sampling is passive — the sampler reads rank state at event boundaries the
simulation was already processing, scheduling nothing — so this run produces
bit-identical metrics to the same scenario without telemetry.

Run:  PYTHONPATH=src python examples/utilization_profile.py
          [--out series.jsonl] [--csv series.csv] [--html dashboard.html]
          [--bin 0.1]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.reporting import format_table
from repro.ckpt.scheduler import periodic
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.obs import (
    Telemetry,
    load_series,
    reconcile_with_registry,
    utilization_breakdown,
    utilization_table,
    write_series_csv,
    write_series_jsonl,
)
from repro.obs.report import render_dashboard_html


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="series.jsonl",
                        help="series JSONL output path (default: %(default)s)")
    parser.add_argument("--csv", default=None,
                        help="also write the per-bin series as CSV here")
    parser.add_argument("--html", default=None,
                        help="render the self-contained HTML dashboard here")
    parser.add_argument("--bin", type=float, default=0.1,
                        help="sampling bin width in simulated seconds")
    args = parser.parse_args(argv)

    # Same deterministic scenario as examples/trace_timeline.py: a kill at
    # t=1.9s rolls the victim's 4-rank group back while the rest compute on.
    config = ScenarioConfig(
        "halo2d", 16, "GP4", periodic(0.3), do_restart=False, seed=3,
        failure=FailureSpec(at_s=1.9, victim_rank=0),
    )
    telemetry = Telemetry(trace=False, sample_bin_s=args.bin)
    result = run_scenario(config, telemetry=telemetry)
    sampler = telemetry.sampler

    print(f"makespan: {result.app.makespan:.3f}s simulated, "
          f"{result.failures_injected} failure(s) injected; sampled "
          f"{sampler.n_bins} bins x {sampler.bin_s:.4g}s\n")

    breakdown = utilization_breakdown(sampler)
    print(format_table(utilization_table(breakdown)))

    rec = reconcile_with_registry(sampler, telemetry)
    print(f"\ncheckpoint seconds: attributed {rec['checkpoint_attributed_s']:.4f}"
          f" vs registry {rec['checkpoint_registry_s']:.4f}"
          f" (|diff| {rec['checkpoint_abs_diff']:.2e});"
          f" recovery attributed {rec['recovery_attributed_s']:.4f}s")

    write_series_jsonl(args.out, sampler)
    print(f"\nwrote series JSONL to {args.out}")
    if args.csv:
        write_series_csv(args.csv, sampler)
        print(f"wrote series CSV to {args.csv}")

    if args.html:
        data = load_series(args.out)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_dashboard_html(
                data, title="failure + recovery utilization profile"))
        print(f"wrote HTML dashboard to {args.html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
