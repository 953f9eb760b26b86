#!/usr/bin/env python
"""Render sampled run telemetry as a self-contained HTML dashboard.

Reads the series JSONL written by :func:`repro.obs.write_series_jsonl`,
prints the per-state occupancy table and, with ``--html out.html``, writes
the single-file run dashboard of :func:`repro.obs.report.render_dashboard_html`
(rank-state heatmap, utilization stacked area, NIC and sender-log lines).

Usage::

    PYTHONPATH=src python tools/dashboard.py series.jsonl
    PYTHONPATH=src python tools/dashboard.py series.jsonl --html dashboard.html
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.reporting import format_table
from repro.obs import load_series
from repro.obs.report import occupancy_table, render_dashboard_html


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("series", help="series JSONL file (write_series_jsonl)")
    parser.add_argument("--html", default=None,
                        help="write the self-contained HTML dashboard here")
    parser.add_argument("--title", default=None, help="HTML page title")
    args = parser.parse_args(argv)

    data = load_series(args.series)
    if not data["bins"]:
        print("no bin records in series file")
        return 1
    print(format_table(occupancy_table(data)))
    summary = data["meta"].get("summary", {}) or {}
    if summary:
        print(f"\nNIC utilization peak/mean: {summary.get('nic_util_peak', 0):.1%}"
              f" / {summary.get('nic_util_mean', 0):.1%}; "
              f"max inbox depth {summary.get('inbox_depth_max', 0):.0f}; "
              f"peak log bytes {summary.get('log_bytes_peak', 0):,.0f}")
    if args.html:
        title = args.title or os.path.basename(args.series)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_dashboard_html(data, title=title))
        print(f"\nwrote HTML dashboard to {args.html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
