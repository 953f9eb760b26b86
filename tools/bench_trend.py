#!/usr/bin/env python
"""Benchmark-history trend over a campaign store's ``benchmarks`` side table.

Prints :func:`repro.campaign.dashboard.trend_table` and, with
``--html out.html``, writes the single-file report of
:func:`repro.campaign.dashboard.render_trend_html`.

Usage::

    PYTHONPATH=src python tools/bench_trend.py --db sweep.sqlite
    PYTHONPATH=src python tools/bench_trend.py --db sweep.sqlite \\
        --name kernel_speed --html trend.html
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.reporting import format_table
from repro.campaign import CampaignStore
from repro.campaign.dashboard import render_trend_html, trend_table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render the benchmark events/sec history of a campaign store.")
    parser.add_argument("--db", required=True, help="campaign store sqlite path")
    parser.add_argument("--name", default="kernel_speed",
                        help="benchmark name to trend (default: kernel_speed)")
    parser.add_argument("--html", default=None,
                        help="write a single-file HTML trend report here")
    parser.add_argument("--title", default=None, help="HTML page title")
    args = parser.parse_args(argv)

    store = CampaignStore(args.db)
    try:
        rows = store.benchmark_rows(args.name)
    finally:
        store.close()
    if not rows:
        print(f"no benchmark rows named {args.name!r} in {args.db}")
        return 1
    print(format_table(trend_table(rows, args.name)))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_trend_html(rows, args.name, title=args.title))
        print(f"\nwrote HTML trend report to {args.html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
