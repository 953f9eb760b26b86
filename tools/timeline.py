#!/usr/bin/env python
"""Render an exported Chrome trace as a summary table and/or HTML timeline.

Reads the ``trace_event`` JSON written by :func:`repro.obs.write_chrome_trace`
(or any file in the same format), prints the span summary table and, with
``--html out.html``, writes the single-file timeline of
:func:`repro.obs.report.render_timeline_html` (one lane per track).  The
trace itself remains loadable in ``chrome://tracing`` / Perfetto; this tool
exists for terminals and CI artifacts where a browser devtool is not at hand.

Usage::

    PYTHONPATH=src python tools/timeline.py trace.json
    PYTHONPATH=src python tools/timeline.py trace.json --html timeline.html
    PYTHONPATH=src python tools/timeline.py trace.json --track recovery
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.reporting import format_table
from repro.obs import load_spans
from repro.obs.report import render_timeline_html, span_summary_table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument("--html", default=None,
                        help="write a self-contained HTML timeline here")
    parser.add_argument("--track", default=None,
                        help="restrict to tracks whose name contains this substring")
    parser.add_argument("--title", default=None, help="HTML page title")
    args = parser.parse_args(argv)

    spans, tracks = load_spans(args.trace)
    if args.track:
        keep = {tid for tid, name in tracks.items() if args.track in name}
        spans = [ev for ev in spans if int(ev.get("tid", 0)) in keep]
        tracks = {tid: name for tid, name in tracks.items() if tid in keep}
    if not spans:
        print("no complete (ph=X) events in trace")
        return 1
    print(format_table(span_summary_table(spans)))
    if args.html:
        title = args.title or os.path.basename(args.trace)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_timeline_html(spans, tracks, title=title))
        print(f"\nwrote HTML timeline to {args.html}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
