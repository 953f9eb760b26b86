#!/usr/bin/env python
"""Regenerate the determinism-parity golden file and the QUICK tables golden.

Runs every scenario of :func:`repro.experiments.parity.quick_parity_configs`
on the current kernel and writes their simulated metrics to
``tests/data/quick_parity_golden.json``.  Then runs
``examples/reproduce_paper.py`` at the QUICK profile and writes its tables,
without the ``=== ``, ``Profile: `` and ``Campaign: `` lines, to
``tests/data/quick_tables_golden.txt`` (next to ``--out``), which CI's
paper-quick job diffs its in-memory run against.  The committed parity
golden was produced by the pre-fast-path kernel; regenerate either file
only when a change is *meant* to alter simulated results (and say so in the
commit message).

Usage::

    PYTHONPATH=src python tools/make_parity_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.parity import parity_metrics, quick_parity_configs, scenario_label
from repro.experiments.runner import run_scenario


#: run-specific lines of ``reproduce_paper.py`` that the tables golden drops
TABLE_HEADER_PREFIXES = ("=== ", "Profile: ", "Campaign: ")


def quick_tables() -> str:
    """``reproduce_paper.py``'s QUICK tables in memory, header lines dropped."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "examples", "reproduce_paper.py")],
                         check=True, capture_output=True, text=True, env=env, cwd=ROOT).stdout
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith(TABLE_HEADER_PREFIXES))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(ROOT, "tests", "data", "quick_parity_golden.json"),
        help="output JSON path",
    )
    args = parser.parse_args()

    golden = {}
    for config in quick_parity_configs():
        label = scenario_label(config)
        result = run_scenario(config)
        metrics = parity_metrics(result)
        sim = result.app.contexts[0].sim
        golden[label] = {
            "metrics": metrics,
            # informational: heap events processed by the *app* simulation
            # (restart runs its own simulator); not asserted bit-exactly
            # across kernel generations, only within one.
            "processed_events": sim.processed_events,
        }
        print(f"{label}: makespan={metrics['makespan']:.6f} "
              f"ckpts={metrics['checkpoints_completed']} "
              f"events={sim.processed_events}")

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {len(golden)} scenarios to {args.out}")

    tables = quick_tables()
    tables_path = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                               "quick_tables_golden.txt")
    with open(tables_path, "w") as fh:
        fh.write(tables)
    print(f"wrote {tables.count(chr(10))} table lines to {tables_path}")


if __name__ == "__main__":
    main()
