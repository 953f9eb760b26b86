#!/usr/bin/env python
"""Regenerate the determinism goldens: parity metrics, QUICK tables, perfbench digests.

Writes five files in one run, all into the directory of ``--out``:

* ``--out`` itself (default ``tests/data/quick_parity_golden.json``): the
  simulated metrics of every scenario of
  :func:`repro.experiments.parity.quick_parity_configs`, which
  ``tests/test_determinism_parity.py`` asserts bit for bit;
* ``quick_tables_golden.txt``: ``examples/reproduce_paper.py``'s QUICK
  tables, without the ``=== ``, ``Profile: `` and ``Campaign: `` lines,
  which CI's tests job diffs its in-memory run against (paper-quick its
  cold and warm runs into a store);
* ``failure_tables_golden.txt``: the three tables of
  ``examples/failure_sweep.py --profile quick --measured`` run into a fresh
  store, without its ``store: ``, ``[campaign] `` and ``re-run `` lines,
  which ``tests/test_failure_sweep.py`` and CI's measured-failure-smoke job
  diff their runs against;
* ``perfbench_digests.json``: the ``sim_digest`` sha256 of every perfbench
  workload at seeds 0-3 (``perfbench/scenarios.py``'s
  ``build(name, seed).run().digest()``), which CI's perfbench-smoke job
  checks its runs against;
* ``golden_numpy_version.txt``: the numpy version the goldens were generated
  with.  numpy does not promise its ``Generator`` streams stay the same across
  releases, so CI installs this version, and the parity test names a
  mismatch when a golden differs.

Each file holds only what a check reads, so regenerating on an unchanged
model with the recorded numpy reproduces the committed files byte for byte.  Regenerate into
``tests/data`` only when a change is *meant* to alter simulated results (and
say so in the commit message); to see what a change moved, regenerate into a
scratch directory and diff.

Usage::

    PYTHONPATH=src python tools/make_parity_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Sequence, Tuple

import numpy

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.parity import parity_metrics, quick_parity_configs, scenario_label
from repro.experiments.runner import run_scenario


#: run-specific lines of ``reproduce_paper.py`` that the tables golden drops
TABLE_HEADER_PREFIXES = ("=== ", "Profile: ", "Campaign: ")

#: run-specific lines of ``failure_sweep.py`` that the failure tables golden drops
FAILURE_RUN_PREFIXES = ("store: ", "[campaign] ", "re-run ")

#: perfbench seeds whose digests the perfbench golden records
PERFBENCH_SEEDS = (0, 1, 2, 3)


def example_tables(script: str, args: Sequence[str], drop: Tuple[str, ...]) -> str:
    """An example's stdout, without the lines starting with one of ``drop``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "examples", script), *args],
                         check=True, capture_output=True, text=True, env=env, cwd=ROOT).stdout
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith(drop))


def quick_tables() -> str:
    """``reproduce_paper.py``'s QUICK tables in memory, header lines dropped."""
    return example_tables("reproduce_paper.py", (), TABLE_HEADER_PREFIXES)


def failure_tables() -> str:
    """``failure_sweep.py --profile quick --measured`` into a fresh store, run lines dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        return example_tables(
            "failure_sweep.py",
            ("--db", os.path.join(tmp, "failures.sqlite"), "--workers", "1",
             "--profile", "quick", "--measured"),
            FAILURE_RUN_PREFIXES)


def perfbench_digests() -> Dict[str, str]:
    """``{"<workload> --seed <n>": sim_digest sha256}`` of every perfbench workload."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import scenarios

    return {f"{name} --seed {seed}": scenarios.build(name, seed).run().digest()["sha256"]
            for seed in PERFBENCH_SEEDS for name in scenarios.WORKLOADS}


def write_json(path: str, data: object) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        metrics = parity_metrics(run_scenario(config))
        golden[label] = {"metrics": metrics}
        print(f"{label}: makespan={metrics['makespan']:.6f} "
              f"ckpts={metrics['checkpoints_completed']}")

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    write_json(args.out, golden)
    print(f"\nwrote {len(golden)} scenarios to {args.out}")

    for name, tables in (("quick_tables_golden.txt", quick_tables()),
                         ("failure_tables_golden.txt", failure_tables())):
        tables_path = os.path.join(out_dir, name)
        with open(tables_path, "w") as fh:
            fh.write(tables)
        print(f"wrote {tables.count(chr(10))} table lines to {tables_path}")

    digests = perfbench_digests()
    digests_path = os.path.join(out_dir, "perfbench_digests.json")
    write_json(digests_path, digests)
    print(f"wrote {len(digests)} perfbench digests to {digests_path}")

    numpy_path = os.path.join(out_dir, "golden_numpy_version.txt")
    with open(numpy_path, "w") as fh:
        fh.write(numpy.__version__ + "\n")
    print(f"wrote numpy {numpy.__version__} to {numpy_path}")


if __name__ == "__main__":
    main()
