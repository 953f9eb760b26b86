#!/usr/bin/env python
"""Elastic restart sweep: shrink onto survivors when the spare pool is empty.

A job's work units are decoupled from its rank count by an explicit
partition, so when a node dies and no spare can replace it the recovery
manager *shrinks* instead of waiting out a reboot: the dead rank's units are
redistributed onto the survivors, the newest surviving checkpoint images are
shipped to the adopters, and the job relaunches one rank smaller.  This
example measures both halves of that story:

1. the *work conservation* table — one fixed domain block-partitioned onto
   4–12 ranks (shrink and expand) carries bit-identical total compute
   seconds, message bytes and memory, measured from the derived per-rank
   scripts themselves,
2. the *shrink restart* grid (method × workload, zero spares, remote
   checkpoint storage) — every cell kills rank 1's node mid-run and must
   complete on the surviving ranks, reporting ranks before → after, units
   migrated and checkpoint bytes shipped.

Everything goes through the campaign engine: re-running this script serves
finished cells from the store and only simulates what is missing.

Run:  python examples/elastic_restart.py [--db PATH] [--workers N]
          [--quick] [--csv PATH]
"""

import argparse
import sys

from repro.analysis.reporting import format_table
from repro.campaign import Campaign, CampaignStore, results_to_csv, set_default_campaign
from repro.experiments.elastic import ELASTIC_SHRINK, work_conservation_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", default=None,
                        help="campaign store path (default: in-memory)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel campaign workers (needs --db)")
    parser.add_argument("--csv", default=None,
                        help="write every cell's metrics to this CSV file")
    parser.add_argument("--quick", action="store_true",
                        help="tiny grid (GP4 only, halo2d only) for smoke runs")
    args = parser.parse_args(argv)

    if args.db is not None:
        set_default_campaign(Campaign(CampaignStore(args.db), n_workers=args.workers))
    elif args.workers > 1:
        parser.error("--workers > 1 needs a file-backed store (--db)")

    workloads = ("halo2d",) if args.quick else ("halo2d", "hpl")
    methods = ("GP4",) if args.quick else ("NORM", "GP4")

    out = ELASTIC_SHRINK.run(workloads=workloads, methods=methods)
    print(format_table(work_conservation_table(workloads=workloads)))
    print()
    print(format_table(out["repartition"]))

    failed = [r for r in out["results"] if not r.survived or not r.shrink_restarts]
    if failed:
        for r in failed:
            print(f"FAILED: {r.config.workload}/{r.config.method} "
                  f"survived={r.survived} shrinks={r.shrink_restarts}")
        return 1

    if args.csv:
        fields = ("makespan", "survived", "shrink_restarts",
                  "ranks_after_restart", "units_migrated",
                  "repartition_bytes_shipped", "measured_recovery_time_s")
        n = results_to_csv(out["results"], args.csv, metric_fields=fields)
        print(f"\nwrote {n} cells to {args.csv}")

    print("\nReading the tables: the conservation rows prove a partition is")
    print("pure bookkeeping — no work appears or vanishes when the same domain")
    print("runs on fewer or more ranks.  The shrink grid then exercises that")
    print("live: every cell loses a node with no spare left, repartitions the")
    print("victim's units onto the survivors, ships its newest image to the")
    print("adopter over the network, and still completes.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
