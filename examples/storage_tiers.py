#!/usr/bin/env python
"""Storage-tier sweep: overhead vs restart cost vs correlated-failure survival.

The checkpoint-storage hierarchy gives every image up to three homes —
L1 (node-local disk), L2 (async partner replica on a cross-switch buddy
node), L3 (remote checkpoint servers) — and this example measures the whole
trade-off surface on one campaign grid:

1. failure-free cells give the steady-state overhead of each extra level
   (makespan at equal checkpoint counts: L1 ≤ L1+L2 ≤ L1+L2+L3, while the
   paper's NORM ≥ GP ≥ GP1 method ordering is preserved inside every level),
2. node-crash and whole-switch-outage cells give the measured restart cost
   per surviving tier (local reboot vs partner fetch vs remote fetch), and
   the *survivability matrix* — a switch outage destroys every local disk
   behind one top-of-rack switch, so L1-only and same-switch-partner
   configurations are reported UNSURVIVABLE while cross-switch L2 and L3
   recover end to end,
3. the measured per-tier checkpoint costs calibrate the advisor's
   multi-level suggestion: per-tier intervals and the FTI-style
   "promote every k-th checkpoint" counters a StoragePolicy consumes.

Everything goes through the campaign engine: re-running this script serves
finished cells from the store and only simulates what is missing.

Run:  python examples/storage_tiers.py [--db PATH] [--workers N]
          [--quick] [--csv PATH]
"""

import argparse
import sys

from repro.analysis.reporting import format_table
from repro.campaign import Campaign, CampaignStore, results_to_csv, set_default_campaign
from repro.experiments.storage_tiers import STORAGE_TIERS, tier_cost_calibration


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", default=None,
                        help="campaign store path (default: in-memory)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel campaign workers (needs --db)")
    parser.add_argument("--csv", default=None,
                        help="write every cell's metrics to this CSV file")
    parser.add_argument("--quick", action="store_true",
                        help="tiny grid (GP1 only) for smoke runs")
    args = parser.parse_args(argv)

    if args.db is not None:
        set_default_campaign(Campaign(CampaignStore(args.db), n_workers=args.workers))
    elif args.workers > 1:
        parser.error("--workers > 1 needs a file-backed store (--db)")

    methods = ("GP1",) if args.quick else ("NORM", "GP", "GP1")
    policies = (("L1", "L1+L2") if args.quick
                else ("L1", "L1+L2", "L1+L2same", "L1+L2+L3"))

    out = STORAGE_TIERS.run(methods=methods, policies=policies)
    print(format_table(out["overhead"]))
    print()
    print(format_table(out["survivability"]))
    print()

    if not args.quick:
        cal = tier_cost_calibration(
            out["results"],
            # rough per-failure-class MTBFs of a mid-size cluster: software
            # crashes hourly-ish, node loss daily, a rack event monthly
            crash_mtbf_s=3600.0, node_loss_mtbf_s=86400.0,
            outage_mtbf_s=30 * 86400.0)
        print(format_table(cal["table"]))
        print()
        print("suggested policy knobs:", cal["suggestion"].as_policy_args())

    if args.csv:
        fields = ("makespan", "survived", "checkpoints_completed",
                  "measured_recovery_time_s", "partner_copies",
                  "replication_stalls", "outages_survived")
        n = results_to_csv(out["results"], args.csv, metric_fields=fields)
        print(f"\nwrote {n} cells to {args.csv}")

    print("\nReading the tables: each extra level buys survivability with")
    print("steady-state time — the partner replica back-pressures checkpoints")
    print("through its bounded copy buffer, the remote file system pays a")
    print("synchronous server write — and the survivability matrix shows what")
    print("that buys: only cross-switch partners or the remote tier bring a")
    print("job back from a whole-rack outage.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
