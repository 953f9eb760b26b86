#!/usr/bin/env python
"""Failure-rate campaign sweep: the ``failure_rate`` axis end to end.

Runs :data:`repro.experiments.failures.WORK_LOSS`, the HPL (GP, NORM) grid
of a no-checkpoint row plus one row per checkpoint interval, through a
persistent campaign store (parallel, cached, resumable).  It prints the
expected lost work per failure, then evaluates the analytic ``failure_rate``
axis on the same results (``failure_rate_table``): for every per-node failure
rate, which checkpoint interval minimises each grouping method's expected
total fault-tolerance cost (measured checkpoint overhead + expected rework
after failures).

With ``--measured`` it also runs
:data:`~repro.experiments.failures.MEASURED_WORK_LOSS`, which *injects live
failures*: for each (method, interval) cell a rank is killed at 60% of the
cell's failure-free makespan, the victim's group actually rolls back to its
last coordinated checkpoint, out-of-group peers replay their sender logs over
the simulated network, and the measured lost work / recovery time / replay
volume are compared against the analytic model on the same grid.

The last line counts every scenario this invocation simulated, the measured
grid's failure-free probes included.  A second invocation against the same
``--db`` simulates nothing: every scenario is served from the store and only
the (cheap) analytic rate table is recomputed.

Run:  PYTHONPATH=src python examples/failure_sweep.py [--db failures.sqlite]
          [--workers N] [--profile quick|full] [--rates 1e-7,1e-6,1e-5]
          [--measured]
"""

import argparse
import os
import sys
import time

from repro.analysis.reporting import format_table
from repro.campaign import Campaign, CampaignStore
from repro.campaign.executor import set_default_campaign
from repro.experiments.config import profile_by_name
from repro.experiments.failures import MEASURED_WORK_LOSS, WORK_LOSS, failure_rate_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", default="failure_sweep.sqlite",
                        help="persistent result store (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="worker processes (default: all cores)")
    parser.add_argument("--profile", default="quick", choices=("quick", "full"),
                        help="experiment scale (default: %(default)s)")
    parser.add_argument("--rates", default="1e-7,1e-6,1e-5,1e-4",
                        help="comma-separated per-node failure rates (/s)")
    parser.add_argument("--fresh", action="store_true",
                        help="delete the store first (force a cold run)")
    parser.add_argument("--measured", action="store_true",
                        help="also inject live failures and measure the real "
                             "group rollback + replay (vs the analytic model)")
    args = parser.parse_args(argv)

    if args.fresh and os.path.exists(args.db):
        os.remove(args.db)
    rates = tuple(float(r) for r in args.rates.split(","))
    profile = profile_by_name(args.profile)
    # QUICK executions are short, so the candidate intervals must be too.
    intervals = (8.0, 14.0, 24.0) if profile.name == "quick" else (60.0, 120.0, 180.0)

    campaign = Campaign(CampaignStore(args.db), n_workers=args.workers)
    set_default_campaign(campaign)
    try:
        print(f"store: {args.db}  workers: {args.workers}  profile: {profile.name}\n")
        start = time.time()

        loss = WORK_LOSS.run(profile=profile, intervals=intervals)
        print(format_table(loss["table"]))
        print()
        print(format_table(failure_rate_table(loss["results"], rates)["table"]))

        if args.measured:
            print()
            measured = MEASURED_WORK_LOSS.run(profile=profile, intervals=intervals)
            print(format_table(measured["table"]))
        executed = sum(row.finished_at >= start for row in campaign.store.rows(status="done"))
        counts = campaign.counts()
        print(f"\n[campaign] executed {executed} scenario(s) this run; store counts: {counts}")
        print("re-run the same command: everything is served from the store.")
    finally:
        set_default_campaign(None)
        campaign.store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
