#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one go.

By default this uses the QUICK profile (reduced scales, seconds of runtime);
pass ``--full`` to run the paper-scale sweeps (the same data the benchmark
harness produces, about a minute with two workers).

Every selected figure's scenarios are queued in one campaign run, and each
figure is then rendered from the store.  Pass ``--db`` to keep the results
in a persistent store (interrupt + rerun = resume; a repeated invocation
simulates nothing) and ``--workers`` to use several simulation processes.

With a file-backed store, ``--watch`` turns the invocation into a live text
observatory over that store instead of running experiments: it redraws the
campaign progress tables (per-status counts, throughput, ETA, lease health,
failures) every few seconds while another invocation does the work.

Run:  python examples/reproduce_paper.py [--full] [--only figure6 figure14 ...]
                                         [--db results.sqlite] [--workers N]
      python examples/reproduce_paper.py --db results.sqlite --watch
"""

import argparse
import sys
import time

from repro.analysis.reporting import format_table
from repro.campaign import (
    Campaign,
    CampaignStore,
    campaign_progress,
    get_default_campaign,
    render_progress_text,
    set_default_campaign,
)
from repro.campaign.store import scenario_key
from repro.experiments.figures import FIGURES
from repro.experiments.config import FULL, QUICK


def watch_store(db: str, interval_s: float = 5.0, once: bool = False) -> int:
    """Redraw campaign progress tables until the campaign drains (or ^C)."""
    store = CampaignStore(db)
    try:
        while True:
            progress = campaign_progress(store)
            print(f"\n--- campaign status @ {time.strftime('%H:%M:%S')} "
                  f"({progress.done_fraction:.0%} complete) ---")
            print(render_progress_text(progress))
            remaining = (progress.counts.get("pending", 0)
                         + progress.counts.get("running", 0))
            if once or remaining == 0:
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
    finally:
        store.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="use the paper-scale FULL profile (slow)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiments to run (e.g. figure6 table1)")
    parser.add_argument("--db", default=None,
                        help="persistent campaign store (default: in-memory)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel simulation workers (needs --db)")
    parser.add_argument("--watch", action="store_true",
                        help="watch an existing store's progress instead of "
                             "running experiments (needs --db)")
    parser.add_argument("--watch-interval", type=float, default=5.0,
                        help="seconds between --watch redraws")
    args = parser.parse_args(argv)

    if args.watch:
        if args.db is None:
            parser.error("--watch needs a file-backed store; pass --db as well")
        return watch_store(args.db, interval_s=args.watch_interval)
    if args.workers > 1 and args.db is None:
        parser.error("--workers > 1 needs a file-backed store; pass --db as well")
    if args.db is not None:
        set_default_campaign(Campaign(CampaignStore(args.db), n_workers=args.workers))

    profile = FULL if args.full else QUICK
    targets = args.only if args.only else list(FIGURES)
    unknown = [t for t in targets if t not in FIGURES]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; available: {sorted(FIGURES)}")

    print(f"Profile: {profile.name} "
          f"(HPL scales {profile.hpl_scales}, CG scales {profile.cg_scales})")
    start = time.time()
    campaign = get_default_campaign()
    queued = {scenario_key(c): c for name in targets
              for c in FIGURES[name].configs(profile=profile)}
    campaign.run(list(queued.values()))
    simulated = sum(row.finished_at >= start for row in campaign.store.rows(status="done"))
    print(f"Campaign: {len(queued)} figure rows queued, {simulated} scenarios simulated "
          f"(probes included) in {time.time() - start:.1f}s\n")
    for name in targets:
        result = FIGURES[name].run(profile=profile)
        print(f"=== {name} " + "=" * max(0, 64 - len(name)))
        for key in ("table", "diff_table", "restart_table"):
            if key in result:
                print(format_table(result[key]))
                print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
