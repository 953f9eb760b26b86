#!/usr/bin/env python
"""cProfile driver for the simulation kernel hot loop.

Profiles one runtime execution (workload + protocol family over the Gideon
cluster model, no trace run) and prints the top functions, so kernel work is
guided by measurements instead of guesses.  Set ``REPRO_SIM_FASTPATH=0`` to
profile the full coroutine model for comparison.

Usage::

    PYTHONPATH=src python tools/profile_kernel.py
    PYTHONPATH=src python tools/profile_kernel.py --workload hpl --ranks 32 \
        --options '{"problem_size": 6000, "block_size": 200, "max_steps": 12}'
    PYTHONPATH=src python tools/profile_kernel.py --sort cumulative --limit 40
    PYTHONPATH=src python tools/profile_kernel.py --out kernel.pstats   # snakeviz etc.
    PYTHONPATH=src python tools/profile_kernel.py --top-alloc 15        # tracemalloc
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.topology import Cluster, GIDEON_300
from repro.experiments.runner import build_family, build_workload
from repro.mpi.runtime import MpiRuntime
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="halo2d",
                        help="workload name (default: %(default)s)")
    parser.add_argument("--ranks", type=int, default=64,
                        help="number of MPI ranks (default: %(default)s)")
    parser.add_argument("--method", default="NORM",
                        help="protocol method; GP triggers a (cached) trace run")
    parser.add_argument("--options", default=None,
                        help="workload options as a JSON object")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumulative", "ncalls"),
                        help="pstats sort key (default: %(default)s)")
    parser.add_argument("--limit", type=int, default=30,
                        help="number of rows to print (default: %(default)s)")
    parser.add_argument("--out", default=None,
                        help="also dump raw pstats data to this file")
    parser.add_argument("--top-alloc", type=int, default=0, metavar="N",
                        help="run a second pass under tracemalloc and print the "
                             "top-N allocation sites by total bytes (0 = off)")
    args = parser.parse_args(argv)

    options = json.loads(args.options) if args.options else None
    workload = build_workload(args.workload, args.ranks, options)
    cluster_spec = GIDEON_300.with_nodes(max(GIDEON_300.n_nodes, args.ranks))
    family = build_family(args.method, args.ranks, args.workload, options)
    sim = Simulator()
    cluster = Cluster(sim, cluster_spec)
    runtime = MpiRuntime(sim, cluster, args.ranks, protocol_family=family,
                         rng=RandomStreams(args.seed))
    runtime.set_memory(workload.memory_map())
    runtime.launch(workload.program_factory())

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    runtime.run_to_completion(limit_s=1e8)
    profiler.disable()
    wall_s = time.perf_counter() - start

    events = sim.processed_events
    elided = sim.stats.events_elided
    print(f"{args.workload} n={args.ranks} method={args.method}: "
          f"{events} events (+{elided} elided) in {wall_s:.3f}s "
          f"-> {events / wall_s:,.0f} ev/s "
          f"({(events + elided) / wall_s:,.0f} model-equivalent ev/s)")
    print(f"stats: {sim.stats!r}\n")

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw profile written to {args.out}")

    if args.top_alloc > 0:
        # Fresh, identically-seeded run: tracemalloc several-fold slows the
        # simulation, so allocation sites are sampled in their own pass and
        # never pollute the cProfile numbers above.
        import tracemalloc

        workload = build_workload(args.workload, args.ranks, options)
        family = build_family(args.method, args.ranks, args.workload, options)
        sim = Simulator()
        cluster = Cluster(sim, cluster_spec)
        runtime = MpiRuntime(sim, cluster, args.ranks, protocol_family=family,
                             rng=RandomStreams(args.seed))
        runtime.set_memory(workload.memory_map())
        runtime.launch(workload.program_factory())
        tracemalloc.start(25)
        try:
            runtime.run_to_completion(limit_s=1e8)
            snapshot = tracemalloc.take_snapshot()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"\ntop {args.top_alloc} allocation sites "
              f"(peak {peak / 1e6:.2f} MB, live at end {current / 1e6:.2f} MB):")
        for stat in snapshot.statistics("lineno")[: args.top_alloc]:
            frame = stat.traceback[0]
            print(f"  {stat.size / 1e3:10.1f} KB  {stat.count:8d} blocks  "
                  f"{frame.filename}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
