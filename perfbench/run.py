"""Layered host-time benchmark of the checkpoint/restart simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig10-norm-hpl128 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seconds 45        # every workload, untraced then traced

One process, one closed-loop client: each repetition is a single call into
the simulator and the next starts when it returns (no worker pool, no extra
threads).  After one unmeasured warm-up repetition, repetitions run until
``--seconds`` have passed (the last one is not started when less than half
a repetition is left).  Every repetition clears the trace/formation
caches first and must reproduce the warm-up's ``sim_digest`` and meet the
workload's invariants; one that raises, breaks an invariant or drifts counts
as a failed operation.

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracing.py``).  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The simulator is imported from ``src/`` of the checkout
this file sits in; without it the benchmark exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: setup_s is the median over this many fresh processes, each run after a
#: timed repetition so that they sample the same host conditions
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60.0


def import_simulator() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: simulator source not found under {SRC}")
    # the benchmark defines its environment: no REPRO_* switch may alter the runs
    for var in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[var]
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def setup_seconds(workload) -> float:
    """Host seconds from the start of a fresh process to a built ``workload``:
    interpreter start, ``import repro``, the workload's config and cluster."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", workload.name, "--seed", str(workload.seed)],
                   check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    return time.perf_counter() - start


class Tally:
    """Attempted/failed repetitions and the reference outcome they must match."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def check(self, outcome, error: Optional[str] = None) -> bool:
        from scenarios import drift

        self.attempted += 1
        problems = [error] if error else (self.workload.violations(outcome)
                                          + drift(self.reference, outcome))
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"  FAILED repetition {self.attempted}: {problem}", file=sys.stderr)
            return False
        if self.reference is None:
            self.reference = outcome
        return True


def repetition(tally: Tally, call) -> Optional[tuple]:
    """One checked repetition: ``call()`` returns (outcome, wall, *extra)."""
    gc.collect()
    try:
        result = call()
    except Exception:  # a repetition that raises is a failed operation
        tally.check(None, traceback.format_exc())
        return None
    return result if tally.check(result[0]) else None


def finished(start: float, seconds: float, step: float, samples: list, tally: Tally) -> bool:
    """Stop once less than half a ``step`` (the last loop pass) of ``seconds`` is
    left with a sample, or after three failures without one."""
    if time.perf_counter() - start + step / 2 < seconds:
        return False
    return bool(samples) or tally.failed >= 3


def untraced(workload):
    start = time.perf_counter()
    outcome = workload.run()
    return outcome, time.perf_counter() - start


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  (q1 {q1:.4g}, q3 {q3:.4g})"


def measure_end_to_end(workload, seconds: float) -> tuple:
    tally = Tally(workload)
    repetition(tally, lambda: untraced(workload))  # warm-up, not timed
    walls, setup = [], []
    start = step = time.perf_counter()
    while not finished(start, seconds, time.perf_counter() - step, walls, tally):
        step = time.perf_counter()
        done = repetition(tally, lambda: untraced(workload))
        if done is not None:
            walls.append(done[1])
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds(workload))
            start += setup[-1]  # probes do not eat into the measured seconds
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(workload))
    if not walls:
        return tally, {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"wall_s": (walls, "s"), "setup_s": (setup, "s"),
               "peak_rss_mb": ([rss_mb], "MB")}
    metrics = {}
    for name, (values, unit) in samples.items():
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<18} {statistics.median(values):>14.6g} {unit:<4} "
              f"median of {len(values)}{quartiles(values)}")
    return tally, metrics


def measure_per_layer(workload, seconds: float) -> tuple:
    from tracing import LAYERS, PHASES, traced_call

    tally = Tally(workload)
    repetition(tally, lambda: untraced(workload))  # warm-up, not timed
    plain, runs = [], []
    start = step = time.perf_counter()
    while not finished(start, seconds, time.perf_counter() - step, runs, tally):
        step = time.perf_counter()
        done = repetition(tally, lambda: untraced(workload))
        if done is not None:
            plain.append(done[1])
        done = repetition(tally, lambda: traced_call(workload.run))
        if done is not None:
            runs.append(done)
    if not runs or not plain:
        return tally, {}
    if len({json.dumps(trace.inbox_metrics()) for _, _, trace, _ in runs}) != 1:
        tally.failed += 1
        print("  FAILED: inbox counters differ between traced repetitions", file=sys.stderr)

    metrics: Dict[str, Dict[str, object]] = {}

    def put(name: str, values, unit: str) -> None:
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    total = [sum(self_s.values()) for _, _, _, self_s in runs]
    for layer in LAYERS:
        put(f"{layer}.self_s", [s[layer] for _, _, _, s in runs], "s")
        put(f"{layer}.self_frac", [s[layer] / t for (_, _, _, s), t in zip(runs, total)], "fraction")
    for phase in PHASES:
        put(phase, [trace.phases[phase] for _, _, trace, _ in runs], "s")
    outcome, _, trace, _ = runs[0]
    counts = outcome.counts
    events = outcome.events
    failures = counts["failures"]
    exact = {
        "sim.events_processed": (counts["events_processed"], "count"),
        "sim.events_elided": (counts["events_elided"], "count"),
        "sim.fastpath_ratio": (counts["events_elided"] / events if events else 0.0, "fraction"),
        "sim.heap_pushes": (counts["heap_pushes"], "count"),
        "sim.store_wakeups": (counts["store_wakeups"], "count"),
        "mpi.messages": (counts["messages"], "count"),
        "ckpt.checkpoints_completed": (counts["checkpoints"], "count"),
        "storage.partner_copies": (counts["partner_copies"], "count"),
        "storage.tier_bytes_written": (counts["tier_bytes_written"], "bytes"),
        "storage.tier_bytes_read": (counts["tier_bytes_read"], "bytes"),
        "recovery.failures": (failures, "count"),
        "recovery.spare_migrations": (counts["spare_migrations"], "count"),
        "recovery.shrink_restarts": (counts["shrink_restarts"], "count"),
        "recovery.abort_ratio": (counts["aborted_recoveries"] / failures if failures else 0.0,
                                 "fraction"),
        "recovery.replayed_bytes": (counts["replayed_bytes"], "bytes"),
        "campaign.rows_done": (outcome.rows_done, "count"),
        "campaign.rows_failed": (outcome.rows_failed, "count"),
    }
    for name, value in trace.inbox_metrics().items():
        exact[name] = (value, "fraction" if name.endswith("frac") else "count")
    for name, (value, unit) in exact.items():
        metrics[name] = {"value": value, "unit": unit}
    put("sim.events_per_s", [events / wall for wall in plain], "1/s")
    put("trace_overhead", [statistics.median([w for _, w, _, _ in runs])
                           / statistics.median(plain)], "ratio")
    print(f"  per-layer, median of {len(runs)} traced repetitions "
          f"({len(plain)} untraced alongside):")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    return tally, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    import scenarios

    workload = scenarios.build(name, seed)
    print(f"{workload.describe()} ({'traced' if trace else 'untraced'}, "
          f"closed loop, 1 client, {seconds:g} s)")
    if trace:
        tally, metrics = measure_per_layer(workload, seconds)
    else:
        tally, metrics = measure_end_to_end(workload, seconds)
    if tally.reference is not None:
        print(f"  sim_digest {json.dumps(tally.reference.digest(), sort_keys=True)}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    return tally, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default) for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 = per-layer metrics of a traced run (default with "
                             "'all': both)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.setup_probe:
        import_simulator()
        import scenarios

        scenarios.build(args.workload, args.seed)
        return 0

    import scenarios  # stdlib only at import time; repro is imported below

    names = list(scenarios.WORKLOADS) if args.workload == "all" else [args.workload]
    if names[0] not in scenarios.WORKLOADS:
        parser.error(f"unknown workload; expected one of {sorted(scenarios.WORKLOADS)} or 'all'")
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    import_simulator()
    attempted = failed = 0
    results = {}
    for name in names:
        for trace in traces:
            tally, metrics = run_workload(name, args.seed, args.seconds, trace)
            attempted += tally.attempted
            failed += tally.failed
            results[(name, trace)] = metrics
    if len(results) == 1:
        metrics = next(iter(results.values()))
    else:
        metrics = {f"{name}:{key}": entry for (name, _), group in results.items()
                   for key, entry in group.items()}
    correct = failed == 0 and attempted > 0 and all(results.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
