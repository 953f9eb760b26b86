"""Kernel micro-benchmark: simulated events per wall-second.

Measures the discrete-event kernel + message pipeline on fixed scenarios
(halo2d and HPL at two scales each, plus the contention-free halo2d scenario
whose per-message path is entirely closed-form) and reports

* ``events_per_s`` — calendar events processed per wall second,
* ``equivalent_events_per_s`` — the same wall time credited with the events
  the fast paths provably avoided (``processed + stats.events_elided``); this
  is the apples-to-apples throughput of the full coroutine model's workload,
* ``sim_rate`` — simulated seconds per wall second (scenario-relative speed,
  directly comparable across kernel generations for a fixed scenario),
* the raw ``SimStats`` counter bundle.

Results are *reported through the campaign store*: under pytest, every
measurement is appended to the ``benchmarks`` side table of the harness's
store (the persistent ``benchmarks/.campaign.sqlite`` by default), so the
events/sec history across kernel changes is queryable next to the experiment
results.  The stand-alone CLI records into a store only when ``--db PATH`` is
given (CI's tiny smoke run publishes a JSON artifact instead).

Under pytest no thresholds are asserted — the parametrised tests report
(kernel speed on CI machines is noisy).  The pre-refactor reference numbers
below were measured on the development machine against the seed kernel
(commit ``9fbc996``) with interleaved best-of-6 runs; the fast-path kernel
reproduces the same scenarios bit-identically (see
``tests/test_determinism_parity.py``) at ≈3× the speed.

Each scenario runs at least ``--repeat`` times and for at least
``MIN_RUN_S`` wall seconds, and reports its median run.

The stand-alone CLI additionally carries the **regression gate**.  The
model-equivalent rate is the gate's metric because processed plus elided
events is fixed per scenario: a new elision lowers ``events_per_s`` while
the run gets faster, but leaves the equivalent rate tracking wall time
alone.  A host's speed can swing by 2x between phases, so the gate compares
against the parent commit measured on the same host at the same time: with
``--against PARENT.json...`` (the ``--json`` files of the parent's own runs)
a scenario fails when its median here over the parent's median falls below
``1 - tolerance``.  ``tolerance`` and ``enforce`` come from the checked-in
baseline (``--baseline``, default ``benchmarks/kernel_speed_baseline.json``);
its absolute per-scenario numbers, recorded on one reference host, are only
printed, with or without ``--against``, and never gate (refresh them on the
reference machine with ``--update-baseline``).  ``--load CHANGE.json...``
compares earlier ``--json`` runs instead of measuring, so the two sides can
be run alternately and compared afterwards.

Run stand-alone (no pytest plugins needed — this is what the CI smoke job
uses)::

    PYTHONPATH=src python benchmarks/test_kernel_speed.py --scenario tiny \
        --json kernel-speed.json
    PYTHONPATH=src python benchmarks/test_kernel_speed.py --scenario all \
        --baseline benchmarks/kernel_speed_baseline.json
    PYTHONPATH=src python benchmarks/test_kernel_speed.py \
        --load change-1.json change-2.json --against parent-1.json parent-2.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Tuple

import pytest

from repro.campaign.results import simulator_fingerprint
from repro.cluster.topology import Cluster, GIDEON_300
from repro.experiments.config import QUICK
from repro.experiments.runner import build_family, build_workload
from repro.mpi.runtime import MpiRuntime
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

#: benchmark scenarios: halo2d + HPL at two scales, the contention-free
#: halo2d headline scenario, thousand-rank scaling points, and a tiny
#: variant for CI smoke runs
SCENARIOS: Dict[str, Dict[str, object]] = {
    "halo2d-16": {"workload": "halo2d", "n_ranks": 16, "options": None},
    "halo2d-64": {"workload": "halo2d", "n_ranks": 64, "options": None},
    # small messages + compute-dominated spacing: every NIC interaction takes
    # the closed-form path (stats.fastpath_* cover ~all messages)
    "halo2d-cf-64": {"workload": "halo2d", "n_ranks": 64,
                     "options": {"message_bytes": 1024, "iterations": 20}},
    # scaling track: same QUICK-sized halo exchange at 256 and 1024 ranks
    # (one rank per node; the cluster is grown to match)
    "halo2d-256": {"workload": "halo2d", "n_ranks": 256, "options": None},
    "halo2d-1024": {"workload": "halo2d", "n_ranks": 1024, "options": None},
    "hpl-16": {"workload": "hpl", "n_ranks": 16, "options": dict(QUICK.hpl_options)},
    "hpl-32": {"workload": "hpl", "n_ranks": 32, "options": dict(QUICK.hpl_options)},
    "tiny": {"workload": "halo2d", "n_ranks": 8,
             "options": {"iterations": 3, "message_bytes": 4096}},
}

#: scenarios excluded from default pytest/CI runs (nightly/manual only:
#: opt in with RUN_SCALE_BENCHMARKS=1); the CLI always accepts them
SCALE_ONLY = ("halo2d-1024",)

#: seed-kernel reference (dev machine, commit 9fbc996, interleaved best-of-6):
#: wall seconds and calendar events for the same scenarios.  Informational —
#: printed next to current numbers, never asserted.
PRE_REFACTOR_BASELINE: Dict[str, Dict[str, float]] = {
    "halo2d-16": {"wall_s": 0.048, "events": 8513},
    "halo2d-64": {"wall_s": 0.210, "events": 34049},
    "halo2d-cf-64": {"wall_s": 0.420, "events": 67969},
    "hpl-16": {"wall_s": 0.038, "events": 6273},
    "hpl-32": {"wall_s": 0.070, "events": 10913},
}


#: a scenario repeats until its runs add up to this many wall seconds: the
#: 0.01-0.2 s scenarios swing by about 25 % between back-to-back runs
MIN_RUN_S = 1.0


def measure_kernel_speed(scenario: str, repeat: int = 3) -> Dict[str, object]:
    """Run one benchmark scenario and report its median run.

    Runs at least ``repeat`` times and until the runs add up to
    :data:`MIN_RUN_S` wall seconds.  Uses the NORM protocol family (no trace
    run, no checkpoint schedule), so the measurement covers exactly the
    kernel + runtime message pipeline.
    """
    spec = SCENARIOS[scenario]
    runs: List[Dict[str, object]] = []
    total_s = 0.0
    while len(runs) < repeat or total_s < MIN_RUN_S:
        workload = build_workload(spec["workload"], spec["n_ranks"], spec["options"])
        cluster_spec = GIDEON_300.with_nodes(max(GIDEON_300.n_nodes, spec["n_ranks"]))
        family = build_family("NORM", spec["n_ranks"], spec["workload"])
        sim = Simulator()
        cluster = Cluster(sim, cluster_spec)
        runtime = MpiRuntime(sim, cluster, spec["n_ranks"], protocol_family=family,
                             rng=RandomStreams(7))
        runtime.set_memory(workload.memory_map())
        runtime.launch(workload.program_factory())
        start = time.perf_counter()
        app = runtime.run_to_completion(limit_s=1e8)
        wall_s = time.perf_counter() - start
        total_s += wall_s
        events = sim.processed_events
        elided = sim.stats.events_elided
        runs.append({
            "scenario": scenario,
            "workload": spec["workload"],
            "n_ranks": spec["n_ranks"],
            "sim_version": simulator_fingerprint(),
            "wall_s": wall_s,
            "events": events,
            "events_elided": elided,
            "events_per_s": events / wall_s,
            "equivalent_events_per_s": (events + elided) / wall_s,
            "makespan": app.makespan,
            "sim_rate": app.makespan / wall_s,
            "messages": cluster.network.total_messages,
            "messages_per_s": cluster.network.total_messages / wall_s,
            "stats": sim.stats.as_dict(),
        })
    runs.sort(key=lambda run: run["wall_s"])
    median = runs[len(runs) // 2]
    median["runs"] = len(runs)
    baseline = PRE_REFACTOR_BASELINE.get(scenario)
    if baseline is not None:
        median["baseline_wall_s"] = baseline["wall_s"]
        median["baseline_events"] = baseline["events"]
        # same scenario, so the seed kernel's event workload per wall second
        # is the principled cross-kernel events/sec comparison
        median["baseline_events_per_s"] = baseline["events"] / baseline["wall_s"]
        median["speedup_vs_baseline"] = baseline["wall_s"] / median["wall_s"]
    return median


def measure_sampler_overhead(
    scenario: str = "halo2d-64",
    repeat: int = 7,
    sample_bin_s: float = 0.25,
) -> Dict[str, object]:
    """A/B-measure the continuous sampler's wall-time cost on one scenario.

    Runs the scenario ``repeat`` times per variant, strictly interleaved
    (off, on, off, on, ...) so drift affects both variants equally, after one
    unmeasured warm-up pair:

    * **off** — no telemetry attached at all: the kernel's sampler hook is
      present but ``_sampler is None``, so this is the telemetry-off fast
      path every production run takes;
    * **on** — a :class:`~repro.obs.Telemetry` with the state sampler at
      ``sample_bin_s`` attached (trace off, so the delta is the sampler
      alone).

    Reports the median wall time of each variant and their relative
    ``overhead_frac``.  The guard criterion is the one the span tracer
    shipped under: passive observation must stay under 2% median wall-time
    overhead.
    """
    from repro.obs import Telemetry

    spec = SCENARIOS[scenario]

    def run_once(sampled: bool) -> float:
        workload = build_workload(spec["workload"], spec["n_ranks"], spec["options"])
        cluster_spec = GIDEON_300.with_nodes(max(GIDEON_300.n_nodes, spec["n_ranks"]))
        family = build_family("NORM", spec["n_ranks"], spec["workload"])
        sim = Simulator()
        cluster = Cluster(sim, cluster_spec)
        runtime = MpiRuntime(sim, cluster, spec["n_ranks"], protocol_family=family,
                             rng=RandomStreams(7))
        runtime.set_memory(workload.memory_map())
        runtime.launch(workload.program_factory())
        if sampled:
            runtime.attach_telemetry(
                Telemetry(trace=False, sample_bin_s=sample_bin_s))
        start = time.perf_counter()
        runtime.run_to_completion(limit_s=1e8)
        return time.perf_counter() - start

    run_once(False), run_once(True)  # warm-up pair, discarded
    wall_off: List[float] = []
    wall_on: List[float] = []
    for _ in range(repeat):
        wall_off.append(run_once(False))
        wall_on.append(run_once(True))
    median = lambda xs: sorted(xs)[len(xs) // 2]
    m_off, m_on = median(wall_off), median(wall_on)
    return {
        "scenario": scenario,
        "repeat": repeat,
        "sample_bin_s": sample_bin_s,
        "wall_off_median_s": m_off,
        "wall_on_median_s": m_on,
        "overhead_frac": m_on / m_off - 1.0,
    }


def measure_kernel_footprint(scenario: str) -> Dict[str, object]:
    """Peak-memory track: run one scenario once under ``tracemalloc``.

    Reports the tracemalloc peak of the simulation run (Python-heap bytes
    attributable to the scenario itself: messages, events, contexts) next to
    the process-wide ``ru_maxrss`` high-water mark.  Tracing slows the run
    several-fold, so footprint is measured in a separate pass and never mixed
    into the events/sec numbers.
    """
    import resource
    import tracemalloc

    spec = SCENARIOS[scenario]
    workload = build_workload(spec["workload"], spec["n_ranks"], spec["options"])
    cluster_spec = GIDEON_300.with_nodes(max(GIDEON_300.n_nodes, spec["n_ranks"]))
    family = build_family("NORM", spec["n_ranks"], spec["workload"])
    sim = Simulator()
    cluster = Cluster(sim, cluster_spec)
    runtime = MpiRuntime(sim, cluster, spec["n_ranks"], protocol_family=family,
                         rng=RandomStreams(7))
    runtime.set_memory(workload.memory_map())
    runtime.launch(workload.program_factory())
    tracemalloc.start()
    try:
        baseline_bytes, _ = tracemalloc.get_traced_memory()
        runtime.run_to_completion(limit_s=1e8)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ru_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "scenario": scenario,
        "n_ranks": spec["n_ranks"],
        "events": sim.processed_events,
        "peak_traced_bytes": peak_bytes - baseline_bytes,
        "peak_traced_mb": round((peak_bytes - baseline_bytes) / 1e6, 2),
        "ru_maxrss_mb": round(ru_maxrss_kb / 1024, 1),
    }


#: default location of the checked-in regression baseline
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "kernel_speed_baseline.json")


def load_baseline(path: str = BASELINE_PATH) -> Dict[str, object]:
    """Read the checked-in regression baseline."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_measurements(path: str) -> List[Dict[str, object]]:
    """Read the measurements a ``--json`` run wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def median_by_scenario(payloads: List[Dict[str, object]], metric: str) -> Dict[str, float]:
    """Each scenario's median ``metric`` over ``payloads`` (several runs of one side)."""
    values: Dict[str, List[float]] = {}
    for payload in payloads:
        if metric in payload:  # e.g. the sampler-overhead A/B track has none
            values.setdefault(str(payload["scenario"]), []).append(float(payload[metric]))
    return {name: statistics.median(vals) for name, vals in values.items()}


def compare(
    measured: Dict[str, float], reference: Dict[str, float], label: str,
    metric: str, tolerance: float,
) -> Tuple[List[str], List[str]]:
    """Sort scenarios into (report lines, violations) by their ratio to ``reference``.

    A scenario *regresses* when its measured metric falls below
    ``reference × (1 − tolerance)``.  Scenarios without a reference are
    reported but never gate.  Only the parent comparison's violations fail
    the run, and only when the baseline sets ``"enforce": true`` (``main``
    decides).
    """
    lines: List[str] = []
    violations: List[str] = []
    for name, value in measured.items():
        ref = reference.get(name)
        if ref is None:
            lines.append(f"{name}: {value:,.0f} {metric} (no {label} entry)")
            continue
        ratio = value / float(ref)
        line = (f"{name}: {value:,.0f} vs {label} {float(ref):,.0f} {metric}"
                f" ({ratio:.2f}x, tolerance -{tolerance:.0%})")
        if ratio < 1.0 - tolerance:
            violations.append(line + "  REGRESSED")
        else:
            lines.append(line + "  ok")
    return lines, violations


def compare_to_baseline(
    payloads: List[Dict[str, object]], baseline: Dict[str, object]
) -> Tuple[List[str], List[str]]:
    """Compare measurements to the baseline's recorded numbers (printed, never gating)."""
    metric = str(baseline.get("metric", "equivalent_events_per_s"))
    return compare(median_by_scenario(payloads, metric), baseline.get("scenarios", {}),
                   "baseline", metric, float(baseline.get("tolerance", 0.3)))


def compare_to_parent(
    payloads: List[Dict[str, object]], parent: List[Dict[str, object]],
    baseline: Dict[str, object],
) -> Tuple[List[str], List[str]]:
    """Compare this side's median per scenario to the parent commit's median,
    with the baseline's metric and tolerance."""
    metric = str(baseline.get("metric", "equivalent_events_per_s"))
    return compare(median_by_scenario(payloads, metric), median_by_scenario(parent, metric),
                   "parent", metric, float(baseline.get("tolerance", 0.3)))


def update_baseline(payloads: List[Dict[str, object]],
                    path: str = BASELINE_PATH) -> None:
    """Rewrite the baseline's per-scenario numbers from fresh measurements."""
    baseline = load_baseline(path) if os.path.exists(path) else {
        "enforce": False, "tolerance": 0.3, "metric": "equivalent_events_per_s",
        "scenarios": {},
    }
    metric = str(baseline.get("metric", "equivalent_events_per_s"))
    for payload in payloads:
        if "overhead_frac" in payload:
            # sampler A/B track: report-only, never part of the enforced gate
            baseline["sampler_overhead"] = {
                "scenario": payload["scenario"],
                "sample_bin_s": payload["sample_bin_s"],
                "overhead_frac": round(float(payload["overhead_frac"]), 4),
            }
            continue
        baseline["scenarios"][payload["scenario"]] = round(float(payload[metric]))
        if "peak_traced_mb" in payload:
            baseline.setdefault("footprint_mb", {})[payload["scenario"]] = {
                "peak_traced_mb": payload["peak_traced_mb"],
                "ru_maxrss_mb": payload["ru_maxrss_mb"],
            }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")


def _record(payload: Dict[str, object]) -> None:
    """Append the measurement to the active campaign store's benchmark table."""
    from repro.campaign.executor import get_default_campaign

    get_default_campaign().store.record_benchmark("kernel_speed", payload)


def _print_report(payload: Dict[str, object]) -> None:
    line = (f"{payload['scenario']}: {payload['events']} events "
            f"(+{payload['events_elided']} elided) in {payload['wall_s']:.3f}s"
            f" -> {payload['events_per_s']:,.0f} ev/s"
            f" ({payload['equivalent_events_per_s']:,.0f} model-equivalent ev/s,"
            f" {payload['messages_per_s']:,.0f} msg/s)")
    if "speedup_vs_baseline" in payload:
        line += (f"  [seed kernel: {payload['baseline_events_per_s']:,.0f} ev/s,"
                 f" speedup {payload['speedup_vs_baseline']:.2f}x]")
    if "peak_traced_mb" in payload:
        line += (f"  [peak {payload['peak_traced_mb']} MB traced,"
                 f" rss high-water {payload['ru_maxrss_mb']} MB]")
    print(line)


_scale_skip = pytest.mark.skipif(
    not os.environ.get("RUN_SCALE_BENCHMARKS"),
    reason="thousand-rank scenario: nightly/manual only (set RUN_SCALE_BENCHMARKS=1)",
)


@pytest.mark.parametrize(
    "scenario",
    [pytest.param(s, marks=_scale_skip) if s in SCALE_ONLY else s
     for s in SCENARIOS if s != "tiny"],
)
def test_kernel_speed(scenario):
    """Measure and record events/sec for one scenario (report-only)."""
    payload = measure_kernel_speed(scenario)
    print()
    _print_report(payload)
    _record(payload)
    assert payload["events"] > 0
    assert payload["events_elided"] > 0  # the fast paths must actually engage


def test_sampler_overhead_guard():
    """The continuous sampler must stay under 2% median wall-time overhead.

    Scheduler noise on a loaded box only ever *inflates* the measured
    overhead, so a failing measurement is retried (up to three attempts)
    and the best observation is what the guard asserts on.
    """
    payload = measure_sampler_overhead()
    for _ in range(2):
        if payload["overhead_frac"] < 0.02:
            break
        retry = measure_sampler_overhead()
        if retry["overhead_frac"] < payload["overhead_frac"]:
            payload = retry
    print()
    print(f"sampler A/B on {payload['scenario']} "
          f"(bin {payload['sample_bin_s']}s, median of {payload['repeat']}): "
          f"off {payload['wall_off_median_s'] * 1000:.1f}ms, "
          f"on {payload['wall_on_median_s'] * 1000:.1f}ms -> "
          f"{payload['overhead_frac']:+.2%} overhead")
    from repro.campaign.executor import get_default_campaign

    get_default_campaign().store.record_benchmark("sampler_overhead", payload)
    assert payload["overhead_frac"] < 0.02


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="all",
                        help="scenario name, 'all' (every non-tiny scenario except "
                             "the nightly-only thousand-rank ones — name those "
                             "explicitly), or 'tiny'")
    parser.add_argument("--repeat", type=int, default=3,
                        help="minimum runs per scenario (which also runs for at "
                             f"least {MIN_RUN_S:g} s; the median run is kept)")
    parser.add_argument("--json", default=None, help="write measurements to this JSON file")
    parser.add_argument("--db", default=None,
                        help="also record into this campaign store's benchmark table")
    parser.add_argument("--load", nargs="+", default=None, metavar="JSON",
                        help="read measurements from these --json files instead "
                             "of running scenarios (several runs of one commit: "
                             "each scenario's median is compared)")
    parser.add_argument("--baseline", default=None,
                        help="print a comparison with this regression baseline's "
                             "recorded numbers (never gates); with --against, "
                             "its tolerance and enforce flag set the gate")
    parser.add_argument("--against", nargs="+", default=None, metavar="PARENT_JSON",
                        help="gate on the parent commit: these are --json files "
                             "of the parent's own runs, and a scenario fails when "
                             "its median here over the parent's median is below "
                             "1 - tolerance.  Tolerance and enforce come from "
                             "--baseline (default: the checked-in baseline)")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"rewrite {BASELINE_PATH} from this run's numbers")
    parser.add_argument("--footprint", action="store_true",
                        help="also measure peak memory (tracemalloc + ru_maxrss) "
                             "in a separate instrumented pass per scenario")
    parser.add_argument("--sampler-overhead", action="store_true",
                        help="also run the interleaved sampler-on vs telemetry-off "
                             "A/B and report its median wall-time overhead "
                             "(report-only track in the baseline)")
    args = parser.parse_args(argv)

    if args.load:
        names = []
    elif args.scenario == "all":
        names = [s for s in SCENARIOS if s != "tiny" and s not in SCALE_ONLY]
    elif args.scenario in SCENARIOS:
        names = [args.scenario]
    else:
        parser.error(f"unknown scenario {args.scenario!r}; "
                     f"expected one of {sorted(SCENARIOS)} or 'all'")
    payloads = [payload for path in args.load or () for payload in load_measurements(path)]
    for name in names:
        payload = measure_kernel_speed(name, repeat=args.repeat)
        if args.footprint:
            fp = measure_kernel_footprint(name)
            payload["peak_traced_mb"] = fp["peak_traced_mb"]
            payload["ru_maxrss_mb"] = fp["ru_maxrss_mb"]
        _print_report(payload)
        payloads.append(payload)
    if args.sampler_overhead:
        ab = measure_sampler_overhead()
        print(f"sampler A/B on {ab['scenario']} (bin {ab['sample_bin_s']}s, "
              f"median of {ab['repeat']}): "
              f"off {ab['wall_off_median_s'] * 1000:.1f}ms, "
              f"on {ab['wall_on_median_s'] * 1000:.1f}ms -> "
              f"{ab['overhead_frac']:+.2%} overhead")
        payloads.append(ab)
    if args.db:
        from repro.campaign.store import CampaignStore

        store = CampaignStore(args.db)
        try:
            for payload in payloads:
                store.record_benchmark("kernel_speed", payload)
        finally:
            store.close()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payloads, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(payloads)} measurement(s) to {args.json}")
    if args.update_baseline:
        update_baseline(payloads)
        print(f"updated {BASELINE_PATH}")
    if args.baseline or args.against:
        baseline_path = args.baseline or BASELINE_PATH
        baseline = load_baseline(baseline_path)
        lines, violations = compare_to_baseline(payloads, baseline)
        print(f"\nbaseline comparison ({baseline_path}, report-only):")
        for line in lines + violations:
            print(f"  {line}")
        if args.against:
            enforce = bool(baseline.get("enforce", False))
            parent = [payload for path in args.against for payload in load_measurements(path)]
            lines, violations = compare_to_parent(payloads, parent, baseline)
            print(f"\nparent comparison ({' '.join(args.against)}, "
                  f"{'enforcing' if enforce else 'report-only'}):")
            for line in lines + violations:
                print(f"  {line}")
            if violations and enforce:
                print(f"{len(violations)} scenario(s) regressed beyond tolerance")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
