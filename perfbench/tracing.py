"""Instrumentation for the traced run: phase spans, inbox counters, self time.

Nothing here changes the simulator.  The traced run wraps public functions
from outside (class- or module-level attribute swaps, undone afterwards) and
profiles the repetition with ``cProfile``:

* **phase spans** — host seconds inside ``build_workload``, ``obtain_trace``,
  ``form_groups``, ``MpiRuntime.run_to_completion`` (outside trace runs),
  ``harvest_scenario`` and the campaign store's ``add_many``/``claim``/
  ``mark_done``.  A re-entrant call is timed once.
* **inbox counters** — every ``Inbox.get``; for wildcard gets (``kind``,
  ``src`` or ``tag`` is ``None``) also the buckets the inbox holds and how
  many of them are empty, i.e. what the wildcard scan walks over.
* **self time by package** — cProfile self time rolled up by
  ``repro.<package>``; a C function's time is charged to the package of the
  code that called it.  The benchmark's own frames are left out.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import os
import pstats
import time
from typing import Callable, Dict, Iterator, List, Tuple

PACKAGES = ("sim", "mpi", "cluster", "ckpt", "core", "storage", "recovery",
            "workloads", "obs", "analysis", "campaign", "experiments")
LAYERS = PACKAGES + ("other",)

#: phase span name -> (module or class path, attribute names)
PHASES: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "workloads.build_s": (("repro.experiments.runner", "", ("build_workload",)),),
    "mpi.trace_run_s": (("repro.experiments.runner", "", ("obtain_trace",)),),
    "core.formation_s": (("repro.experiments.runner", "", ("form_groups",)),),
    "sim.main_run_s": (("repro.mpi.runtime", "MpiRuntime", ("run_to_completion",)),),
    "obs.harvest_s": (("repro.experiments.runner", "", ("harvest_scenario",)),),
    "campaign.store_s": (("repro.campaign.store", "CampaignStore",
                          ("add_many", "claim", "mark_done")),),
}

#: a span does not count while one of these is open (the trace run's own
#: simulation is part of ``mpi.trace_run_s``, not of the main run)
EXCLUDED_WITHIN = {"sim.main_run_s": ("mpi.trace_run_s",)}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def package_of(filename: str) -> str:
    """Layer of a profiled frame's file: a ``repro`` package, ``other`` or ``bench``."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    marker = os.sep + "repro" + os.sep
    i = filename.rfind(marker)
    if i < 0:
        return "other"
    pkg = filename[i + len(marker):].split(os.sep, 1)[0]
    return pkg if pkg in PACKAGES else "other"


def self_time_by_package(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per layer; C functions are charged to their callers."""
    out = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for (filename, _, _), (_, _, tt, _, callers) in pstats.Stats(profile).stats.items():
        if filename == "~" and callers:
            for (caller_file, _, _), edge in callers.items():
                out[package_of(caller_file)] += edge[2]
        else:
            out[package_of(filename)] += tt
    del out["bench"]
    return out


class Trace:
    """Per-repetition phase totals and inbox counters, filled while patched."""

    def __init__(self) -> None:
        self.phases = dict.fromkeys(PHASES, 0.0)
        self.inbox_gets = 0
        self.wildcard_gets = 0
        self.buckets_scanned = 0
        self.empty_buckets = 0
        self._open: Dict[str, int] = dict.fromkeys(PHASES, 0)

    def _span(self, phase: str, fn: Callable) -> Callable:
        excluded = EXCLUDED_WITHIN.get(phase, ())
        is_open = self._open
        phases = self.phases

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_open[phase] or any(is_open[name] for name in excluded):
                return fn(*args, **kwargs)
            is_open[phase] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[phase] += time.perf_counter() - start
                is_open[phase] -= 1

        return wrapper

    def _inbox_get(self, get: Callable) -> Callable:
        trace = self

        @functools.wraps(get)
        def wrapper(inbox, kind, src, tag):
            trace.inbox_gets += 1
            if kind is None or src is None or tag is None:
                buckets = inbox._buckets
                trace.wildcard_gets += 1
                trace.buckets_scanned += len(buckets)
                trace.empty_buckets += list(map(len, buckets.values())).count(0)
            return get(inbox, kind, src, tag)

        return wrapper

    @contextlib.contextmanager
    def patched(self) -> Iterator["Trace"]:
        """Install every wrapper; restore the originals on exit."""
        import importlib

        from repro.mpi.runtime import Inbox

        saved: List[Tuple[object, str, object]] = []

        def swap(owner: object, attr: str, new: object) -> None:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for phase, targets in PHASES.items():
                for module_name, class_name, attrs in targets:
                    owner = importlib.import_module(module_name)
                    if class_name:
                        owner = getattr(owner, class_name)
                    for attr in attrs:
                        swap(owner, attr, self._span(phase, getattr(owner, attr)))
            swap(Inbox, "get", self._inbox_get(Inbox.get))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def inbox_metrics(self) -> Dict[str, float]:
        wild = self.wildcard_gets
        return {
            "mpi.inbox.gets": self.inbox_gets,
            "mpi.inbox.wildcard_gets": wild,
            "mpi.inbox.buckets_per_wildcard_get": self.buckets_scanned / wild if wild else 0.0,
            "mpi.inbox.empty_bucket_frac": (self.empty_buckets / self.buckets_scanned
                                            if self.buckets_scanned else 0.0),
        }


def traced_call(run: Callable):
    """Run ``run()`` patched and profiled; return (result, wall_s, trace, self_s)."""
    trace = Trace()
    profile = cProfile.Profile()
    with trace.patched():
        start = time.perf_counter()
        profile.enable()
        try:
            result = run()
        finally:
            profile.disable()
        wall = time.perf_counter() - start
    return result, wall, trace, self_time_by_package(profile)
