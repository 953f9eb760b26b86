"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure of the paper at the FULL profile
(the paper's process counts) through its declaration,
``repro.experiments.figures.FIGURES[name].run(profile=...)``, and prints the
resulting rows, so running

    pytest benchmarks/ --benchmark-only

produces the complete reproduction report.  Each experiment is executed once
per benchmark (``rounds=1``) because a single data point already involves
dozens of simulated application runs.

The figures run through the :mod:`repro.campaign` engine against a
persistent store (``benchmarks/.campaign.sqlite`` by default), so:

* a cold pass can use several worker processes (``REPRO_BENCH_WORKERS``,
  default: all cores),
* a repeated invocation re-runs nothing — every scenario is served from the
  store's ``done`` rows and the full report prints in seconds,
* an interrupted pass resumes where it stopped.

Delete the store file (or point ``REPRO_BENCH_DB`` elsewhere) to force a
fresh run, e.g. after changing simulator internals.
"""

from __future__ import annotations

import os
from typing import Callable, Dict

import pytest

from repro.analysis.reporting import format_table


def run_experiment(benchmark, experiment: Callable[[], Dict[str, object]]) -> Dict[str, object]:
    """Run ``experiment`` exactly once under pytest-benchmark and print its tables."""
    result = benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)
    for key in ("table", "diff_table", "restart_table"):
        if key in result:
            print()
            print(format_table(result[key]))
    return result


@pytest.fixture(scope="session", autouse=True)
def bench_campaign():
    """Install the persistent benchmark campaign behind the figure declarations."""
    from repro.campaign import Campaign, CampaignStore, set_default_campaign

    path = os.environ.get(
        "REPRO_BENCH_DB", os.path.join(os.path.dirname(__file__), ".campaign.sqlite")
    )
    n_workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0") or 0) or (os.cpu_count() or 1)
    campaign = Campaign(CampaignStore(path), n_workers=n_workers)
    set_default_campaign(campaign)
    yield campaign
    counts = campaign.counts()
    print(f"\n[campaign] {path}: {counts}")
    set_default_campaign(None)
    campaign.store.close()


def bench_profile():
    """Profile used by the benchmark files.

    Defaults to the paper-scale FULL profile; set ``REPRO_BENCH_PROFILE=quick``
    to regenerate every figure at the reduced test scale (useful on small or
    time-limited machines).
    """
    import os

    from repro.experiments.config import profile_by_name

    return profile_by_name(os.environ.get("REPRO_BENCH_PROFILE", "full"))
