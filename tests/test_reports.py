"""The HTML reports: one page shell, stylesheet and table renderer for all four."""

import html
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.analysis.reporting import page_html, table_html
from repro.campaign import CampaignStore, campaign_progress, progress_tables
from repro.campaign.dashboard import render_progress_html, render_trend_html, trend_table
from repro.ckpt.scheduler import one_shot
from repro.experiments.config import ScenarioConfig
from repro.obs.report import (
    bin_table,
    render_dashboard_html,
    render_timeline_html,
    span_summary_table,
)

TITLE = 'report <"a" & b>'

STATES = ["compute", "send_blocked", "recv_blocked", "checkpoint", "recovery", "finished"]

SPANS = [
    {"name": "checkpoint", "cat": "ckpt", "ph": "X", "ts": 0.0, "dur": 2e6,
     "tid": 0, "args": {"ckpt_id": 0}},
    {"name": "lock_mpi", "cat": "ckpt.stage", "ph": "X", "ts": 0.0, "dur": 1e5,
     "tid": 0, "args": {}},
    {"name": "restart", "cat": "recovery", "ph": "X", "ts": 1e6, "dur": 5e5,
     "tid": 1, "args": {"aborted": True}},
    {"name": "custom", "cat": "user.defined", "ph": "X", "ts": 2e6, "dur": 1e6,
     "tid": 2, "args": {}},
]


def _dashboard():
    bins = [{"t0": 0.1 * i, "t1": 0.1 * (i + 1),
             "rank_states": [(i + r) % len(STATES) for r in range(4)],
             "nic_busy_frac": 0.25 * (i % 4), "log_bytes_total": 1024.0 * i}
            for i in range(6)]
    data = {"meta": {"states": STATES, "bin_s": 0.1, "n_ranks": 4, "summary": {}},
            "bins": bins, "phases": []}
    markers = {"<figcaption>Rank-state heatmap": 1,
               "<figcaption>Utilization stacked area": 1,
               "<summary>Table view</summary>": 2,
               "<figcaption>NIC utilization": 1,
               "<figcaption>Sender-log retained bytes": 1}
    return (render_dashboard_html(data, title=TITLE),
            [bin_table(data), bin_table(data, fractions=True)], markers)


def _timeline():
    tracks = {0: "rank0", 1: "recovery", 2: "user"}
    markers = {'class="lane"': len(tracks), 'class="span"': len(SPANS)}
    return (render_timeline_html(SPANS, tracks, title=TITLE),
            [span_summary_table(SPANS)], markers)


def _campaign():
    store = CampaignStore(":memory:")
    keys = [store.add(ScenarioConfig(workload="ring", n_ranks=4, method="NORM",
                                     schedule=one_shot(0.2), seed=seed))
            for seed in range(6)]
    for _ in range(5):
        store.claim("w1")
    for key in keys[:3]:
        store.mark_done(key, {"makespan": 1.0}, duration_s=2.0)
    store.mark_failed(keys[3], "ValueError: <boom>")
    progress = campaign_progress(store)
    tables = progress_tables(progress)
    assert [t.title for t in tables] == ["Campaign status", "Rates",
                                         "Lease health (running rows)", "Failures"]
    markers = {'class="hero"': 1, 'class="meter"': 1, ">✓ done<": 1,
               ">▶ running<": 1, ">✗ failed<": 1, ">○ pending<": 1}
    return render_progress_html(progress, title=TITLE), tables, markers


def _trend():
    store = CampaignStore(":memory:")
    for scenario, rate in (("ring-4", 1000.0), ("ring-4", 900.0), ("halo-16", 50.0)):
        store.record_benchmark("kernel_speed",
                               {"scenario": scenario, "events_per_s": rate})
    rows = store.benchmark_rows("kernel_speed")
    return (render_trend_html(rows, "kernel_speed", title=TITLE),
            [trend_table(rows, "kernel_speed")], {"<figure>": 2})


REPORTS = {"dashboard": _dashboard, "timeline": _timeline,
           "campaign": _campaign, "trend": _trend}


@pytest.mark.parametrize("report", sorted(REPORTS))
def test_report_renders_through_the_shared_primitives(report):
    page, tables, markers = REPORTS[report]()
    # the shared page shell: escaped title, the one light/dark stylesheet
    head, tail = page_html(TITLE, "\0").split("\0")
    assert page.startswith(head) and page.endswith(tail)
    assert f"<title>{html.escape(TITLE)}</title>" in head
    assert "@media (prefers-color-scheme: dark)" in head
    assert TITLE not in page and page.count("<!doctype") == 1
    # every table on the page is a text-view Table through table_html
    assert re.findall(r"<table>.*?</table>", page, re.S) == [
        table_html(t) for t in tables]
    for marker, count in markers.items():
        assert page.count(marker) == count, marker


_RENDER_UNKNOWN_CATEGORIES = """
from repro.obs.report import render_timeline_html
spans = [{"name": "s%d" % i, "cat": "custom.%d" % i, "ph": "X", "ts": 10.0 * i,
          "dur": 5.0, "tid": 0, "args": {}} for i in range(8)]
print(render_timeline_html(spans, {0: "track"}))
"""


def test_timeline_colours_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    pages = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        pages.append(subprocess.run(
            [sys.executable, "-c", _RENDER_UNKNOWN_CATEGORIES], env=env,
            capture_output=True, check=True, timeout=120).stdout)
    assert pages[0] == pages[1]
