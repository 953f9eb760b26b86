"""Campaign observatory: render store progress and benchmark history.

The :mod:`repro.campaign.progress` API reads a :class:`CampaignStore` into a
:class:`CampaignProgress` snapshot; this module renders that snapshot and
the store's ``benchmarks`` side table —

* :func:`render_progress_text` — the ``progress_tables`` stack through
  :func:`repro.analysis.reporting.format_table`, for terminals and the
  ``--watch`` loop in ``examples/reproduce_paper.py``;
* :func:`render_progress_html` — a self-contained single-file HTML page
  (no external assets): a hero done-fraction, per-status stat tiles with
  icon + label (status is never colour alone), a stacked status meter,
  and the same ``progress_tables``;
* :func:`trend_table` / :func:`render_trend_html` — the events/sec history
  of the store's :meth:`CampaignStore.record_benchmark` rows per scenario,
  with the delta against the previous run of the same scenario (a
  regression is a negative delta), as a table and as one line chart per
  scenario.  ``tools/bench_trend.py`` is the command line.

Runnable directly against a store::

    PYTHONPATH=src python -m repro.campaign.dashboard --db sweep.sqlite \\
        --html observatory.html
"""

from __future__ import annotations

import argparse
import html
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.reporting import (
    Table,
    format_table,
    line_chart_svg,
    page_html,
    stat_tiles,
    table_html,
)
from repro.campaign.progress import (
    CampaignProgress,
    campaign_progress,
    progress_tables,
)
from repro.campaign.store import CampaignStore

#: fixed status palette (never themed): good / warning / critical + muted ink.
#: every status also carries an icon + label so colour never acts alone.
_STATUS_STYLE = {
    "done": ("#0ca30c", "✓"),      # good, check mark
    "running": ("#fab219", "▶"),   # warning-yellow, play
    "failed": ("#d03b3b", "✗"),    # critical, cross
    "pending": ("#898781", "○"),   # muted, open circle
}

#: payload key holding a benchmark row's headline rate
RATE_KEY = "events_per_s"


def render_progress_text(progress: CampaignProgress) -> str:
    """All ``progress_tables`` formatted for a terminal."""
    return "\n\n".join(format_table(t) for t in progress_tables(progress))


def render_progress_html(progress: CampaignProgress,
                         title: str = "campaign observatory",
                         poll_s: Optional[float] = None,
                         poll_url: str = "/api/progress") -> str:
    """Self-contained HTML status page for a campaign store.

    With ``poll_s`` set (the observatory server's live mode) the page keeps
    polling ``poll_url`` and reloads itself the moment the endpoint's ETag
    changes — the server's response cache stamps every payload with the
    store generation, so a quiet store costs one conditional request per
    poll and the page re-renders only when the store actually changed.
    An empty store renders an explicit "no rows yet" state.
    """
    counts = progress.counts
    total = progress.total
    tiles = stat_tiles((f"{icon} {status}", str(counts.get(status, 0)), colour)
                       for status, (colour, icon) in _STATUS_STYLE.items())

    # stacked status meter: one segment per non-empty status, 2px gaps
    segments = []
    for status, (colour, icon) in _STATUS_STYLE.items():
        n = counts.get(status, 0)
        if n:
            tip = html.escape(f"{icon} {status}: {n}/{total}", quote=True)
            segments.append(f'<div style="flex:{n};background:{colour}" '
                            f'title="{tip}"></div>')
    meter = f'<div class="meter">{"".join(segments)}</div>' if segments else ""

    if progress.is_empty:
        hero = ('<div class="hero">no rows yet'
                '<span class="sub" style="font-size:16px"> — waiting for the '
                'first experiment to be registered</span></div>')
    else:
        hero = (f'<div class="hero">{progress.done_fraction:.0%}'
                '<span class="sub" style="font-size:16px"> complete</span></div>')

    poll_script = ""
    if poll_s:
        poll_ms = max(int(poll_s * 1000), 250)
        poll_script = f"""<script>
(function () {{
  var last = null;
  function tick() {{
    fetch({poll_url!r}, {{cache: "no-store"}}).then(function (r) {{
      var tag = r.headers.get("ETag");
      if (last !== null && tag !== null && tag !== last) location.reload();
      if (tag !== null) last = tag;
    }}).catch(function () {{}}).then(function () {{
      setTimeout(tick, {poll_ms});
    }});
  }}
  setTimeout(tick, {poll_ms});
}})();
</script>"""

    tables = "".join(f"<section>{table_html(t)}</section>"
                     for t in progress_tables(progress))
    return page_html(title, f"""<section>
<p class="sub">{total} experiments · snapshot at t={progress.observed_at:.0f}</p>
{hero}
{meter}
{tiles}
</section>
{tables}
{poll_script}""")


def _runs_by_scenario(rows: Iterable[Dict[str, object]]
                      ) -> Dict[str, List[Tuple[str, str, object, float]]]:
    """Per scenario, oldest first: (recorded at, sim version, payload v, rate)."""
    groups: Dict[str, List[Tuple[str, str, object, float]]] = {}
    for row in rows:
        payload = row.get("payload") or {}
        if RATE_KEY in payload:
            groups.setdefault(str(payload.get("scenario", "?")), []).append((
                str(payload.get("recorded_at_utc", row.get("created_at", "?"))),
                str(payload.get("sim_version", "?")),
                payload.get("payload_version", "?"), float(payload[RATE_KEY])))
    return dict(sorted(groups.items()))


def trend_table(rows: Iterable[Dict[str, object]], name: str) -> Table:
    """Per-scenario events/sec trajectory with deltas against the previous run."""
    table = Table(
        title=f"Benchmark trend: {name} (newest last; Δ vs previous run)",
        columns=["scenario", "recorded (UTC)", "sim version", "payload v",
                 "events/s", "Δ"],
    )
    for scenario, runs in _runs_by_scenario(rows).items():
        previous: Optional[float] = None
        for stamp, sim_version, payload_version, rate in runs:
            delta = "—" if not previous else f"{(rate - previous) / previous:+.1%}"
            table.add_row(scenario, stamp, sim_version, payload_version,
                          f"{rate:,.0f}", delta)
            previous = rate
    return table


def render_trend_html(rows: Sequence[Dict[str, object]], name: str,
                      title: Optional[str] = None) -> str:
    """Single-file HTML report: one line chart per scenario, then the table."""
    charts: List[str] = []
    for scenario, runs in _runs_by_scenario(rows).items():
        points = [(float(index), rate,
                   f"run {index + 1} · {stamp}\n{sim_version}: {rate:,.0f} events/s")
                  for index, (stamp, sim_version, _, rate) in enumerate(runs)]
        charts.append(line_chart_svg(
            points, scenario,
            f"{len(runs)} recorded run{'s' if len(runs) != 1 else ''}, events/sec",
            fmt=lambda v: f"{v:,.0f}",
            x_fmt=lambda x: f"run {int(round(x)) + 1}"))
    if not charts:
        charts.append(f"<p>no {html.escape(name)} benchmark rows with an "
                      f"<code>{RATE_KEY}</code> rate recorded yet</p>")
    return page_html(title or f"benchmark trend: {name}", f"""<p class="sub">events/sec per recorded run, grouped by scenario; rows are
stamped with the simulator fingerprint so rate shifts line up with code
changes.</p>
{''.join(charts)}
{table_html(trend_table(rows, name))}""")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render campaign store progress as text and optional HTML.")
    parser.add_argument("--db", required=True, help="campaign store sqlite path")
    parser.add_argument("--html", default=None,
                        help="write the HTML observatory page here")
    parser.add_argument("--title", default="campaign observatory")
    args = parser.parse_args(argv)

    store = CampaignStore(args.db)
    try:
        progress = campaign_progress(store)
    finally:
        store.close()
    print(render_progress_text(progress))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_progress_html(progress, title=args.title))
        print(f"\nwrote HTML observatory to {args.html}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
