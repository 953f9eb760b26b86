"""Run reports: the rank-state dashboard and the span timeline.

Both render a file that :mod:`repro.obs.export` writes as a single-file
HTML page:

* :func:`render_dashboard_html` — a sampler series (:func:`load_series`) as
  a rank-state heatmap (rank × time bin, one colour per state), a
  utilization stacked area (fraction of ranks per state over time) and
  NIC-utilization / sender-log line charts.  Every chart has hover
  tool-tips and the state charts a table view.  :func:`occupancy_table` is
  its text summary.
* :func:`render_timeline_html` — a Chrome trace (:func:`load_spans`) as one
  lane per track, spans drawn as blocks scaled to simulated time with their
  attributes in the tool-tips, above :func:`span_summary_table` (per
  category and span name: count, total and mean duration, share of the
  traced window).

``tools/dashboard.py`` and ``tools/timeline.py`` are their command lines.
"""

from __future__ import annotations

import zlib
from html import escape
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.reporting import (
    PLOT_TOP,
    Table,
    axis_ticks,
    chart_svg,
    legend,
    line_chart_svg,
    page_html,
    stat_tiles,
    table_html,
)

Events = List[Dict[str, Any]]

#: cap on heatmap cells: beyond this, rank rows are aggregated in blocks
_MAX_HEATMAP_CELLS = 200_000


# ---------------------------------------------------------------- dashboard
def _state_colour(code: int) -> str:
    # states take the theme's categorical slots in file order, so each state
    # keeps one colour across the heatmap, the stacked area and the legend
    return f"var(--cat-{code % 6 + 1})"


def _state_counts(bins: Events, n_states: int) -> List[List[int]]:
    """Ranks in each state, per bin."""
    per_bin = []
    for b in bins:
        counts = [0] * n_states
        for code in b["rank_states"]:
            counts[code] += 1
        per_bin.append(counts)
    return per_bin


def occupancy_table(data: Dict[str, Any]) -> Table:
    """Mean and peak fraction of ranks per state over the sampled window."""
    states: List[str] = list(data["meta"].get("states", []))
    bins = data["bins"]
    table = Table("Rank-state occupancy (mean fraction of ranks)",
                  ["state", "mean", "peak"])
    if not bins or not states:
        return table
    n_ranks = len(bins[0]["rank_states"])
    per_bin = _state_counts(bins, len(states))
    for idx, state in enumerate(states):
        fracs = [counts[idx] / n_ranks for counts in per_bin]
        table.add_row(state, f"{sum(fracs) / len(fracs):.3f}", f"{max(fracs):.3f}")
    return table


def bin_table(data: Dict[str, Any], fractions: bool = False) -> Table:
    """Ranks per state in every bin, as counts or as fractions of all ranks."""
    states: List[str] = list(data["meta"]["states"])
    bins = data["bins"]
    n_ranks = len(bins[0]["rank_states"])
    table = Table("Fraction of ranks per state" if fractions else "Ranks per state",
                  ["bin"] + states)
    for b, counts in zip(bins, _state_counts(bins, len(states))):
        cells = [f"{c / n_ranks:.2f}" for c in counts] if fractions else counts
        table.add_row(f"{b['t0']:.4g}–{b['t1']:.4g}s", *cells)
    return table


def _table_view(table: Table) -> str:
    return f"<details><summary>Table view</summary>{table_html(table)}</details>"


def _state_legend(states: Sequence[str]) -> str:
    return legend((s.replace("_", " "), _state_colour(i)) for i, s in enumerate(states))


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB"):
        if abs(value) < 1024:
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} GiB"


def _heatmap(data: Dict[str, Any]) -> str:
    meta = data["meta"]
    bins = data["bins"]
    states: List[str] = list(meta["states"])
    n_ranks = len(bins[0]["rank_states"])
    n_bins = len(bins)
    # aggregate rank rows in blocks when the matrix would be too large to draw
    block = 1
    while (n_ranks // block + 1) * n_bins > _MAX_HEATMAP_CELLS:
        block *= 2
    n_rows = (n_ranks + block - 1) // block
    x0, top = 46, PLOT_TOP
    cell_w, cell_h = max(1100 // max(n_bins, 1), 2), max(min(14, 420 // n_rows), 2)
    gap = 1 if cell_w >= 4 and cell_h >= 4 else 0
    cells: List[str] = []
    for i, b in enumerate(bins):
        row_states = b["rank_states"]
        for row in range(n_rows):
            lo, hi = row * block, min((row + 1) * block, n_ranks)
            chunk = row_states[lo:hi]
            # block rows show the dominant state of their ranks
            code = max(set(chunk), key=chunk.count)
            label = (f"rank {lo}" if block == 1 else f"ranks {lo}-{hi - 1}")
            tip = escape(f"{label}\n[{b['t0']:.4g}s, {b['t1']:.4g}s): "
                         f"{states[code].replace('_', ' ')}", quote=True)
            cells.append(
                f'<rect x="{x0 + i * cell_w}" y="{top + row * cell_h}" '
                f'width="{cell_w - gap}" height="{cell_h - gap}" '
                f'fill="{_state_colour(code)}"><title>{tip}</title></rect>')
    labels = []
    for row in range(0, n_rows, max(n_rows // 8, 1)):
        labels.append(f'<text x="{x0 - 6}" y="{top + row * cell_h + cell_h - 2}" '
                      f'text-anchor="end">r{row * block}</text>')
    note = (f" · {block} ranks per row" if block > 1 else "")
    return chart_svg(
        "Rank-state heatmap", f"one cell per rank × {meta['bin_s']:.4g}s bin{note}",
        "".join(labels + cells), x0, n_rows * cell_h, bins[0]["t0"], bins[-1]["t1"],
        width=x0 + n_bins * cell_w, head=_state_legend(states),
        tail=_table_view(bin_table(data)))


def _stacked_area(data: Dict[str, Any]) -> str:
    bins = data["bins"]
    states: List[str] = list(data["meta"]["states"])
    n_ranks = len(bins[0]["rank_states"])
    x0, top, plot_h, width = 46, PLOT_TOP, 180, 1100
    t0, t1 = bins[0]["t0"], bins[-1]["t1"]
    span = max(t1 - t0, 1e-12)
    xs = [x0 + ((b["t0"] + b["t1"]) / 2.0 - t0) / span * (width - x0) for b in bins]
    per_bin = _state_counts(bins, len(states))
    cum = [0.0] * len(bins)
    layers: List[str] = []
    boundaries: List[str] = []
    for idx, state in enumerate(states):
        fracs = [counts[idx] / n_ranks for counts in per_bin]
        lower = list(cum)
        cum = [c + f for c, f in zip(cum, fracs)]
        pts_top = [f"{x:.1f},{top + plot_h * (1 - v):.1f}" for x, v in zip(xs, cum)]
        pts_bot = [f"{x:.1f},{top + plot_h * (1 - v):.1f}"
                   for x, v in zip(reversed(xs), reversed(lower))]
        if any(fracs):
            layers.append(
                f'<polygon points="{" ".join(pts_top + pts_bot)}" '
                f'fill="{_state_colour(idx)}" fill-opacity="0.85">'
                f'<title>{escape(state.replace("_", " "), quote=True)}</title></polygon>')
            # 2px surface-coloured separator between stacked fills
            boundaries.append(
                f'<polyline points="{" ".join(pts_top)}" fill="none" '
                f'stroke="var(--surface-1)" stroke-width="2"/>')
    return chart_svg(
        "Utilization stacked area", "fraction of ranks per state",
        "".join(layers + boundaries), x0, plot_h, t0, t1, width,
        y_fmt=lambda g: f"{int(g * 100)}%", head=_state_legend(states),
        tail=_table_view(bin_table(data, fractions=True)))


def _line_chart(bins: Events, key: str, title: str, sub: str, colour: str,
                fmt) -> str:
    points = []
    for b in bins:
        value = float(b.get(key, 0.0))
        points.append(((b["t0"] + b["t1"]) / 2.0, value,
                       f"[{b['t0']:.4g}s, {b['t1']:.4g}s): {fmt(value)}"))
    return line_chart_svg(points, title, sub, colour, fmt=fmt)


def render_dashboard_html(data: Dict[str, Any],
                          title: str = "repro run dashboard") -> str:
    """The run dashboard page for a :func:`load_series` result."""
    bins = data["bins"]
    if not bins:
        return page_html(title, "<p>empty series</p>")
    meta = data["meta"]
    summary = meta.get("summary") or {}
    tiles = stat_tiles([
        ("Ranks", str(meta.get("n_ranks", len(bins[0]["rank_states"])))),
        ("Sampled window", f"{bins[-1]['t1']:.4g}s"),
        ("Peak NIC utilization", f"{summary.get('nic_util_peak', 0.0):.1%}"),
        ("Mean NIC utilization", f"{summary.get('nic_util_mean', 0.0):.1%}"),
        ("Max inbox depth", f"{summary.get('inbox_depth_max', 0.0):.0f}"),
        ("Peak sender-log bytes", _fmt_bytes(summary.get("log_bytes_peak", 0.0))),
    ])
    return page_html(title, f"""<p class="sub">{len(bins)} bins × {meta['bin_s']:.4g}s; sampled passively at event
boundaries — the traced run is bit-identical to an unsampled one.</p>
{tiles}
{_heatmap(data)}
{_stacked_area(data)}
{_line_chart(bins, "nic_busy_frac", "NIC utilization",
             "fraction of NICs with an in-flight transfer", "var(--cat-1)",
             fmt=lambda v: f"{v:.0%}")}
{_line_chart(bins, "log_bytes_total", "Sender-log retained bytes",
             "total across ranks", "var(--cat-2)", fmt=_fmt_bytes)}""")


# ----------------------------------------------------------------- timeline
#: fill colours per span category
_PALETTE = {
    "ckpt": "#4c78a8",
    "ckpt.stage": "#9ecae9",
    "storage": "#f58518",
    "recovery": "#e45756",
    "recovery.stage": "#f2a49f",
    "campaign": "#54a24b",
    "": "#b5b5b5",
}
_FALLBACK_COLOURS = ["#72b7b2", "#eeca3b", "#b279a2", "#ff9da6", "#9d755d"]


def _colour(category: str) -> str:
    if category in _PALETTE:
        return _PALETTE[category]
    # crc32, not hash(): str hashes are salted per process, and the same
    # trace must render the same page every time
    return _FALLBACK_COLOURS[zlib.crc32(category.encode("utf-8"))
                             % len(_FALLBACK_COLOURS)]


def _extent(spans: Events) -> Tuple[float, float]:
    """Earliest start and latest end of ``spans``, in trace microseconds."""
    return (min(float(ev.get("ts", 0.0)) for ev in spans),
            max(float(ev.get("ts", 0.0)) + float(ev.get("dur", 0.0)) for ev in spans))


def span_summary_table(spans: Events) -> Table:
    """Complete events aggregated per (category, span name)."""
    agg: Dict[Tuple[str, str], List[float]] = {}
    aborted: Dict[Tuple[str, str], int] = {}
    for ev in spans:
        key = (str(ev.get("cat", "")), str(ev.get("name", "")))
        agg.setdefault(key, []).append(float(ev.get("dur", 0.0)) / 1e6)
        if ev.get("args", {}).get("aborted"):
            aborted[key] = aborted.get(key, 0) + 1
    window_s = 0.0
    if spans:
        t0, t1 = _extent(spans)
        window_s = (t1 - t0) / 1e6
    # the share column sums over concurrent tracks, so it can exceed 100%
    table = Table(
        title="Span summary",
        columns=["category", "span", "count", "aborted", "total (s)",
                 "mean (s)", "% of window (all tracks)"],
    )
    for key in sorted(agg, key=lambda k: -sum(agg[k])):
        durs = agg[key]
        total = sum(durs)
        table.add_row(key[0], key[1], len(durs), aborted.get(key, 0), total,
                      total / len(durs), 100.0 * total / window_s if window_s else 0.0)
    return table


def render_timeline_html(spans: Events, tracks: Dict[int, str],
                         title: str = "repro timeline") -> str:
    """The span timeline page for a :func:`load_spans` result."""
    if not spans:
        return page_html(title, "<p>empty trace</p>")
    t0, t1 = _extent(spans)
    window = max(t1 - t0, 1e-9)

    by_tid: Dict[int, Events] = {}
    for ev in spans:
        by_tid.setdefault(int(ev.get("tid", 0)), []).append(ev)
    rows: List[str] = []
    for tid in sorted(by_tid):
        blocks: List[str] = []
        for ev in sorted(by_tid[tid], key=lambda e: float(e.get("ts", 0.0))):
            start, dur = float(ev.get("ts", 0.0)), float(ev.get("dur", 0.0))
            cat = str(ev.get("cat", ""))
            args = ev.get("args", {}) or {}
            tip_lines = [f"{ev.get('name')} [{cat}]",
                         f"start={start / 1e6:.6g}s dur={dur / 1e6:.6g}s"]
            tip_lines += [f"{k}={v}" for k, v in sorted(args.items())]
            tip = escape("\n".join(tip_lines), quote=True)
            style = (f"left:{100.0 * (start - t0) / window:.4f}%;"
                     f"width:{max(100.0 * dur / window, 0.05):.4f}%;"
                     f"background:{_colour(cat)};")
            if args.get("aborted"):
                style += "border:1px dashed #900;"
            blocks.append(f'<div class="span" style="{style}" title="{tip}">'
                          f'{escape(str(ev.get("name", "")))}</div>')
        rows.append(
            f'<div class="row"><div class="lbl">{escape(tracks.get(tid, f"tid{tid}"))}'
            f'</div><div class="lane">{"".join(blocks)}</div></div>')
    axis = axis_ticks(t0 / 1e6, (t0 + window) / 1e6, 0, 1000, 11)
    return page_html(title, f"""<p class="sub">{len(spans)} spans over {window / 1e6:.6g} simulated seconds.</p>
<figure>
{"".join(rows)}
<div class="axis"><svg viewBox="0 0 1000 14" width="100%" role="img" aria-label="simulated time">{axis}</svg></div>
</figure>
{table_html(span_summary_table(spans))}""")
