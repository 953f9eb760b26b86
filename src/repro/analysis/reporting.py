"""Tiny report/series builders used by the experiment harness and benches.

The benchmark harness prints, for every figure and table of the paper, the
same rows/series the paper reports.  :class:`Series` holds one named line of
a figure (x values + y values), :class:`Table` a small labelled grid, and
:func:`format_table` renders either as monospace text for the bench output.

Every HTML report is built from the primitives at the end of this module:
one light/dark page shell (:func:`page_html`), :func:`table_html`, stat
tiles, legends and SVG charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


@dataclass
class Series:
    """One named data series (a line in a figure)."""

    name: str
    x: List[Number] = field(default_factory=list)
    y: List[Number] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")

    def append(self, x: Number, y: Number) -> None:
        """Add one point."""
        self.x.append(x)
        self.y.append(y)

    def as_dict(self) -> Dict[Number, Number]:
        """Mapping x → y (x values must be unique)."""
        return dict(zip(self.x, self.y))

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class Table:
    """A labelled grid of values (rows × columns)."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row (must match the number of columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[object]:
        """All values of one named column."""
        try:
            idx = self.columns.index(name)
        except ValueError as exc:
            raise KeyError(f"no column named {name!r}") from exc
        return [row[idx] for row in self.rows]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(table: Table) -> str:
    """Render a :class:`Table` as monospace text."""
    header = [table.columns]
    body = [[_fmt(v) for v in row] for row in table.rows]
    widths = [
        max(len(str(row[i])) for row in header + body) for i in range(len(table.columns))
    ]
    lines = [table.title, "-" * len(table.title)]
    lines.append("  ".join(str(c).ljust(w) for c, w in zip(table.columns, widths)))
    for row in body:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def table_to_dict(table: Table) -> Dict[str, object]:
    """JSON-safe rendering of a :class:`Table` (the observatory's table API)."""
    return {
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }


def phase_time_table(phase_times: Dict[str, object],
                     title: str = "Phase-attributed time") -> Table:
    """Render a ``phase_times`` mapping (the metrics-registry harvest) as a Table.

    ``phase_times`` is the shape produced by :func:`repro.obs.phase_times`
    and stored in payload v6: per phase (checkpoint/restart/recovery) a
    record count and per-stage total seconds.  This is the one source of
    truth for the overhead tables — totals come from the registry's phase
    histograms, not re-derived from ``ApplicationResult`` fields.
    """
    table = Table(title=title,
                  columns=["phase", "stage", "total (s)", "records", "mean (s)"])
    for phase in sorted(phase_times):
        entry = phase_times[phase] or {}
        count = entry.get("records", entry.get("reports", 0)) or 0
        for stage, total in (entry.get("stages") or {}).items():
            table.add_row(phase, stage, total, count,
                          total / count if count else 0.0)
    return table


def series_table(title: str, series: Sequence[Series], x_label: str = "x") -> Table:
    """Merge several series (sharing x values) into one table for printing."""
    xs: List[Number] = []
    for s in series:
        for x in s.x:
            if x not in xs:
                xs.append(x)
    xs.sort()
    table = Table(title=title, columns=[x_label] + [s.name for s in series])
    for x in xs:
        row: List[object] = [x]
        for s in series:
            row.append(s.as_dict().get(x, ""))
        table.add_row(*row)
    return table


# --------------------------------------------------------------------- html
#: light / dark value of every theme colour.  ``cat-1`` … ``cat-6`` are a
#: categorical palette in fixed slot order (a category keeps its slot, and so
#: its colour, everywhere in a report); single-series charts use slot 1.
_THEME = {
    "surface-1": ("#fcfcfb", "#1a1a19"),
    "page": ("#f9f9f7", "#0d0d0d"),
    "text-primary": ("#0b0b0b", "#ffffff"),
    "text-secondary": ("#52514e", "#c3c2b7"),
    "text-muted": ("#898781", "#898781"),
    "grid": ("#e1e0d9", "#2c2c2a"),
    "axis": ("#c3c2b7", "#383835"),
    "cat-1": ("#2a78d6", "#3987e5"),
    "cat-2": ("#eb6834", "#d95926"),
    "cat-3": ("#1baf7a", "#199e70"),
    "cat-4": ("#eda100", "#c98500"),
    "cat-5": ("#e87ba4", "#d55181"),
    "cat-6": ("#008300", "#008300"),
}

_RULES = """
body { font: 13px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
       margin: 1.5em auto; max-width: 1100px; padding: 0 1em;
       background: var(--page); color: var(--text-primary); }
figure, section { margin: 1.5em 0; padding: 1em; background: var(--surface-1);
                  border: 1px solid var(--grid); border-radius: 6px; }
figcaption, caption { font-weight: 600; margin-bottom: 0.6em; text-align: left; }
.sub { color: var(--text-secondary); font-weight: 400; }
svg { overflow: visible; }
svg text { fill: var(--text-muted); font-size: 10px; }
svg .axisline { stroke: var(--axis); stroke-width: 1; }
svg .gridline { stroke: var(--grid); stroke-width: 1; }
.legend { display: flex; flex-wrap: wrap; gap: 1em; margin: 0.5em 0;
          color: var(--text-secondary); }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block;
          margin-right: 0.4em; }
details { margin-top: 0.7em; color: var(--text-secondary); }
table { border-collapse: collapse; margin-top: 0.5em;
        font-variant-numeric: tabular-nums; }
th, td { padding: 2px 10px; text-align: right; border-bottom: 1px solid var(--grid); }
th { color: var(--text-muted); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
.tiles { display: flex; flex-wrap: wrap; gap: 1em; margin: 1em 0; }
.tile { background: var(--surface-1); border: 1px solid var(--grid);
        border-radius: 6px; padding: 0.8em 1.2em; min-width: 10em; }
.tile .label { color: var(--text-secondary); }
.tile .value { font-size: 24px; font-weight: 600; }
.hero { font-size: 48px; font-weight: 600; }
.meter { display: flex; height: 14px; border-radius: 4px; overflow: hidden;
         gap: 2px; margin-top: 1em; }
.row { display: flex; align-items: center; margin: 2px 0; }
.lbl { flex: 0 0 10em; text-align: right; padding-right: 0.6em;
       color: var(--text-secondary); white-space: nowrap; overflow: hidden;
       text-overflow: ellipsis; }
.lane { position: relative; flex: 1; height: 20px; background: var(--grid); }
.span { position: absolute; top: 1px; bottom: 1px; overflow: hidden; color: #fff;
        font-size: 10px; padding-left: 2px; white-space: nowrap;
        border-radius: 2px; box-sizing: border-box; }
.axis { margin-left: 10.6em; }
"""

#: the one report stylesheet: theme colours, dark overrides, element rules
_STYLESHEET = (
    ":root {\n  color-scheme: light;\n"
    + "".join(f"  --{name}: {light};\n" for name, (light, _) in _THEME.items())
    + "}\n@media (prefers-color-scheme: dark) {\n  :root {\n    color-scheme: dark;\n"
    + "".join(f"    --{name}: {dark};\n" for name, (_, dark) in _THEME.items())
    + "  }\n}" + _RULES
)


def page_html(title: str, body: str) -> str:
    """The report page shell: one self-contained HTML document.

    ``body`` is inserted as-is under an ``<h2>`` of the escaped ``title``.
    """
    title = escape(title)
    return f"""<!doctype html>
<html><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title}</title>
<style>{_STYLESHEET}</style></head><body>
<h2>{title}</h2>
{body}
</body></html>
"""


def table_html(table: Table) -> str:
    """Render a :class:`Table` as an HTML table, cells as in :func:`format_table`."""
    head = "".join(f"<th>{escape(str(c))}</th>" for c in table.columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(_fmt(v))}</td>" for v in row) + "</tr>"
        for row in table.rows)
    return (f"<table><caption>{escape(table.title)}</caption>"
            f"<tr>{head}</tr>{body}</table>")


def _swatch(colour: str) -> str:
    return f'<i class="swatch" style="background:{colour}"></i>'


def stat_tiles(tiles: Iterable[Sequence[str]]) -> str:
    """A row of stat tiles from ``(label, value)`` or ``(label, value, colour)``."""
    parts = []
    for label, value, *colour in tiles:
        swatch = _swatch(colour[0]) if colour else ""
        parts.append(f'<div class="tile"><div class="label">{swatch}{escape(label)}'
                     f'</div><div class="value">{escape(value)}</div></div>')
    return f'<div class="tiles">{"".join(parts)}</div>'


def legend(items: Iterable[Tuple[str, str]]) -> str:
    """A colour legend from ``(label, colour)`` pairs."""
    spans = "".join(f"<span>{_swatch(colour)}{escape(label)}</span>"
                    for label, colour in items)
    return f'<div class="legend">{spans}</div>'


def _seconds(t: float) -> str:
    return f"{t:.4g}s"


#: top margin of every chart's plot area, in SVG units
PLOT_TOP = 8


def axis_ticks(t0: float, t1: float, x0: float, x1: float, y: float,
               fmt: Callable[[float], str] = _seconds) -> str:
    """Five SVG tick labels for values ``t0``…``t1`` drawn over ``x0``…``x1``."""
    return "".join(
        f'<text x="{x0 + frac * (x1 - x0):.1f}" y="{y}" text-anchor="middle">'
        f"{escape(fmt(t0 + frac * (t1 - t0)))}</text>"
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0))


def chart_svg(title: str, sub: str, content: str, x0: float, plot_h: float,
              t0: float, t1: float, width: float = 1100,
              x_fmt: Callable[[float], str] = _seconds,
              y_fmt: Optional[Callable[[float], str]] = None,
              head: str = "", tail: str = "") -> str:
    """A captioned SVG chart figure around ``content``.

    ``content`` draws the plot area: x from ``x0`` to ``width``, y from
    :data:`PLOT_TOP` down to ``PLOT_TOP + plot_h``.  Below it go the axis
    line and five x ticks labelling ``t0``…``t1`` with ``x_fmt``.  ``y_fmt``,
    given a fraction of the plot height, labels grid lines at 0, ½ and 1.
    ``head`` and ``tail`` (a legend, a table view) go around the SVG.
    """
    bottom = PLOT_TOP + plot_h
    height = bottom + 22
    grid = "".join(
        f'<line class="gridline" x1="{x0}" y1="{bottom - plot_h * g:.1f}" '
        f'x2="{width}" y2="{bottom - plot_h * g:.1f}"/>'
        f'<text x="{x0 - 6}" y="{bottom - plot_h * g + 3:.1f}" '
        f'text-anchor="end">{escape(y_fmt(g))}</text>'
        for g in ((0.0, 0.5, 1.0) if y_fmt else ()))
    return f"""<figure>
<figcaption>{escape(title)} <span class="sub">— {escape(sub)}</span></figcaption>
{head}<svg viewBox="0 0 {width} {height}" width="100%" role="img" aria-label="{escape(title)}">
{grid}{content}
<line class="axisline" x1="{x0}" y1="{bottom}" x2="{width}" y2="{bottom}"/>
{axis_ticks(t0, t1, x0, width, height - 6, x_fmt)}
</svg>{tail}
</figure>"""


def line_chart_svg(points: Iterable[Tuple[float, float, Optional[str]]],
                   title: str, sub: str, colour: str = "var(--cat-1)",
                   fmt: Callable[[float], str] = lambda v: f"{v:.3g}",
                   x_fmt: Callable[[float], str] = _seconds) -> str:
    """One single-series SVG line chart figure.

    ``points`` is a sequence of ``(x, value, tooltip)`` triples (``tooltip``
    may be ``None`` for the default ``x: value`` form) with ascending ``x``;
    ``x_fmt`` renders the axis ticks.
    """
    points = [(float(x), float(v), tip) for x, v, tip in points]
    x0, plot_h, width = 56, 120, 1100
    t0, t1 = points[0][0], points[-1][0]
    span = max(t1 - t0, 1e-12)
    vmax = max(max(v for _, v, _ in points), 1e-12)
    pts = []
    dots = []
    for x_val, v, tip in points:
        x = x0 + (x_val - t0) / span * (width - x0)
        y = PLOT_TOP + plot_h * (1 - v / vmax)
        pts.append(f"{x:.1f},{y:.1f}")
        tip = escape(tip if tip is not None else f"{x_fmt(x_val)}: {fmt(v)}",
                     quote=True)
        dots.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="6" fill="transparent">'
                    f"<title>{tip}</title></circle>")
    # single series: the caption names it, no legend box needed
    line = (f'<polyline points="{" ".join(pts)}" fill="none" stroke="{colour}" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>')
    return chart_svg(title, sub, line + "".join(dots), x0, plot_h, t0, t1,
                     width, x_fmt=x_fmt, y_fmt=lambda g: fmt(vmax * g))
