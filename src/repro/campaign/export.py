"""Exports: stored campaign rows → reporting objects and CSV.

Bridges the campaign store to the existing :mod:`repro.analysis.reporting`
layer: grouped :class:`Series` (one line per method, say), flat
:class:`Table` grids, seed-axis aggregation (:func:`average_over_seeds`),
and plain-stdlib CSV dumps for external analysis.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.reporting import Series, Table
from repro.campaign.results import StoredResult
from repro.campaign.store import CampaignStore, config_to_dict

#: config columns included in flat exports, in order
CONFIG_FIELDS = ("workload", "method", "n_ranks", "seed", "max_group_size", "do_restart")

#: scalar metric columns included in flat exports, in order
METRIC_FIELDS = (
    "makespan",
    "aggregate_checkpoint_time",
    "aggregate_coordination_time",
    "aggregate_restart_time",
    "resend_bytes",
    "resend_operations",
    "checkpoints_completed",
    "mean_checkpoint_duration",
    "gap_fraction",
)

Accessor = Union[str, Callable[[StoredResult], object]]


class _Row:
    """One result with its config serialized once, however many cells are read."""

    def __init__(self, result: StoredResult) -> None:
        self.result = result
        self.config = config_to_dict(result.config)

    def get(self, accessor: Accessor) -> object:
        if callable(accessor):
            return accessor(self.result)
        if accessor in self.config:
            return self.config[accessor]
        if hasattr(self.result, accessor):
            return getattr(self.result, accessor)
        if accessor in self.result.metrics:
            return self.result.metrics[accessor]
        raise KeyError(
            f"unknown column {accessor!r}: not a config field, result property "
            f"or metrics entry (metrics keys: {sorted(self.result.metrics)})")


def results_to_series(
    results: Sequence[StoredResult],
    x: Accessor = "n_ranks",
    y: Accessor = "makespan",
    group_by: Optional[Accessor] = "method",
) -> List[Series]:
    """Turn results into figure series: one line per ``group_by`` value.

    ``x``/``y``/``group_by`` name a config field or metric, or are callables
    over the result.  Points appear in result order (sort upstream if needed).
    """
    rows = [_Row(result) for result in results]
    if group_by is None:
        series = Series(name=str(y))
        for row in rows:
            series.append(row.get(x), row.get(y))
        return [series]
    grouped: Dict[object, Series] = {}
    for row in rows:
        label = row.get(group_by)
        if label not in grouped:
            grouped[label] = Series(name=str(label))
        grouped[label].append(row.get(x), row.get(y))
    return list(grouped.values())


def average_over_seeds(
    results: Sequence[StoredResult],
    over: str = "seed",
) -> List[StoredResult]:
    """Collapse the ``seed`` axis: one aggregate result per distinct cell.

    Results whose configs differ only in ``over`` (and, for measured failure
    runs, the failure spec's own seed) form one *cell*.  The aggregate is a
    :class:`StoredResult` carrying, for every numeric payload entry, the
    cell **mean** under the original name plus ``<name>_std`` (population
    standard deviation) and ``n_seeds`` — so downstream helpers work
    unchanged (``results_to_series(avg, y="makespan")`` plots means,
    ``y="makespan_std"`` the spread).  Non-numeric entries are kept when
    identical across the cell and dropped otherwise.  The representative
    config is the member with the smallest seed.  Cells appear in first-seen
    order; singleton cells aggregate trivially (std 0).
    """
    cells: Dict[str, List[StoredResult]] = {}
    order: List[str] = []
    for result in results:
        cfg = config_to_dict(result.config)
        cfg.pop(over, None)
        failure = cfg.get("failure")
        if isinstance(failure, dict):
            failure = dict(failure)
            failure.pop("seed", None)
            cfg["failure"] = failure
        cell = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        if cell not in cells:
            cells[cell] = []
            order.append(cell)
        cells[cell].append(result)
    out: List[StoredResult] = []
    for cell in order:
        members = sorted(cells[cell], key=lambda r: getattr(r.config, over, 0))
        metrics: Dict[str, object] = {"n_seeds": len(members)}
        names = [name for name in members[0].metrics
                 if all(name in m.metrics for m in members)]
        for name in names:
            values = [m.metrics[name] for m in members]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in values):
                mean = sum(values) / len(values)
                var = sum((v - mean) ** 2 for v in values) / len(values)
                metrics[name] = mean
                metrics[f"{name}_std"] = math.sqrt(var)
            elif all(v == values[0] for v in values):
                metrics[name] = values[0]
        out.append(StoredResult(members[0].config, metrics))
    return out


def results_to_table(
    results: Sequence[StoredResult],
    title: str = "campaign results",
    config_fields: Sequence[str] = CONFIG_FIELDS,
    metric_fields: Sequence[str] = METRIC_FIELDS,
) -> Table:
    """Flatten results into one :class:`Table` row per scenario."""
    columns = list(config_fields) + list(metric_fields)
    table = Table(title=title, columns=columns)
    for result in results:
        row = _Row(result)
        table.add_row(*[row.get(name) for name in columns])
    return table


def results_to_csv_text(
    results: Sequence[StoredResult],
    config_fields: Sequence[str] = CONFIG_FIELDS,
    metric_fields: Sequence[str] = METRIC_FIELDS,
) -> str:
    """Render results as CSV text (header + one row per result)."""
    columns = list(config_fields) + list(metric_fields)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for result in results:
        row = _Row(result)
        writer.writerow([row.get(name) for name in columns])
    return buffer.getvalue()


def results_to_csv(
    results: Sequence[StoredResult],
    path: str,
    config_fields: Sequence[str] = CONFIG_FIELDS,
    metric_fields: Sequence[str] = METRIC_FIELDS,
) -> int:
    """Write one CSV row per result; returns the number of rows written."""
    with open(path, "w", newline="") as handle:
        handle.write(results_to_csv_text(results, config_fields, metric_fields))
    return len(results)


def stored_results(
    store: CampaignStore,
    status: str = "done",
    workload: Optional[str] = None,
    method: Optional[str] = None,
    n_ranks: Optional[int] = None,
    seed: Optional[int] = None,
    cluster_name: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[StoredResult]:
    """Stored rows as :class:`StoredResult`, filtered by config fields.

    The shared read-side selector of ``/api/results`` and
    :meth:`~repro.experiments.declaration.Experiment.from_store`.
    ``cluster_name`` selects one experiment by the stamp its grid builder
    gives every config (``storage-tiers``, ``availability``,
    ``elastic-shrink``).  Rows appear oldest first, in the order the sweep
    registered them.
    """
    out: List[StoredResult] = []
    for row in store.rows(status=status):
        config = row.config
        if workload is not None and config.workload != workload:
            continue
        if method is not None and config.method != method:
            continue
        if n_ranks is not None and config.n_ranks != n_ranks:
            continue
        if seed is not None and config.seed != seed:
            continue
        if cluster_name is not None and config.cluster.name != cluster_name:
            continue
        out.append(StoredResult(config, row.metrics or {}))
        if limit is not None and len(out) >= limit:
            break
    return out


def summary_table(store: CampaignStore) -> Table:
    """One-row status summary of a store (pending/running/done/failed)."""
    counts = store.counts()
    table = Table(title=f"campaign {store.path}", columns=list(counts) + ["total"])
    table.add_row(*counts.values(), sum(counts.values()))
    return table
