"""Campaign engine: persistent, parallel experiment sweeps.

Every figure of the paper is the product of a sweep (method × workload ×
rank-count × seed); this subsystem turns those sweeps into *campaigns*:

* :mod:`repro.campaign.grid` — declarative parameter grids that expand into
  :class:`~repro.experiments.config.ScenarioConfig` sets (cartesian products
  with per-axis-value overrides),
* :mod:`repro.campaign.store` — a persistent result store on stdlib
  ``sqlite3``, keyed by a stable content-hash of the scenario config and
  tracking status (``pending``/``running``/``done``/``failed``), the metrics
  payload, timing and error tracebacks,
* :mod:`repro.campaign.executor` — a ``ProcessPoolExecutor``-based runner
  whose workers claim open experiments from the store, execute them and write
  results back; supports ``resume()`` after crashes and serves ``done`` rows
  straight from the store without re-running anything,
* :mod:`repro.campaign.results` — the metrics payload a worker stores (the
  :mod:`repro.analysis.catalog` metrics plus a version stamp) and
  :class:`StoredResult`, which reads it back through the same accessors as
  :class:`~repro.experiments.runner.ScenarioResult`,
* :mod:`repro.campaign.export` — turn stored rows into the
  :mod:`repro.analysis.reporting` ``Series``/``Table`` objects and CSV,
* :mod:`repro.campaign.progress` — a read-only observatory over a store:
  per-status counts, completion rates, ETA from completed-row durations,
  lease health and failure summaries,
* :mod:`repro.campaign.dashboard` — renders a progress snapshot as
  terminal tables or a self-contained HTML status page
  (``python -m repro.campaign.dashboard --db sweep.sqlite --html out.html``),
  and the store's benchmark history as a trend table and charts,
* :mod:`repro.campaign.cache` — a generation-stamped response cache: every
  aggregate is memoised against :meth:`CampaignStore.generation`, so N
  concurrent readers of a quiet store cost one aggregation pass,
* :mod:`repro.campaign.metrics_export` — Prometheus text exposition
  (format 0.0.4) builders plus the minimal parser CI validates scrapes with,
* :mod:`repro.campaign.server` — the campaign observatory: a stdlib-only
  threaded HTTP service serving ``/api/progress``, ``/api/results``,
  ``/api/tables/*``, ``/api/bench``, ``/metrics`` and the live HTML board
  (``python -m repro.campaign.server --db sweep.sqlite --port 8032``).

Workflow (PyExperimenter-style)::

    from repro.campaign import Campaign, CampaignStore, ParameterGrid

    grid = ParameterGrid(
        axes={"n_ranks": (16, 32), "method": ("GP", "NORM"), "seed": (1, 2)},
        base={"workload": "hpl", "schedule": one_shot(2.0)},
    )
    campaign = Campaign(CampaignStore("sweep.sqlite"), n_workers=4)
    results = campaign.run(grid.expand())   # parallel; resumable; cached
"""

from repro import lazy_exports

_EXPORTS = {
    ".executor": ("Campaign", "CampaignError", "campaign_worker", "drain_store",
                  "execute_scenario", "get_default_campaign", "reset_default_campaign",
                  "set_default_campaign"),
    ".cache": ("CachedEntry", "GenerationCache"),
    ".export": ("average_over_seeds", "results_to_csv", "results_to_csv_text",
                "results_to_series", "results_to_table", "stored_results", "summary_table"),
    ".dashboard": ("render_progress_html", "render_progress_text"),
    ".grid": ("ParameterGrid",),
    ".progress": ("CampaignProgress", "campaign_progress", "progress_tables"),
    ".results": ("StoredResult", "metrics_payload"),
    ".store": ("STATUSES", "CampaignStore", "ExperimentRow", "config_from_dict",
               "config_to_dict", "scenario_key"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
