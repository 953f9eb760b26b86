"""Experiment harness: one entry point per table/figure of the paper.

* :mod:`repro.experiments.config` — scenario descriptions (workload, scale,
  grouping method, schedule, storage, seeds),
* :mod:`repro.experiments.runner` — runs one scenario end to end (trace run →
  group formation → checkpointed run → restart) and returns derived metrics,
* :mod:`repro.experiments.figures` — ``FIGURES``, one :class:`Experiment`
  per table/figure of the paper in paper order: its scenario rows per
  profile and the data series/rows the paper plots,
* :mod:`repro.experiments.failures` — failure-injection extension
  experiments, two :class:`Experiment` declarations: ``WORK_LOSS``
  (expected lost work per grouping method and checkpoint interval, with the
  analytic ``failure_rate_table`` over its results) and
  ``MEASURED_WORK_LOSS`` (a live kill per cell against that model),
* :mod:`repro.experiments.availability` — long-horizon availability grids
  (method × MTBF × spare count under sustained Poisson failures, with
  concurrent group recoveries and spare-node placement),
* :mod:`repro.experiments.storage_tiers` — checkpoint-storage-hierarchy
  sweeps (method × tier policy × failure model): steady-state overhead per
  level, measured restart cost per surviving tier, and the correlated-failure
  survivability matrix,
* :mod:`repro.experiments.elastic` — elastic-restart sweeps: the equal-total-
  work conservation table across rank counts (shrink and expand partitions of
  one domain) and the zero-spare shrink-restart grid with its repartition
  table,
* :mod:`repro.experiments.declaration` — :class:`Experiment`, the one
  declaration of an experiment: a grid builder and a pure
  ``tables(results)``, with one ``run(**grid)`` through the default
  campaign.  A :class:`StoredExperiment` adds a stamp and one
  ``from_store(store)``: the availability (``AVAILABILITY``), storage-tier
  (``STORAGE_TIERS``) and shrink-restart (``ELASTIC_SHRINK``) grids are
  declared this way, and the observatory serves their tables.
"""

from repro import lazy_exports

_EXPORTS = {
    ".config": ("ScenarioConfig", "QUICK", "FULL", "ExperimentProfile"),
    ".runner": ("ScenarioResult", "run_scenario", "obtain_groups"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
