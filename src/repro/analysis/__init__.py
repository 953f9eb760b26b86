"""Analysis utilities: metrics, report/series builders, interval advice."""

from repro import lazy_exports

_EXPORTS = {
    ".metrics": ("CheckpointBreakdown", "stage_breakdown", "aggregate_checkpoint_time",
                 "aggregate_coordination_time", "aggregate_restart_time",
                 "progress_gap_fraction", "checkpoint_windows"),
    ".reporting": ("Series", "Table", "format_table"),
    ".advisor": ("MeasuredCosts", "measured_costs", "suggest_checkpoint_interval"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
