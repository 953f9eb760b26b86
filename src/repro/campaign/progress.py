"""Store-backed campaign status: counts, rates, ETA, failures, leases.

The read side of the campaign observatory.  Everything here is a pure
query over the :class:`~repro.campaign.store.CampaignStore` — no claims,
no mutation — so any number of watchers (the ``--watch`` loop in
``reproduce_paper.py``, the HTML dashboard, a CI step) can poll a live
store while workers drain it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import Table

from .store import STATUSES, CampaignStore

__all__ = ["CampaignProgress", "campaign_progress", "progress_tables"]


@dataclass
class CampaignProgress:
    """A point-in-time snapshot of one campaign store."""

    #: rows per lifecycle status (every status key always present)
    counts: Dict[str, int]
    #: completed-row wall durations (seconds), newest last
    durations_s: List[float] = field(default_factory=list)
    #: completed rows per wall-clock second, from finished_at spread
    throughput_per_s: float = 0.0
    #: projected seconds to drain pending+running at the observed rates
    eta_s: Optional[float] = None
    #: (key, worker, seconds until lease expiry) for running rows;
    #: negative seconds = expired lease (worker presumed dead)
    leases: List[Tuple[str, str, float]] = field(default_factory=list)
    #: error head per failed row key
    failures: Dict[str, str] = field(default_factory=dict)
    #: wall-clock instant this snapshot was taken
    observed_at: float = 0.0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def is_empty(self) -> bool:
        """True for a freshly-created store with no experiment rows at all."""
        return self.total == 0

    @property
    def done_fraction(self) -> float:
        total = self.total
        return self.counts.get("done", 0) / total if total else 0.0

    @property
    def expired_leases(self) -> int:
        return sum(1 for _, _, left in self.leases if left <= 0)

    @property
    def mean_duration_s(self) -> float:
        if not self.durations_s:
            return 0.0
        return sum(self.durations_s) / len(self.durations_s)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (the observatory server's ``/api/progress``)."""
        return {
            "counts": dict(self.counts),
            "total": self.total,
            "is_empty": self.is_empty,
            "done_fraction": self.done_fraction,
            "throughput_per_s": self.throughput_per_s,
            "eta_s": self.eta_s,
            "mean_duration_s": self.mean_duration_s,
            "durations_s": list(self.durations_s),
            "leases": [
                {"key": key, "worker": worker, "seconds_left": left}
                for key, worker, left in self.leases
            ],
            "expired_leases": self.expired_leases,
            "failures": dict(self.failures),
            "observed_at": self.observed_at,
        }


def campaign_progress(store: CampaignStore,
                      now: Optional[float] = None,
                      max_failures: int = 10,
                      error_head: int = 160) -> CampaignProgress:
    """Snapshot ``store``'s progress at wall-clock instant ``now``.

    Throughput comes from the spread of ``finished_at`` stamps over the
    done rows; the ETA projects the remaining (pending + running) rows at
    that rate, falling back to mean duration when only one row finished.
    """
    if now is None:
        now = time.time()
    counts = {status: 0 for status in STATUSES}
    counts.update(store.counts())

    done_rows = store.rows(status="done")
    durations = [row.duration_s for row in done_rows if row.duration_s is not None]
    finished = sorted(row.finished_at for row in done_rows
                      if row.finished_at is not None)
    throughput = 0.0
    if len(finished) >= 2 and finished[-1] > finished[0]:
        throughput = (len(finished) - 1) / (finished[-1] - finished[0])

    remaining = counts["pending"] + counts["running"]
    eta: Optional[float] = None
    if sum(counts.values()) == 0:
        eta = None  # empty store: "drained in 0s" would be nonsense
    elif remaining == 0:
        eta = 0.0
    elif throughput > 0:
        eta = remaining / throughput
    elif durations:
        eta = remaining * (sum(durations) / len(durations))

    leases = [
        (row.key, row.worker or "?",
         (row.lease_expires_at - now) if row.lease_expires_at is not None else 0.0)
        for row in store.rows(status="running")
    ]

    failures: Dict[str, str] = {}
    for row in store.rows(status="failed")[:max_failures]:
        head = (row.error or "").strip().splitlines()
        failures[row.key] = head[0][:error_head] if head else ""

    return CampaignProgress(counts=counts, durations_s=durations,
                            throughput_per_s=throughput, eta_s=eta,
                            leases=leases, failures=failures,
                            observed_at=now)


def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "unknown"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f} h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f} min"
    return f"{eta_s:.0f} s"


def progress_tables(progress: CampaignProgress) -> List[Table]:
    """Render a snapshot as reporting tables (the ``--watch`` text mode).

    An empty (freshly-created) store renders an explicit "no rows yet"
    state instead of degenerate 0% / 0 rows/s / zero-ETA output.
    """
    status = Table("Campaign status", ["status", "rows"])
    for name in STATUSES:
        status.add_row(name, progress.counts.get(name, 0))
    status.add_row("total", progress.total)

    rates = Table("Rates", ["metric", "value"])
    if progress.is_empty:
        rates.add_row("state", "no rows yet — the store holds no experiments")
    else:
        rates.add_row("done fraction", f"{progress.done_fraction:.1%}")
        rates.add_row("throughput", f"{progress.throughput_per_s:.3f} rows/s")
        rates.add_row("mean row duration", f"{progress.mean_duration_s:.2f} s")
        rates.add_row("ETA", _fmt_eta(progress.eta_s))

    tables = [status, rates]
    if progress.leases:
        leases = Table("Lease health (running rows)",
                       ["key", "worker", "state", "lease s left"])
        for key, worker, left in progress.leases:
            leases.add_row(key[:12], worker, "expired" if left <= 0 else "held",
                           f"{left:.0f}")
        tables.append(leases)
    if progress.failures:
        failed = Table("Failures", ["key", "error"])
        for key, error in progress.failures.items():
            failed.add_row(key[:12], error)
        tables.append(failed)
    return tables
