"""The campaign metrics payload and its version stamp.

A campaign worker cannot ship the whole :class:`~repro.experiments.runner.
ScenarioResult` back through the store (it holds the full simulated
application state); instead it stores the JSON *metrics payload* — the
version stamp plus every metric of :data:`repro.analysis.catalog.CATALOG`.
:class:`~repro.analysis.catalog.StoredResult` (re-exported here) reads that
payload back through the same accessors as ``ScenarioResult``, so figure code
works identically on live and on stored results.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.catalog import StoredResult  # noqa: F401  (re-exported)

#: payload format version, bump when the metric set changes so stale stores
#: are detected instead of silently missing keys (v3 added the measured
#: failure-recovery metrics; v4 the recovery-orchestration metrics:
#: availability, recovery rank-seconds, spare/concurrency counters; v5 the
#: storage-hierarchy metrics: per-tier bytes written/read, partner copies,
#: outages survived, spare refills, survived flag; v6 the telemetry metrics:
#: phase-attributed time breakdowns from the metrics registry and the flat
#: registry snapshot; v7 the elastic-restart metrics: ranks after restart,
#: units migrated, repartition bytes shipped, shrink restarts; v8 the
#: continuous-telemetry series summaries: peak/mean NIC utilization, max
#: inbox depth, peak retained sender-log bytes, storage inflight peak and
#: the sampler bin geometry — empty unless the run was sampled; v9 the
#: payload is exactly the metric catalog: ``rank0_ckpt_end_times`` became
#: ``rank0_checkpoint_end_times`` and the legacy ``breakdown_stages`` /
#: ``breakdown_n_records`` entries are gone)
PAYLOAD_VERSION = 9

#: simulation-kernel schema revision: bump whenever a kernel/network change is
#: *allowed* to alter simulated results (rev 1 = seed coroutine kernel,
#: rev 2 = fast-path kernel — bit-identical by the determinism-parity tests,
#: but stamped so archived stores are traceable to the kernel that filled them)
KERNEL_SCHEMA_REV = 2


def simulator_fingerprint() -> str:
    """Version stamp written into every stored payload.

    Combines the package version with the kernel schema revision; a stored
    row whose stamp differs from the running simulator's is invalidated by
    the campaign executor instead of being served from cache.
    """
    from repro import __version__

    return f"{__version__}+kernel-r{KERNEL_SCHEMA_REV}"


def payload_stamp() -> Dict[str, object]:
    """The payload entries that must match for a stored row to be served."""
    return {"version": PAYLOAD_VERSION, "sim_version": simulator_fingerprint()}


def metrics_payload(result) -> Dict[str, object]:
    """The JSON-safe payload of a live ``ScenarioResult``: the version stamp
    plus every catalog metric."""
    return {**payload_stamp(), **result.metrics}
